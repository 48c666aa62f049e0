#include "nakamoto/block.h"

#include <algorithm>

#include "support/assert.h"

namespace findep::nakamoto {

crypto::Digest Block::compute_hash(const crypto::Digest& parent,
                                   MinerId miner, std::uint64_t nonce) {
  return crypto::Sha256{}
      .update("findep/block/v1")
      .update(parent.bytes)
      .update_u64(miner)
      .update_u64(nonce)
      .finish();
}

const Block& genesis() {
  static const Block g = [] {
    Block b;
    b.hash = crypto::Sha256{}.update("findep/genesis/v1").finish();
    b.parent = crypto::Digest{};
    b.height = 0;
    b.miner = UINT32_MAX;
    b.mined_at = 0.0;
    return b;
  }();
  return g;
}

BlockTree::BlockTree(std::size_t views)
    : blocks_{genesis()}, parent_{0}, held_(views, true), views_(views) {
  index_.emplace(genesis().hash, 0);
}

void BlockTree::require_view(std::size_t view) const {
  FINDEP_REQUIRE_MSG(view < views_.size(), "unknown view");
}

std::optional<std::uint32_t> BlockTree::held(
    std::size_t view, const crypto::Digest& hash) const {
  const auto it = index_.find(hash);
  if (it == index_.end() || !holds(view, it->second)) return std::nullopt;
  return it->second;
}

bool BlockTree::add(std::size_t view, const Block& block) {
  require_view(view);
  const auto stored = index_.find(block.hash);
  if (stored != index_.end() && holds(view, stored->second)) return false;
  const std::optional<std::uint32_t> parent = held(view, block.parent);
  if (!parent) return false;
  FINDEP_REQUIRE_MSG(block.height == blocks_[*parent].height + 1,
                     "block height must be parent height + 1");
  std::uint32_t at = 0;
  if (stored != index_.end()) {
    at = stored->second;
    FINDEP_REQUIRE_MSG(parent_[at] == *parent,
                       "one block hash with two parents");
  } else {
    // `block` is not in the store, so growing it cannot move `block`.
    at = static_cast<std::uint32_t>(blocks_.size());
    blocks_.push_back(block);
    parent_.push_back(*parent);
    held_.resize(held_.size() + views_.size());
    index_.emplace(block.hash, at);
  }
  held_[at * views_.size() + view] = true;
  View& v = views_[view];
  ++v.blocks;
  // Longest-chain rule; strictly-greater keeps the first-seen tip on ties.
  if (block.height > blocks_[v.tip].height) v.tip = at;
  return true;
}

bool BlockTree::contains(std::size_t view,
                         const crypto::Digest& hash) const {
  require_view(view);
  return held(view, hash).has_value();
}

const Block& BlockTree::get(const crypto::Digest& hash) const {
  const auto it = index_.find(hash);
  FINDEP_REQUIRE_MSG(it != index_.end(), "unknown block");
  return blocks_[it->second];
}

const Block& BlockTree::tip(std::size_t view) const {
  require_view(view);
  return blocks_[views_[view].tip];
}

std::size_t BlockTree::block_count(std::size_t view) const {
  require_view(view);
  return views_[view].blocks;
}

std::vector<crypto::Digest> BlockTree::main_chain(std::size_t view) const {
  std::vector<crypto::Digest> chain;
  chain.reserve(tip_height(view));
  for (std::uint32_t at = views_[view].tip; at != 0; at = parent_[at]) {
    chain.push_back(blocks_[at].hash);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

bool BlockTree::on_main_chain(std::size_t view,
                              const crypto::Digest& hash) const {
  require_view(view);
  const std::optional<std::uint32_t> at = held(view, hash);
  if (!at) return false;
  // Walk down from the tip to the block's height.
  std::uint32_t cursor = views_[view].tip;
  while (blocks_[cursor].height > blocks_[*at].height) {
    cursor = parent_[cursor];
  }
  return cursor == *at;
}

std::unordered_map<MinerId, std::size_t> BlockTree::miner_shares(
    std::size_t view) const {
  require_view(view);
  std::unordered_map<MinerId, std::size_t> shares;
  for (std::uint32_t at = views_[view].tip; at != 0; at = parent_[at]) {
    ++shares[blocks_[at].miner];
  }
  return shares;
}

Height BlockTree::reorg_depth(std::size_t view,
                              const crypto::Digest& candidate_tip) const {
  require_view(view);
  const std::uint32_t tip_at = views_[view].tip;
  const std::optional<std::uint32_t> candidate = held(view, candidate_tip);
  FINDEP_REQUIRE(candidate.has_value());
  const auto height = [this](std::uint32_t at) { return blocks_[at].height; };
  // Find the fork point between the main chain and the candidate branch.
  std::uint32_t a = tip_at;
  std::uint32_t b = *candidate;
  while (height(a) > height(b)) a = parent_[a];
  while (height(b) > height(a)) b = parent_[b];
  Height depth = 0;
  while (a != b) {
    a = parent_[a];
    b = parent_[b];
    ++depth;
  }
  // Depth counted from the current tip down to the fork point.
  return depth == 0 ? 0 : height(tip_at) - height(a);
}

}  // namespace findep::nakamoto
