#include "nakamoto/miner.h"

#include <algorithm>

#include "support/assert.h"

namespace findep::nakamoto {

NakamotoSim::NakamotoSim(std::vector<double> hashrates,
                         NakamotoOptions options)
    : hashrates_(std::move(hashrates)),
      options_(options),
      rng_(options.seed),
      chain_(hashrates_.size()) {
  FINDEP_REQUIRE(!hashrates_.empty());
  FINDEP_REQUIRE(options_.mean_block_interval > 0.0);
  for (const double h : hashrates_) {
    FINDEP_REQUIRE(h >= 0.0);
    total_hashrate_ += h;
  }
  FINDEP_REQUIRE_MSG(total_hashrate_ > 0.0, "no mining power");

  net::NetworkOptions net_options = options_.network;
  net_options.seed = support::mix64(options_.seed ^ 0x6d696e65);
  network_ = std::make_unique<net::SimNetwork>(sim_, net_options);

  std::vector<net::NodeId> nodes;
  nodes.reserve(hashrates_.size());
  orphans_.resize(hashrates_.size());
  for (MinerId m = 0; m < hashrates_.size(); ++m) nodes.push_back(m);

  gossip_ = std::make_unique<net::GossipOverlay>(
      *network_, nodes, options_.gossip_degree,
      support::mix64(options_.seed ^ 0x676f7353),
      [this](net::NodeId node, const net::GossipItem& item) {
        const Block* block = item.block();
        FINDEP_ASSERT(block != nullptr);
        on_block(node, *block);
      });

  for (MinerId m = 0; m < hashrates_.size(); ++m) {
    schedule_next_find(m);
  }
}

void NakamotoSim::schedule_next_find(MinerId miner) {
  if (hashrates_[miner] <= 0.0) return;
  const double rate =
      hashrates_[miner] / total_hashrate_ / options_.mean_block_interval;
  const double delay = rng_.exponential(rate);
  sim_.schedule_after(delay, [this, miner] { on_found(miner); });
}

void NakamotoSim::on_found(MinerId miner) {
  // Extend the miner's current best tip (decided at find time — the
  // exponential race is memoryless, so this is exactly the honest
  // strategy). The tip lives in the store, which publishing the new
  // block grows, so copy what is needed from it first.
  Block block;
  {
    const Block& parent = chain_.tip(miner);
    block.parent = parent.hash;
    block.height = parent.height + 1;
  }
  block.miner = miner;
  block.mined_at = sim_.now();
  block.hash = Block::compute_hash(block.parent, miner, nonce_++);

  net::GossipItem item;
  item.id = block.hash;
  item.content = block;
  item.bytes = 1'000'000;  // ~1 MB block
  gossip_->publish(miner, std::move(item));

  schedule_next_find(miner);
}

void NakamotoSim::on_block(MinerId miner, const Block& block) {
  if (!chain_.add(miner, block)) {
    if (!chain_.contains(miner, block.hash)) {
      orphans_[miner].push_back(block);  // parent not yet seen
    }
    return;
  }
  // Drain any orphans now connectable (repeat until fixpoint).
  bool progress = true;
  while (progress) {
    progress = false;
    auto& pool = orphans_[miner];
    for (std::size_t i = 0; i < pool.size();) {
      if (chain_.add(miner, pool[i])) {
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
        progress = true;
      } else if (chain_.contains(miner, pool[i].hash)) {
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
}

void NakamotoSim::run_for(double duration) {
  sim_.run_until(sim_.now() + duration);
}

ChainStats NakamotoSim::stats() const {
  constexpr MinerId kObserver = 0;
  ChainStats out;
  out.main_chain_height = chain_.tip_height(kObserver);
  out.total_blocks = chain_.block_count(kObserver);
  out.stale_blocks = chain_.stale_count(kObserver);
  out.stale_rate =
      out.total_blocks == 0
          ? 0.0
          : static_cast<double>(out.stale_blocks) /
                static_cast<double>(out.total_blocks);
  out.miner_main_share.assign(hashrates_.size(), 0.0);
  if (out.main_chain_height == 0) return out;
  // Count each miner's main-chain blocks (exact in a double), then divide.
  for (const crypto::Digest& hash : chain_.main_chain(kObserver)) {
    out.miner_main_share[chain_.get(hash).miner] += 1.0;
  }
  for (double& share : out.miner_main_share) {
    share /= static_cast<double>(out.main_chain_height);
  }
  return out;
}

}  // namespace findep::nakamoto
