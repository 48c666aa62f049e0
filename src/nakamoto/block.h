// Blocks and the block tree (fork-aware chain state).
//
// A `BlockTree` is the one block store of a Nakamoto simulation: each
// block is stored once, with its parent's index, and each node is a
// *view* of the store — the blocks it has seen (one bit per block), its
// longest-chain tip (first-seen tie-break, as Bitcoin Core implements)
// and its fork accounting. Stale-block rate as a function of propagation
// delay is one of the substrate benchmarks backing the paper's
// performance-vs-ω trade-off discussion.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/sha256.h"
#include "net/types.h"

namespace findep::nakamoto {

using MinerId = net::NodeId;
using Height = std::uint64_t;

struct Block {
  crypto::Digest hash;
  crypto::Digest parent;
  Height height = 0;  // genesis = 0
  MinerId miner = 0;
  double mined_at = 0.0;

  [[nodiscard]] static crypto::Digest compute_hash(
      const crypto::Digest& parent, MinerId miner, std::uint64_t nonce);
};

/// The unique genesis block shared by every tree.
[[nodiscard]] const Block& genesis();

class BlockTree {
 public:
  /// A store holding only genesis, which every one of `views` views holds.
  explicit BlockTree(std::size_t views = 1);

  /// Adds a block to `view`, storing it once if no view has added it yet.
  /// Returns false (changing nothing) when the view already holds the
  /// block or lacks its parent, even if the store holds the block. A
  /// stored hash arriving under another parent is a contract violation.
  bool add(std::size_t view, const Block& block);

  [[nodiscard]] bool contains(std::size_t view,
                              const crypto::Digest& hash) const;
  /// A stored block, whichever view added it.
  [[nodiscard]] const Block& get(const crypto::Digest& hash) const;

  /// The view's longest-chain tip; ties broken by first arrival. The
  /// reference is into the store and dies with the next stored block.
  [[nodiscard]] const Block& tip(std::size_t view) const;
  [[nodiscard]] Height tip_height(std::size_t view) const {
    return tip(view).height;
  }

  /// Non-genesis blocks the view holds.
  [[nodiscard]] std::size_t block_count(std::size_t view) const;

  /// Blocks the view holds off its main chain (stale/orphaned work).
  [[nodiscard]] std::size_t stale_count(std::size_t view) const {
    return block_count(view) - tip_height(view);
  }

  /// The view's main chain from genesis (exclusive) to the tip (inclusive).
  [[nodiscard]] std::vector<crypto::Digest> main_chain(std::size_t view) const;

  /// True when the view holds `hash` on its main chain.
  [[nodiscard]] bool on_main_chain(std::size_t view,
                                   const crypto::Digest& hash) const;

  /// Number of main-chain blocks mined by each miner, in the view.
  [[nodiscard]] std::unordered_map<MinerId, std::size_t> miner_shares(
      std::size_t view) const;

  /// Depth of the reorg that adopting `candidate_tip` (a block the view
  /// holds) over the view's tip would cause (0 when it extends the main
  /// chain).
  [[nodiscard]] Height reorg_depth(std::size_t view,
                                   const crypto::Digest& candidate_tip) const;

 private:
  struct View {
    std::uint32_t tip = 0;   ///< store index of the tip
    std::size_t blocks = 0;  ///< non-genesis blocks held
  };

  /// Throws ContractViolation unless `view` names one of the views.
  void require_view(std::size_t view) const;
  /// Store index of `hash` when `view` holds it.
  [[nodiscard]] std::optional<std::uint32_t> held(
      std::size_t view, const crypto::Digest& hash) const;
  [[nodiscard]] bool holds(std::size_t view, std::uint32_t at) const {
    return held_[at * views_.size() + view];
  }

  /// Blocks, genesis first, in the order they were first added.
  std::vector<Block> blocks_;
  /// Store index of each block's parent (genesis: itself).
  std::vector<std::uint32_t> parent_;
  /// Block hash -> store index (probed, never iterated).
  std::unordered_map<crypto::Digest, std::uint32_t> index_;
  /// One bit per (block, view), at block * views + view.
  std::vector<bool> held_;
  std::vector<View> views_;
};

}  // namespace findep::nakamoto
