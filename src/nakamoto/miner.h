// The Nakamoto-consensus network simulator.
//
// Mining is a Poisson race: miner i with hashrate share s_i finds its next
// block after Exp(mean_block_interval / s_i) seconds, always extending the
// longest chain it currently knows (honest policy). Blocks propagate over
// the gossip overlay; the stale/fork rate emerges from the propagation
// delay relative to the block interval, matching the classic analysis.
//
// The paper's voting-power abstraction (§II-A) maps hashrate shares
// straight onto the configuration distribution: `hashrates[i]` is both
// miner i's mining power and its voting power in the diversity analysis.
#pragma once

#include <memory>
#include <vector>

#include "nakamoto/block.h"
#include "net/gossip.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace findep::nakamoto {

struct NakamotoOptions {
  /// Network-wide expected time between blocks (Bitcoin: 600 s).
  double mean_block_interval = 600.0;
  /// Gossip overlay degree.
  std::size_t gossip_degree = 4;
  net::NetworkOptions network;
  std::uint64_t seed = 2023;
};

/// Aggregate statistics from an observer's point of view.
struct ChainStats {
  Height main_chain_height = 0;
  std::size_t total_blocks = 0;
  std::size_t stale_blocks = 0;
  double stale_rate = 0.0;  // stale / total
  /// Main-chain block share per miner (index = miner id); sums to 1.
  std::vector<double> miner_main_share;
};

/// Simulates honest Nakamoto consensus among weighted miners.
class NakamotoSim {
 public:
  /// `hashrates` need not be normalized; relative values matter.
  NakamotoSim(std::vector<double> hashrates, NakamotoOptions options);

  /// Runs the mining race for `duration` simulated seconds.
  void run_for(double duration);

  [[nodiscard]] std::size_t miner_count() const noexcept {
    return hashrates_.size();
  }
  /// The block store; miner m's local chain is view m.
  [[nodiscard]] const BlockTree& chain() const noexcept { return chain_; }
  /// Stats from miner 0's view (all views converge after propagation).
  [[nodiscard]] ChainStats stats() const;
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] net::SimNetwork& network() noexcept { return *network_; }

  /// Total blocks mined by anyone (including stale).
  [[nodiscard]] std::uint64_t blocks_mined() const noexcept {
    return nonce_;
  }

 private:
  void schedule_next_find(MinerId miner);
  void on_found(MinerId miner);
  void on_block(MinerId miner, const Block& block);

  std::vector<double> hashrates_;
  double total_hashrate_ = 0.0;
  NakamotoOptions options_;
  sim::Simulator sim_;
  std::unique_ptr<net::SimNetwork> network_;
  std::unique_ptr<net::GossipOverlay> gossip_;
  support::Rng rng_;
  /// One store, one view per miner.
  BlockTree chain_;
  /// Blocks whose parent was unknown on arrival, retried on next receipt.
  std::vector<std::vector<Block>> orphans_;
  std::uint64_t nonce_ = 0;
};

}  // namespace findep::nakamoto
