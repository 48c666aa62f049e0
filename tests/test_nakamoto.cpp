// Nakamoto consensus: block tree, mining race, fork dynamics, attacks,
// mining-pool exposure.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "nakamoto/attack.h"
#include "nakamoto/miner.h"
#include "nakamoto/pools.h"
#include "support/assert.h"

namespace findep::nakamoto {
namespace {

Block child_of(const Block& parent, MinerId miner, std::uint64_t nonce,
               double t = 1.0) {
  Block b;
  b.parent = parent.hash;
  b.height = parent.height + 1;
  b.miner = miner;
  b.mined_at = t;
  b.hash = Block::compute_hash(parent.hash, miner, nonce);
  return b;
}

TEST(BlockTree, StartsAtGenesis) {
  BlockTree tree;
  EXPECT_EQ(tree.tip(0).hash, genesis().hash);
  EXPECT_EQ(tree.tip_height(0), 0u);
  EXPECT_EQ(tree.block_count(0), 0u);
  EXPECT_TRUE(tree.main_chain(0).empty());
}

TEST(BlockTree, ExtendsAndSelectsLongest) {
  BlockTree tree;
  const Block b1 = child_of(genesis(), 0, 1);
  const Block b2 = child_of(b1, 1, 2);
  EXPECT_TRUE(tree.add(0, b1));
  EXPECT_TRUE(tree.add(0, b2));
  EXPECT_EQ(tree.tip(0).hash, b2.hash);
  EXPECT_EQ(tree.tip_height(0), 2u);
  EXPECT_EQ(tree.main_chain(0).size(), 2u);
  EXPECT_TRUE(tree.on_main_chain(0, b1.hash));
}

TEST(BlockTree, RejectsOrphanAndDuplicate) {
  BlockTree tree;
  const Block b1 = child_of(genesis(), 0, 1);
  const Block b2 = child_of(b1, 0, 2);
  EXPECT_FALSE(tree.add(0, b2));  // parent unknown
  EXPECT_TRUE(tree.add(0, b1));
  EXPECT_TRUE(tree.add(0, b2));
  EXPECT_FALSE(tree.add(0, b2));  // duplicate
}

TEST(BlockTree, FirstSeenTieBreak) {
  BlockTree tree;
  const Block a = child_of(genesis(), 0, 1);
  const Block b = child_of(genesis(), 1, 2);
  tree.add(0, a);
  tree.add(0, b);  // same height: tip stays with first seen
  EXPECT_EQ(tree.tip(0).hash, a.hash);
  EXPECT_EQ(tree.stale_count(0), 1u);
  EXPECT_FALSE(tree.on_main_chain(0, b.hash));
}

TEST(BlockTree, ReorgToLongerBranch) {
  BlockTree tree;
  const Block a1 = child_of(genesis(), 0, 1);
  const Block b1 = child_of(genesis(), 1, 2);
  const Block b2 = child_of(b1, 1, 3);
  tree.add(0, a1);
  EXPECT_EQ(tree.reorg_depth(0, a1.hash), 0u);
  tree.add(0, b1);
  EXPECT_EQ(tree.reorg_depth(0, b1.hash), 1u);  // adopting b1 drops a1
  tree.add(0, b2);  // b-branch is longer: automatic reorg
  EXPECT_EQ(tree.tip(0).hash, b2.hash);
  EXPECT_FALSE(tree.on_main_chain(0, a1.hash));
  EXPECT_TRUE(tree.on_main_chain(0, b1.hash));
}

TEST(BlockTree, MinerSharesCountMainChainOnly) {
  BlockTree tree;
  const Block a1 = child_of(genesis(), 7, 1);
  const Block a2 = child_of(a1, 8, 2);
  const Block stale = child_of(genesis(), 9, 3);
  tree.add(0, a1);
  tree.add(0, a2);
  tree.add(0, stale);
  const auto shares = tree.miner_shares(0);
  EXPECT_EQ(shares.at(7), 1u);
  EXPECT_EQ(shares.at(8), 1u);
  EXPECT_FALSE(shares.contains(9));
}

TEST(BlockTree, ViewsAreIndependent) {
  BlockTree tree(2);
  const Block a1 = child_of(genesis(), 0, 1);
  const Block a2 = child_of(a1, 0, 2);
  const Block b1 = child_of(genesis(), 1, 3);

  // A block added through view 0 is stored, but view 1 does not hold it.
  EXPECT_TRUE(tree.add(0, a1));
  EXPECT_TRUE(tree.contains(0, a1.hash));
  EXPECT_FALSE(tree.contains(1, a1.hash));
  EXPECT_EQ(tree.get(a1.hash).hash, a1.hash);

  // View 1 rejects a child whose parent it lacks although the store holds
  // both, and accepts it once the parent is added.
  EXPECT_TRUE(tree.add(0, a2));
  EXPECT_FALSE(tree.add(1, a2));
  EXPECT_FALSE(tree.contains(1, a2.hash));
  EXPECT_EQ(tree.block_count(1), 0u);
  EXPECT_TRUE(tree.add(1, a1));
  EXPECT_TRUE(tree.add(1, a2));
  EXPECT_FALSE(tree.add(1, a2));  // duplicate within view 1
  EXPECT_EQ(tree.tip(1).hash, a2.hash);

  // Competing equal-height blocks in opposite orders: each view keeps the
  // one it saw first.
  const Block c0 = child_of(a2, 0, 4);
  const Block c1 = child_of(a2, 1, 5);
  EXPECT_TRUE(tree.add(0, c0));
  EXPECT_TRUE(tree.add(0, c1));
  EXPECT_TRUE(tree.add(1, c1));
  EXPECT_TRUE(tree.add(1, c0));
  EXPECT_EQ(tree.tip(0).hash, c0.hash);
  EXPECT_EQ(tree.tip(1).hash, c1.hash);
  EXPECT_TRUE(tree.on_main_chain(0, c0.hash));
  EXPECT_FALSE(tree.on_main_chain(1, c0.hash));

  // Counts are per view: only view 0 holds the stale b1.
  EXPECT_TRUE(tree.add(0, b1));
  EXPECT_EQ(tree.block_count(0), 5u);
  EXPECT_EQ(tree.stale_count(0), 2u);
  EXPECT_EQ(tree.block_count(1), 4u);
  EXPECT_EQ(tree.stale_count(1), 1u);
  EXPECT_FALSE(tree.contains(1, b1.hash));
  EXPECT_THROW((void)tree.tip(2), support::ContractViolation);
}

TEST(BlockTree, OneHashOneParent) {
  // The store keeps one block per hash, so a stored hash arriving under
  // another parent is a contract violation, not a second block.
  BlockTree tree(2);
  const Block a1 = child_of(genesis(), 0, 1);
  const Block b1 = child_of(genesis(), 1, 2);
  ASSERT_TRUE(tree.add(0, a1));
  ASSERT_TRUE(tree.add(1, b1));
  Block forged = child_of(b1, 1, 3);
  forged.hash = a1.hash;
  EXPECT_THROW(tree.add(1, forged), support::ContractViolation);
  EXPECT_FALSE(tree.contains(1, a1.hash));
  EXPECT_EQ(tree.block_count(1), 1u);
}

TEST(Sim, ConvergesAcrossViews) {
  // Mining never quiesces, so views may differ at the very tip; they must
  // agree on the chain 6 blocks deep (the standard confirmation depth).
  NakamotoOptions opt;
  opt.mean_block_interval = 30.0;
  opt.network.min_latency = 0.05;
  opt.network.mean_extra_latency = 0.1;
  NakamotoSim sim(std::vector<double>(8, 1.0), opt);
  sim.run_for(3000.0);
  Height min_height = sim.chain().tip_height(0);
  for (MinerId m = 1; m < 8; ++m) {
    min_height = std::min(min_height, sim.chain().tip_height(m));
  }
  ASSERT_GT(min_height, 50u);
  const std::size_t confirmed = static_cast<std::size_t>(min_height) - 6;
  const auto reference = sim.chain().main_chain(0);
  for (MinerId m = 1; m < 8; ++m) {
    const auto chain = sim.chain().main_chain(m);
    EXPECT_EQ(chain[confirmed - 1], reference[confirmed - 1]) << m;
  }
}

TEST(Sim, BlockProductionRateMatchesInterval) {
  NakamotoOptions opt;
  opt.mean_block_interval = 20.0;
  NakamotoSim sim(std::vector<double>(4, 1.0), opt);
  sim.run_for(20000.0);
  // 20000 s / 20 s ≈ 1000 blocks (±20%).
  EXPECT_NEAR(static_cast<double>(sim.blocks_mined()), 1000.0, 200.0);
}

TEST(Sim, MainChainShareTracksHashrate) {
  NakamotoOptions opt;
  opt.mean_block_interval = 10.0;
  opt.seed = 5;
  // One miner with 60% of the power.
  NakamotoSim sim({6.0, 2.0, 1.0, 1.0}, opt);
  sim.run_for(20000.0);
  const ChainStats stats = sim.stats();
  EXPECT_NEAR(stats.miner_main_share[0], 0.6, 0.06);
  EXPECT_NEAR(stats.miner_main_share[1], 0.2, 0.05);
}

TEST(Sim, StaleRateGrowsWithPropagationDelay) {
  const auto stale_rate_for = [](double latency) {
    NakamotoOptions opt;
    opt.mean_block_interval = 12.0;
    opt.network.min_latency = latency;
    opt.network.mean_extra_latency = latency;
    opt.seed = 6;
    NakamotoSim sim(std::vector<double>(10, 1.0), opt);
    sim.run_for(12000.0);
    return sim.stats().stale_rate;
  };
  const double fast = stale_rate_for(0.01);
  const double slow = stale_rate_for(1.5);
  EXPECT_LT(fast, 0.05);
  EXPECT_GT(slow, fast);
}

TEST(Sim, ZeroHashrateMinerNeverMines) {
  NakamotoOptions opt;
  opt.mean_block_interval = 5.0;
  NakamotoSim sim({1.0, 0.0, 1.0}, opt);
  sim.run_for(2000.0);
  EXPECT_DOUBLE_EQ(sim.stats().miner_main_share[1], 0.0);
}

TEST(Attack, ClosedFormKnownValues) {
  // Nakamoto's paper, §11: q = 0.1 needs z = 5 for P < 0.1%; q = 0.3
  // needs z = 24. (Our formula uses the Poisson-corrected version.)
  EXPECT_LT(attack_success_closed_form(0.10, 5), 0.001);
  EXPECT_GE(attack_success_closed_form(0.10, 4), 0.001);
  EXPECT_LT(attack_success_closed_form(0.30, 24), 0.001);
  EXPECT_GE(attack_success_closed_form(0.30, 23), 0.001);
}

TEST(Attack, BoundaryBehaviour) {
  EXPECT_DOUBLE_EQ(attack_success_closed_form(0.0, 6), 0.0);
  EXPECT_DOUBLE_EQ(attack_success_closed_form(0.5, 6), 1.0);
  EXPECT_DOUBLE_EQ(attack_success_closed_form(0.8, 6), 1.0);
  EXPECT_DOUBLE_EQ(attack_success_closed_form(0.2, 0), 1.0);
}

TEST(Attack, MonotoneInHashrateAndConfirmations) {
  double prev = 0.0;
  for (double q : {0.05, 0.1, 0.2, 0.3, 0.4, 0.45}) {
    const double p = attack_success_closed_form(q, 6);
    EXPECT_GT(p, prev);
    prev = p;
  }
  prev = 1.1;
  for (unsigned z : {0u, 1u, 2u, 4u, 8u, 16u}) {
    const double p = attack_success_closed_form(0.25, z);
    EXPECT_LT(p, prev);
    prev = p;
  }
}

TEST(Attack, MonteCarloMatchesClosedForm) {
  support::Rng rng(7);
  for (const auto& [q, z] : std::vector<std::pair<double, unsigned>>{
           {0.1, 2}, {0.2, 3}, {0.3, 4}}) {
    const double closed = attack_success_closed_form(q, z);
    const double mc = attack_success_monte_carlo(q, z, 20000, rng);
    EXPECT_NEAR(mc, closed, 0.02) << "q=" << q << " z=" << z;
  }
}

TEST(Attack, MajorityAlwaysWinsMonteCarlo) {
  support::Rng rng(8);
  EXPECT_DOUBLE_EQ(attack_success_monte_carlo(0.6, 6, 500, rng), 1.0);
}

/// The double-spend race as attack_success_monte_carlo ran it before the
/// walk stepped by a branch-free draw: one rng.chance(q) per block.
double attack_success_by_chance(double q, unsigned z, std::size_t trials,
                                support::Rng& rng, std::size_t max_blocks) {
  if (q == 0.0) return 0.0;
  std::size_t wins = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const double p = 1.0 - q;
    std::int64_t deficit;
    if (q >= 0.5) {
      deficit = 0;
    } else {
      const double lambda = static_cast<double>(z) * q / p;
      deficit = static_cast<std::int64_t>(z) -
                static_cast<std::int64_t>(rng.poisson(lambda));
    }
    bool win = deficit <= 0;
    for (std::size_t step = 0; !win && step < max_blocks; ++step) {
      deficit += rng.chance(q) ? -1 : 1;
      if (deficit <= 0) win = true;
      if (deficit > 256) break;
    }
    if (win) ++wins;
  }
  return static_cast<double>(wins) / static_cast<double>(trials);
}

TEST(Attack, MonteCarloMatchesThePerStepChanceWalk) {
  // z = 300 starts past the 256 bail-out, so a trial takes one step;
  // q = 0 draws nothing and q = 0.5 wins before the first step.
  for (const double q : {0.0, 0.05, 0.1, 0.25, 0.45, 0.5, 0.7}) {
    for (const unsigned z : {0u, 1u, 6u, 300u}) {
      for (const std::size_t max_blocks : {1u, 10u, 4096u}) {
        const std::uint64_t seed = 90 + z + max_blocks;
        support::Rng by_chance(seed), by_draw(seed);
        EXPECT_EQ(attack_success_monte_carlo(q, z, 300, by_draw, max_blocks),
                  attack_success_by_chance(q, z, 300, by_chance, max_blocks))
            << "q=" << q << " z=" << z << " max_blocks=" << max_blocks;
        EXPECT_EQ(by_draw(), by_chance())
            << "q=" << q << " z=" << z << " max_blocks=" << max_blocks;
      }
    }
  }
}

TEST(Attack, ConfirmationsForRisk) {
  EXPECT_EQ(confirmations_for_risk(0.10, 0.001), 5u);
  EXPECT_EQ(confirmations_for_risk(0.30, 0.001), 24u);
  // Unachievable risk for q >= 0.5 saturates at max_z.
  EXPECT_EQ(confirmations_for_risk(0.55, 0.001, 50), 50u);
}

TEST(Pools, Example1LoadsPaperData) {
  const config::ComponentCatalog catalog = config::standard_catalog();
  const PoolSet pools = PoolSet::example1(catalog, true);
  EXPECT_EQ(pools.size(), 17u);
  EXPECT_EQ(pools.get(0).name, "Foundry USA");
  EXPECT_NEAR(pools.total_share_percent(), 99.13, 0.05);
  EXPECT_EQ(pools.as_population().size(), 17u);
  EXPECT_EQ(pools.hashrates().size(), 17u);
}

TEST(Pools, DistinctConfigsExposeOnlyOnePoolPerComponent) {
  const config::ComponentCatalog catalog = config::standard_catalog();
  const PoolSet pools = PoolSet::example1(catalog, true);
  // Best case: any single *configuration* fault = one pool. The largest
  // single-component exposure is bounded by pools sharing a component
  // via the rotation (e.g. TEE variety 4 < 17 pools).
  const auto os0 = pools.get(0).configuration.component(
      config::ComponentKind::kOperatingSystem);
  ASSERT_TRUE(os0.has_value());
  const double exposed = pools.share_exposed_to(*os0);
  // Pools 0, 8, 16 share OS variant 0 (17 pools over 8 OSes).
  EXPECT_GT(exposed, pools.get(0).share_percent / 100.0);
  EXPECT_LT(exposed, 0.5);
}

TEST(Pools, MonoculturePoolsShareEverything) {
  const config::ComponentCatalog catalog = config::monoculture_catalog();
  const PoolSet pools = PoolSet::example1(catalog, false, 3);
  const auto os = pools.get(0).configuration.component(
      config::ComponentKind::kOperatingSystem);
  EXPECT_NEAR(pools.share_exposed_to(*os), 1.0, 1e-9);
}

TEST(Pools, CompromisedShareFeedsAttackMath) {
  // The paper's pipeline: component fault → pool hashrate → double-spend
  // success probability.
  const config::ComponentCatalog catalog = config::standard_catalog();
  const PoolSet pools = PoolSet::example1(catalog, true);
  const auto os0 = pools.get(0).configuration.component(
      config::ComponentKind::kOperatingSystem);
  const double q = pools.share_exposed_to(*os0);
  const double p6 = attack_success_closed_form(q, 6);
  EXPECT_GT(p6, attack_success_closed_form(
                    pools.get(0).share_percent / 100.0, 6));
}

}  // namespace
}  // namespace findep::nakamoto
