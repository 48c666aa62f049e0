#include "diversity/datasets.h"

#include <array>

#include "diversity/metrics.h"
#include "support/assert.h"

namespace findep::diversity::datasets {

namespace {

// Example 1, §IV-B (blockchain.com pool chart, 2023-02-02, 7-day avg).
constexpr std::array<double, kBitcoinPoolCount> kPoolShares = {
    34.239, 19.981, 12.997, 11.348, 8.826, 2.619, 2.037, 1.649, 1.358,
    1.261,  0.78,   0.68,   0.68,   0.39,  0.10,  0.10,  0.10};

constexpr std::array<std::string_view, kBitcoinPoolCount> kPoolNames = {
    "Foundry USA", "AntPool",  "F2Pool",  "Binance Pool", "ViaBTC",
    "Braiins Pool", "BTC.com", "Poolin",  "Luxor",        "SBI Crypto",
    "pool-11",      "pool-12", "pool-13", "pool-14",      "pool-15",
    "pool-16",      "pool-17"};

config::ConfigurationId pool_id(std::uint64_t index) {
  return crypto::Sha256{}
      .update("findep/bitcoin-pool/v1")
      .update_u64(index)
      .finish();
}

config::ConfigurationId residual_id(std::uint64_t index) {
  return crypto::Sha256{}
      .update("findep/bitcoin-residual-miner/v1")
      .update_u64(index)
      .finish();
}

}  // namespace

std::span<const double> bitcoin_pool_shares_percent() {
  return kPoolShares;
}

std::span<const std::string_view> bitcoin_pool_names() { return kPoolNames; }

double bitcoin_residual_percent() {
  double sum = 0.0;
  for (const double s : kPoolShares) sum += s;
  return 100.0 - sum;
}

ConfigDistribution bitcoin_best_case_distribution(
    std::size_t residual_miners) {
  FINDEP_REQUIRE(residual_miners >= 1);
  ConfigDistribution dist;
  dist.reserve(kPoolShares.size() + residual_miners);
  // Best case (as in the paper): every pool has a unique configuration.
  for (std::size_t i = 0; i < kPoolShares.size(); ++i) {
    dist.add(pool_id(i), kPoolShares[i], 1);
  }
  const double residual_each =
      bitcoin_residual_percent() / static_cast<double>(residual_miners);
  for (std::size_t i = 0; i < residual_miners; ++i) {
    dist.add(residual_id(i), residual_each, 1);
  }
  return dist;
}

std::vector<double> figure1_entropy_series(std::size_t max_miners) {
  FINDEP_REQUIRE(max_miners >= 1);
  std::vector<double> series;
  series.reserve(max_miners);
  // H(x) = H(pools ∪ uniform residual). Computing it incrementally from
  // the closed form avoids rebuilding the distribution per x:
  //   H(x) = H_pools_part + r·log2(x/r_each(x)) where r is the residual
  // fraction; we just evaluate the definition directly on the share
  // vector, which is O(k + x) per point but still instant at x ≤ 1000.
  for (std::size_t x = 1; x <= max_miners; ++x) {
    series.push_back(shannon_entropy(bitcoin_best_case_distribution(x)));
  }
  return series;
}

}  // namespace findep::diversity::datasets
