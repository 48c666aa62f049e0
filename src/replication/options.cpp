#include "replication/options.h"

#include <stdexcept>

#include "support/assert.h"

namespace findep::replication {

Protocol parse_protocol(const std::string& name) {
  if (name == "pbft") return Protocol::kPbft;
  if (name == "hotstuff") return Protocol::kHotStuff;
  throw std::invalid_argument("unknown protocol '" + name +
                              "' (expected pbft or hotstuff)");
}

const char* protocol_name(Protocol protocol) noexcept {
  switch (protocol) {
    case Protocol::kPbft:
      return "pbft";
    case Protocol::kHotStuff:
      return "hotstuff";
  }
  return "?";
}

void validate_replica_options(const ReplicaOptions& options) {
  FINDEP_REQUIRE_MSG(
      options.request_timeout > kBatchTimeout,
      "request_timeout must stay strictly above kBatchTimeout: a partial "
      "batch waiting out a slower batch timer lets the backups' request "
      "timers fire first, costing a spurious view change per lull");
  FINDEP_REQUIRE_MSG(options.view_change_timeout > 0.0,
                     "view_change_timeout must be positive");
  FINDEP_REQUIRE_MSG(
      options.checkpoint_interval >= 1 &&
          options.checkpoint_interval <= kHighWatermarkWindow / 2,
      "checkpoint_interval must be in [1, kHighWatermarkWindow / 2]: 0 "
      "would re-checkpoint on every execution, and since execution "
      "legitimately runs up to an interval ahead of stability, a longer "
      "interval would let the watermark throttle a healthy primary");
  FINDEP_REQUIRE_MSG(options.batch_size >= 1, "batch_size must be >= 1");
  FINDEP_REQUIRE_MSG(options.crypto_workers >= 1,
                     "crypto_workers must be >= 1");
}

}  // namespace findep::replication
