// The shared ReplicaOptions validator and the protocol axis parser: one
// validator serves every ordering protocol with the same checks, and
// rejects each misconfiguration with a specific message.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "replication/options.h"
#include "support/assert.h"

namespace findep::replication {
namespace {

/// Runs the validator and returns the ContractViolation message ("" when
/// the options validate).
std::string violation(const ReplicaOptions& options) {
  try {
    validate_replica_options(options);
    return "";
  } catch (const support::ContractViolation& e) {
    return e.what();
  }
}

TEST(ProtocolAxis, ParsesBothProtocolNames) {
  EXPECT_EQ(parse_protocol("pbft"), Protocol::kPbft);
  EXPECT_EQ(parse_protocol("hotstuff"), Protocol::kHotStuff);
  EXPECT_STREQ(protocol_name(Protocol::kPbft), "pbft");
  EXPECT_STREQ(protocol_name(Protocol::kHotStuff), "hotstuff");
}

TEST(ProtocolAxis, RejectsUnknownProtocolWithSpecificMessage) {
  try {
    (void)parse_protocol("raft");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown protocol 'raft' (expected pbft or hotstuff)");
  }
}

TEST(ReplicaOptionsValidator, DefaultsValidate) {
  EXPECT_EQ(violation(ReplicaOptions{}), "");
}

TEST(ReplicaOptionsValidator, RequestTimerMustOutlastTheBatchTimer) {
  // A request timer no longer than the batch timer fires while a partial
  // batch is still waiting to be cut: a spurious view change per lull.
  ReplicaOptions options;
  options.request_timeout = kBatchTimeout;
  EXPECT_NE(violation(options).find(
                "request_timeout must stay strictly above kBatchTimeout"),
            std::string::npos);
}

TEST(ReplicaOptionsValidator, CheckpointIntervalFitsHalfTheWatermarkWindow) {
  // Execution legitimately runs up to an interval ahead of stability, so
  // the window must hold two intervals, and 0 is no interval at all.
  ReplicaOptions options;
  options.checkpoint_interval = kHighWatermarkWindow / 2;
  EXPECT_EQ(violation(options), "");
  for (const std::uint64_t bad : {kHighWatermarkWindow / 2 + 1,
                                  std::uint64_t{0}}) {
    options.checkpoint_interval = bad;
    EXPECT_NE(violation(options).find(
                  "checkpoint_interval must be in [1, kHighWatermarkWindow "
                  "/ 2]"),
              std::string::npos)
        << bad;
  }
}

}  // namespace
}  // namespace findep::replication
