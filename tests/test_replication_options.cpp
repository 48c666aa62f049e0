// The shared ReplicaOptions validator and the protocol axis parser: one
// validator serves both ordering protocols, selecting the right
// guardrails per protocol and rejecting each misconfiguration with a
// specific message.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "replication/options.h"
#include "support/assert.h"

namespace findep::replication {
namespace {

/// Runs the validator and returns the ContractViolation message ("" when
/// the options validate).
std::string violation(const ReplicaOptions& options, Protocol protocol) {
  try {
    validate_replica_options(options, protocol);
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

TEST(ReplicaOptionsValidator, DefaultsValidateForBothProtocols) {
  const ReplicaOptions options;
  EXPECT_EQ(violation(options, Protocol::kPbft), "");
  EXPECT_EQ(violation(options, Protocol::kHotStuff), "");
}

TEST(ReplicaOptionsValidator, RejectsShrinkingPacemakerBackoff) {
  ReplicaOptions options;
  options.pacemaker_backoff = 0.5;
  // PBFT ignores the pacemaker knobs entirely; HotStuff rejects them
  // with the why-it-matters message.
  EXPECT_EQ(violation(options, Protocol::kPbft), "");
  EXPECT_NE(violation(options, Protocol::kHotStuff).find(
                "pacemaker_backoff must be >= 1"),
            std::string::npos);
  EXPECT_NE(violation(options, Protocol::kHotStuff).find(
                "shrinking round timeout"),
            std::string::npos);
}

TEST(ReplicaOptionsValidator, BatchTimerMustUndercutTheLivenessTimer) {
  // The same misconfiguration trips a different guardrail per protocol:
  // the batch cut must land before whatever timer triggers a leader
  // change — PBFT's request timer, HotStuff's round timer.
  ReplicaOptions options;
  options.request_timeout = 1.0;
  options.pacemaker_timeout = 2.0;
  options.batch_timeout = 1.5;  // above request_timeout, below pacemaker
  EXPECT_NE(violation(options, Protocol::kPbft).find(
                "batch_timeout must stay strictly below request_timeout"),
            std::string::npos);
  EXPECT_EQ(violation(options, Protocol::kHotStuff), "");

  options.batch_timeout = 2.5;  // now above the round timer too
  EXPECT_NE(violation(options, Protocol::kHotStuff).find(
                "batch_timeout must stay strictly below pacemaker_timeout"),
            std::string::npos);
}

TEST(ReplicaOptionsValidator, RejectsBackoffCapBelowOneStep) {
  ReplicaOptions options;
  options.pacemaker_backoff = 4.0;
  options.pacemaker_max_backoff = 2.0;
  EXPECT_EQ(violation(options, Protocol::kPbft), "");
  EXPECT_NE(violation(options, Protocol::kHotStuff).find(
                "pacemaker_max_backoff must allow at least one backoff "
                "step"),
            std::string::npos);
}

}  // namespace
}  // namespace findep::replication
