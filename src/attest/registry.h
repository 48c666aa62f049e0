// The verifier-side attestation registry: configuration discovery for
// permissionless populations (§III-B, Challenge 1).
//
// The registry runs challenge–response attestation with joining replicas,
// records (vote key → commitment, voting power), and can publish a Merkle
// root over its records so third parties can audit individual entries
// without downloading the registry. Auditors holding commitment openings
// can reconstruct the *configuration distribution* — the exact input the
// diversity core consumes — without the registry ever storing plaintext
// configurations (privacy, Remark 3).
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "attest/quote.h"
#include "crypto/merkle.h"
#include "diversity/analyzer.h"
#include "diversity/distribution.h"
#include "support/rng.h"

namespace findep::attest {

/// One attested registry record.
struct RegistryRecord {
  crypto::PublicKey vote_key;
  ConfigCommitment commitment;
  config::ComponentId hardware;
  diversity::VotingPower power = 0.0;
};

class AttestationRegistry {
 public:
  AttestationRegistry(const crypto::KeyRegistry& keys,
                      crypto::PublicKey authority_root,
                      std::uint64_t nonce_seed = 0x5eed);

  /// Step 1: verifier issues a fresh challenge nonce for a joining replica.
  [[nodiscard]] crypto::Digest challenge();

  /// Step 2: replica answers with a quote; the registry verifies it
  /// (endorsement chain, signature, nonce freshness — each nonce is
  /// accepted once) and records the entry with the claimed voting power.
  /// Returns false (and records nothing) on any verification failure.
  bool admit(const Quote& q, diversity::VotingPower power);

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] const std::vector<RegistryRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] bool is_admitted(const crypto::PublicKey& vote_key) const;

  /// Merkle root over the records (for publication). Requires size() > 0.
  [[nodiscard]] crypto::Digest merkle_root() const;
  /// Inclusion proof for record `index` against merkle_root().
  [[nodiscard]] crypto::MerkleProof prove_record(std::size_t index) const;
  /// Leaf digest of a record (what the proofs commit to).
  [[nodiscard]] static crypto::Digest record_leaf(const RegistryRecord& rec);

  /// Auditor path: given openings (vote key → opening), reconstructs the
  /// configuration distribution of all records whose opening verifies.
  /// Records without a valid opening are aggregated into one correlated
  /// "unopened" configuration (worst case), mirroring TwoTierPolicy.
  [[nodiscard]] diversity::ConfigDistribution reconstruct_distribution(
      const std::unordered_map<crypto::PublicKey, CommitmentOpening>&
          openings) const;

 private:
  const crypto::KeyRegistry* keys_;
  crypto::PublicKey authority_root_;
  support::Rng nonce_rng_;
  std::unordered_set<crypto::Digest> outstanding_nonces_;
  std::vector<RegistryRecord> records_;
  std::unordered_map<crypto::PublicKey, std::size_t> by_vote_key_;
};

}  // namespace findep::attest
