#include "attest/registry.h"

#include <algorithm>

#include "support/assert.h"

namespace findep::attest {

AttestationRegistry::AttestationRegistry(const crypto::KeyRegistry& keys,
                                         crypto::PublicKey authority_root,
                                         std::uint64_t nonce_seed)
    : keys_(&keys),
      authority_root_(authority_root),
      nonce_rng_(nonce_seed) {}

crypto::Digest AttestationRegistry::challenge() {
  crypto::Digest nonce;
  for (std::size_t i = 0; i < nonce.bytes.size(); i += 8) {
    const std::uint64_t word = nonce_rng_();
    for (std::size_t j = 0; j < 8; ++j) {
      nonce.bytes[i + j] = static_cast<std::uint8_t>(word >> (8 * j));
    }
  }
  outstanding_nonces_.insert(nonce);
  return nonce;
}

bool AttestationRegistry::admit(const Quote& q,
                                diversity::VotingPower power) {
  FINDEP_REQUIRE(power >= 0.0);
  const auto nonce_it = outstanding_nonces_.find(q.nonce);
  if (nonce_it == outstanding_nonces_.end()) {
    return false;  // unknown or replayed nonce
  }
  if (!verify_quote(*keys_, authority_root_, q, q.nonce)) {
    return false;
  }
  if (by_vote_key_.contains(q.vote_key)) {
    return false;  // duplicate enrolment for the same vote key
  }
  outstanding_nonces_.erase(nonce_it);  // consume
  by_vote_key_.emplace(q.vote_key, records_.size());
  records_.push_back(RegistryRecord{q.vote_key, q.commitment,
                                    q.endorsement.hardware, power});
  return true;
}

bool AttestationRegistry::is_admitted(
    const crypto::PublicKey& vote_key) const {
  return by_vote_key_.contains(vote_key);
}

crypto::Digest AttestationRegistry::record_leaf(const RegistryRecord& rec) {
  return crypto::Sha256{}
      .update("findep/registry-record/v1")
      .update(rec.vote_key.id.bytes)
      .update(rec.commitment.value.bytes)
      .update_u64(rec.hardware.value)
      .update_u64(static_cast<std::uint64_t>(rec.power * 1e6))
      .finish();
}

crypto::Digest AttestationRegistry::merkle_root() const {
  FINDEP_REQUIRE(!records_.empty());
  std::vector<crypto::Digest> leaves;
  leaves.reserve(records_.size());
  for (const auto& rec : records_) leaves.push_back(record_leaf(rec));
  return crypto::MerkleTree(std::move(leaves)).root();
}

crypto::MerkleProof AttestationRegistry::prove_record(
    std::size_t index) const {
  FINDEP_REQUIRE(index < records_.size());
  std::vector<crypto::Digest> leaves;
  leaves.reserve(records_.size());
  for (const auto& rec : records_) leaves.push_back(record_leaf(rec));
  return crypto::MerkleTree(std::move(leaves)).prove(index);
}

diversity::ConfigDistribution AttestationRegistry::reconstruct_distribution(
    const std::unordered_map<crypto::PublicKey, CommitmentOpening>& openings)
    const {
  diversity::ConfigDistribution dist;
  double unopened_power = 0.0;
  std::size_t unopened_count = 0;
  for (const auto& rec : records_) {
    const auto it = openings.find(rec.vote_key);
    if (it != openings.end() && verify_opening(rec.commitment, it->second)) {
      dist.add(it->second.config_digest, rec.power, 1);
    } else {
      unopened_power += rec.power;
      ++unopened_count;
    }
  }
  if (unopened_power > 0.0) {
    const auto unknown_id = crypto::Sha256{}
                                .update("findep/registry-unopened/v1")
                                .finish();
    dist.add(unknown_id, unopened_power,
             std::max<std::size_t>(1, unopened_count));
  }
  return dist;
}

}  // namespace findep::attest
