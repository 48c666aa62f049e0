// Simulation-grade digital signatures with an explicit PKI model.
//
// The protocols in findep need the *interface contract* of signatures —
// unforgeability without the secret key, binding of votes to identities —
// not number-theoretic hardness. We therefore model signing as
// HMAC-SHA256 under the secret key and model the "mathematics" of public
// verification as an explicit `KeyRegistry` oracle mapping public keys to
// verification material. This keeps every protocol message byte-exact and
// deterministic while the faults library separately models *implementation*
// flaws (e.g. a broken crypto library leaking keys), exactly the split the
// paper's adversary model makes (§II-B).
//
// Not suitable for production cryptography, by design.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace findep::support {
class Rng;
}

namespace findep::crypto {

/// Public identity of a signer (digest of its secret seed).
struct PublicKey {
  Digest id;

  auto operator<=>(const PublicKey&) const = default;
  [[nodiscard]] std::string to_hex() const { return id.to_hex(); }
};

/// Detached signature tag.
struct Signature {
  Digest tag;

  bool operator==(const Signature&) const = default;
};

/// Signing key. Copyable (replicas hand keys to TEEs in the attestation
/// model) but the secret never appears in protocol messages.
class KeyPair {
 public:
  /// Generates a key pair from the simulation RNG.
  [[nodiscard]] static KeyPair generate(support::Rng& rng);

  /// Deterministic derivation from a seed — convenient for assigning one
  /// key per node id in large simulations.
  [[nodiscard]] static KeyPair derive(std::uint64_t seed);

  [[nodiscard]] const PublicKey& public_key() const noexcept { return pub_; }

  [[nodiscard]] Signature sign(std::span<const std::uint8_t> message) const;
  [[nodiscard]] Signature sign(std::string_view message) const;
  [[nodiscard]] Signature sign(const Digest& message) const;

  /// Exposes the secret seed to the key registry and the VRF; protocol
  /// code has no reason to call this.
  [[nodiscard]] const Digest& secret_for_oracle() const noexcept {
    return secret_;
  }

 private:
  explicit KeyPair(const Digest& secret);

  Digest secret_;
  PublicKey pub_;
  /// HMAC schedule of the domain-separated signing key, derived once.
  HmacKey signer_;
};

/// The verification oracle standing in for public-key mathematics. Every
/// simulation owns one registry; verification succeeds iff the signature
/// was produced by the registered key for that public key.
///
/// A registry only grows: nothing removes a key, and a public key never
/// changes secret. So once it accepts a signature it accepts it for the
/// rest of its life, which lets `bft::verify_envelope` remember the
/// acceptance under id(). Not copyable or movable: a copy that kept the
/// id would share those verdicts after the two key sets diverged.
class KeyRegistry {
 public:
  KeyRegistry();
  KeyRegistry(const KeyRegistry&) = delete;
  KeyRegistry& operator=(const KeyRegistry&) = delete;

  /// Nonzero and unique among the registries of this process (it would
  /// take 2^32 constructions to wrap).
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

  /// Registers a key pair; idempotent for the same pair. Returns false if
  /// a *different* secret was already registered under the public key
  /// (which would indicate a broken test setup).
  bool enroll(const KeyPair& keys);

  [[nodiscard]] bool is_enrolled(const PublicKey& pub) const;

  [[nodiscard]] bool verify(const PublicKey& pub,
                            std::span<const std::uint8_t> message,
                            const Signature& sig) const;
  [[nodiscard]] bool verify(const PublicKey& pub, std::string_view message,
                            const Signature& sig) const;
  [[nodiscard]] bool verify(const PublicKey& pub, const Digest& message,
                            const Signature& sig) const;

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

  /// Oracle-only accessor used by the VRF to model output *uniqueness*
  /// (a real VRF proof pins the output; here the oracle recomputes it).
  /// Protocol code must never consult this.
  [[nodiscard]] std::optional<Digest> oracle_secret(
      const PublicKey& pub) const;

 private:
  std::uint32_t id_;
  /// pub id -> the enrolled pair; verification re-signs with its
  /// precomputed HMAC schedule.
  std::unordered_map<Digest, KeyPair> keys_;
};

}  // namespace findep::crypto

template <>
struct std::hash<findep::crypto::PublicKey> {
  std::size_t operator()(const findep::crypto::PublicKey& k) const noexcept {
    return std::hash<findep::crypto::Digest>{}(k.id);
  }
};
