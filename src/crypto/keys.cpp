#include "crypto/keys.h"

#include <atomic>

#include "support/assert.h"
#include "support/rng.h"

namespace findep::crypto {

namespace {
constexpr std::string_view kPublicKeyDomain = "findep/pubkey/v1";
constexpr std::string_view kSignatureDomain = "findep/sig/v1";

Digest signing_key(const Digest& secret) {
  // Domain-separate signing from other HMAC uses of the same secret.
  return Sha256{}.update(kSignatureDomain).update(secret.bytes).finish();
}

std::atomic<std::uint32_t> g_last_registry_id{0};

std::uint32_t next_registry_id() {
  std::uint32_t id = 0;
  while (id == 0) {
    id = g_last_registry_id.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  return id;
}
}  // namespace

KeyPair::KeyPair(const Digest& secret)
    : secret_(secret),
      pub_{Sha256{}.update(kPublicKeyDomain).update(secret.bytes).finish()},
      signer_(signing_key(secret).bytes) {}

KeyPair KeyPair::generate(support::Rng& rng) {
  Digest secret;
  for (std::size_t i = 0; i < secret.bytes.size(); i += 8) {
    const std::uint64_t word = rng();
    for (std::size_t j = 0; j < 8; ++j) {
      secret.bytes[i + j] = static_cast<std::uint8_t>(word >> (8 * j));
    }
  }
  return KeyPair{secret};
}

KeyPair KeyPair::derive(std::uint64_t seed) {
  return KeyPair{
      Sha256{}.update("findep/keyseed/v1").update_u64(seed).finish()};
}

Signature KeyPair::sign(std::span<const std::uint8_t> message) const {
  return Signature{signer_.mac(message)};
}

Signature KeyPair::sign(std::string_view message) const {
  return sign(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(message.data()),
      message.size()));
}

Signature KeyPair::sign(const Digest& message) const {
  return sign(std::span<const std::uint8_t>(message.bytes));
}

KeyRegistry::KeyRegistry() : id_(next_registry_id()) {}

bool KeyRegistry::enroll(const KeyPair& keys) {
  const auto [it, inserted] = keys_.try_emplace(keys.public_key().id, keys);
  return inserted ||
         it->second.secret_for_oracle() == keys.secret_for_oracle();
}

bool KeyRegistry::is_enrolled(const PublicKey& pub) const {
  return keys_.contains(pub.id);
}

std::optional<Digest> KeyRegistry::oracle_secret(const PublicKey& pub) const {
  const auto it = keys_.find(pub.id);
  if (it == keys_.end()) return std::nullopt;
  return it->second.secret_for_oracle();
}

bool KeyRegistry::verify(const PublicKey& pub,
                         std::span<const std::uint8_t> message,
                         const Signature& sig) const {
  const auto it = keys_.find(pub.id);
  if (it == keys_.end()) return false;
  return it->second.sign(message) == sig;
}

bool KeyRegistry::verify(const PublicKey& pub, std::string_view message,
                         const Signature& sig) const {
  return verify(pub,
                std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(message.data()),
                    message.size()),
                sig);
}

bool KeyRegistry::verify(const PublicKey& pub, const Digest& message,
                         const Signature& sig) const {
  return verify(pub, std::span<const std::uint8_t>(message.bytes), sig);
}

}  // namespace findep::crypto
