// Typed message envelope for the simulated network.
//
// Every payload that crosses SimNetwork is one alternative of a tagged
// variant — the BFT, Nakamoto-gossip and attestation families plus a
// generic `Probe` for tests and examples — so receivers dispatch with
// `std::visit`/`get<T>()` instead of `std::any_cast` guesswork, and the
// compiler enumerates every family a handler must consider.
//
// The body is immutable and held behind a `shared_ptr`: fan-out paths
// (broadcast, gossip flooding) hand the *same* body to every recipient
// instead of deep-copying it per delivery, which is what makes the
// all-to-all BFT phases and ~1 MB gossip blocks cheap to simulate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "attest/wire.h"
#include "bft/messages.h"
#include "crypto/sha256.h"
#include "nakamoto/block.h"

namespace findep::net {

/// Generic payload for tests, microbenchmarks and harness plumbing.
struct Probe {
  std::int64_t value = 0;
  std::string note;
};

/// A flooded overlay item, identified by digest for deduplication. The
/// content is typed: today only Nakamoto blocks flow over gossip; probe
/// items (monostate) exercise the overlay itself.
struct GossipItem {
  crypto::Digest id;
  std::variant<std::monostate, nakamoto::Block> content;
  std::uint64_t bytes = 1024;

  [[nodiscard]] const nakamoto::Block* block() const noexcept {
    return std::get_if<nakamoto::Block>(&content);
  }
};

/// Shared immutable message body: one allocation per *send or broadcast*,
/// never per recipient.
class Envelope {
 public:
  using Body = std::variant<std::monostate, Probe, GossipItem,
                            bft::Envelope, attest::WireMessage>;

  Envelope() = default;

  template <typename T,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<T>, Envelope> &&
                std::is_constructible_v<Body, T&&>>>
  Envelope(T&& body)  // NOLINT(google-explicit-constructor)
      : body_(std::make_shared<const Body>(std::forward<T>(body))) {}

  [[nodiscard]] bool empty() const noexcept { return body_ == nullptr; }

  /// The tagged body; an empty envelope reads as `std::monostate`.
  [[nodiscard]] const Body& body() const noexcept;

  /// Pointer to the alternative of type T, or nullptr.
  template <typename T>
  [[nodiscard]] const T* get() const noexcept {
    return body_ ? std::get_if<T>(body_.get()) : nullptr;
  }

  /// std::visit over the body (monostate when empty).
  template <typename Visitor>
  decltype(auto) visit(Visitor&& visitor) const {
    return std::visit(std::forward<Visitor>(visitor), body());
  }

  /// How many envelopes currently share this body (0 when empty) —
  /// observability for the no-deep-copy broadcast contract.
  [[nodiscard]] long body_use_count() const noexcept {
    return body_ ? body_.use_count() : 0;
  }

 private:
  std::shared_ptr<const Body> body_;
};

/// Human-readable name of the active payload family ("bft", "gossip",
/// "attest", "probe", "empty") for logs and assertions.
[[nodiscard]] const char* family_name(const Envelope& envelope) noexcept;

}  // namespace findep::net
