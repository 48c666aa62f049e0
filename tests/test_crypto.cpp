// SHA-256 / HMAC against official vectors; simulated signatures and VRF.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/cost.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "crypto/sha256_compress.h"
#include "crypto/vrf.h"
#include "support/assert.h"
#include "support/rng.h"

namespace findep::crypto {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

// --- SHA-256 (FIPS 180-4 / NIST CAVP vectors) -------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(sha256("").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(sha256("abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
                .to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: exercises the padding path that adds a full extra block.
  const std::string block(64, 'a');
  EXPECT_EQ(sha256(block).to_hex(),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finish().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), sha256(msg)) << "split=" << split;
  }

  // 4 KiB + 17 bytes reaches the whole-block run path: one update hands
  // all 64 full blocks to one compression call. Pinned to the value
  // Python's hashlib gives.
  std::vector<std::uint8_t> big(4096 + 17);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const Digest one_shot = sha256(big);
  EXPECT_EQ(one_shot.to_hex(),
            "2cae9d09464ce822402ac6dd461198fccb3f89333425e4504ef55f31409bcc93");

  // From each offset 1-15 into a heap buffer, which operator new aligns
  // to 16 bytes: the compression must load blocks unaligned.
  std::vector<std::uint8_t> shifted(big.size() + 16);
  for (std::size_t offset = 1; offset < 16; ++offset) {
    std::copy(big.begin(), big.end(), shifted.begin() + offset);
    EXPECT_EQ(sha256(std::span<const std::uint8_t>(shifted).subspan(
                  offset, big.size())),
              one_shot)
        << "offset=" << offset;
  }

  // In pieces that fill the block buffer byte by byte, stop one short of
  // a block, match it, or overrun it into a run.
  for (const std::size_t piece : {1U, 63U, 64U, 65U}) {
    Sha256 h;
    for (std::size_t at = 0; at < big.size(); at += piece) {
      h.update(std::span<const std::uint8_t>(big).subspan(
          at, std::min(piece, big.size() - at)));
    }
    EXPECT_EQ(h.finish(), one_shot) << "piece=" << piece;
  }
}

TEST(Sha256, EveryPaddingBoundary) {
  // Lengths 0..129 cover each way the padding can fall: a last-block
  // tail of up to 55 bytes (0x80 and the length fit beside it), a tail
  // of 56..63 (they spill into an extra block), and exact block
  // multiples. The fold of all 130 digests is pinned to the value
  // Python's hashlib gives.
  Sha256 fold;
  for (std::size_t n = 0; n < 130; ++n) {
    std::vector<std::uint8_t> msg(n);
    for (std::size_t i = 0; i < n; ++i) {
      msg[i] = static_cast<std::uint8_t>(i * 7 + n);
    }
    fold.update(sha256(msg).bytes);
  }
  EXPECT_EQ(fold.finish().to_hex(),
            "f0a356ea9e6f1782f5f990ba58676d20f035df61db3b6545e977112d486331c9");
}

TEST(Sha256, ShaNiCompressionMatchesPortable) {
  // The vectors above run through whichever compression CPUID selects.
  // The compression is a pure function of state and blocks, so agreement
  // here lets them vouch for the other one too. Without this test an
  // SHA-NI host never runs the portable code other CPUs depend on.
#if defined(__x86_64__)
  using sha256_internal::State;
  if (!sha256_internal::cpu_has_sha_ni()) {
    GTEST_SKIP() << "CPUID lacks SHA, SSE4.1 or SSSE3: no SHA-NI compression "
                    "to compare with the portable one";
  }
  std::array<std::uint8_t, 4 * 64> blocks{};
  const auto check = [&blocks](const State& start, std::size_t n) {
    State portable = start;
    State sha_ni = start;
    sha256_internal::compress_portable(portable, blocks.data(), n);
    sha256_internal::compress_sha_ni(sha_ni, blocks.data(), n);
    if (portable == sha_ni) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << n << " block(s) from state " << ::testing::PrintToString(start)
           << ": portable " << ::testing::PrintToString(portable)
           << ", SHA-NI " << ::testing::PrintToString(sha_ni);
  };
  support::Rng rng(17);
  const auto randomize = [&] {
    for (std::size_t i = 0; i < blocks.size(); i += 8) {
      const std::uint64_t word = rng();
      std::memcpy(blocks.data() + i, &word, 8);
    }
  };

  const State iv = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  State ones{};
  ones.fill(0xffffffff);
  for (const State& start : {iv, State{}, ones}) {
    for (std::size_t n = 1; n <= 4; ++n) {
      blocks.fill(0x00);
      EXPECT_TRUE(check(start, n));
      blocks.fill(0xff);
      EXPECT_TRUE(check(start, n));
      randomize();
      EXPECT_TRUE(check(start, n));
    }
  }
  for (int trial = 0; trial < 10000; ++trial) {
    State start{};
    for (std::uint32_t& word : start) word = static_cast<std::uint32_t>(rng());
    randomize();
    ASSERT_TRUE(check(start, 1 + rng.below(4))) << "trial " << trial;
  }
#else
  GTEST_SKIP() << "not an x86-64 build: there is no SHA-NI compression";
#endif
}

TEST(Sha256, ContextReuseRejected) {
  Sha256 h;
  (void)h.update("x").finish();
  EXPECT_THROW((void)h.finish(), support::ContractViolation);
}

TEST(Sha256, UpdateU64LittleEndian) {
  Sha256 a;
  a.update_u64(0x0102030405060708ULL);
  const std::array<std::uint8_t, 8> le = {0x08, 0x07, 0x06, 0x05,
                                          0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(a.finish(), sha256(std::span<const std::uint8_t>(le)));
}

TEST(Sha256, DoubleHash) {
  const auto data = bytes_of("hello");
  const Digest once = sha256(std::span<const std::uint8_t>(data));
  EXPECT_EQ(sha256d(data), sha256(once.bytes));
}

TEST(Digest, HexRoundTrip) {
  const Digest d = sha256("roundtrip");
  EXPECT_EQ(Digest::from_hex(d.to_hex()), d);
}

TEST(Digest, FromHexRejectsMalformed) {
  EXPECT_THROW((void)Digest::from_hex("abc"), support::ContractViolation);
  std::string bad(64, 'g');
  EXPECT_THROW((void)Digest::from_hex(bad), support::ContractViolation);
}

TEST(Digest, Prefix64BigEndian) {
  Digest d{};
  d.bytes[0] = 0x01;
  d.bytes[7] = 0xff;
  EXPECT_EQ(d.prefix64(), 0x01000000000000ffULL);
}

TEST(Digest, OrderingAndHash) {
  const Digest a = sha256("a");
  const Digest b = sha256("b");
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
  EXPECT_NE(std::hash<Digest>{}(a), std::hash<Digest>{}(b));
}

// --- HMAC-SHA256 (RFC 4231 vectors) --------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  EXPECT_EQ(hmac_sha256(key, "Hi There").to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const auto key = bytes_of("Jefe");
  EXPECT_EQ(hmac_sha256(key, "what do ya want for nothing?").to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> data(50, 0xdd);
  EXPECT_EQ(hmac_sha256(key, data).to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsPreHashed) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  EXPECT_EQ(
      hmac_sha256(key, "Test Using Larger Than Block-Size Key - Hash Key First")
          .to_hex(),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// HMAC spelled out from RFC 2104 with one-shot sha256() calls, no key
// schedule: H((K ^ opad) || H((K ^ ipad) || m)).
Digest rfc2104_hmac(const std::vector<std::uint8_t>& key,
                    const std::vector<std::uint8_t>& message) {
  std::vector<std::uint8_t> k(64, 0);
  if (key.size() > 64) {
    const Digest hashed = sha256(key);
    std::copy(hashed.bytes.begin(), hashed.bytes.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  std::vector<std::uint8_t> inner_input;
  std::vector<std::uint8_t> outer_input;
  for (const std::uint8_t b : k) {
    inner_input.push_back(static_cast<std::uint8_t>(b ^ 0x36));
    outer_input.push_back(static_cast<std::uint8_t>(b ^ 0x5c));
  }
  inner_input.insert(inner_input.end(), message.begin(), message.end());
  const Digest inner = sha256(inner_input);
  outer_input.insert(outer_input.end(), inner.bytes.begin(),
                     inner.bytes.end());
  return sha256(outer_input);
}

TEST(Hmac, KeyScheduleIsReusable) {
  // One HmacKey serves any number of messages, each equal to the one-shot
  // HMAC: mac() resumes from the stored pad midstates, never consuming
  // them.
  const std::vector<std::uint8_t> key(20, 0x0b);
  const HmacKey schedule(key);
  for (const std::string_view msg : {"Hi There", "", "Hi There"}) {
    const auto data = bytes_of(msg);
    EXPECT_EQ(schedule.mac(data), hmac_sha256(key, msg)) << msg;
  }
  EXPECT_EQ(schedule.mac(bytes_of("Hi There")).to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");

  // Every key class (empty, short, one block, pre-hashed) against every
  // padding case of the resumed inner hash: with the 64 pad bytes already
  // counted, 56..63 and 120 message bytes spill finish() into a second
  // padding block, which none of the RFC 4231 vectors (8..54 bytes) reach.
  for (const std::size_t key_len : {0, 20, 64, 65, 131}) {
    std::vector<std::uint8_t> k(key_len);
    for (std::size_t i = 0; i < key_len; ++i) {
      k[i] = static_cast<std::uint8_t>(0x80 + i);
    }
    const HmacKey reusable(k);
    for (const std::size_t msg_len :
         {0, 31, 32, 33, 55, 56, 63, 64, 119, 120}) {
      std::vector<std::uint8_t> m(msg_len);
      for (std::size_t i = 0; i < msg_len; ++i) {
        m[i] = static_cast<std::uint8_t>(3 * i + 1);
      }
      EXPECT_EQ(reusable.mac(m), rfc2104_hmac(k, m))
          << "key " << key_len << " bytes, message " << msg_len << " bytes";
    }
  }
}

TEST(Hmac, DifferentKeysDiffer) {
  const auto k1 = bytes_of("key1");
  const auto k2 = bytes_of("key2");
  EXPECT_NE(hmac_sha256(k1, "msg"), hmac_sha256(k2, "msg"));
}

// --- Signatures --------------------------------------------------------

TEST(Keys, SignVerifyRoundTrip) {
  support::Rng rng(1);
  const KeyPair keys = KeyPair::generate(rng);
  KeyRegistry registry;
  EXPECT_TRUE(registry.enroll(keys));
  const Signature sig = keys.sign("hello world");
  EXPECT_TRUE(registry.verify(keys.public_key(), "hello world", sig));
}

TEST(Keys, VerifyRejectsWrongMessage) {
  support::Rng rng(2);
  const KeyPair keys = KeyPair::generate(rng);
  KeyRegistry registry;
  registry.enroll(keys);
  const Signature sig = keys.sign("msg-a");
  EXPECT_FALSE(registry.verify(keys.public_key(), "msg-b", sig));
}

TEST(Keys, VerifyRejectsWrongSigner) {
  support::Rng rng(3);
  const KeyPair alice = KeyPair::generate(rng);
  const KeyPair mallory = KeyPair::generate(rng);
  KeyRegistry registry;
  registry.enroll(alice);
  registry.enroll(mallory);
  const Signature forged = mallory.sign("pay mallory");
  EXPECT_FALSE(registry.verify(alice.public_key(), "pay mallory", forged));
}

TEST(Keys, UnenrolledKeyNeverVerifies) {
  support::Rng rng(4);
  const KeyPair keys = KeyPair::generate(rng);
  KeyRegistry registry;
  EXPECT_FALSE(registry.is_enrolled(keys.public_key()));
  EXPECT_FALSE(
      registry.verify(keys.public_key(), "msg", keys.sign("msg")));
}

TEST(Keys, DeriveIsDeterministic) {
  const KeyPair a = KeyPair::derive(42);
  const KeyPair b = KeyPair::derive(42);
  const KeyPair c = KeyPair::derive(43);
  EXPECT_EQ(a.public_key(), b.public_key());
  EXPECT_NE(a.public_key(), c.public_key());
}

TEST(Keys, SignatureBytesArePinned) {
  // The scheme is HMAC-SHA256(sha256("findep/sig/v1" || secret), message)
  // with secret = sha256("findep/keyseed/v1" || le64(seed)); values from
  // Python's hashlib/hmac. Precomputed key schedules must not move them.
  const KeyPair keys = KeyPair::derive(1);
  EXPECT_EQ(keys.public_key().to_hex(),
            "40fae495c1d9e25b3f7125be129655a13ac0a3b5204c1aea0d0ab4892e39395b");
  EXPECT_EQ(keys.sign("findep").tag.to_hex(),
            "238e5540dfd177c82e35b6c386eed2b468531c4b96fcbc345f7abc4fdfb4228f");
  // Every BFT signature is over a 32-byte digest; pin that length too.
  EXPECT_EQ(keys.sign(sha256("findep")).tag.to_hex(),
            "5276ec2ed5eb427e55e97c6311accdf9c66b0503fe8eb4f98d1386592c3437d7");
}

TEST(Keys, SignatureBindsToSigner) {
  // Same message, different keys -> different tags (no cross-key replay).
  const KeyPair a = KeyPair::derive(1);
  const KeyPair b = KeyPair::derive(2);
  EXPECT_NE(a.sign("m"), b.sign("m"));
}

TEST(Keys, EnrollIdempotentAndCollisionSafe) {
  const KeyPair a = KeyPair::derive(7);
  KeyRegistry registry;
  EXPECT_TRUE(registry.enroll(a));
  EXPECT_TRUE(registry.enroll(a));
  EXPECT_EQ(registry.size(), 1u);
}

// --- VRF ----------------------------------------------------------------

TEST(Vrf, DeterministicPerKeyAndInput) {
  const KeyPair keys = KeyPair::derive(11);
  const Digest input = sha256("round-1");
  const VrfOutput a = vrf_evaluate(keys, input);
  const VrfOutput b = vrf_evaluate(keys, input);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.proof, b.proof);
}

TEST(Vrf, VerifiesAgainstRegistry) {
  const KeyPair keys = KeyPair::derive(12);
  KeyRegistry registry;
  registry.enroll(keys);
  const Digest input = sha256("round-2");
  const VrfOutput out = vrf_evaluate(keys, input);
  EXPECT_TRUE(vrf_verify(registry, keys.public_key(), input, out));
}

TEST(Vrf, RejectsWrongInput) {
  const KeyPair keys = KeyPair::derive(13);
  KeyRegistry registry;
  registry.enroll(keys);
  const VrfOutput out = vrf_evaluate(keys, sha256("x"));
  EXPECT_FALSE(vrf_verify(registry, keys.public_key(), sha256("y"), out));
}

TEST(Vrf, UniquenessSelfChosenValueRejected) {
  // A malicious key holder signs a value it likes; verification must
  // reject because the oracle recomputes the true VRF value.
  const KeyPair keys = KeyPair::derive(14);
  KeyRegistry registry;
  registry.enroll(keys);
  const Digest input = sha256("round-3");
  VrfOutput forged = vrf_evaluate(keys, input);
  forged.value = sha256("a value I prefer");
  // Re-sign so the proof matches the forged value.
  forged.proof = keys.sign(Sha256{}
                               .update("findep/vrf-proof/v1")
                               .update(input.bytes)
                               .update(forged.value.bytes)
                               .finish());
  EXPECT_FALSE(vrf_verify(registry, keys.public_key(), input, forged));
}

TEST(Vrf, OutputsAreUniformish) {
  // Smoke check: mean of unit outputs over many keys near 0.5.
  double sum = 0.0;
  constexpr int kN = 2000;
  const Digest input = sha256("round-4");
  for (int i = 0; i < kN; ++i) {
    sum += vrf_evaluate(KeyPair::derive(static_cast<std::uint64_t>(i)),
                        input)
               .as_unit_double();
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.03);
}

// --- crypto cost model (crypto/cost.h) --------------------------------------

TEST(CostModel, FreeIsTheAllZeroDefault) {
  const CostModel model;
  EXPECT_TRUE(model.is_free());
  EXPECT_TRUE(CostModel::free().is_free());
  EXPECT_EQ(CostModel::free().sign_seconds(), 0.0);
  EXPECT_EQ(CostModel::free().batch_verify_seconds(1000), 0.0);
}

TEST(CostModel, ModeledChargesSimulatedSeconds) {
  const CostModel model = CostModel::modeled();
  EXPECT_FALSE(model.is_free());
  EXPECT_DOUBLE_EQ(model.sign_seconds(), 50e-6);
  EXPECT_DOUBLE_EQ(model.verify_seconds(), 130e-6);
  // Batch verification beats k independent verifies for any quorum the
  // protocol batches (the entire point of the base + per-item split).
  EXPECT_LT(model.batch_verify_seconds(32), 32 * model.verify_seconds());
  EXPECT_DOUBLE_EQ(model.batch_verify_seconds(0), 20e-6);
}

TEST(CostModel, ParsesTheScenarioAxisValues) {
  EXPECT_TRUE(CostModel::parse("free").is_free());
  EXPECT_FALSE(CostModel::parse("modeled").is_free());
  EXPECT_THROW((void)CostModel::parse("ed25519"), std::invalid_argument);
  EXPECT_THROW((void)CostModel::parse(""), std::invalid_argument);
}

}  // namespace
}  // namespace findep::crypto
