// Hypervisor tests: attestation chain (A1), message-layer hardening (A3),
// ORAM key sharing, and the pagewise code prefetcher (A7 timing channel).
#include <gtest/gtest.h>

#include "crypto/sha256.hpp"
#include "hypervisor/hypervisor.hpp"
#include "hypervisor/prefetch.hpp"

namespace hardtape::hypervisor {
namespace {

BytesView sv(const char* s) {
  return BytesView{reinterpret_cast<const uint8_t*>(s), std::strlen(s)};
}

class AttestationTest : public ::testing::Test {
 protected:
  AttestationTest()
      : manufacturer_(42),
        hypervisor_(Bytes{1, 2, 3, 4}, manufacturer_, sv("sbl"), sv("fw"), sv("bits"), 7),
        user_key_(crypto::PrivateKey::from_seed(sv("user"))) {}

  Manufacturer manufacturer_;
  Hypervisor hypervisor_;
  crypto::PrivateKey user_key_;
};

TEST_F(AttestationTest, ValidReportAccepted) {
  H256 nonce = crypto::keccak256("fresh nonce");
  const auto session = hypervisor_.begin_session(nonce, user_key_.public_key());
  EXPECT_TRUE(verify_attestation(manufacturer_.root_public_key(),
                                 hypervisor_.firmware_measurement(), nonce,
                                 session.report));
}

TEST_F(AttestationTest, FakePreExecutorRejected) {
  // A1: an SP without a manufacturer-provisioned device cannot fake a report.
  const H256 nonce = crypto::keccak256("n");
  const auto session = hypervisor_.begin_session(nonce, user_key_.public_key());

  // Forged certificate (self-signed by a different "manufacturer").
  Manufacturer evil(666);
  AttestationReport forged = session.report;
  const crypto::PrivateKey evil_device = crypto::PrivateKey::from_seed(sv("evil"));
  forged.certificate = evil.provision(evil_device.public_key());
  forged.signature = evil_device.sign(forged.body_hash());
  EXPECT_FALSE(verify_attestation(manufacturer_.root_public_key(),
                                  hypervisor_.firmware_measurement(), nonce, forged));
}

TEST_F(AttestationTest, WrongFirmwareRejected) {
  // A modified hypervisor binary changes the measurement.
  Hypervisor tampered(Bytes{1, 2, 3, 4}, manufacturer_, sv("sbl"), sv("fw-evil"),
                      sv("bits"), 7);
  const H256 nonce = crypto::keccak256("n");
  const auto session = tampered.begin_session(nonce, user_key_.public_key());
  EXPECT_FALSE(verify_attestation(manufacturer_.root_public_key(),
                                  hypervisor_.firmware_measurement(),  // expected good fw
                                  nonce, session.report));
}

TEST_F(AttestationTest, ReplayRejected) {
  const H256 nonce1 = crypto::keccak256("nonce1");
  const auto session = hypervisor_.begin_session(nonce1, user_key_.public_key());
  // Replaying the old report against a new nonce fails.
  const H256 nonce2 = crypto::keccak256("nonce2");
  EXPECT_FALSE(verify_attestation(manufacturer_.root_public_key(),
                                  hypervisor_.firmware_measurement(), nonce2,
                                  session.report));
}

TEST_F(AttestationTest, TamperedReportBodyRejected) {
  const H256 nonce = crypto::keccak256("n");
  auto session = hypervisor_.begin_session(nonce, user_key_.public_key());
  session.report.session_public = user_key_.public_key();  // MITM key swap
  EXPECT_FALSE(verify_attestation(manufacturer_.root_public_key(),
                                  hypervisor_.firmware_measurement(), nonce,
                                  session.report));
}

TEST_F(AttestationTest, SessionChannelAgrees) {
  const H256 nonce = crypto::keccak256("n");
  const auto session = hypervisor_.begin_session(nonce, user_key_.public_key());
  // The user derives the same key from the report's session public key.
  SecureChannel user_channel(user_key_, session.report.session_public,
                             ChannelRole::kInitiator);
  SecureChannel& hyp_channel = hypervisor_.channel(session.session_id);
  EXPECT_EQ(user_channel.key(), hyp_channel.key());

  const Bytes body = {1, 2, 3};
  const SecureMessage msg = user_channel.seal(MessageType::kBundleSubmit, 0, body);
  const auto open = hyp_channel.open(msg, 1024, 1024);
  EXPECT_EQ(open.status, Status::kOk);
  EXPECT_EQ(open.body, body);
  hypervisor_.end_session(session.session_id);
  EXPECT_THROW(hypervisor_.channel(session.session_id), UsageError);
}

// --- message layer (A3) ---

class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest()
      : alice_(shared_key(), ChannelRole::kInitiator),
        bob_(shared_key(), ChannelRole::kResponder) {}
  static crypto::AesKey128 shared_key() {
    crypto::AesKey128 k{};
    k[0] = 0x77;
    return k;
  }
  SecureChannel alice_;
  SecureChannel bob_;
};

TEST_F(ChannelTest, HeaderRoundTrip) {
  MessageHeader header;
  header.type = MessageType::kTraceReport;
  header.sequence = 9;
  header.target_offset = 0x1000;
  header.body_length = 77;
  const auto raw = header.serialize();
  const auto parsed = MessageHeader::parse(BytesView{raw.data(), raw.size()});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, MessageType::kTraceReport);
  EXPECT_EQ(parsed->sequence, 9u);
  EXPECT_EQ(parsed->target_offset, 0x1000u);
  EXPECT_EQ(parsed->body_length, 77u);
}

TEST_F(ChannelTest, MalformedHeadersRejected) {
  MessageHeader good;
  auto raw = good.serialize();
  // Bad magic.
  auto bad_magic = raw;
  bad_magic[24] ^= 1;
  EXPECT_FALSE(MessageHeader::parse(BytesView{bad_magic.data(), bad_magic.size()}).has_value());
  // Unknown type.
  auto bad_type = raw;
  bad_type[0] = 0x99;
  EXPECT_FALSE(MessageHeader::parse(BytesView{bad_type.data(), bad_type.size()}).has_value());
  // Reserved bits set.
  auto bad_reserved = raw;
  bad_reserved[2] = 1;
  EXPECT_FALSE(MessageHeader::parse(BytesView{bad_reserved.data(), bad_reserved.size()}).has_value());
  // Wrong size entirely.
  EXPECT_FALSE(MessageHeader::parse(Bytes(31, 0)).has_value());
}

TEST_F(ChannelTest, OversizedBodyRejectedBeforeDecryption) {
  const Bytes body(4096, 0xab);
  const SecureMessage msg = alice_.seal(MessageType::kBundleSubmit, 0, body);
  // The Hypervisor enforces its buffer bound from the header alone.
  EXPECT_EQ(bob_.open(msg, /*max_body_length=*/1024, 1024).status,
            Status::kMalformedMessage);
}

TEST_F(ChannelTest, BadTargetOffsetRejected) {
  const SecureMessage msg = alice_.seal(MessageType::kBundleSubmit, 1 << 20, Bytes{1});
  EXPECT_EQ(bob_.open(msg, 1024, /*max_target_offset=*/1024).status,
            Status::kMalformedMessage);
}

TEST_F(ChannelTest, LengthFieldMustMatchCiphertext) {
  SecureMessage msg = alice_.seal(MessageType::kBundleSubmit, 0, Bytes{1, 2, 3});
  msg.ciphertext.push_back(0);  // smuggle an extra byte past the header
  EXPECT_EQ(bob_.open(msg, 1024, 1024).status, Status::kMalformedMessage);
}

TEST_F(ChannelTest, TamperedCiphertextRejected) {
  SecureMessage msg = alice_.seal(MessageType::kBundleSubmit, 0, Bytes{1, 2, 3});
  msg.ciphertext[0] ^= 1;
  EXPECT_EQ(bob_.open(msg, 1024, 1024).status, Status::kAuthFailed);
}

TEST_F(ChannelTest, HeaderIsAuthenticated) {
  // Swapping the header of a valid message breaks the AAD binding.
  SecureMessage msg = alice_.seal(MessageType::kBundleSubmit, 0, Bytes{1, 2, 3});
  MessageHeader other;
  other.type = MessageType::kTraceReport;
  other.body_length = 3;
  msg.header = other.serialize();
  EXPECT_EQ(bob_.open(msg, 1024, 1024).status, Status::kAuthFailed);
}

// Regression: a frame that fails authentication must NOT advance the
// receive sequence. If it did, an attacker who injects one garbage frame
// would desynchronize the channel and censor the next genuine message —
// a denial of service the sequence check exists to prevent, not enable.
TEST_F(ChannelTest, AuthFailureDoesNotAdvanceSequence) {
  const SecureMessage genuine = alice_.seal(MessageType::kBundleSubmit, 0, Bytes{1, 2, 3});
  SecureMessage tampered = genuine;
  tampered.ciphertext[0] ^= 1;
  EXPECT_EQ(bob_.open(tampered, 1024, 1024).status, Status::kAuthFailed);
  // The genuine frame carries the same sequence number and must still land.
  const auto open = bob_.open(genuine, 1024, 1024);
  EXPECT_EQ(open.status, Status::kOk);
  EXPECT_EQ(open.body, (Bytes{1, 2, 3}));
}

// Same property for a frame rejected before decryption (oversized body):
// pre-crypto rejections must not consume sequence numbers either.
TEST_F(ChannelTest, MalformedFrameDoesNotAdvanceSequence) {
  const SecureMessage genuine = alice_.seal(MessageType::kBundleSubmit, 0, Bytes{7});
  const SecureMessage oversized = alice_.seal(MessageType::kBundleSubmit, 0, Bytes(4096, 0xab));
  EXPECT_EQ(bob_.open(oversized, /*max_body_length=*/1024, 1024).status,
            Status::kMalformedMessage);
  EXPECT_EQ(bob_.open(genuine, 1024, 1024).status, Status::kOk);
}

TEST_F(ChannelTest, ReplayRejectedBySequence) {
  const SecureMessage msg = alice_.seal(MessageType::kBundleSubmit, 0, Bytes{1});
  EXPECT_EQ(bob_.open(msg, 1024, 1024).status, Status::kOk);
  EXPECT_EQ(bob_.open(msg, 1024, 1024).status, Status::kRejected);  // replayed
}

TEST_F(ChannelTest, WrongKeyCannotRead) {
  crypto::AesKey128 other{};
  other[0] = 0x88;
  SecureChannel eve{other, ChannelRole::kResponder};
  const SecureMessage msg = alice_.seal(MessageType::kBundleSubmit, 0, Bytes{1});
  EXPECT_EQ(eve.open(msg, 1024, 1024).status, Status::kAuthFailed);
}

// Both ends hold one key. Were they to count nonces the same way, request n
// and reply n would share an AES-GCM (key, nonce) pair — the XOR of the two
// ciphertexts would be the XOR of the two plaintexts — and an end would
// accept its own frame reflected back at it.
TEST(SecureChannelTest, EndsNeverShareANonceAndRefuseReflection) {
  crypto::AesKey128 key{};
  key[0] = 0x42;
  SecureChannel user(key, ChannelRole::kInitiator);
  SecureChannel device(key, ChannelRole::kResponder);
  const Bytes request(16, 0x11);
  const Bytes reply(16, 0x22);
  const SecureMessage to_device = user.seal(MessageType::kBundleSubmit, 0, request);
  const SecureMessage to_user = device.seal(MessageType::kTraceReport, 0, reply);
  EXPECT_NE(to_device.nonce, to_user.nonce);
  // Both frames land at the peer...
  EXPECT_EQ(device.open(to_device, 1024, 1024).status, Status::kOk);
  EXPECT_EQ(user.open(to_user, 1024, 1024).status, Status::kOk);
  // ...and no end opens a frame its own side sealed: each is refused while
  // its sequence number is the one the end expects next.
  SecureChannel user_again(key, ChannelRole::kInitiator);
  EXPECT_EQ(user_again.open(to_device, 1024, 1024).status, Status::kRejected);
  SecureChannel device_again(key, ChannelRole::kResponder);
  EXPECT_EQ(device_again.open(to_user, 1024, 1024).status, Status::kRejected);
}

// --- hypervisor memory + ORAM key management ---

TEST_F(AttestationTest, MemoryBudgetHolds) {
  hypervisor_.begin_session(crypto::keccak256("n"), user_key_.public_key());
  EXPECT_EQ(hypervisor_.binary_kb(), 156u);
  EXPECT_EQ(hypervisor_.peak_stack_kb(), 92u);
  EXPECT_TRUE(hypervisor_.fits_onchip_memory());
}

TEST_F(AttestationTest, OramKeyGenerationIsStable) {
  const auto& key1 = hypervisor_.generate_oram_key();
  const auto& key2 = hypervisor_.generate_oram_key();
  EXPECT_EQ(key1, key2);
  EXPECT_TRUE(hypervisor_.has_oram_key());
}

TEST_F(AttestationTest, OramKeySharedBetweenDevices) {
  hypervisor_.generate_oram_key();
  Hypervisor second(Bytes{9, 9, 9}, manufacturer_, sv("sbl"), sv("fw"), sv("bits"), 8);
  EXPECT_FALSE(second.has_oram_key());
  ASSERT_EQ(Hypervisor::share_oram_key(hypervisor_, second), Status::kOk);
  EXPECT_EQ(second.oram_key(), hypervisor_.oram_key());
  // Sharing from a device without a key fails.
  Hypervisor third(Bytes{1}, manufacturer_, sv("sbl"), sv("fw"), sv("bits"), 9);
  Hypervisor fourth(Bytes{2}, manufacturer_, sv("sbl"), sv("fw"), sv("bits"), 10);
  EXPECT_EQ(Hypervisor::share_oram_key(third, fourth), Status::kRejected);
}

TEST_F(AttestationTest, OramSealKeyIsPerBootGenerationAndShared) {
  const crypto::AesKey128 boot0 = hypervisor_.oram_seal_key(0);
  EXPECT_TRUE(hypervisor_.has_oram_key());  // the ORAM key is generated on demand
  EXPECT_EQ(hypervisor_.oram_seal_key(0), boot0);
  EXPECT_NE(hypervisor_.oram_seal_key(1), boot0);
  EXPECT_NE(boot0, hypervisor_.oram_key());
  // HKDF-SHA256(ORAM key, salt = generation as 8 little-endian bytes, info).
  const uint8_t salt[8] = {0x02, 0x01, 0, 0, 0, 0, 0, 0};
  const std::string info = "hardtape oram slot seal";
  const Bytes expected = crypto::hkdf_sha256(
      hypervisor_.oram_key(), salt,
      BytesView{reinterpret_cast<const uint8_t*>(info.data()), info.size()}, 16);
  const crypto::AesKey128 boot258 = hypervisor_.oram_seal_key(0x0102);
  EXPECT_EQ(Bytes(boot258.begin(), boot258.end()), expected);
  // A device that joined through key sharing seals under the same key.
  Hypervisor second(Bytes{9, 9, 9}, manufacturer_, sv("sbl"), sv("fw"), sv("bits"), 8);
  ASSERT_EQ(Hypervisor::share_oram_key(hypervisor_, second), Status::kOk);
  EXPECT_EQ(second.oram_seal_key(3), hypervisor_.oram_seal_key(3));
}

// --- code prefetcher ---

TEST(Prefetcher, PreservesKvInstantsAndCounts) {
  std::vector<QueryEvent> demand;
  // 5 KV queries at 1ms spacing with an 8-page code burst at t=2ms.
  for (int i = 0; i < 5; ++i) {
    demand.push_back({uint64_t(i + 1) * 1'000'000, oram::PageType::kStorageGroup, false});
  }
  for (int i = 0; i < 8; ++i) {
    demand.insert(demand.begin() + 2, {2'000'000, oram::PageType::kCode, false});
  }
  std::sort(demand.begin(), demand.end(),
            [](const auto& a, const auto& b) { return a.time_ns < b.time_ns; });

  CodePrefetcher prefetcher(3);
  const auto observed = prefetcher.schedule(demand);
  ASSERT_EQ(observed.size(), demand.size());  // nothing lost
  int code_count = 0;
  for (const auto& event : observed) {
    if (event.type == oram::PageType::kCode) ++code_count;
  }
  EXPECT_EQ(code_count, 8);
  // Timeline is sorted.
  for (size_t i = 1; i < observed.size(); ++i) {
    EXPECT_GE(observed[i].time_ns, observed[i - 1].time_ns);
  }
}

TEST(Prefetcher, SmoothsCodeBursts) {
  // A worst-case burst: 20 code pages at the same instant in a stream of
  // K-V queries. Without prefetching the adversary sees ~20 back-to-back
  // queries (near-zero gaps) — a code-fetch fingerprint. With pagewise
  // prefetching the burst is dissolved onto randomized timers.
  std::vector<QueryEvent> demand;
  for (int i = 1; i <= 30; ++i) {
    demand.push_back({uint64_t(i) * 1'000'000, oram::PageType::kStorageGroup, false});
  }
  for (int i = 0; i < 20; ++i) {
    demand.push_back({2'000'001, oram::PageType::kCode, false});
  }
  std::sort(demand.begin(), demand.end(),
            [](const auto& a, const auto& b) { return a.time_ns < b.time_ns; });

  auto near_zero_gaps = [](const std::vector<QueryEvent>& timeline) {
    int count = 0;
    for (size_t i = 1; i < timeline.size(); ++i) {
      if (timeline[i].time_ns - timeline[i - 1].time_ns < 10'000) ++count;
    }
    return count;
  };
  const int before = near_zero_gaps(demand);
  CodePrefetcher prefetcher(5);
  const auto observed = prefetcher.schedule(demand);
  const int after = near_zero_gaps(observed);
  EXPECT_GE(before, 19);       // the burst is plainly visible in the demand
  EXPECT_LT(after, before / 3);  // and dissolved in the observed timeline
  ASSERT_EQ(observed.size(), demand.size());
}

TEST(Prefetcher, GapStatsBasics) {
  EXPECT_EQ(gap_stats({}).mean_ns, 0);
  std::vector<QueryEvent> uniform;
  for (int i = 0; i < 10; ++i) uniform.push_back({uint64_t(i) * 100, {}, false});
  const GapStats stats = gap_stats(uniform);
  EXPECT_DOUBLE_EQ(stats.mean_ns, 100.0);
  EXPECT_DOUBLE_EQ(stats.stddev_ns, 0.0);
}

}  // namespace
}  // namespace hardtape::hypervisor
