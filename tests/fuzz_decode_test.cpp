// Robustness: decoding hostile bytes must throw util::SerialError (or
// produce a value), never crash or read out of bounds. Random buffers and
// mutated valid messages are thrown at every top-level decoder in the
// system, each through the single entry point util::decode<T>.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "ckd/ckd.h"
#include "cliques/clq.h"
#include "crypto/schnorr.h"
#include "flush/flush.h"
#include "gcs/daemon_key.h"
#include "gcs/link.h"
#include "gcs/wire.h"
#include "netd/client_wire.h"
#include "secure/ka_tgdh.h"
#include "secure/secure_client.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/serial.h"
#include "util/shared_bytes.h"

namespace ss {
namespace {

using util::Bytes;

Bytes random_bytes(util::Rng& rng, std::size_t max_len) {
  Bytes out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

/// Each decoder must either succeed or throw SerialError; anything else
/// (crash, UB) fails the test harness itself.
template <typename Fn>
void expect_contained(Fn&& decode, const Bytes& data) {
  try {
    decode(data);
  } catch (const util::SerialError&) {
    // expected containment
  } catch (const std::invalid_argument&) {
    // bignum/hex level rejection: also contained
  }
}

class FuzzDecode : public ::testing::TestWithParam<int> {};

/// Runs `data` through util::decode<T> for every T listed.
template <class... T>
void decode_each(const Bytes& data) {
  (expect_contained([](const Bytes& d) { util::decode<T>(d); }, data), ...);
}

TEST_P(FuzzDecode, GcsWireMessages) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int i = 0; i < 300; ++i) {
    const Bytes data = random_bytes(rng, 200);
    decode_each<gcs::HeartbeatMsg, gcs::GatherAnnounceMsg, gcs::ProposalMsg,
                gcs::StateExchangeMsg, gcs::InstallMsg, gcs::DataMsg, gcs::OrderStampMsg,
                gcs::RetransReqMsg, gcs::RetransDataMsg, gcs::UnicastMsg, gcs::GroupChangeMsg,
                gcs::KeyDistMsg>(data);
    expect_contained([](const Bytes& d) { gcs::unframe(d); }, data);
  }
}

TEST_P(FuzzDecode, KeyAgreementMessages) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  for (int i = 0; i < 300; ++i) {
    const Bytes data = random_bytes(rng, 200);
    decode_each<cliques::ClqHandoffMsg, cliques::ClqBroadcastMsg, cliques::ClqMergeChainMsg,
                cliques::ClqMergePartialMsg, cliques::ClqFactorOutMsg, ckd::CkdRound1Msg,
                ckd::CkdRound2Msg, ckd::CkdKeyDistMsg, secure::TgdhLeafKeyMsg,
                secure::TgdhUpdateMsg, crypto::SchnorrSignature>(data);
  }
}

TEST_P(FuzzDecode, ClientAndEnvelopeMessages) {
  namespace wire = netd::wire;
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 3571 + 17);
  for (int i = 0; i < 300; ++i) {
    const Bytes data = random_bytes(rng, 200);
    // The netd client wire, both directions (frame bodies after the
    // length prefix), and the flush and secure envelopes.
    decode_each<wire::Op, wire::Framed<gcs::GroupName>,
                wire::Framed<wire::Multicast<util::SharedBytes>>, wire::Framed<gcs::MemberId>,
                wire::Framed<gcs::Message>, wire::Framed<gcs::GroupView>, gcs::GroupViewId,
                flush::DataEnvelope, secure::DataEnvelope,
                secure::SignedPayload<util::Bytes>,
                secure::UnicastTag<util::SharedBytes>>(data);
    expect_contained([](const Bytes& d) { netd::wire::peek_op(d); }, data);
  }
}

// A tiny message claiming ~4G entries must be rejected by the count clamp
// BEFORE any allocation happens — a transient multi-GB reserve() can OOM
// the process on overcommit systems even when the bad_alloc is caught.
TEST(TgdhDecodeClamp, HugeCountsRejectedWithoutAllocation) {
  for (const bool huge_leaves : {true, false}) {
    util::Writer w;
    util::Encoder{w}(gcs::MemberId{1, 1});
    w.u32(0);                                         // round
    w.u32(huge_leaves ? 0xFFFFFFFFu : 0u);            // leaf count
    if (!huge_leaves) w.u32(0xFFFFFFFFu);             // blinded count
    const Bytes data = w.take();
    EXPECT_THROW(util::decode<secure::TgdhUpdateMsg>(data), util::SerialError);
  }
}

// The three decoder rules, one case each on a gcs/wire message.
std::string decode_error(const std::function<void()>& decode) {
  try {
    decode();
  } catch (const util::SerialError& e) {
    return e.what();
  }
  return "decoded";
}

TEST(WireDecodeRules, CountAboveRemainingBytesRejectedBeforeDecoding) {
  util::Writer w;
  w.u64(13);  // view round
  w.u32(0);   // coordinator
  w.u32(3);   // three members claimed ...
  w.u32(0);   // ... two present
  w.u32(1);
  const Bytes data = w.take();
  const std::string what = decode_error([&] { util::decode<gcs::ProposalMsg>(data); });
  EXPECT_NE(what.find("count"), std::string::npos) << what;
}

TEST(WireDecodeRules, OutOfRangeEnumRejected) {
  gcs::DataMsg m;
  m.view = gcs::ViewId{7, 1};
  m.group = "g";
  m.payload = util::bytes_of("x");
  Bytes data = m.encode();
  data[8 + 4 + 4 + 8] = 9;  // service byte: no ServiceType is 9
  EXPECT_EQ(decode_error([&] { util::decode<gcs::DataMsg>(data); }).find("decoded"),
            std::string::npos);
}

TEST(WireDecodeRules, TrailingByteRejected) {
  gcs::HeartbeatMsg hb;
  hb.view = gcs::ViewId{7, 1};
  Bytes data = hb.encode();
  data.push_back(0);
  EXPECT_EQ(decode_error([&] { util::decode<gcs::HeartbeatMsg>(data); }).find("decoded"),
            std::string::npos);
}

TEST_P(FuzzDecode, MutatedValidMessagesContained) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 3);
  // Start from a valid encoded message and flip bytes.
  gcs::DataMsg m;
  m.view = gcs::ViewId{7, 1};
  m.sender = 2;
  m.seq = 9;
  m.service = gcs::ServiceType::kAgreed;
  m.group = "some-group";
  m.origin = gcs::MemberId{2, 4};
  m.msg_type = -42;
  m.payload = util::bytes_of("payload bytes");
  const Bytes valid = m.encode();

  for (int i = 0; i < 300; ++i) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(5);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    // Truncations too.
    if (rng.chance(0.3)) mutated.resize(rng.below(mutated.size() + 1));
    expect_contained([](const Bytes& d) { util::decode<gcs::DataMsg>(d); }, mutated);
  }
}

TEST_P(FuzzDecode, PackedLinkFramesContained) {
  // The packed-frame decoder (gcs/link.cpp, kFramePack) must drop hostile
  // frames — truncated pack headers, zero-length inner messages, overlong
  // counts, scatter length mismatches — without crashing or corrupting the
  // receive stream.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537 + 11);
  sim::Scheduler sched;
  sim::SimNetwork net(sched, 99);
  // The link acks every accepted frame through the network; register sink
  // nodes for every peer id this test impersonates.
  struct NullNode : sim::NetNode {
    void on_packet(sim::NodeId, const util::Frame&) override {}
  } sink;
  for (int n = 0; n < 420; ++n) net.add_node(&sink);
  // Count deliveries from peer 5 only: mutated frames (sent from other
  // peer ids) may legitimately parse and deliver — containment, not
  // rejection, is what is under test there.
  std::uint64_t delivered = 0;
  gcs::LinkManager lm(ss::runtime::Env{&sched, &net, 0}, 0xF00, gcs::TimingConfig{},
                      [&delivered](gcs::DaemonId from, const util::SharedBytes&) {
                        if (from == 5) ++delivered;
                      });

  // A well-formed pack frame to mutate: 3 inner messages, one zero-length.
  const auto make_pack = [](std::uint32_t count, const std::vector<Bytes>& msgs) {
    util::Writer w;
    w.u8(3);  // kFramePack
    w.u64(0xB007);
    w.u32(count);
    std::uint64_t seq = 1;
    for (const auto& m : msgs) {
      w.u64(seq++);
      w.bytes(m);
    }
    return w.take();
  };
  const std::vector<Bytes> inner = {util::bytes_of("first"), Bytes{}, util::bytes_of("third")};
  const Bytes valid = make_pack(3, inner);

  // Sanity: the unmutated pack delivers all three (zero-length included).
  lm.on_packet(5, util::Frame{util::SharedBytes(valid)});
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(lm.frames_rejected(), 0u);

  // Overlong count: claims more inner messages than are present.
  lm.on_packet(6, util::Frame{util::SharedBytes(make_pack(200, inner))});
  // Truncated pack headers: every prefix of a valid frame.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    Bytes t(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
    lm.on_packet(7, util::Frame{util::SharedBytes(std::move(t))});
  }
  // Random mutations of a valid pack, against a fresh peer each time so a
  // lucky parse cannot advance the real stream state.
  for (int i = 0; i < 300; ++i) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(6);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    if (rng.chance(0.3)) mutated.resize(rng.below(mutated.size() + 1));
    lm.on_packet(static_cast<gcs::DaemonId>(100 + i), util::Frame{util::SharedBytes(mutated)});
  }
  // Scatter mismatch: header claims a body length the frame does not carry.
  {
    const auto bad_head = [] {
      util::Writer w;
      w.u8(0);  // kFrameData
      w.u64(0xB007);
      w.u64(1);
      w.u32(64);  // claims 64 body bytes
      return w.take_shared();
    };
    lm.on_packet(8, util::Frame{bad_head(), util::SharedBytes(util::bytes_of("short"))});
    lm.on_packet(9, util::Frame{bad_head()});  // no body at all
  }
  EXPECT_GT(lm.frames_rejected(), 0u);

  // The original peer's stream survives all of the above: next in-sequence
  // pack still delivers.
  util::Writer w;
  w.u8(3);
  w.u64(0xB007);
  w.u32(1);
  w.u64(4);
  w.bytes(util::bytes_of("fourth"));
  lm.on_packet(5, util::Frame{w.take_shared()});
  EXPECT_EQ(delivered, 4u);
}

TEST_P(FuzzDecode, SharedBytesSliceBoundsContained) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 40503 + 29);
  for (int i = 0; i < 300; ++i) {
    const util::SharedBytes s{random_bytes(rng, 64)};
    const std::size_t off = rng.below(2 * (s.size() + 2));
    const std::size_t len = rng.below(2 * (s.size() + 2));
    try {
      const util::SharedBytes sub = s.slice(off, len);
      // A successful slice must be a true in-bounds view of the block.
      ASSERT_LE(off + len, s.size());
      ASSERT_EQ(sub.size(), len);
      if (len > 0) {
        ASSERT_EQ(sub.data(), s.data() + off);
      }
    } catch (const std::out_of_range&) {
      ASSERT_GT(off + len, s.size());  // rejection only when truly out of bounds
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecode, ::testing::Range(0, 6));

}  // namespace
}  // namespace ss
