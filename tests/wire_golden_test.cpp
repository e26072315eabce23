// Golden wire bytes: one instance of every message the stack decodes from
// another process or member, encoded and pinned as hex. The codecs may be
// rewritten freely; the bytes they put on the wire may not change, because
// peers built from an older tree (and the netd/sim golden transcripts) read
// them. Messages whose encoders are private to their layer (the flush
// envelopes, the secure data envelope with its signed inner wrapper, and
// the secure layer's unicast view tag) are captured off a deterministic
// simulated run instead.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "ckd/ckd.h"
#include "cliques/clq.h"
#include "crypto/schnorr.h"
#include "flush/flush.h"
#include "gcs/daemon_key.h"
#include "gcs/trace.h"
#include "gcs/wire.h"
#include "netd/client_wire.h"
#include "secure/ka_tgdh.h"
#include "secure/secure_client.h"
#include "tests/cluster_fixture.h"

namespace ss {
namespace {

using crypto::Bignum;
using gcs::MemberId;
using gcs::ViewId;
using util::Bytes;
using util::bytes_of;

std::string hex(const Bytes& b) { return util::to_hex(b); }

Bignum num(const char* h) { return Bignum::from_hex(h); }

const gcs::GroupViewId kVid{ViewId{7, 2}, 5};

gcs::DataMsg sample_data(std::uint64_t seq) {
  gcs::DataMsg m;
  m.view = ViewId{12, 1};
  m.sender = 2;
  m.seq = seq;
  m.service = gcs::ServiceType::kCausal;
  m.control = false;
  m.group = "grp";
  m.origin = MemberId{2, 9};
  m.msg_type = -7;
  m.vclock = {{0, 3}, {2, 11}};
  m.payload = util::SharedBytes(bytes_of("data!"));
  return m;
}

gcs::OrderStampMsg sample_stamp(std::uint64_t gseq) {
  return gcs::OrderStampMsg{ViewId{12, 1}, gseq, 2, gseq + 100};
}

gcs::GroupTable sample_table() {
  gcs::GroupTable t;
  t.groups["alpha"] = {{MemberId{0, 1}, gcs::GroupViewId{ViewId{3, 0}, 1}},
                       {MemberId{1, 4}, gcs::GroupViewId{ViewId{3, 0}, 2}}};
  t.groups["beta"] = {{MemberId{2, 2}, gcs::GroupViewId{ViewId{4, 1}, 0}}};
  return t;
}

TEST(WireGolden, GcsDaemonMessages) {
  gcs::HeartbeatMsg hb;
  hb.view = ViewId{12, 1};
  hb.delivered_gseq = 77;
  hb.received = {{1, 4}, {2, 6}};
  EXPECT_EQ(hex(hb.encode()),
            "000000000000000c00000001000000000000004d000000020000000100000000000000040000"
            "00020000000000000006");
  EXPECT_EQ(hex(gcs::frame(gcs::MsgType::kHeartbeat, hb.encode())),
            "01" + hex(hb.encode()));

  gcs::GatherAnnounceMsg ga;
  ga.round = 13;
  ga.candidates = {0, 1, 2};
  EXPECT_EQ(hex(ga.encode()), "000000000000000d00000003000000000000000100000002");

  gcs::ProposalMsg prop;
  prop.view = ViewId{13, 0};
  prop.members = {0, 2};
  EXPECT_EQ(hex(prop.encode()), "000000000000000d00000000000000020000000000000002");

  gcs::StateExchangeMsg se;
  se.proposed = ViewId{13, 0};
  se.from = 1;
  se.old_view = ViewId{12, 1};
  se.old_members = {1, 2};
  se.fifo_received = {{1, 4}, {2, 6}};
  se.delivered_gseq = 9;
  se.stamps = {sample_stamp(8), sample_stamp(9)};
  se.groups = sample_table();
  EXPECT_EQ(hex(se.encode()),
            "000000000000000d0000000000000001000000000000000c00000001000000020000000100000002"
            "00000002000000010000000000000004000000020000000000000006000000000000000900000002"
            "000000000000000c00000001000000000000000800000002000000000000006c000000000000000c"
            "00000001000000000000000900000002000000000000006d0000000200000005616c706861000000"
            "02000000000000000100000000000000030000000000000000000000010000000100000004000000"
            "00000000030000000000000000000000020000000462657461000000010000000200000002000000"
            "0000000004000000010000000000000000");

  gcs::InstallMsg inst;
  inst.view = ViewId{13, 0};
  inst.members = {0, 1, 2};
  gcs::OldViewPlan plan;
  plan.old_view = ViewId{12, 1};
  plan.participants = {1, 2};
  plan.old_members = {1, 2};
  plan.fifo_cut = {{1, 4}, {2, 6}};
  plan.holder_vecs = {{1, {{1, 4}, {2, 5}}}, {2, {{1, 3}, {2, 6}}}};
  plan.stamps = {sample_stamp(8)};
  gcs::OldViewPlan solo;
  solo.old_view = ViewId{11, 0};
  solo.participants = {0};
  solo.old_members = {0};
  inst.plans = {plan, solo};
  inst.merged_groups = sample_table();
  EXPECT_EQ(hex(inst.encode()),
            "000000000000000d000000000000000300000000000000010000000200000002000000000000000c"
            "00000001000000020000000100000002000000020000000100000002000000020000000100000000"
            "00000004000000020000000000000006000000020000000100000002000000010000000000000004"
            "00000002000000000000000500000002000000020000000100000000000000030000000200000000"
            "0000000600000001000000000000000c00000001000000000000000800000002000000000000006c"
            "000000000000000b0000000000000001000000000000000100000000000000000000000000000000"
            "0000000200000005616c706861000000020000000000000001000000000000000300000000000000"
            "00000000010000000100000004000000000000000300000000000000000000000200000004626574"
            "610000000100000002000000020000000000000004000000010000000000000000");

  const gcs::DataMsg data = sample_data(41);
  EXPECT_EQ(hex(data.encode()),
            "000000000000000c0000000100000002000000000000002903000000000367727000000002000000"
            "09fff90000000200000000000000000000000300000002000000000000000b000000056461746121");
  EXPECT_EQ(hex(data.encode_framed().to_bytes()), "08" + hex(data.encode()));

  EXPECT_EQ(hex(sample_stamp(8).encode()),
            "000000000000000c00000001000000000000000800000002000000000000006c");

  gcs::GroupChangeMsg change;
  change.kind = gcs::GroupChangeKind::kDisconnect;
  change.group = "grp";
  change.member = MemberId{1, 3};
  EXPECT_EQ(hex(change.encode()), "02000000036772700000000100000003");

  gcs::RetransReqMsg req;
  req.old_view = ViewId{12, 1};
  req.items = {{1, 5}, {2, 7}};
  EXPECT_EQ(hex(req.encode()),
            "000000000000000c0000000100000002000000010000000000000005000000020000000000000007");

  gcs::RetransDataMsg rd;
  rd.old_view = ViewId{12, 1};
  rd.msgs = {sample_data(5), sample_data(6)};
  EXPECT_EQ(hex(rd.encode()),
            "000000000000000c000000010000000200000050000000000000000c000000010000000200000000"
            "000000050300000000036772700000000200000009fff90000000200000000000000000000000300"
            "000002000000000000000b00000005646174612100000050000000000000000c0000000100000002"
            "00000000000000060300000000036772700000000200000009fff900000002000000000000000000"
            "00000300000002000000000000000b000000056461746121");

  gcs::UnicastMsg uni;
  uni.from = MemberId{0, 1};
  uni.to = MemberId{2, 3};
  uni.group = "grp";
  uni.msg_type = -31001;
  uni.payload = util::SharedBytes(bytes_of("partial"));
  EXPECT_EQ(hex(uni.encode()),
            "000000000000000100000002000000030000000367727086e7000000077061727469616c");
  EXPECT_EQ(hex(uni.encode_framed().to_bytes()), "0a" + hex(uni.encode()));

  EXPECT_EQ(hex(gcs::DaemonKeyAgent::encode_dist(ViewId{13, 0}, bytes_of("sealed-key"))),
            "000000000000000d000000000000000a7365616c65642d6b6579");
}

TEST(WireGolden, KeyAgreementMessages) {
  cliques::ClqEntry e1{MemberId{0, 1}, {MemberId{1, 1}, MemberId{2, 1}}, num("1a2b3c")};
  cliques::ClqEntry e2{MemberId{1, 1}, {}, num("ff00ee")};
  cliques::ClqHandoffMsg handoff{MemberId{0, 1}, MemberId{2, 1}, {e1, e2}, num("123456789a")};
  EXPECT_EQ(hex(handoff.encode()),
            "00000000000000010000000200000001000000020000000000000001000000020000000100000001"
            "0000000200000001000000031a2b3c00000001000000010000000000000003ff00ee000000051234"
            "56789a");
  cliques::ClqBroadcastMsg bc{MemberId{2, 1}, {e1, e2}};
  EXPECT_EQ(hex(bc.encode()),
            "00000002000000010000000200000000000000010000000200000001000000010000000200000001"
            "000000031a2b3c00000001000000010000000000000003ff00ee");
  cliques::ClqMergeChainMsg chain{MemberId{0, 1}, {MemberId{1, 2}, MemberId{2, 2}},
                                  num("0badf00d")};
  EXPECT_EQ(hex(chain.encode()),
            "00000000000000010000000200000001000000020000000200000002000000040badf00d");
  cliques::ClqMergePartialMsg partial{MemberId{2, 2}, num("c0ffee")};
  EXPECT_EQ(hex(partial.encode()), "000000020000000200000003c0ffee");
  cliques::ClqFactorOutMsg fo{MemberId{1, 1}, num("abcdef01")};
  EXPECT_EQ(hex(fo.encode()), "000000010000000100000004abcdef01");

  ckd::CkdRound1Msg r1{MemberId{0, 1}, num("0102030405")};
  EXPECT_EQ(hex(r1.encode()), "0000000000000001000000050102030405");
  ckd::CkdRound2Msg r2{MemberId{1, 1}, num("a1a2a3")};
  EXPECT_EQ(hex(r2.encode()), "000000010000000100000003a1a2a3");
  ckd::CkdKeyDistMsg dist{MemberId{0, 1},
                          {{MemberId{1, 1}, num("beef")}, {MemberId{2, 1}, num("cafe01")}}};
  EXPECT_EQ(hex(dist.encode()),
            "000000000000000100000002000000010000000100000002beef000000020000000100000003cafe"
            "01");

  secure::TgdhLeafKeyMsg leaf{MemberId{2, 1}, num("5eed")};
  EXPECT_EQ(hex(leaf.encode()), "0000000200000001000000025eed");
  secure::TgdhUpdateMsg up;
  up.sender = MemberId{1, 1};
  up.round = 3;
  up.leaves = {{crypto::KeyTreeNodeId{1, 0}, MemberId{0, 1}},
               {crypto::KeyTreeNodeId{1, 1}, MemberId{1, 1}}};
  up.blindeds = {{crypto::KeyTreeNodeId{0, 0}, num("0abc")},
                 {crypto::KeyTreeNodeId{1, 1}, num("def0")}};
  EXPECT_EQ(hex(up.encode()),
            "00000001000000010000000300000002010000000000000000000000000000000101000000000000"
            "0001000000010000000100000002000000000000000000000000020abc0100000000000000010000"
            "0002def0");

  crypto::SchnorrSignature sig{num("1234"), num("56789a")};
  EXPECT_EQ(hex(sig.encode()), "0000000212340000000356789a");
}

TEST(WireGolden, NetdClientWire) {
  namespace wire = netd::wire;
  EXPECT_EQ(hex(wire::encode_join("ops")), "0000000801000000036f7073");
  EXPECT_EQ(hex(wire::encode_leave("ops")), "0000000802000000036f7073");
  EXPECT_EQ(hex(wire::encode_multicast(gcs::ServiceType::kAgreed, "ops", -17, bytes_of("hi"))),
            "000000110304000000036f7073ffef000000026869");
  EXPECT_EQ(hex(wire::encode_bye()), "0000000104");
  EXPECT_EQ(hex(wire::encode_welcome(MemberId{0, 3})), "00000009100000000000000003");

  gcs::Message msg;
  msg.group = "ops";
  msg.sender = MemberId{2, 7};
  msg.service = gcs::ServiceType::kSafe;
  msg.msg_type = -17;
  msg.payload = util::SharedBytes(bytes_of("sealed"));
  msg.view_id = kVid;
  EXPECT_EQ(hex(wire::encode_message(msg)),
            "0000003111000000036f7073000000020000000705ffef0000000000000007000000020000000000"
            "000005000000067365616c6564");

  gcs::GroupView view;
  view.group = "ops";
  view.view_id = kVid;
  view.reason = gcs::MembershipReason::kSelfLeave;
  view.members = {MemberId{0, 1}, MemberId{1, 1}};
  view.joined = {MemberId{1, 1}};
  view.left = {MemberId{2, 1}};
  view.transitional = {MemberId{0, 1}};
  EXPECT_EQ(hex(wire::encode_view(view)),
            "0000005512000000036f707300000000000000070000000200000000000000050400000002000000"
            "00000000010000000100000001000000010000000100000001000000010000000200000001000000"
            "010000000000000001");
  EXPECT_EQ(hex(wire::encode_transitional("ops")), "0000000813000000036f7073");
}

/// Forwards every hook to the observer it displaced (the cluster's
/// invariant checker) and keeps the raw GCS-level payloads per msg_type.
class PayloadTap : public gcs::ClientTrace {
 public:
  PayloadTap() : next_(set_global(this)) {}
  ~PayloadTap() override { set_global(next_); }

  void on_attach(const MemberId& m) override { next_->on_attach(m); }
  void on_view(gcs::TraceLayer l, const MemberId& m, const gcs::GroupView& v) override {
    next_->on_view(l, m, v);
  }
  void on_message(gcs::TraceLayer l, const MemberId& m, const gcs::Message& msg) override {
    if (l == gcs::TraceLayer::kGcs) {
      const Bytes raw(msg.payload.begin(), msg.payload.end());
      first.try_emplace(msg.msg_type, raw);
      last[msg.msg_type] = raw;
    }
    next_->on_message(l, m, msg);
  }
  void on_transitional(gcs::TraceLayer l, const MemberId& m, const gcs::GroupName& g) override {
    next_->on_transitional(l, m, g);
  }
  void on_key_installed(const MemberId& m, const gcs::GroupName& g, std::uint64_t epoch,
                        const Bytes& key_id, const gcs::GroupViewId& vid) override {
    next_->on_key_installed(m, g, epoch, key_id, vid);
  }
  void on_message_opened(const MemberId& m, const gcs::GroupName& g, const Bytes& key_id,
                         const gcs::GroupViewId& msg_view,
                         const gcs::GroupViewId& current_view) override {
    next_->on_message_opened(m, g, key_id, msg_view, current_view);
  }

  std::map<std::int16_t, Bytes> first;
  std::map<std::int16_t, Bytes> last;

 private:
  gcs::ClientTrace* next_;
};

TEST(WireGolden, FlushAndSecureEnvelopes) {
  testing::Cluster c(2);
  ASSERT_TRUE(c.converge(2));
  cliques::KeyDirectory dir(crypto::DhGroup::tiny64());
  PayloadTap tap;
  secure::SecureGroupConfig cfg;
  cfg.dh = &crypto::DhGroup::tiny64();
  // The null suite leaves the signed inner wrapper readable on the wire.
  cfg.cipher = "null";
  cfg.authenticate_senders = true;
  {
    secure::SecureGroupClient a(*c.daemons[0], dir, 11);
    secure::SecureGroupClient b(*c.daemons[1], dir, 12);
    a.join("g", cfg);
    ASSERT_TRUE(c.run_until([&] { return a.has_key("g"); }, 5 * sim::kSecond));
    b.join("g", cfg);
    ASSERT_TRUE(c.run_until([&] { return a.has_key("g") && b.has_key("g"); }, 5 * sim::kSecond));
    c.run_for(200 * sim::kMillisecond);
    int got = 0;
    b.on_message([&](const secure::SecureMessage& m) { got += m.authenticated ? 1 : 0; });
    a.send("g", bytes_of("hello"), 7);
    ASSERT_TRUE(c.run_until([&] { return got == 1; }, 5 * sim::kSecond));
  }
  const auto handoff = static_cast<std::int16_t>(secure::KaMsgType::kClqHandoff);
  ASSERT_TRUE(tap.first.count(flush::kFlushOkType) && tap.first.count(flush::kFlushDataType) &&
              tap.first.count(handoff));
  // FLUSH_OK: the acknowledged view id.
  EXPECT_EQ(hex(tap.first[flush::kFlushOkType]), "0000000000000002000000000000000000000001");
  // Unicast view tag around the Cliques join handoff.
  EXPECT_EQ(hex(tap.first[handoff]),
            "00000000000000020000000000000000000000030000003800000000000000010000000100000001"
            "0000000100000000000000010000000000000008aeffe710dc1dff3f000000080da0a44ccbf28d05");
  // Flush data envelope around the first secure envelope (an unsigned
  // commitment announcement) ...
  EXPECT_EQ(hex(tap.first[flush::kFlushDataType]),
            "00000000000000020000000000000000000000018acf0000001f00000008c24a7e0bc380f8a08ace"
            "0000000d00000000086d641356e53c5298");
  // ... and around the signed application message.
  EXPECT_EQ(hex(tap.last[flush::kFlushDataType]),
            "00000000000000020000000000000000000000038acf00000038000000089d3df33a56ac62bd0007"
            "000000260100000018000000081f3301123149a543000000083f39c025ee10a7900000000568656c"
            "6c6f");
}

}  // namespace
}  // namespace ss
