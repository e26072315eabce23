// netd tests: cluster-conf error routing (file:line:col messages),
// deterministic key preprovisioning across independent processes, the
// client wire codec, and a live DaemonHost + ClientGate + Client loop on
// localhost TCP.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cliques/key_directory.h"
#include "crypto/dh.h"
#include "gcs/link_crypto.h"
#include "netd/client.h"
#include "netd/client_gate.h"
#include "netd/client_wire.h"
#include "netd/daemon_host.h"
#include "netd/keystore.h"

namespace {

using namespace ss;

std::string error_of(const std::string& conf_text) {
  try {
    netd::parse_cluster_conf(conf_text, "cluster.conf");
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ClusterConf, ParsesAddressesIntoTheMap) {
  const netd::ClusterConf conf = netd::parse_cluster_conf(
      "daemon 0 127.0.0.1:4803\n"
      "daemon 1 127.0.0.1:4804\n"
      "heartbeat_ms 50\n",
      "cluster.conf");
  EXPECT_EQ(conf.base.daemons.size(), 2u);
  EXPECT_EQ(conf.addresses.of(0).to_string(), "127.0.0.1:4803");
  EXPECT_EQ(conf.addresses.of(1).to_string(), "127.0.0.1:4804");
  EXPECT_EQ(conf.base.timing.heartbeat_interval, 50 * runtime::kMillisecond);
}

TEST(ClusterConf, MissingAddressNamesTheLineAndTheFix) {
  const std::string what = error_of("daemon 0 127.0.0.1:4803\ndaemon 1\n");
  EXPECT_NE(what.find("cluster.conf"), std::string::npos) << what;
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  EXPECT_NE(what.find("daemon <id> <ip:port>"), std::string::npos) << what;
}

TEST(ClusterConf, BadAddressCarriesLineAndColumn) {
  const std::string what = error_of("daemon 0 127.0.0.1:4803\ndaemon 1 127.0.0.1:99999\n");
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  EXPECT_NE(what.find("column 11"), std::string::npos) << what;  // port digits start at col 11
}

TEST(ClusterConf, DuplicateEndpointIsRejected) {
  const std::string what = error_of("daemon 0 127.0.0.1:4803\ndaemon 1 127.0.0.1:4803\n");
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
}

TEST(ClusterConf, UnreadableFileThrowsRuntimeError) {
  EXPECT_THROW(netd::load_cluster_conf("/nonexistent/cluster.conf"), std::runtime_error);
}

TEST(Keystore, DaemonKeysAreIdenticalAcrossIndependentStores) {
  // Two spreadd processes never exchange keys: both must derive the same
  // long-term pairs from the shared master seed, in any provisioning order.
  const std::vector<gcs::DaemonId> daemons = {0, 1, 2};
  gcs::DaemonKeyStore a(crypto::DhGroup::tiny64());
  gcs::DaemonKeyStore b(crypto::DhGroup::tiny64());
  netd::provision_daemon_keys(a, daemons, 0x5353);
  netd::provision_daemon_keys(b, {2, 0, 1}, 0x5353);  // different order
  for (gcs::DaemonId d : daemons) {
    EXPECT_EQ(a.public_key(d), b.public_key(d)) << "daemon " << d;
    EXPECT_EQ(a.private_key(d), b.private_key(d)) << "daemon " << d;
  }
  gcs::DaemonKeyStore c(crypto::DhGroup::tiny64());
  netd::provision_daemon_keys(c, daemons, 0x5354);  // different seed
  EXPECT_NE(a.private_key(0), c.private_key(0));
}

TEST(Keystore, MemberKeysAreIdenticalAcrossIndependentDirectories) {
  const std::vector<gcs::DaemonId> daemons = {0, 1, 2};
  cliques::KeyDirectory a(crypto::DhGroup::tiny64());
  cliques::KeyDirectory b(crypto::DhGroup::tiny64());
  netd::provision_member_keys(a, daemons, 2, 0x5353);
  netd::provision_member_keys(b, {1, 2, 0}, 2, 0x5353);
  for (gcs::DaemonId d : daemons) {
    for (std::uint32_t cidx = 1; cidx <= 2; ++cidx) {
      const gcs::MemberId m{d, cidx};
      EXPECT_EQ(a.public_key(m), b.public_key(m)) << m.to_string();
    }
  }
}

TEST(ClientWire, MessageAndViewRoundTrip) {
  gcs::Message msg;
  msg.group = "ops";
  msg.sender = gcs::MemberId{2, 7};
  msg.service = gcs::ServiceType::kAgreed;
  msg.msg_type = -17;
  msg.payload = util::SharedBytes(util::bytes_of("sealed"));
  msg.view_id = gcs::GroupViewId{gcs::ViewId{9, 1}, 4};
  util::Bytes framed = netd::wire::encode_message(msg);
  auto body = netd::wire::next_frame(framed);
  ASSERT_TRUE(body.has_value());
  EXPECT_TRUE(framed.empty());
  util::Reader r(*body);
  ASSERT_EQ(netd::wire::peek_op(r), netd::wire::Op::kMessage);
  const gcs::Message back = netd::wire::decode_message(r);
  r.expect_done();
  EXPECT_EQ(back.group, msg.group);
  EXPECT_EQ(back.sender, msg.sender);
  EXPECT_EQ(back.service, msg.service);
  EXPECT_EQ(back.msg_type, msg.msg_type);
  EXPECT_EQ(back.payload, msg.payload);
  EXPECT_EQ(back.view_id, msg.view_id);

  gcs::GroupView view;
  view.group = "ops";
  view.view_id = gcs::GroupViewId{gcs::ViewId{3, 0}, 2};
  view.reason = gcs::MembershipReason::kDisconnect;
  view.members = {gcs::MemberId{0, 1}, gcs::MemberId{1, 1}};
  view.joined = {gcs::MemberId{1, 1}};
  view.left = {gcs::MemberId{2, 1}};
  view.transitional = {gcs::MemberId{0, 1}};
  util::Bytes vframed = netd::wire::encode_view(view);
  auto vbody = netd::wire::next_frame(vframed);
  ASSERT_TRUE(vbody.has_value());
  util::Reader vr(*vbody);
  ASSERT_EQ(netd::wire::peek_op(vr), netd::wire::Op::kView);
  const gcs::GroupView vback = netd::wire::decode_view(vr);
  vr.expect_done();
  EXPECT_EQ(vback.view_id, view.view_id);
  EXPECT_EQ(vback.reason, view.reason);
  EXPECT_EQ(vback.members, view.members);
  EXPECT_EQ(vback.joined, view.joined);
  EXPECT_EQ(vback.left, view.left);
  EXPECT_EQ(vback.transitional, view.transitional);
}

TEST(ClientWire, OversizedPrefixThrowsInsteadOfAllocating) {
  util::Bytes buf = {0x7f, 0xff, 0xff, 0xff};
  EXPECT_THROW(netd::wire::next_frame(buf), util::SerialError);
}

TEST(ClientWire, CorruptViewMemberCountThrowsInsteadOfAllocating) {
  // A kView body whose member count claims 2^32-1 entries with no bytes
  // behind it must fail bounds-checked, not pre-allocate gigabytes.
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(netd::wire::Op::kView));
  w.str("ops");
  gcs::GroupViewId{gcs::ViewId{3, 0}, 2}.encode(w);
  w.u8(static_cast<std::uint8_t>(gcs::MembershipReason::kDisconnect));
  w.u32(0xffffffffu);
  util::Bytes body = w.take();
  util::Reader r(body);
  ASSERT_EQ(netd::wire::peek_op(r), netd::wire::Op::kView);
  EXPECT_THROW(netd::wire::decode_view(r), util::SerialError);
}

// --- live gate + client -----------------------------------------------------

class GateFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    netd::ClusterConf conf =
        netd::parse_cluster_conf("daemon 0 127.0.0.1:0\nheartbeat_ms 50\nfail_timeout_ms 2000\n",
                                 "gate-test.conf");
    host_ = std::make_unique<netd::DaemonHost>(std::move(conf), 0, netd::DaemonHost::Options{});
    host_->start();
    gate_ = std::make_unique<netd::ClientGate>(*host_);
    gate_ep_ = gate_->start(0);
  }

  void TearDown() override {
    gate_->stop();
    host_->stop();
  }

  /// Drains events until pred says done; returns false on timeout.
  static bool pump(netd::Client& c, const std::function<bool(const netd::Client::Event&)>& pred,
                   int max_events = 50) {
    for (int i = 0; i < max_events; ++i) {
      auto ev = c.next_event(std::chrono::milliseconds(2000));
      if (!ev) return false;
      if (pred(*ev)) return true;
    }
    return false;
  }

  std::unique_ptr<netd::DaemonHost> host_;
  std::unique_ptr<netd::ClientGate> gate_;
  net::Endpoint gate_ep_;
};

TEST_F(GateFixture, TwoClientsJoinExchangeAndLeave) {
  netd::Client a, b;
  a.connect(gate_ep_);
  b.connect(gate_ep_);
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(a.id().daemon, 0u);

  a.join("chat");
  ASSERT_TRUE(pump(a, [&](const netd::Client::Event& ev) {
    return ev.kind == netd::Client::Event::Kind::kView && ev.view.members.size() == 1;
  }));
  b.join("chat");
  ASSERT_TRUE(pump(a, [&](const netd::Client::Event& ev) {
    return ev.kind == netd::Client::Event::Kind::kView && ev.view.members.size() == 2;
  }));
  ASSERT_TRUE(pump(b, [&](const netd::Client::Event& ev) {
    return ev.kind == netd::Client::Event::Kind::kView && ev.view.members.size() == 2;
  }));

  a.multicast(gcs::ServiceType::kFifo, "chat", 7, util::bytes_of("over tcp"));
  gcs::Message got;
  ASSERT_TRUE(pump(b, [&](const netd::Client::Event& ev) {
    if (ev.kind != netd::Client::Event::Kind::kMessage) return false;
    got = ev.message;
    return true;
  }));
  EXPECT_EQ(got.sender, a.id());
  EXPECT_EQ(got.msg_type, 7);
  EXPECT_EQ(util::string_of(got.payload), "over tcp");

  // Graceful leave: the survivor sees a kLeave view back to one member.
  b.disconnect();
  ASSERT_TRUE(pump(a, [&](const netd::Client::Event& ev) {
    return ev.kind == netd::Client::Event::Kind::kView && ev.view.members.size() == 1 &&
           ev.view.reason == gcs::MembershipReason::kLeave;
  }));
}

TEST_F(GateFixture, ShortTimeoutReadsQueuedDelivery) {
  netd::Client a;
  a.connect(gate_ep_);
  a.join("chat");
  ASSERT_TRUE(pump(a, [&](const netd::Client::Event& ev) {
    return ev.kind == netd::Client::Event::Kind::kView && ev.view.members.size() == 1;
  }));
  a.multicast(gcs::ServiceType::kFifo, "chat", 0, util::bytes_of("queued"));
  // Let the self-delivery land in the client's socket before polling.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // A 1 ms wait rounds down to 0 ms of poll time; it must still read what
  // is already queued rather than return empty-handed every time.
  std::optional<netd::Client::Event> got;
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!got && std::chrono::steady_clock::now() < give_up) {
    got = a.next_event(std::chrono::milliseconds(1));
    if (got && got->kind != netd::Client::Event::Kind::kMessage) got.reset();
  }
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(util::string_of(got->message.payload), "queued");
}

TEST_F(GateFixture, DroppedConnectionSurfacesAsDisconnect) {
  netd::Client a, b;
  a.connect(gate_ep_);
  b.connect(gate_ep_);
  a.join("chat");
  b.join("chat");
  ASSERT_TRUE(pump(a, [&](const netd::Client::Event& ev) {
    return ev.kind == netd::Client::Event::Kind::kView && ev.view.members.size() == 2;
  }));
  // Simulate a client crash: close the socket without a goodbye. The
  // daemon must report a Disconnect (not a Leave) to survivors.
  b.kill();
  ASSERT_TRUE(pump(a, [&](const netd::Client::Event& ev) {
    return ev.kind == netd::Client::Event::Kind::kView && ev.view.members.size() == 1 &&
           ev.view.reason == gcs::MembershipReason::kDisconnect;
  }));
}

}  // namespace
