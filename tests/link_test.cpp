// Unit tests for the reliable FIFO link layer: retransmission under loss,
// peer-reboot renumbering, backoff, acknowledgement handling.
#include "gcs/link.h"

#include <gtest/gtest.h>

#include "sim/network.h"
#include "sim/scheduler.h"
#include "util/bytes.h"
#include "util/msgpath.h"

namespace ss::gcs {
namespace {

using util::Bytes;
using util::bytes_of;
using util::string_of;

struct LinkPair {
  explicit LinkPair(double loss = 0.0, std::uint64_t boot_a = 0xA, std::uint64_t boot_b = 0xB)
      : net(sched, 5, sim::LinkModel{150, 50, loss}) {
    node_a = net.add_node(&relay_a);
    node_b = net.add_node(&relay_b);
    a = std::make_unique<LinkManager>(ss::runtime::Env{&sched, &net, node_a}, boot_a, TimingConfig{},
                                      [this](DaemonId from, const util::SharedBytes& m) {
                                        a_received.emplace_back(from, string_of(m));
                                      });
    b = std::make_unique<LinkManager>(ss::runtime::Env{&sched, &net, node_b}, boot_b, TimingConfig{},
                                      [this](DaemonId from, const util::SharedBytes& m) {
                                        b_received.emplace_back(from, string_of(m));
                                      });
    relay_a.target = a.get();
    relay_b.target = b.get();
  }

  struct Relay : sim::NetNode {
    LinkManager* target = nullptr;
    void on_packet(sim::NodeId from, const util::Frame& payload) override {
      if (target != nullptr) target->on_packet(from, payload);
    }
  };

  std::vector<std::string> b_payloads() const {
    std::vector<std::string> out;
    for (const auto& [from, payload] : b_received) out.push_back(payload);
    return out;
  }

  sim::Scheduler sched;
  sim::SimNetwork net;
  Relay relay_a, relay_b;
  sim::NodeId node_a = 0, node_b = 0;
  std::unique_ptr<LinkManager> a, b;
  std::vector<std::pair<DaemonId, std::string>> a_received;
  std::vector<std::pair<DaemonId, std::string>> b_received;
};

TEST(LinkTest, DeliversInOrder) {
  LinkPair lp;
  for (int i = 0; i < 10; ++i) lp.a->send(lp.node_b, bytes_of("m" + std::to_string(i)));
  lp.sched.run_for(100 * sim::kMillisecond);
  std::vector<std::string> expect;
  for (int i = 0; i < 10; ++i) expect.push_back("m" + std::to_string(i));
  EXPECT_EQ(lp.b_payloads(), expect);
}

TEST(LinkTest, SelfLoopback) {
  LinkPair lp;
  lp.a->send(lp.node_a, bytes_of("to-myself"));
  lp.sched.run_for(sim::kMillisecond);
  ASSERT_EQ(lp.a_received.size(), 1u);
  EXPECT_EQ(lp.a_received[0].second, "to-myself");
}

TEST(LinkTest, RecoversFromHeavyLoss) {
  LinkPair lp(/*loss=*/0.3);
  for (int i = 0; i < 30; ++i) lp.a->send(lp.node_b, bytes_of("x" + std::to_string(i)));
  lp.sched.run_for(2 * sim::kSecond);
  ASSERT_EQ(lp.b_received.size(), 30u);
  for (int i = 0; i < 30; ++i) ASSERT_EQ(lp.b_received[static_cast<size_t>(i)].second,
                                         "x" + std::to_string(i));
  EXPECT_GT(lp.a->retransmissions(), 0u);
}

TEST(LinkTest, NoDuplicateDeliveries) {
  LinkPair lp(/*loss=*/0.4);
  for (int i = 0; i < 20; ++i) lp.a->send(lp.node_b, bytes_of(std::to_string(i)));
  lp.sched.run_for(5 * sim::kSecond);
  EXPECT_EQ(lp.b_received.size(), 20u);  // exactly once each
}

TEST(LinkTest, PeerRebootRenumbersStream) {
  LinkPair lp;
  lp.a->send(lp.node_b, bytes_of("before-1"));
  lp.a->send(lp.node_b, bytes_of("before-2"));
  lp.sched.run_for(50 * sim::kMillisecond);
  ASSERT_EQ(lp.b_received.size(), 2u);

  // b "reboots": fresh LinkManager with a new boot id, same node address.
  lp.b = std::make_unique<LinkManager>(ss::runtime::Env{&lp.sched, &lp.net, lp.node_b}, 0xB2, TimingConfig{},
                                       [&lp](DaemonId from, const util::SharedBytes& m) {
                                         lp.b_received.emplace_back(from, string_of(m));
                                       });
  lp.relay_b.target = lp.b.get();

  // a keeps sending with its old sequence numbers; the ack exchange must
  // renumber so the fresh receiver accepts.
  lp.a->send(lp.node_b, bytes_of("after-1"));
  lp.a->send(lp.node_b, bytes_of("after-2"));
  lp.sched.run_for(2 * sim::kSecond);
  ASSERT_EQ(lp.b_received.size(), 4u);
  EXPECT_EQ(lp.b_received[2].second, "after-1");
  EXPECT_EQ(lp.b_received[3].second, "after-2");
}

TEST(LinkTest, SenderRebootAcceptedAsFreshStream) {
  LinkPair lp;
  lp.a->send(lp.node_b, bytes_of("old-1"));
  lp.sched.run_for(50 * sim::kMillisecond);
  // a reboots with a new boot id.
  lp.a = std::make_unique<LinkManager>(ss::runtime::Env{&lp.sched, &lp.net, lp.node_a}, 0xA2, TimingConfig{},
                                       [&lp](DaemonId from, const util::SharedBytes& m) {
                                         lp.a_received.emplace_back(from, string_of(m));
                                       });
  lp.relay_a.target = lp.a.get();
  lp.a->send(lp.node_b, bytes_of("new-1"));
  lp.sched.run_for(2 * sim::kSecond);
  ASSERT_EQ(lp.b_received.size(), 2u);
  EXPECT_EQ(lp.b_received[1].second, "new-1");
}

TEST(LinkTest, BackoffBoundsRetransmissionChurn) {
  // Partition the pair; retransmissions must back off instead of hammering.
  LinkPair lp;
  lp.net.partition({{lp.node_a}, {lp.node_b}});
  lp.a->send(lp.node_b, bytes_of("into the void"));
  lp.sched.run_for(sim::kSecond);
  const std::uint64_t after_1s = lp.a->retransmissions();
  lp.sched.run_for(9 * sim::kSecond);
  const std::uint64_t after_10s = lp.a->retransmissions();
  // Without backoff this would be ~500/s; with exponential backoff the
  // 9 extra seconds add only a handful.
  EXPECT_LT(after_10s - after_1s, after_1s * 9);
  // Heal: the message finally arrives.
  lp.net.heal();
  lp.sched.run_for(5 * sim::kSecond);
  ASSERT_EQ(lp.b_received.size(), 1u);
}

TEST(LinkTest, SteadyTrafficDoesNotRetransmit) {
  // A send every 100 us on a lossless link (RTT ~300 us, link_rto 2 ms):
  // something is always unacked, but every ack makes progress, so the RTO
  // (counted from the last progress) never expires.
  LinkPair lp;
  for (int i = 0; i < 500; ++i) {
    lp.a->send(lp.node_b, bytes_of("s" + std::to_string(i)));
    lp.sched.run_for(100 * sim::kMicrosecond);
  }
  lp.sched.run_for(100 * sim::kMillisecond);
  EXPECT_EQ(lp.b_received.size(), 500u);
  EXPECT_EQ(lp.a->retransmissions(), 0u);
}

TEST(LinkTest, ShutdownStopsTraffic) {
  LinkPair lp;
  lp.a->send(lp.node_b, bytes_of("pre"));
  lp.sched.run_for(50 * sim::kMillisecond);
  lp.a->shutdown();
  lp.a->send(lp.node_b, bytes_of("post"));
  lp.sched.run_for(sim::kSecond);
  EXPECT_EQ(lp.b_received.size(), 1u);
}

TEST(LinkTest, ResetPeerDropsPendingTraffic) {
  LinkPair lp;
  lp.net.partition({{lp.node_a}, {lp.node_b}});
  lp.a->send(lp.node_b, bytes_of("doomed"));
  lp.sched.run_for(100 * sim::kMillisecond);
  lp.a->reset_peer(lp.node_b);
  lp.net.heal();
  lp.sched.run_for(2 * sim::kSecond);
  EXPECT_TRUE(lp.b_received.empty());
  // New traffic flows normally after the reset.
  lp.a->send(lp.node_b, bytes_of("fresh"));
  lp.sched.run_for(2 * sim::kSecond);
  ASSERT_EQ(lp.b_received.size(), 1u);
  EXPECT_EQ(lp.b_received[0].second, "fresh");
}

TEST(LinkTest, PacksSmallMessagesIntoOneFrame) {
  util::msgpath_reset();
  LinkPair lp;
  // Ten small sends in the same instant: one pack frame on the wire.
  for (int i = 0; i < 10; ++i) lp.a->send(lp.node_b, bytes_of("p" + std::to_string(i)));
  lp.sched.run_for(100 * sim::kMillisecond);
  std::vector<std::string> expect;
  for (int i = 0; i < 10; ++i) expect.push_back("p" + std::to_string(i));
  EXPECT_EQ(lp.b_payloads(), expect);
  EXPECT_EQ(util::msgpath().frames_packed, 1u);
  EXPECT_EQ(util::msgpath().messages_packed, 10u);
  // One pack + one cumulative ack.
  EXPECT_EQ(lp.net.stats().packets_sent, 2u);
}

TEST(LinkTest, BigMessageFlushesPackQueueFirst) {
  util::msgpath_reset();
  LinkPair lp;
  const Bytes big(TimingConfig{}.link_pack_limit + 1, 0x42);
  lp.a->send(lp.node_b, bytes_of("small-1"));
  lp.a->send(lp.node_b, bytes_of("small-2"));
  lp.a->send(lp.node_b, big);  // must not overtake the queued smalls
  lp.sched.run_for(100 * sim::kMillisecond);
  ASSERT_EQ(lp.b_received.size(), 3u);
  EXPECT_EQ(lp.b_received[0].second, "small-1");
  EXPECT_EQ(lp.b_received[1].second, "small-2");
  EXPECT_EQ(lp.b_received[2].second.size(), big.size());
  EXPECT_EQ(lp.a->retransmissions(), 0u);  // FIFO order held, no RTO repair
  EXPECT_EQ(util::msgpath().frames_packed, 1u);
  EXPECT_EQ(util::msgpath().messages_packed, 2u);
}

TEST(LinkTest, PackingDisabledSendsPlainFrames) {
  util::msgpath_reset();
  TimingConfig timing;
  timing.link_pack_limit = 0;
  sim::Scheduler sched;
  sim::SimNetwork net(sched, 7);
  LinkPair::Relay relay_a, relay_b;
  const sim::NodeId na = net.add_node(&relay_a);
  const sim::NodeId nb = net.add_node(&relay_b);
  std::vector<std::string> got;
  LinkManager a(ss::runtime::Env{&sched, &net, na}, 0xA, timing, [](DaemonId, const util::SharedBytes&) {});
  LinkManager b(ss::runtime::Env{&sched, &net, nb}, 0xB, timing,
                [&got](DaemonId, const util::SharedBytes& m) { got.push_back(string_of(m)); });
  relay_a.target = &a;
  relay_b.target = &b;
  for (int i = 0; i < 5; ++i) a.send(nb, bytes_of("n" + std::to_string(i)));
  sched.run_for(100 * sim::kMillisecond);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(util::msgpath().frames_packed, 0u);
  EXPECT_EQ(util::msgpath().messages_packed, 0u);
}

TEST(LinkTest, PackedMessagesSurviveLoss) {
  LinkPair lp(/*loss=*/0.3);
  // Bursts of small messages across several instants under heavy loss:
  // packs may drop; go-back-N retransmission must still deliver exactly
  // once, in order.
  for (int burst = 0; burst < 10; ++burst) {
    for (int i = 0; i < 3; ++i) {
      lp.a->send(lp.node_b, bytes_of("b" + std::to_string(burst) + "-" + std::to_string(i)));
    }
    lp.sched.run_for(sim::kMillisecond);
  }
  lp.sched.run_for(5 * sim::kSecond);
  ASSERT_EQ(lp.b_received.size(), 30u);
  std::size_t idx = 0;
  for (int burst = 0; burst < 10; ++burst) {
    for (int i = 0; i < 3; ++i, ++idx) {
      EXPECT_EQ(lp.b_received[idx].second,
                "b" + std::to_string(burst) + "-" + std::to_string(i));
    }
  }
}

TEST(LinkTest, ScatterTransmitCopiesPayloadZeroTimes) {
  util::msgpath_reset();
  LinkPair lp;
  const Bytes big(4096, 0x7E);
  lp.a->send(lp.node_b, big);
  lp.sched.run_for(100 * sim::kMillisecond);
  ASSERT_EQ(lp.b_received.size(), 1u);
  // The 4 KiB body rode as a shared scatter segment end to end: the only
  // copy in this test is b_received storing the delivered string.
  EXPECT_EQ(util::msgpath().payload_copies, 0u);
  EXPECT_EQ(util::msgpath().payload_bytes_copied, 0u);
}

}  // namespace
}  // namespace ss::gcs
