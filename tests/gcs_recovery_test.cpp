// Deeper GCS scenario tests: message recovery across view changes, SAFE
// stability under partition, causal chains, and charging compute time to
// the sim clock.
#include <gtest/gtest.h>

#include <algorithm>

#include "gcs/wire.h"
#include "tests/cluster_fixture.h"
#include "util/frame.h"
#include "util/serial.h"

namespace ss::gcs {
namespace {

using testing::Cluster;
using testing::RecordingClient;
using util::bytes_of;
using util::string_of;

TEST(SchedulerCharge, ChargeTimeAdvancesWithoutRunningEvents) {
  sim::Scheduler sched;
  bool fired = false;
  sched.after(100, [&] { fired = true; });
  sched.charge_time(1000);
  EXPECT_EQ(sched.now(), 1000u);
  EXPECT_FALSE(fired);  // charge does not execute events
  sched.run_until(sched.now());
  EXPECT_TRUE(fired);  // the overdue event runs on the next pump
}

class RecoveryFixture : public ::testing::Test {
 protected:
  RecoveryFixture() : c(3) {
    EXPECT_TRUE(c.converge(3));
    for (int i = 0; i < 3; ++i) {
      clients.push_back(std::make_unique<RecordingClient>(*c.daemons[static_cast<size_t>(i)]));
      clients.back()->mbox().join("g");
    }
    EXPECT_TRUE(c.run_until([&] {
      for (auto& cl : clients) {
        const auto* v = cl->last_view("g");
        if (v == nullptr || v->members.size() != 3) return false;
      }
      return true;
    }));
  }

  Cluster c;
  std::vector<std::unique_ptr<RecordingClient>> clients;
};

TEST_F(RecoveryFixture, AgreedBurstSurvivesImmediateCrash) {
  // A burst of agreed messages followed immediately by the sender's daemon
  // crash: survivors must agree on the identical delivered prefix.
  for (int i = 0; i < 20; ++i) {
    clients[0]->mbox().multicast(ServiceType::kAgreed, "g", bytes_of("a" + std::to_string(i)));
  }
  c.daemons[0]->crash();
  ASSERT_TRUE(c.run_until(
      [&] {
        const auto* v1 = clients[1]->last_view("g");
        const auto* v2 = clients[2]->last_view("g");
        return v1 != nullptr && v1->members.size() == 2 && v2 != nullptr &&
               v2->members.size() == 2;
      },
      10 * sim::kSecond));
  c.run_for(200 * sim::kMillisecond);
  // Identical sets in identical order — whatever prefix survived.
  EXPECT_EQ(clients[1]->payloads("g"), clients[2]->payloads("g"));
}

TEST_F(RecoveryFixture, RecoveryServesRetransmissionsUnderLoss) {
  // Lossy network + a burst racing a membership change: the recovery plan
  // must fetch missing messages so survivors converge.
  sim::LinkModel lossy;
  lossy.loss = 0.15;
  c.net.set_default_model(lossy);
  for (int i = 0; i < 15; ++i) {
    clients[1]->mbox().multicast(ServiceType::kFifo, "g", bytes_of("m" + std::to_string(i)));
  }
  c.daemons[0]->crash();  // forces a membership change mid-burst
  ASSERT_TRUE(c.run_until(
      [&] {
        const auto* v1 = clients[1]->last_view("g");
        const auto* v2 = clients[2]->last_view("g");
        return v1 != nullptr && v1->members.size() == 2 && v2 != nullptr &&
               v2->members.size() == 2;
      },
      20 * sim::kSecond));
  c.run_for(2 * sim::kSecond);
  // VS: survivors delivered the same set.
  EXPECT_EQ(clients[1]->payloads("g"), clients[2]->payloads("g"));
  // The sender delivered its own full burst; so did the other survivor.
  EXPECT_EQ(clients[1]->payloads("g").size(), 15u);
}

TEST_F(RecoveryFixture, SafeMessageWaitsForStability) {
  // A SAFE message sent while a member is silently unreachable cannot
  // become stable; it must be delivered only once the membership change
  // resolves (in the recovery of the old view).
  c.net.partition({{0}, {1, 2}});
  // Send SAFE from daemon 1's client immediately — daemon 1 does not yet
  // know about the partition.
  clients[1]->mbox().multicast(ServiceType::kSafe, "g", bytes_of("stable-or-bust"));
  // Within the failure-detection window, nothing can be delivered.
  c.run_for(5 * sim::kMillisecond);
  EXPECT_TRUE(clients[1]->payloads("g").empty());
  EXPECT_TRUE(clients[2]->payloads("g").empty());
  // After the membership change, the survivors deliver it consistently.
  ASSERT_TRUE(c.run_until(
      [&] {
        return clients[1]->payloads("g").size() == 1 && clients[2]->payloads("g").size() == 1;
      },
      10 * sim::kSecond));
  EXPECT_EQ(clients[1]->payloads("g")[0], "stable-or-bust");
}

TEST_F(RecoveryFixture, SafeIgnoresHeartbeatOfOtherView) {
  // Daemon 2 is cut off, so daemon 1 must not see a SAFE message as stable.
  // A heartbeat from daemon 2 stamped with an earlier view reports that
  // view's counters; they say nothing about this view's messages.
  c.net.partition({{0, 1}, {2}});
  clients[1]->mbox().multicast(ServiceType::kSafe, "g", bytes_of("stable-or-bust"));
  const ViewId current = c.daemons[1]->view();
  HeartbeatMsg hb;
  hb.view = ViewId{current.round - 1, current.coordinator};
  hb.delivered_gseq = 1000;
  const util::Bytes body = frame(MsgType::kHeartbeat, hb.encode());
  util::Writer w;
  w.u8(2);  // link raw frame: u8 kind, u32 length, framed message
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.raw(body.data(), body.size());
  c.daemons[1]->on_packet(2, util::Frame{w.take_shared()});
  c.run_for(5 * sim::kMillisecond);
  EXPECT_TRUE(clients[1]->payloads("g").empty());
}

TEST_F(RecoveryFixture, StoreTrimsAtAllReceivedLine) {
  // About 1,000 FIFO and agreed messages in one view. Once every member
  // has received them, the heartbeats carry that line and each daemon
  // erases what it has delivered: the store ends empty.
  constexpr std::size_t kMessages = 999;
  for (std::size_t i = 0; i < kMessages; ++i) {
    const ServiceType service = i % 3 == 0 ? ServiceType::kAgreed : ServiceType::kFifo;
    clients[i % 3]->mbox().multicast(service, "g", bytes_of("m" + std::to_string(i)));
    if (i % 30 == 29) c.run_for(sim::kMillisecond);
  }
  auto all_have = [&](std::size_t n) {
    for (auto& cl : clients) {
      if (cl->messages.size() < n) return false;
    }
    return true;
  };
  ASSERT_TRUE(c.run_until([&] { return all_have(kMessages); }, 10 * sim::kSecond));
  // Quiet: every daemon's next heartbeat reports the full receipt, and the
  // heartbeat after that trims (plus one link delay for the report).
  const sim::Time hb = TimingConfig{}.heartbeat_interval;
  EXPECT_TRUE(c.run_until(
      [&] {
        for (auto& d : c.daemons) {
          if (d->stored_messages() != 0) return false;
        }
        return true;
      },
      2 * hb + sim::kMillisecond));

  // A crash with a partly trimmed store: recovery looks for holes only
  // above the line, and the survivors go on delivering.
  for (int i = 0; i < 30; ++i) {
    clients[1]->mbox().multicast(ServiceType::kAgreed, "g", bytes_of("late" + std::to_string(i)));
  }
  c.run_for(hb);
  c.daemons[0]->crash();
  ASSERT_TRUE(c.run_until(
      [&] {
        const auto* v1 = clients[1]->last_view("g");
        const auto* v2 = clients[2]->last_view("g");
        return v1 != nullptr && v1->members.size() == 2 && v2 != nullptr &&
               v2->members.size() == 2;
      },
      10 * sim::kSecond));
  clients[2]->mbox().multicast(ServiceType::kAgreed, "g", bytes_of("after"));
  ASSERT_TRUE(c.run_until(
      [&] {
        return clients[1]->messages.size() == kMessages + 31 &&
               clients[2]->messages.size() == kMessages + 31;
      },
      10 * sim::kSecond));
  // FIFO messages of different senders need not be in one order: compare sets.
  std::vector<std::string> got1 = clients[1]->payloads("g");
  std::vector<std::string> got2 = clients[2]->payloads("g");
  EXPECT_EQ(got1.back(), "after");
  std::sort(got1.begin(), got1.end());
  std::sort(got2.begin(), got2.end());
  EXPECT_EQ(got1, got2);
}

TEST_F(RecoveryFixture, CausalChainAcrossThreeMembers) {
  // m1 (A) happens-before m2 (B) happens-before m3 (C); every member must
  // deliver them in causal order.
  clients[0]->mbox().multicast(ServiceType::kCausal, "g", bytes_of("c1"));
  ASSERT_TRUE(c.run_until([&] { return clients[1]->payloads("g").size() == 1; }));
  clients[1]->mbox().multicast(ServiceType::kCausal, "g", bytes_of("c2"));
  ASSERT_TRUE(c.run_until([&] { return clients[2]->payloads("g").size() == 2; }));
  clients[2]->mbox().multicast(ServiceType::kCausal, "g", bytes_of("c3"));
  ASSERT_TRUE(c.run_until([&] {
    for (auto& cl : clients) {
      if (cl->payloads("g").size() != 3) return false;
    }
    return true;
  }));
  const std::vector<std::string> expect = {"c1", "c2", "c3"};
  for (auto& cl : clients) EXPECT_EQ(cl->payloads("g"), expect);
}

TEST_F(RecoveryFixture, DaemonStatsTrackActivity) {
  clients[0]->mbox().multicast(ServiceType::kAgreed, "g", bytes_of("x"));
  ASSERT_TRUE(c.run_until([&] { return !clients[1]->payloads("g").empty(); }));
  const DaemonStats& st = c.daemons[0]->stats();
  EXPECT_GE(st.views_installed, 2u);   // singleton + merged
  EXPECT_GE(st.control_changes, 3u);   // three joins
  EXPECT_GT(st.messages_delivered, 0u);
}

TEST_F(RecoveryFixture, TransitionalPrecedesNetworkView) {
  c.net.partition({{0}, {1, 2}});
  ASSERT_TRUE(c.run_until(
      [&] {
        const auto* v = clients[1]->last_view("g");
        return v != nullptr && v->members.size() == 2;
      },
      10 * sim::kSecond));
  ASSERT_FALSE(clients[1]->transitionals.empty());
  EXPECT_EQ(clients[1]->transitionals.back(), "g");
}

}  // namespace
}  // namespace ss::gcs
