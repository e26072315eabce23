// Tests for encrypted daemon-to-daemon links (paper Section 5: daemons must
// protect their ordering/membership traffic from network attackers).
#include "gcs/link_crypto.h"

#include <gtest/gtest.h>

#include "secure/secure_client.h"
#include "tests/cluster_fixture.h"

namespace ss::gcs {
namespace {

using crypto::DhGroup;
using util::Bytes;
using util::bytes_of;

TEST(LinkCryptoUnit, SealOpenRoundTrip) {
  DaemonKeyStore store(DhGroup::ss256());
  crypto::HmacDrbg rnd(1, "lc");
  store.provision(0, rnd);
  store.provision(1, rnd);
  LinkCrypto a(store, 0, 11);
  LinkCrypto b(store, 1, 22);
  const Bytes frame = bytes_of("a daemon protocol frame");
  const Bytes sealed = a.seal(1, frame);
  EXPECT_NE(sealed, frame);
  EXPECT_EQ(b.open(0, sealed), frame);
}

TEST(LinkCryptoUnit, PairwiseKeysAreDirectional) {
  DaemonKeyStore store(DhGroup::ss256());
  crypto::HmacDrbg rnd(2, "lc");
  for (DaemonId d : {0u, 1u, 2u}) store.provision(d, rnd);
  LinkCrypto a(store, 0, 1);
  LinkCrypto b(store, 1, 2);
  LinkCrypto c(store, 2, 3);
  // A frame sealed for daemon 1 cannot be opened by daemon 2.
  const Bytes sealed = a.seal(1, bytes_of("for b only"));
  EXPECT_THROW(c.open(0, sealed), std::runtime_error);
  EXPECT_EQ(b.open(0, sealed), bytes_of("for b only"));
}

TEST(LinkCryptoUnit, TamperRejected) {
  DaemonKeyStore store(DhGroup::ss256());
  crypto::HmacDrbg rnd(3, "lc");
  store.provision(0, rnd);
  store.provision(1, rnd);
  LinkCrypto a(store, 0, 1);
  LinkCrypto b(store, 1, 2);
  Bytes sealed = a.seal(1, bytes_of("payload"));
  sealed[sealed.size() / 2] ^= 0x40;
  EXPECT_THROW(b.open(0, sealed), std::runtime_error);
}

TEST(LinkCryptoUnit, RoundTripEveryLengthTo100) {
  DaemonKeyStore store(DhGroup::ss256());
  crypto::HmacDrbg rnd(7, "lc");
  store.provision(0, rnd);
  store.provision(1, rnd);
  LinkCrypto a(store, 0, 1);
  LinkCrypto b(store, 1, 2);
  for (std::size_t n = 0; n <= 100; ++n) {
    Bytes frame(n);
    for (std::size_t i = 0; i < n; ++i) frame[i] = static_cast<std::uint8_t>(i * 29 + n);
    ASSERT_EQ(b.open(0, a.seal(1, frame)), frame) << "size " << n;
  }
}

TEST(LinkCryptoUnit, EveryBitFlipAndTruncationRejected) {
  DaemonKeyStore store(DhGroup::ss256());
  crypto::HmacDrbg rnd(8, "lc");
  store.provision(0, rnd);
  store.provision(1, rnd);
  LinkCrypto a(store, 0, 1);
  LinkCrypto b(store, 1, 2);
  const Bytes sealed = a.seal(1, Bytes(45, 0x6B));
  ASSERT_EQ(sealed.size(), 8u + 20u + 48u);
  for (std::size_t bit = 0; bit < sealed.size() * 8; ++bit) {
    Bytes bad = sealed;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW(b.open(0, bad), std::runtime_error) << "bit " << bit;
  }
  for (std::size_t len = 0; len < sealed.size(); ++len) {
    const Bytes cut(sealed.begin(), sealed.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(b.open(0, cut), std::runtime_error) << "len " << len;
  }
}

// One sealed link frame, as recorded: it pins the static-DH key, the KDF,
// the DRBG's IV and the iv || tag || ct layout.
TEST(LinkCryptoUnit, SealedFramePinned) {
  DaemonKeyStore store(DhGroup::ss256());
  crypto::HmacDrbg rnd(6, "lc-pin");
  store.provision(0, rnd);
  store.provision(1, rnd);
  LinkCrypto a(store, 0, 11);
  LinkCrypto b(store, 1, 22);
  const Bytes frame = bytes_of("a pinned daemon frame");
  const Bytes sealed = a.seal(1, frame);
  EXPECT_EQ(util::to_hex(sealed),
            "fd9e0da9acb75f80919973332b312bb7cd533b3271110d9e96175e256d414bbf"
            "d8a6b064f0662ef32a66d41cb15d7d81abde3cf2");
  EXPECT_EQ(b.open(0, sealed), frame);
}

TEST(LinkCryptoUnit, UnprovisionedPeerRejected) {
  DaemonKeyStore store(DhGroup::ss256());
  crypto::HmacDrbg rnd(4, "lc");
  store.provision(0, rnd);
  LinkCrypto a(store, 0, 1);
  EXPECT_THROW(a.seal(9, bytes_of("x")), std::out_of_range);
  EXPECT_THROW(LinkCrypto(store, 5, 1), std::logic_error);
}

// --- full stack over encrypted links -----------------------------------------

struct SecureLinkStack {
  SecureLinkStack() : net(sched, 21), store(DhGroup::ss256()) {
    std::vector<DaemonId> ids = {0, 1, 2};
    for (DaemonId id : ids) {
      daemons.push_back(std::make_unique<Daemon>(ss::runtime::Env{&sched, &net, id}, ids, TimingConfig{}, 60 + id,
                                                 &store));
      net.add_node(daemons.back().get());
    }
    for (auto& d : daemons) d->start();
  }

  bool converge() {
    return sched.run_until_condition(
        [&] {
          for (auto& d : daemons) {
            if (!d->is_operational() || d->view_members().size() != 3) return false;
          }
          return true;
        },
        sched.now() + 10 * sim::kSecond);
  }

  sim::Scheduler sched;
  sim::SimNetwork net;
  DaemonKeyStore store;
  std::vector<std::unique_ptr<Daemon>> daemons;
};

TEST(EncryptedLinks, DaemonsConvergeAndGroupsWork) {
  SecureLinkStack s;
  ASSERT_TRUE(s.converge());
  testing::RecordingClient a(*s.daemons[0]);
  testing::RecordingClient b(*s.daemons[2]);
  a.mbox().join("room");
  b.mbox().join("room");
  ASSERT_TRUE(s.sched.run_until_condition(
      [&] {
        const auto* v = b.last_view("room");
        return v != nullptr && v->members.size() == 2;
      },
      s.sched.now() + 5 * sim::kSecond));
  a.mbox().multicast(ServiceType::kAgreed, "room", bytes_of("over sealed links"));
  ASSERT_TRUE(s.sched.run_until_condition([&] { return !b.payloads("room").empty(); },
                                          s.sched.now() + 5 * sim::kSecond));
  EXPECT_EQ(b.payloads("room")[0], "over sealed links");
}

TEST(EncryptedLinks, WireCarriesNoPlaintext) {
  SecureLinkStack s;
  bool leaked = false;
  const Bytes marker = bytes_of("super-secret-group-name");
  s.net.set_tap([&](sim::NodeId, sim::NodeId, const Bytes& packet) {
    auto it = std::search(packet.begin(), packet.end(), marker.begin(), marker.end());
    if (it != packet.end()) leaked = true;
  });
  ASSERT_TRUE(s.converge());
  testing::RecordingClient a(*s.daemons[0]);
  testing::RecordingClient b(*s.daemons[1]);
  a.mbox().join("super-secret-group-name");
  b.mbox().join("super-secret-group-name");
  s.sched.run_for(500 * sim::kMillisecond);
  a.mbox().multicast(ServiceType::kFifo, "super-secret-group-name",
                     bytes_of("super-secret-group-name"));
  s.sched.run_for(500 * sim::kMillisecond);
  EXPECT_FALSE(b.payloads("super-secret-group-name").empty());
  EXPECT_FALSE(leaked) << "group name visible on the wire despite link encryption";
}

TEST(EncryptedLinks, PlainLinksDoLeak) {
  // Control experiment: without link crypto the group name IS on the wire.
  sim::Scheduler sched;
  sim::SimNetwork net(sched, 22);
  std::vector<DaemonId> ids = {0, 1};
  std::vector<std::unique_ptr<Daemon>> daemons;
  for (DaemonId id : ids) {
    daemons.push_back(std::make_unique<Daemon>(ss::runtime::Env{&sched, &net, id}, ids, TimingConfig{}, 80 + id));
    net.add_node(daemons.back().get());
  }
  bool seen = false;
  const Bytes marker = bytes_of("visible-group");
  net.set_tap([&](sim::NodeId, sim::NodeId, const Bytes& packet) {
    if (std::search(packet.begin(), packet.end(), marker.begin(), marker.end()) != packet.end()) {
      seen = true;
    }
  });
  for (auto& d : daemons) d->start();
  sched.run_until_condition(
      [&] { return daemons[0]->view_members().size() == 2; }, 10 * sim::kSecond);
  testing::RecordingClient a(*daemons[0]);
  testing::RecordingClient b(*daemons[1]);
  a.mbox().join("visible-group");
  b.mbox().join("visible-group");
  sched.run_for(500 * sim::kMillisecond);
  EXPECT_TRUE(seen);
}

TEST(EncryptedLinks, ForgedPacketsRejectedWithoutDisruption) {
  SecureLinkStack s;
  ASSERT_TRUE(s.converge());
  // An attacker node on the network blasts junk at daemon 0.
  struct Attacker : sim::NetNode {
    void on_packet(sim::NodeId, const util::Frame&) override {}
  } attacker;
  const sim::NodeId evil = s.net.add_node(&attacker);
  for (int i = 0; i < 50; ++i) {
    Bytes junk(64, static_cast<std::uint8_t>(i));
    s.net.send(evil, 0, junk);
  }
  s.sched.run_for(200 * sim::kMillisecond);
  EXPECT_GE(s.daemons[0]->link_frames_rejected(), 50u);
  // The cluster is unbothered.
  EXPECT_TRUE(s.daemons[0]->is_operational());
  EXPECT_EQ(s.daemons[0]->view_members().size(), 3u);
}

TEST(EncryptedLinks, SecureSpreadRunsOnTop) {
  // Defense in depth: client-layer Cliques over daemon-layer sealed links.
  SecureLinkStack s;
  ASSERT_TRUE(s.converge());
  cliques::KeyDirectory dir(DhGroup::tiny64());
  secure::SecureGroupClient a(*s.daemons[0], dir, 1);
  secure::SecureGroupClient b(*s.daemons[1], dir, 2);
  secure::SecureGroupConfig cfg;
  cfg.dh = &DhGroup::tiny64();
  a.join("g", cfg);
  b.join("g", cfg);
  ASSERT_TRUE(s.sched.run_until_condition(
      [&] { return a.has_key("g") && b.has_key("g"); }, s.sched.now() + 10 * sim::kSecond));
  int got = 0;
  b.on_message([&](const secure::SecureMessage&) { ++got; });
  a.send("g", bytes_of("doubly protected"));
  ASSERT_TRUE(s.sched.run_until_condition([&] { return got == 1; },
                                          s.sched.now() + 5 * sim::kSecond));
}

}  // namespace
}  // namespace ss::gcs
