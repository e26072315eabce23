// Self-checks of the benchmark's own statistics and correctness checks:
// the percentile rule, the cost-growth decile math, and planted mismatches
// (forged key record, dropped sequence number, corrupted byte, duplicate,
// reorder, wrong sender) that the trackers must catch.
#include <cmath>
#include <cstdio>
#include <numeric>

#include "stats.h"
#include "tracker.h"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("  %-4s %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(std::optional<double> v, double want) {
  return v && std::fabs(*v - want) < 1e-9;
}

void percentile_rule() {
  std::printf("percentile rule\n");
  std::vector<double> s(100);
  std::iota(s.begin(), s.end(), 1.0);  // 1..100
  expect(near(percentile(s, 90), 90.1), "p90 of 100 samples is reported (10 beyond)");
  s.pop_back();
  expect(!percentile(s, 90), "p90 of 99 samples is flagged (9.9 beyond)");
  expect(near(median(s), 50), "median of 1..99 is 50");
  std::vector<double> big(1000, 7.0);
  expect(near(percentile(big, 99), 7.0), "p99 of 1000 samples is reported");
  big.pop_back();
  expect(!percentile(big, 99), "p99 of 999 samples is flagged");
  expect(!percentile({}, 50) && !median({}), "empty sets report nothing");
  expect(near(raw_percentile({1, 2, 3, 4}, 50), 2.5), "interpolates between ranks");
}

void decile_math() {
  std::printf("cost-growth decile math\n");
  std::vector<double> flat(11);
  std::iota(flat.begin(), flat.end(), 0.0);
  expect(near(decile_growth(flat), 1.0), "constant cost per tenth -> growth 1");
  std::vector<double> rising{0};
  for (int tenth = 1; tenth <= 10; ++tenth) rising.push_back(rising.back() + tenth);
  expect(near(decile_growth(rising), 10.0), "tenth k costs k -> growth 10 (last / first)");
  expect(!decile_growth({0, 1, 2}), "wrong reading count is rejected");
  std::vector<double> stalled(11, 3.0);
  expect(!decile_growth(stalled), "a free first tenth is rejected, not divided by");
}

void planted_messages() {
  std::printf("planted message faults\n");
  const PayloadCodec codec(42, 2, 200);
  const std::vector<ss::gcs::MemberId> ids{{0, 1}, {1, 1}};
  auto deliver = [&](DeliveryTracker& t, std::size_t r, std::uint32_t s, std::uint64_t q,
                     bool corrupt = false, const ss::gcs::MemberId* from = nullptr) {
    ss::util::Bytes p = codec.make(s, q);
    if (corrupt) p[150] ^= 0x01;
    t.delivered(r, from != nullptr ? *from : ids[s], p.data(), p.size());
  };
  auto all = [](std::size_t, TimePoint) { return true; };

  {
    DeliveryTracker t(codec, ids, 3);
    for (std::uint64_t q = 0; q < 4; ++q) {
      for (std::uint32_t s = 0; s < 2; ++s) {
        t.sent(s, q, Clock::now());
        for (std::size_t r = 0; r < 3; ++r) deliver(t, r, s, q);
      }
    }
    const DeliveryTracker::Outcome o = t.evaluate(all, 1e9);
    expect(o.missing == 0 && t.corrupted() == 0 && t.completed_total() == 8 &&
               o.latency_ms.size() == 8,
           "clean traffic: nothing flagged, every message complete");
  }
  {
    DeliveryTracker t(codec, ids, 3);
    for (std::uint64_t q = 0; q < 4; ++q) {
      t.sent(0, q, Clock::now());
      for (std::size_t r = 0; r < 3; ++r) {
        if (!(r == 1 && q == 2)) deliver(t, r, 0, q);  // receiver 1 never sees seq 2
      }
    }
    const DeliveryTracker::Outcome o = t.evaluate(all, 1e9);
    expect(o.missing == 1 && t.corrupted() == 0, "dropped sequence number counts as missing");
    const DeliveryTracker::Outcome excused =
        t.evaluate([](std::size_t r, TimePoint) { return r != 1; }, 1e9);
    expect(excused.missing == 0, "an excused receiver (member in flux) is not missing");
  }
  {
    DeliveryTracker t(codec, ids, 2);
    for (std::uint64_t q = 0; q < 3; ++q) t.sent(0, q, Clock::now());
    deliver(t, 0, 0, 0, /*corrupt=*/true);
    expect(t.corrupted() == 1, "a flipped payload byte is corrupted");
    deliver(t, 0, 0, 1);
    deliver(t, 0, 0, 1);
    expect(t.corrupted() == 2, "a duplicate delivery is corrupted");
    deliver(t, 1, 0, 2);
    deliver(t, 1, 0, 1);
    expect(t.corrupted() == 3, "a per-sender reorder is corrupted");
    const ss::gcs::MemberId impostor{2, 9};
    deliver(t, 0, 0, 2, false, &impostor);
    expect(t.corrupted() == 4, "a payload claiming another sender is corrupted");
  }
}

void planted_keys() {
  std::printf("planted key faults\n");
  const std::vector<ss::gcs::MemberId> ids{{0, 1}, {1, 1}, {2, 1}};
  const std::vector<std::size_t> members{0, 1, 2};
  const ss::util::Bytes key(32, 0xAB);
  KeyTracker k(3);
  const TimePoint since = Clock::now();
  expect(k.check(members, ids, since) == KeyTracker::State::kPending, "no installs: pending");
  for (std::size_t m = 0; m < 3; ++m) k.installed(m, ids, key, {});
  expect(k.check(members, ids, since) == KeyTracker::State::kConverged,
         "same key for the same view everywhere: converged");
  expect(k.check(members, ids, Clock::now() + std::chrono::seconds(1)) ==
             KeyTracker::State::kPending,
         "keys installed before the operation started do not count");
  const std::vector<ss::gcs::MemberId> smaller{ids[0], ids[1]};
  expect(k.check({0, 1}, smaller, since) == KeyTracker::State::kPending,
         "a key for a different membership does not count");
  ss::util::Bytes other = key;
  other[31] ^= 0x80;
  KeyTracker::Install forged{Clock::now(), ids, other, {}};
  std::sort(forged.view.begin(), forged.view.end());
  k.forge(2, forged);
  expect(k.check(members, ids, since) == KeyTracker::State::kDiverged,
         "one forged key record: diverged");
  KeyTracker::Install keyless{Clock::now(), ids, {}, {}};
  std::sort(keyless.view.begin(), keyless.view.end());
  k.forge(2, keyless);
  expect(k.check(members, ids, since) == KeyTracker::State::kPending,
         "has_key without readable key material is not converged");
}

}  // namespace

int run_selftest() {
  percentile_rule();
  decile_math();
  planted_messages();
  planted_keys();
  std::printf("selftest: %s (%d failed)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
