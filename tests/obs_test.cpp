// Tests for the observability subsystem: metrics registry math, scoping and
// the counter listing contract, the two-clock stopwatches, the JSON round
// trip, TraceSink span balance, and a golden end-to-end trace of a live
// cluster running membership churn and secure-group rekeys.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/exp_counter.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "secure/secure_client.h"
#include "tests/cluster_fixture.h"

namespace ss::obs {
namespace {

using testing::Cluster;

// --- histograms ---------------------------------------------------------------

TEST(ObsHistogram, CountsSumMinMax) {
  Histogram h({10, 100, 1000});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0.0);

  h.observe(5);
  h.observe(50);
  h.observe(500);
  h.observe(5000);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 5555.0);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 5000.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5555.0 / 4);

  ASSERT_EQ(h.buckets().size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(ObsHistogram, PercentilesAreMonotoneAndClamped) {
  Histogram h({10, 100, 1000});
  for (int i = 1; i <= 100; ++i) h.observe(i);  // uniform 1..100

  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  const double p50 = h.percentile(50);
  const double p90 = h.percentile(90);
  const double p99 = h.percentile(99);
  // Interpolated estimates stay inside the crossing bucket and ordered.
  EXPECT_GE(p50, 10.0);
  EXPECT_LE(p50, 100.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, 100.0);
}

TEST(ObsHistogram, SingleValueAllPercentiles) {
  Histogram h(latency_buckets_us());
  h.observe(42);
  EXPECT_DOUBLE_EQ(h.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 42.0);
}

// --- registry -----------------------------------------------------------------

TEST(ObsRegistry, LabelScopingSeparatesSeries) {
  MetricsRegistry reg;
  Counter d0(reg, "gcs.daemon.views_installed", {{"daemon", "0"}});
  Counter d1(reg, "gcs.daemon.views_installed", {{"daemon", "1"}});
  d0.inc(3);
  d1.inc(4);

  EXPECT_EQ(reg.counter_value("gcs.daemon.views_installed", {{"daemon", "0"}}), 3u);
  EXPECT_EQ(reg.counter_value("gcs.daemon.views_installed", {{"daemon", "1"}}), 4u);
  EXPECT_EQ(reg.counter_value("gcs.daemon.views_installed", {{"daemon", "2"}}), 0u);
  EXPECT_EQ(reg.counter_sum("gcs.daemon.views_installed"), 7u);
}

TEST(ObsRegistry, LabelOrderIsCanonicalized) {
  MetricsRegistry reg;
  Counter ab(reg, "m", {{"a", "1"}, {"b", "2"}});
  Counter ba(reg, "m", {{"b", "2"}, {"a", "1"}});
  ab.inc();
  ba.inc();
  EXPECT_EQ(reg.counter_value("m", {{"b", "2"}, {"a", "1"}}), 2u);
}

TEST(ObsRegistry, ScopesNest) {
  MetricsRegistry a;
  MetricsRegistry b;
  {
    RegistryScope scope(a);
    EXPECT_EQ(&MetricsRegistry::current(), &a);
    {
      RegistryScope inner(b);
      EXPECT_EQ(&MetricsRegistry::current(), &b);
    }
    EXPECT_EQ(&MetricsRegistry::current(), &a);
  }
  EXPECT_NE(&MetricsRegistry::current(), &a);
}

TEST(ObsRegistry, RenderTextListsMetrics) {
  MetricsRegistry reg;
  Counter z(reg, "gcs.z", {{"daemon", "1"}});
  z.inc(5);
  reg.histogram("lat", {10, 100}).observe(50);
  const std::string text = reg.render_text();
  EXPECT_NE(text.find("gcs.z{daemon=1} 5"), std::string::npos);
  EXPECT_NE(text.find("lat"), std::string::npos);
}

// --- the listing contract: components own their counters ----------------------

/// A one-daemon sim cluster. Every LoneDaemon's daemon has id 0, so two of
/// them list their counters under the same gcs.daemon.*{daemon=0} keys.
struct LoneDaemon {
  LoneDaemon() {
    net.add_node(&daemon);
    daemon.start();  // installs a singleton view
  }
  /// Installs one more singleton view.
  void restart() {
    daemon.stop();
    daemon.start();
  }

  sim::Scheduler sched;
  sim::SimNetwork net{sched, 1};
  gcs::Daemon daemon{runtime::Env{&sched, &net, 0}, {0}, gcs::TimingConfig{}, 1};
};

std::uint64_t views_series(const MetricsRegistry& reg) {
  return reg.counter_value("gcs.daemon.views_installed", {{"daemon", "0"}});
}

TEST(ObsRegistry, LiveComponentsUnderOneKeyAddUp) {
  MetricsRegistry reg;
  RegistryScope scope(reg);
  LoneDaemon a;
  LoneDaemon b;
  b.restart();
  // Each accessor counts only its own daemon's events...
  EXPECT_EQ(a.daemon.stats().views_installed, 1u);
  EXPECT_EQ(b.daemon.stats().views_installed, 2u);
  // ...and the series they share holds the sum.
  EXPECT_EQ(views_series(reg), 3u);
  EXPECT_EQ(reg.counter_sum("gcs.daemon.views_installed"), 3u);
}

TEST(ObsRegistry, DestroyedComponentStaysInSeries) {
  MetricsRegistry reg;
  RegistryScope scope(reg);
  {
    LoneDaemon gone;
    gone.restart();
  }
  EXPECT_EQ(views_series(reg), 2u);
  EXPECT_NE(reg.render_text().find("gcs.daemon.views_installed{daemon=0} 2"),
            std::string::npos);
  // A successor under the same key starts its own count; the series goes on.
  LoneDaemon next;
  EXPECT_EQ(next.daemon.stats().views_installed, 1u);
  EXPECT_EQ(views_series(reg), 3u);
}

TEST(ObsRegistry, ComponentKeepsCountingIntoItsRegistryAfterScopePops) {
  MetricsRegistry built_under;
  MetricsRegistry later;
  RegistryScope later_scope(later);
  std::optional<LoneDaemon> d;
  {
    RegistryScope scope(built_under);
    d.emplace();
  }
  ASSERT_EQ(&MetricsRegistry::current(), &later);
  d->restart();  // counted after the scope popped
  EXPECT_EQ(views_series(built_under), 2u);
  EXPECT_EQ(views_series(later), 0u);
}

// --- stopwatches --------------------------------------------------------------

TEST(ObsStopwatch, CpuClockAdvancesUnderWork) {
  CpuStopwatch sw;
  volatile std::uint64_t x = 1;
  for (int i = 0; i < 2000000; ++i) x = x * 1664525 + 1013904223;
  EXPECT_GT(sw.seconds(), 0.0);
  const double before = sw.seconds();
  sw.restart();
  EXPECT_LT(sw.seconds(), before);
}

TEST(ObsStopwatch, SimClockFollowsScheduler) {
  sim::Scheduler sched;
  SimStopwatch sw(sched);
  EXPECT_EQ(sw.elapsed_us(), 0u);
  sched.after(150, [] {});
  sched.run_for(200);
  EXPECT_EQ(sw.elapsed_us(), 200u);
  sw.restart();
  EXPECT_EQ(sw.elapsed_us(), 0u);
}

// --- json ---------------------------------------------------------------------

TEST(ObsJson, ParsesDocument) {
  const JsonValue v = json_parse(
      R"({"a":[1,2.5,-3],"b":"xA\n","c":true,"d":null,"e":{"k":"v"}})");
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_DOUBLE_EQ(a->items[1].number, 2.5);
  EXPECT_DOUBLE_EQ(a->items[2].number, -3.0);
  EXPECT_EQ(v.find("b")->str, "xA\n");
  EXPECT_TRUE(v.find("c")->boolean);
  EXPECT_TRUE(v.find("d")->is_null());
  EXPECT_EQ(v.find("e")->find("k")->str, "v");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ObsJson, RejectsMalformed) {
  EXPECT_THROW(json_parse("{"), JsonError);
  EXPECT_THROW(json_parse("[1,]"), JsonError);
  EXPECT_THROW(json_parse("\"unterminated"), JsonError);
  EXPECT_THROW(json_parse("{} trailing"), JsonError);
  EXPECT_THROW(json_parse("{'single':1}"), JsonError);
}

TEST(ObsJson, EscapeRoundTrip) {
  const std::string raw = "a\"b\\c\n\t\x01z";
  const JsonValue v = json_parse("\"" + json_escape(raw) + "\"");
  EXPECT_EQ(v.str, raw);
}

// --- trace sink ---------------------------------------------------------------

TEST(ObsTrace, LanesAreDeterministicAndDistinct) {
  EXPECT_EQ(trace_lane(1, 2, "g"), trace_lane(1, 2, "g"));
  EXPECT_NE(trace_lane(1, 2, "g"), trace_lane(2, 2, "g"));
  EXPECT_NE(trace_lane(1, 2, "g"), trace_lane(1, 3, "g"));
  EXPECT_NE(trace_lane(1, 2, "g"), trace_lane(1, 2, "h"));
}

TEST(ObsTrace, ExportsBalancedChromeTrace) {
  TraceSink sink;
  std::uint64_t now = 0;
  sink.set_clock([&now] { return now; });

  sink.begin("evs", "view_change", 1, 0);
  now = 10;
  sink.begin("evs", "gather", 1, 0);
  now = 20;
  sink.end("evs", "gather", 1, 0);
  sink.instant("gcs", "view_installed", 1, 0, {{"view", "1:3"}, {"members", 3}});
  now = 30;
  sink.end("evs", "view_change", 1, 0);
  sink.instant("link", "link.retransmit", 2, 0, {{"peer", 1}, {"msgs", 4}});

  const JsonValue doc = json_parse(sink.chrome_json());
  const TraceCheck check = check_chrome_trace(doc);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors.front());
  EXPECT_EQ(check.spans, 2u);

  const TraceSummary s = summarize_trace(doc);
  EXPECT_EQ(s.views_installed, 1u);
  EXPECT_EQ(s.view_changes, 1u);
  EXPECT_EQ(s.retransmit_events, 1u);
  EXPECT_EQ(s.retransmit_msgs, 4u);
}

TEST(ObsTrace, CheckerFlagsUnbalancedSpans) {
  TraceSink sink;
  sink.begin("evs", "gather", 1, 0);  // never ended
  const TraceCheck open_check = check_chrome_trace(json_parse(sink.chrome_json()));
  EXPECT_FALSE(open_check.ok);

  TraceSink sink2;
  sink2.begin("evs", "gather", 1, 0);
  sink2.end("evs", "exchange", 1, 0);  // name mismatch
  const TraceCheck mismatch = check_chrome_trace(json_parse(sink2.chrome_json()));
  EXPECT_FALSE(mismatch.ok);
}

TEST(ObsTrace, BufferCapCountsDrops) {
  TraceSink sink;
  sink.set_max_events(4);
  for (int i = 0; i < 10; ++i) sink.instant("t", "x", 0, 0);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);
}

TEST(ObsTrace, SendDeliverLatencyPairing) {
  TraceSink sink;
  std::uint64_t now = 100;
  sink.set_clock([&now] { return now; });
  const std::uint64_t key = trace_msg_key(1, 2, 3, 4);
  sink.note_send(key);
  now = 350;
  ASSERT_TRUE(sink.latency_since_send(key).has_value());
  EXPECT_EQ(*sink.latency_since_send(key), 250u);
  // Same key can be read by several delivering daemons.
  EXPECT_TRUE(sink.latency_since_send(key).has_value());
  EXPECT_FALSE(sink.latency_since_send(trace_msg_key(9, 9, 9, 9)).has_value());
}

TEST(ObsTrace, SpanHandleBalancesAcrossRestartsAndTeardown) {
  TraceSink sink;
  {
    TraceScope scope(sink);
    SpanHandle span;
    EXPECT_FALSE(span.open());
    span.begin("evs", "view_change", 1, 0);
    EXPECT_TRUE(span.open());
    span.begin("evs", "view_change", 1, 0);  // cascade: restart closes first
    {
      SpanHandle nested;
      nested.begin("evs", "gather", 1, 0);
    }  // destructor closes
    span.end();
    span.end();  // double end is a no-op
  }
  const TraceCheck check = check_chrome_trace(json_parse(sink.chrome_json()));
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors.front());
  EXPECT_EQ(check.spans, 3u);
}

TEST(ObsTrace, SpanHandleIsInertWithoutSink) {
  SpanHandle span;
  span.begin("evs", "gather", 1, 0);  // tracing off: stays closed
  EXPECT_FALSE(span.open());
  span.end();
}

TEST(ObsTrace, SpanEndAfterSinkSwapIsDropped) {
  TraceSink a;
  SpanHandle span;
  {
    TraceScope scope(a);
    span.begin("evs", "gather", 1, 0);
  }
  TraceSink b;
  {
    TraceScope scope(b);
    span.end();  // a is no longer current: must not write into b
  }
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(a.size(), 1u);  // only the dangling B remains in a
}

// --- golden end-to-end trace --------------------------------------------------

secure::SecureGroupConfig tiny_config() {
  secure::SecureGroupConfig cfg;
  cfg.ka_module = "cliques";
  cfg.dh = &crypto::DhGroup::tiny64();
  return cfg;
}

/// Runs a 3-daemon cluster through secure joins, a leave and a daemon crash
/// with the trace sink installed; returns the exported chrome document.
TEST(ObsGoldenTrace, ClusterChurnProducesWellFormedTrace) {
  TraceSink sink;
  TraceScope trace_scope(sink);

  std::string exported;
  std::uint64_t expected_rekey_exps = 0;
  std::uint64_t traced_rekey_exps = 0;
  std::vector<std::uint64_t> stats_views;
  std::vector<std::uint64_t> stats_delivered;
  std::vector<std::uint64_t> metric_views;
  std::vector<std::uint64_t> metric_delivered;
  {
    Cluster c(3);
    sink.set_clock([&c] { return c.sched.now(); });
    ASSERT_TRUE(c.converge(3));

    cliques::KeyDirectory dir(crypto::DhGroup::tiny64());
    std::vector<std::unique_ptr<secure::SecureGroupClient>> apps;
    std::vector<std::pair<gcs::GroupName, secure::RekeyStats>> rekeys;
    for (std::size_t i = 0; i < 3; ++i) {
      apps.push_back(std::make_unique<secure::SecureGroupClient>(*c.daemons[i], dir, 70 + i));
      apps.back()->on_rekey([&rekeys](const gcs::GroupName& g, const secure::RekeyStats& s) {
        rekeys.emplace_back(g, s);
      });
      apps.back()->join("golden", tiny_config());
    }
    ASSERT_TRUE(c.run_until(
        [&] {
          for (auto& a : apps) {
            const auto* v = a->current_view("golden");
            if (v == nullptr || v->members.size() != 3 || !a->has_key("golden")) return false;
          }
          return true;
        },
        10 * sim::kSecond));

    // A leave triggers another full rekey among the remaining members.
    apps.back()->leave("golden");
    ASSERT_TRUE(c.run_until(
        [&] {
          for (std::size_t i = 0; i < 2; ++i) {
            const auto* v = apps[i]->current_view("golden");
            if (v == nullptr || v->members.size() != 2 || !apps[i]->has_key("golden")) {
              return false;
            }
          }
          return true;
        },
        10 * sim::kSecond));

    // Crash a daemon: the survivors' links retransmit unacked frames until
    // the failure detector gives up on the peer, then re-form the view.
    c.daemons[2]->crash();
    // Traffic into the crash window: the sender's daemon ships the frame to
    // the dead peer too, where it stays unacked and retransmits (go-back-N)
    // until the failure detector excludes the peer — guaranteeing the
    // link.retransmit event this trace asserts regardless of what else
    // happened to be in flight at crash time.
    apps[0]->send("golden", util::Bytes{'p', 'i', 'n', 'g'});
    ASSERT_TRUE(c.converge(2, 30 * sim::kSecond));
    c.run_for(sim::kSecond);

    ASSERT_FALSE(rekeys.empty());
    for (const auto& [g, s] : rekeys) expected_rekey_exps += s.exps.total();

    for (std::size_t i = 0; i < 3; ++i) {
      stats_views.push_back(c.daemons[i]->stats().views_installed);
      stats_delivered.push_back(c.daemons[i]->stats().messages_delivered);
      const Labels labels = {{"daemon", std::to_string(i)}};
      metric_views.push_back(c.metrics.counter_value("gcs.daemon.views_installed", labels));
      metric_delivered.push_back(
          c.metrics.counter_value("gcs.daemon.messages_delivered", labels));
    }

    // One daemon per label set: each accessor equals its series exactly.
    EXPECT_EQ(metric_views, stats_views);
    EXPECT_EQ(metric_delivered, stats_delivered);
    EXPECT_EQ(c.metrics.counter_sum("secure.rekeys"), rekeys.size());

    // Everything (apps, daemons) tears down inside this scope, closing any
    // open spans before export.
    apps.clear();
    for (auto& d : c.daemons) d->stop();
  }
  exported = sink.chrome_json();

  const JsonValue doc = json_parse(exported);
  const TraceCheck check = check_chrome_trace(doc);
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors.front());
  EXPECT_GT(check.spans, 0u);

  // The trace must contain at least one full EVS view change with its
  // phases, flush rounds, and completed rekeys whose per-phase mod-exp
  // counts reconcile with the crypto layer's own tally.
  const TraceSummary s = summarize_trace(doc);
  EXPECT_GE(s.views_installed, 3u);
  EXPECT_GE(s.view_changes, 1u);
  EXPECT_GE(s.flush_rounds, 1u);
  EXPECT_GE(s.rekeys, 2u);  // initial key agreements + the leave rekey
  EXPECT_GT(s.mod_exps, 0u);
  EXPECT_GE(s.retransmit_events, 1u);

  // Sum of "mod_exps" on completed rekey spans == sum over on_rekey stats.
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  for (const JsonValue& ev : events->items) {
    const JsonValue* ph = ev.find("ph");
    const JsonValue* name = ev.find("name");
    if (ph == nullptr || name == nullptr || ph->str != "E" || name->str != "rekey") continue;
    const JsonValue* args = ev.find("args");
    if (args == nullptr) continue;
    if (const JsonValue* exps = args->find("mod_exps")) {
      traced_rekey_exps += static_cast<std::uint64_t>(exps->number);
    }
  }
  EXPECT_EQ(traced_rekey_exps, expected_rekey_exps);
}

}  // namespace
}  // namespace ss::obs
