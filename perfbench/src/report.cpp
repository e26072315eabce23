#include "report.h"

#include <algorithm>
#include <cstdio>

#include "stats.h"

namespace perfbench {

using ss::obs::TraceEvent;

namespace {

double get(const RunData& d, const std::string& key) {
  const auto it = d.sum.find(key);
  return it == d.sum.end() ? 0 : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::optional<double> cpu_per_op_ms(const RunData& d) {
  if (d.ops == 0) return std::nullopt;
  return d.op_cpu_s * 1e3 / static_cast<double>(d.ops);
}

const char* const kKaPhases[] = {
    "ka.on_membership", "ka.clq_handoff",  "ka.clq_broadcast", "ka.clq_factor_out",
    "ka.ckd_round1",    "ka.ckd_round2",   "ka.ckd_key_dist",  "ka.tgdh_leaf_key",
    "ka.tgdh_update",   "ka.compute"};
const char* const kSpans[] = {"view_change", "gather", "exchange", "recover", "flush_round",
                              "rekey"};

}  // namespace

void add(RunData& d, const std::string& key, double v) { d.sum[key] += v; }

void add_round_latencies(RunData& d, const std::vector<double>& latency_ms) {
  d.msg_latency_ms.insert(d.msg_latency_ms.end(), latency_ms.begin(), latency_ms.end());
  if (const auto p50 = median(latency_ms)) d.round_msg_p50_ms.push_back(*p50);
  if (const auto p95 = percentile(latency_ms, 95)) d.round_msg_p95_ms.push_back(*p95);
  if (const auto p99 = percentile(latency_ms, 99)) d.round_msg_p99_ms.push_back(*p99);
}

void add_failures(RunData& into, const RunData& from) {
  into.attempted += from.attempted;
  into.missing += from.missing;
  into.corrupted += from.corrupted;
  into.op_timeout += from.op_timeout;
  into.key_diverged += from.key_diverged;
}

std::size_t sample_count(const std::map<std::string, std::vector<double>>& by_module) {
  std::size_t n = 0;
  for (const auto& [module, s] : by_module) n += s.size();
  return n;
}

namespace {

/// Mean over modules of each module's median: concurrent modules finish
/// different numbers of operations per run, and a pooled median would
/// follow that mix instead of the modules' own latencies.
std::optional<double> module_median(const std::map<std::string, std::vector<double>>& by_module) {
  double sum = 0;
  std::size_t n = 0;
  for (const auto& [module, s] : by_module) {
    if (const auto med = median(s)) {
      sum += *med;
      ++n;
    }
  }
  if (n == 0) return std::nullopt;
  return sum / static_cast<double>(n);
}

/// Mean of the middle half of the rounds (the quarter above and below
/// dropped). A round's p99 rests on its ~60 slowest messages, so one
/// scheduler stall lifts that round far above the rest, and a plain mean
/// follows such rounds. Rounds can also be bimodal (full speed and about
/// half), where a median jumps between the modes as their mix varies from
/// run to run; the trimmed mean moves with the mix.
std::optional<double> middle_mean(const std::vector<double>& per_round) {
  if (per_round.empty()) return std::nullopt;
  std::vector<double> s = per_round;
  std::sort(s.begin(), s.end());
  const std::size_t cut = s.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < s.size() - cut; ++i) sum += s[i];
  return sum / static_cast<double>(s.size() - 2 * cut);
}

std::vector<double> pooled(const std::map<std::string, std::vector<double>>& by_module) {
  std::vector<double> all;
  for (const auto& [module, s] : by_module) all.insert(all.end(), s.begin(), s.end());
  return all;
}

}  // namespace

std::vector<Metric> end_to_end(const RunData& d) {
  std::vector<Metric> m;
  m.push_back({"setup_s", "s", median(d.setup_s), d.setup_s.size()});
  m.push_back({"msgs_per_s", "1/s", middle_mean(d.round_msgs_per_s), d.round_msgs_per_s.size()});
  m.push_back({"msg_p50_ms", "ms", middle_mean(d.round_msg_p50_ms), d.msg_latency_ms.size()});
  m.push_back({"msg_p95_ms", "ms", middle_mean(d.round_msg_p95_ms), d.msg_latency_ms.size()});
  m.push_back({"msg_p99_ms", "ms", middle_mean(d.round_msg_p99_ms), d.msg_latency_ms.size()});
  m.push_back({"cpu_us_per_msg", "us", middle_mean(d.round_cpu_us_per_msg),
               d.round_cpu_us_per_msg.size()});
  m.push_back({"join_p50_ms", "ms", module_median(d.join_ms), sample_count(d.join_ms)});
  m.push_back({"join_p90_ms", "ms", percentile(pooled(d.join_ms), 90), sample_count(d.join_ms)});
  m.push_back({"leave_p50_ms", "ms", module_median(d.leave_ms), sample_count(d.leave_ms)});
  m.push_back(
      {"leave_p90_ms", "ms", percentile(pooled(d.leave_ms), 90), sample_count(d.leave_ms)});
  m.push_back({"cpu_ms_per_rekey", "ms", cpu_per_op_ms(d), d.ops});
  m.push_back({"fail_share", "ratio",
               ratio(static_cast<double>(d.failed()), static_cast<double>(d.attempted)),
               d.attempted});
  return m;
}

TraceFacts analyze_trace(const std::vector<TraceEvent>& events) {
  TraceFacts f;
  f.events = events.size();
  struct Open {
    const char* name;
    std::uint64_t ts;
    double child_us;
  };
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::vector<Open>> stacks;
  for (const TraceEvent& ev : events) {
    const std::string name = ev.name;
    if (ev.ph == 'B') {
      stacks[{ev.pid, ev.tid}].push_back({ev.name, ev.ts, 0});
    } else if (ev.ph == 'E') {
      std::vector<Open>& st = stacks[{ev.pid, ev.tid}];
      if (st.empty() || name != st.back().name) continue;  // unbalanced: obs_report flags it
      const Open o = st.back();
      st.pop_back();
      const double dur = static_cast<double>(ev.ts - o.ts);
      f.self_us[name] += dur - o.child_us;
      if (!st.empty()) st.back().child_us += dur;
      if (name == "flush_round") {
        f.flush_round_us += dur;
        ++f.flush_rounds;
      }
      if (name.rfind("ka.", 0) == 0) {
        for (const auto& a : ev.args) {
          if (a.key == "cpu_us") f.ka_cpu_us[name] += static_cast<double>(a.ival);
        }
      }
    } else if (name == "msg.delivered") {
      for (const auto& a : ev.args) {
        if (a.key == "latency_us") f.delivery_latency_us.push_back(static_cast<double>(a.ival));
      }
    }
  }
  return f;
}

std::vector<Metric> per_layer(const RunData& d, const RunData& base, const CryptoProbe& crypto,
                              const TraceFacts& trace, const std::string& workload) {
  const double msgs = static_cast<double>(d.msgs);
  const double ops = static_cast<double>(d.ops);
  std::vector<Metric> m;
  auto val = [&](const std::string& name, const std::string& unit, double v) {
    m.push_back({name, unit, v, 0});
  };
  // A layer this workload never reaches reports 0 (nothing measured); a
  // tail with too few samples beyond it is flagged.
  auto pct = [&](const std::string& name, const std::string& unit,
                 const std::vector<double>& s, double p) {
    if (s.empty()) {
      val(name, unit, 0);
      return;
    }
    m.push_back({name, unit, p == 50 ? median(s) : percentile(s, p), s.size()});
  };

  // crypto
  val("crypto.seal_64_us", "us", crypto.seal_64_us);
  val("crypto.open_64_us", "us", crypto.open_64_us);
  val("crypto.seal_8k_us", "us", crypto.seal_8k_us);
  val("crypto.open_8k_us", "us", crypto.open_8k_us);
  val("crypto.modexp_us", "us", crypto.modexp_us);
  const double exps_per_op = ratio(get(d, "op_exps"), ops);
  val("crypto.exps_per_rekey", "count", exps_per_op);
  const std::optional<double> cpu_op_ms = cpu_per_op_ms(d);
  val("crypto.counted_exp_share", "ratio",
      cpu_op_ms ? ratio(exps_per_op * crypto.modexp_us, *cpu_op_ms * 1e3) : 0);

  // ka: per module (members' own RekeyStats), then per phase (trace spans)
  for (const char* mod : {"cliques", "ckd", "tgdh"}) {
    const std::string k = std::string("ka.") + mod;
    const double n = get(d, k + ".ops");
    val(k + ".rekey_cpu_ms", "ms", ratio(get(d, k + ".rekey_cpu_ms"), n));
    val(k + ".exps_max_member", "count", ratio(get(d, k + ".exps_max_member"), n));
    val(k + ".rekey_ms", "ms", ratio(get(d, k + ".rekey_ms"), n));
  }
  for (const char* phase : kKaPhases) {
    const auto it = trace.ka_cpu_us.find(phase);
    val(std::string(phase) + ".cpu_us", "us",
        ratio(it == trace.ka_cpu_us.end() ? 0 : it->second, ops));
  }

  // secure
  val("secure.send_us", "us", ratio(get(d, "secure.send_us"), get(d, "secure.sends")));
  val("secure.opened_per_msg", "count", ratio(get(d, "secure.opened"), msgs));
  val("secure.dropped", "count", get(d, "secure.dropped"));
  val("secure.coalesced_views", "count", get(d, "secure.coalesced"));

  // flush
  val("flush.rounds_per_op", "count", ratio(get(d, "flush_rounds"), ops));
  val("flush.round_ms", "ms",
      ratio(trace.flush_round_us, static_cast<double>(trace.flush_rounds)) * 1e-3);

  // gcs
  pct("gcs.delivery_p50_us", "us", trace.delivery_latency_us, 50);
  pct("gcs.delivery_p99_us", "us", trace.delivery_latency_us, 99);
  pct("gcs.cost_growth", "ratio", d.cost_growth, 50);
  val("gcs.retrans_per_msg", "count", ratio(get(d, "retrans"), msgs));
  val("gcs.frames_per_msg", "count", ratio(get(d, "frames"), msgs));
  val("gcs.msgs_per_pack", "count", ratio(get(d, "packed_msgs"), get(d, "packs")));
  val("gcs.copies_per_msg", "count", ratio(get(d, "copies"), msgs));
  val("gcs.views_per_op", "count", ratio(get(d, "group_views"), ops));
  val("gcs.gathers", "count", get(d, "gathers"));

  // runtime
  pct("runtime.lane_wait_p99_us", "us", d.lane_wait_us, 99);
  val("runtime.timers_per_msg", "count", ratio(get(d, "timers"), msgs));

  // net
  val("net.packets_per_msg", "count", ratio(get(d, "udp.packets"), msgs));
  val("net.bytes_per_msg", "B", ratio(get(d, "udp.bytes"), msgs));
  val("net.drops", "count", get(d, "udp.drops"));

  // netd
  pct("netd.multicast_call_us", "us", d.netd_call_us, 50);
  val("netd.events_per_msg", "count", ratio(get(d, "netd.events"), msgs));

  // self time per span, per membership operation
  for (const char* span : kSpans) {
    const auto it = trace.self_us.find(span);
    val(std::string("span.") + span + ".self_ms", "ms",
        ratio(it == trace.self_us.end() ? 0 : it->second, ops) * 1e-3);
  }
  double ka_self = 0;
  for (const auto& [name, us] : trace.self_us) {
    if (name.rfind("ka.", 0) == 0) ka_self += us;
  }
  val("span.ka.self_ms", "ms", ratio(ka_self, ops) * 1e-3);

  // churn generator
  pct("churn.gen_late_p99_ms", "ms", d.gen_late_ms, 99);

  // obs: tracing cost on the workload's own headline cost
  double overhead = 0;
  if (workload == "churn") {
    const std::optional<double> a = cpu_per_op_ms(d);
    const std::optional<double> b = cpu_per_op_ms(base);
    if (a && b) overhead = ratio(*a, *b);
  } else {
    const std::optional<double> a = median(d.round_cpu_us_per_msg);
    const std::optional<double> b = median(base.round_cpu_us_per_msg);
    if (a && b) overhead = ratio(*a, *b);
  }
  val("obs.trace_overhead", "ratio", overhead);
  val("obs.trace_events", "count", static_cast<double>(trace.events));
  return m;
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    if (m.value) {
      std::printf("  %-32s %14.4f %-6s", m.name.c_str(), *m.value, m.unit.c_str());
    } else {
      std::printf("  %-32s %14s %-6s", m.name.c_str(), "flagged", m.unit.c_str());
    }
    if (m.samples > 0) std::printf("  (n=%zu)", m.samples);
    std::printf("\n");
  }
}

std::string result_json(const RunData& d, const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += d.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(d.attempted);
  out += ", \"failed\": " + std::to_string(d.failed());
  out += ", \"metrics\": {";
  std::string flagged;
  bool first = true;
  char buf[64];
  for (const Metric& m : ms) {
    if (!m.value) {
      flagged += (flagged.empty() ? "\"" : ", \"") + m.name + "\"";
      continue;
    }
    std::snprintf(buf, sizeof buf, "%.10g", *m.value);
    out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}, \"flagged\": [" + flagged + "]";
  out += ", \"failures\": {\"missing\": " + std::to_string(d.missing) +
         ", \"corrupted\": " + std::to_string(d.corrupted) +
         ", \"op_timeout\": " + std::to_string(d.op_timeout) +
         ", \"key_diverged\": " + std::to_string(d.key_diverged) + "}";
  auto series = [&](const char* name, const std::vector<double>& v) {
    out += std::string(", \"") + name + "\": [";
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.6g", i == 0 ? "" : ", ", v[i]);
      out += buf;
    }
    out += "]";
  };
  out += ", \"rounds\": {\"count\": " + std::to_string(d.rounds);
  series("setup_s", d.setup_s);
  series("msgs_per_s", d.round_msgs_per_s);
  series("cpu_us_per_msg", d.round_cpu_us_per_msg);
  series("msg_p50_ms", d.round_msg_p50_ms);
  series("msg_p95_ms", d.round_msg_p95_ms);
  series("msg_p99_ms", d.round_msg_p99_ms);
  out += "}}";
  return out;
}

}  // namespace perfbench
