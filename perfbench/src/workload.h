// Shared shape of a workload run: the options it takes, and the samples
// and counters it accumulates round by round.
//
// Every workload repeats *rounds* that together take about --seconds. A
// round boots a fresh stack, sets it up (timed: setup_s), does its work in
// one view, and tears the stack down. A fresh stack per round keeps rounds
// comparable: the daemon's per-view message store starts empty every time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracker.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
};

/// Everything a run measured. Layer counters are raw sums; report.cpp
/// turns them into the reported ratios.
struct RunData {
  // --- end to end ---
  std::vector<double> setup_s;
  std::vector<double> round_msgs_per_s;
  std::vector<double> round_cpu_us_per_msg;
  std::vector<double> msg_latency_ms;  // every message of the run
  std::vector<double> round_msg_p50_ms;
  std::vector<double> round_msg_p95_ms;  // rounds with a reportable p95
  std::vector<double> round_msg_p99_ms;  // rounds with a reportable p99
  // Membership latencies by KA module ("plain" for a plain group).
  std::map<std::string, std::vector<double>> join_ms;
  std::map<std::string, std::vector<double>> leave_ms;
  double op_cpu_s = 0;       // process CPU attributed to membership operations
  std::uint64_t ops = 0;     // membership operations completed
  std::uint64_t msgs = 0;    // multicasts delivered at every expected member
  std::uint64_t rounds = 0;

  // --- correctness ---
  std::uint64_t attempted = 0;  // messages + membership operations
  std::uint64_t missing = 0;    // deliveries missing at their deadline
  std::uint64_t corrupted = 0;  // bad payload, sender, order or duplicate
  std::uint64_t op_timeout = 0;    // membership (and key) never converged
  std::uint64_t key_diverged = 0;  // members keyed the view with different keys
  std::uint64_t failed() const { return missing + corrupted + op_timeout + key_diverged; }

  // --- layers (raw sums over measured phases) ---
  std::map<std::string, double> sum;           // named counters
  std::vector<double> cost_growth;             // one per round
  std::vector<double> lane_wait_us;
  std::vector<double> gen_late_ms;
  std::vector<double> netd_call_us;
};

void add(RunData& d, const std::string& key, double v);

/// Books one round's message latencies: pooled, and the round's own
/// median, p95 and p99 (the run reports the mean of the middle half of the
/// rounds for each).
void add_round_latencies(RunData& d, const std::vector<double>& latency_ms);

/// Adds `from`'s attempted and failed counts to `into` (a discarded
/// warm-up round's failures still count).
void add_failures(RunData& into, const RunData& from);

/// Samples in a by-module latency map, all modules together.
std::size_t sample_count(const std::map<std::string, std::vector<double>>& by_module);

/// mcast_small / mcast_large: one Cliques group of 12 members.
void run_mcast(const RunOptions& opt, std::size_t payload_bytes, std::uint64_t count,
               RunData& out);
/// churn: one group per KA module, 24 members each, leave/rejoin loops.
void run_churn(const RunOptions& opt, RunData& out);
/// gate_fanout: netd::DaemonHost + ClientGate, 3 netd::Clients.
void run_gate(const RunOptions& opt, RunData& out);

}  // namespace perfbench
