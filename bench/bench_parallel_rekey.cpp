// Parallel-rekey scaling bench: overlapping rekeys across independent groups
// with the KA compute path offloaded to the runtime::WorkerPool, versus the
// serial single-lane baseline (the pre-offload model: every modular
// exponentiation runs inline on the one protocol thread).
//
// Topology: 3 daemons on a RealtimeEnv, one secure client per daemon, every
// client joined to all G groups (default 8, the paper's 512-bit modulus).
// A "wave" refreshes every group concurrently — one refresh_key per group,
// issued from the owning lane — and runs until all members of all groups
// agree on the new key. Aggregate throughput is G rekeys per wave-elapsed.
//
// Two arms per KA module ("cliques", "ckd"):
//   serial    — lanes=1, workers=0: compute inline on the lane thread
//   offloaded — lanes=2, workers=W (default 8): jobs on the pool, completions
//               posted back to the owning lane
//
// Self-asserting:
//   * every wave must converge with all members agreeing on the group key;
//   * serial and offloaded arms must perform the same exponentiation work
//     per rekey (the offload must relocate compute, not change it);
//   * on hosts with >= 8 hardware threads and W >= 8, the offloaded arm must
//     reach >= 4x the serial aggregate throughput and keep single-group
//     rekey latency within tolerance of the serial baseline (acceptance
//     criterion; skipped with a notice on smaller machines where the
//     parallelism physically cannot materialize);
//   * with --baseline BENCH_rekey.json, exps-per-rekey must match the
//     recorded run within 10% and serial rekey latency within a wide
//     (order-of-magnitude) band — the perf-trajectory anchor.
//
// Output: one JSON object on stdout (BENCH_rekey.json records the baseline).
// Knobs: SS_BENCH_GROUP (dh preset, default ss512), SS_BENCH_GROUPS (default
// 8), SS_BENCH_WORKERS (default 8), SS_BENCH_WAVES (default 3).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/drivers.h"
#include "cliques/key_directory.h"
#include "crypto/dh.h"
#include "crypto/exp_counter.h"
#include "gcs/daemon.h"
#include "runtime/realtime_env.h"
#include "secure/secure_client.h"

using namespace ss;
using Clock = std::chrono::steady_clock;

namespace {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "bench_parallel_rekey: FAILED: %s\n", msg.c_str());
  // Lane threads may still be live; skip static destructors on the way out.
  std::_Exit(1);
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Polls `pred` from the bench thread until it holds or `budget_ms` elapses.
bool poll_until(const std::function<bool()>& pred, double budget_ms) {
  const auto t0 = Clock::now();
  while (ms_since(t0) < budget_ms) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

struct ArmResult {
  double wave_ms = 0;          // mean elapsed per all-groups refresh wave
  double single_rekey_ms = 0;  // mean latency of one isolated group refresh
  double throughput = 0;       // rekeys per second during the waves
  std::uint64_t rekeys = 0;
  std::uint64_t exps = 0;  // exponentiations performed during the waves
};

struct ArmConfig {
  std::string module;
  const crypto::DhGroup* dh = nullptr;
  std::size_t lanes = 1;
  std::size_t workers = 0;
  int groups = 8;
  int waves = 3;
};

ArmResult run_arm(const ArmConfig& ac) {
  runtime::RealtimeEnv::Options opts;
  opts.lanes = ac.lanes;
  opts.worker_threads = ac.workers;
  runtime::RealtimeEnv env(opts);
  constexpr std::size_t kDaemons = 3;
  std::vector<gcs::DaemonId> ids;
  for (std::size_t i = 0; i < kDaemons; ++i) ids.push_back(env.add_node());
  env.start();

  // Failure detection is not under test, and a spurious regather rekeys
  // every group at once — skewing one arm's exponentiation count past the
  // serial/offloaded parity band. Margins are set so that only a truly
  // pathological stall (tens of seconds on a loaded CI box) reads as a
  // crash: a serial ss512 rekey burst or a descheduled lane must not.
  gcs::TimingConfig timing;
  timing.heartbeat_interval = 25 * runtime::kMillisecond;
  timing.fd_check_interval = 25 * runtime::kMillisecond;
  timing.fail_timeout = 30 * runtime::kSecond;
  timing.link_rto = 10 * runtime::kMillisecond;
  timing.gather_stable = 20 * runtime::kMillisecond;
  timing.gather_timeout = 5 * runtime::kSecond;
  timing.recovery_timeout = 10 * runtime::kSecond;

  cliques::KeyDirectory dir(*ac.dh);
  secure::SecureGroupConfig cfg;
  cfg.ka_module = ac.module;
  cfg.dh = ac.dh;
  std::vector<gcs::GroupName> groups;
  for (int g = 0; g < ac.groups; ++g) groups.push_back("g" + std::to_string(g));

  std::vector<std::unique_ptr<gcs::Daemon>> daemons;
  for (gcs::DaemonId id : ids) {
    daemons.push_back(std::make_unique<gcs::Daemon>(env.env(id), ids, timing,
                                                    /*seed=*/1234));
    env.bind(id, daemons.back().get());
  }
  for (std::size_t i = 0; i < kDaemons; ++i) {
    env.run_on_lane(env.lane_of(ids[i]), [&] { daemons[i]->start(); });
  }
  if (!poll_until(
          [&] {
            for (std::size_t i = 0; i < kDaemons; ++i) {
              bool ok = false;
              env.run_on_lane(env.lane_of(ids[i]), [&] {
                ok = daemons[i]->is_operational() &&
                     daemons[i]->view_members().size() == kDaemons;
              });
              if (!ok) return false;
            }
            return true;
          },
          60'000))
    die(ac.module + ": daemons did not converge");

  std::vector<std::unique_ptr<secure::SecureGroupClient>> clients(kDaemons);
  for (std::size_t i = 0; i < kDaemons; ++i) {
    env.run_on_lane(env.lane_of(ids[i]), [&] {
      clients[i] = std::make_unique<secure::SecureGroupClient>(*daemons[i], dir,
                                                               /*seed=*/100 + i);
      for (const auto& g : groups) clients[i]->join(g, cfg);
    });
  }

  auto epoch_of = [&](std::size_t i, const gcs::GroupName& g) {
    std::uint64_t e = 0;
    env.run_on_lane(env.lane_of(ids[i]), [&] { e = clients[i]->key_epoch(g); });
    return e;
  };
  auto keys_agree = [&](const gcs::GroupName& g) {
    util::Bytes ref;
    bool first = true;
    for (std::size_t i = 0; i < kDaemons; ++i) {
      bool has = false;
      util::Bytes k;
      env.run_on_lane(env.lane_of(ids[i]), [&] {
        try {
          if (clients[i]->has_key(g)) k = clients[i]->key_material(g, 16);
        } catch (const std::logic_error&) {
          // Rekey in flight: not readable yet.
        }
        has = !k.empty();
      });
      if (!has) return false;
      if (first) {
        ref = k;
        first = false;
      } else if (k != ref) {
        return false;
      }
    }
    return true;
  };
  auto all_keyed = [&] {
    for (const auto& g : groups) {
      if (!keys_agree(g)) return false;
    }
    return true;
  };
  if (!poll_until(all_keyed, 120'000)) die(ac.module + ": initial keying stalled");

  ArmResult r;
  const crypto::ExpTally exps_before = crypto::global_exp_tally();

  // Concurrent waves: every group refreshed at once, from its owning lane.
  double wave_total_ms = 0;
  for (int w = 0; w < ac.waves; ++w) {
    std::vector<std::uint64_t> before(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      before[g] = epoch_of(g % kDaemons, groups[g]);
    }
    const auto t0 = Clock::now();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::size_t i = g % kDaemons;
      env.run_on_lane(env.lane_of(ids[i]),
                      [&, g, i] { clients[i]->refresh_key(groups[g]); });
    }
    if (!poll_until(
            [&] {
              for (std::size_t g = 0; g < groups.size(); ++g) {
                if (epoch_of(g % kDaemons, groups[g]) <= before[g]) return false;
                if (!keys_agree(groups[g])) return false;
              }
              return true;
            },
            120'000))
      die(ac.module + ": refresh wave " + std::to_string(w) + " stalled");
    wave_total_ms += ms_since(t0);
    r.rekeys += groups.size();
  }
  r.exps = (crypto::global_exp_tally() - exps_before).total();
  r.wave_ms = wave_total_ms / ac.waves;
  r.throughput = static_cast<double>(r.rekeys) / (wave_total_ms / 1000.0);

  // Isolated single-group latency (no overlapping work).
  double single_total_ms = 0;
  constexpr int kSingles = 3;
  for (int s = 0; s < kSingles; ++s) {
    const std::uint64_t before = epoch_of(0, groups[0]);
    const auto t0 = Clock::now();
    env.run_on_lane(env.lane_of(ids[0]), [&] { clients[0]->refresh_key(groups[0]); });
    if (!poll_until([&] { return epoch_of(0, groups[0]) > before && keys_agree(groups[0]); },
                    60'000))
      die(ac.module + ": single rekey stalled");
    single_total_ms += ms_since(t0);
  }
  r.single_rekey_ms = single_total_ms / kSingles;

  // Teardown on the owning lanes, then join the lane threads.
  for (std::size_t i = 0; i < kDaemons; ++i) {
    env.run_on_lane(env.lane_of(ids[i]), [&] { clients[i].reset(); });
  }
  for (std::size_t i = 0; i < kDaemons; ++i) {
    env.run_on_lane(env.lane_of(ids[i]), [&] { daemons[i]->stop(); });
  }
  for (gcs::DaemonId id : ids) env.bind(id, nullptr);
  env.stop();
  return r;
}

struct ModuleResult {
  std::string module;
  ArmResult serial;
  ArmResult offloaded;
  double exps_per_rekey() const {
    return static_cast<double>(serial.exps) / static_cast<double>(serial.rekeys);
  }
  double speedup() const { return serial.wave_ms / offloaded.wave_ms; }
};

void compare_with_baseline(const std::string& path, const std::vector<ModuleResult>& mods) {
  bench::Baseline base(path);
  for (const ModuleResult& m : mods) {
    base.within(m.module, "exps_per_rekey", m.exps_per_rekey(), 0.10);
    // Wall latency varies across machines; only order-of-magnitude drift
    // (x30) fails — enough to catch a rekey path gone accidentally quadratic.
    base.at_most(m.module, "single_rekey_ms", m.serial.single_rekey_ms, 30.0);
  }
  if (!base.ok()) die("baseline " + path + " not matched");
  std::fprintf(stderr, "baseline %s: within tolerance\n", path.c_str());
}

void print_arm(const char* name, const ArmResult& a, bool last) {
  std::printf("    \"%s\": {\"wave_ms\": %.3f, \"single_rekey_ms\": %.3f, "
              "\"throughput_rekeys_per_s\": %.2f, \"exps\": %llu}%s\n",
              name, a.wave_ms, a.single_rekey_ms, a.throughput,
              static_cast<unsigned long long>(a.exps), last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) baseline = argv[++i];
  }
  const char* dh_name_env = std::getenv("SS_BENCH_GROUP");
  const std::string dh_name = dh_name_env != nullptr ? dh_name_env : "ss512";
  const crypto::DhGroup& dh = crypto::DhGroup::by_name(dh_name);
  const int groups = env_int("SS_BENCH_GROUPS", 8);
  const int workers = env_int("SS_BENCH_WORKERS", 8);
  const int waves = env_int("SS_BENCH_WAVES", 3);
  const unsigned hw = std::thread::hardware_concurrency();

  std::vector<ModuleResult> mods;
  for (const char* module : {"cliques", "ckd"}) {
    ModuleResult m;
    m.module = module;
    ArmConfig ac;
    ac.module = module;
    ac.dh = &dh;
    ac.groups = groups;
    ac.waves = waves;
    ac.lanes = 1;
    ac.workers = 0;
    m.serial = run_arm(ac);
    ac.lanes = 2;
    ac.workers = static_cast<std::size_t>(workers);
    m.offloaded = run_arm(ac);
    mods.push_back(std::move(m));
  }

  // The offload must relocate the exponentiations, not change them.
  for (const ModuleResult& m : mods) {
    const double serial = static_cast<double>(m.serial.exps);
    const double off = static_cast<double>(m.offloaded.exps);
    if (serial <= 0 || std::abs(off - serial) / serial > 0.10)
      die(m.module + ": offloaded arm did different exp work: serial " +
          std::to_string(m.serial.exps) + ", offloaded " + std::to_string(m.offloaded.exps));
  }

  // Scaling acceptance: only meaningful where 8 workers have 8 cores.
  const bool assert_scaling = hw >= 8 && workers >= 8 && groups >= 8;
  if (assert_scaling) {
    for (const ModuleResult& m : mods) {
      if (m.speedup() < 4.0)
        die(m.module + ": aggregate speedup " + std::to_string(m.speedup()) +
            "x < 4x at " + std::to_string(workers) + " workers on " + std::to_string(hw) +
            " hardware threads");
      if (m.offloaded.single_rekey_ms > m.serial.single_rekey_ms * 2.5 + 5.0)
        die(m.module + ": offloaded single-rekey latency " +
            std::to_string(m.offloaded.single_rekey_ms) + " ms out of tolerance vs serial " +
            std::to_string(m.serial.single_rekey_ms) + " ms");
    }
  } else {
    std::fprintf(stderr,
                 "scaling assertion skipped: %u hardware threads, %d workers, %d groups\n",
                 hw, workers, groups);
  }

  if (!baseline.empty()) compare_with_baseline(baseline, mods);

  std::printf("{\n");
  std::printf("  \"config\": {\"dh\": \"%s\", \"groups\": %d, \"daemons\": 3, \"waves\": %d, "
              "\"workers\": %d, \"hw_threads\": %u},\n",
              dh_name.c_str(), groups, waves, workers, hw);
  for (std::size_t i = 0; i < mods.size(); ++i) {
    const ModuleResult& m = mods[i];
    std::printf("  \"%s\": {\n", m.module.c_str());
    std::printf("    \"rekeys\": %llu,\n", static_cast<unsigned long long>(m.serial.rekeys));
    std::printf("    \"exps_per_rekey\": %.2f,\n", m.exps_per_rekey());
    print_arm("serial", m.serial, false);
    print_arm("offloaded", m.offloaded, false);
    std::printf("    \"aggregate_speedup\": %.4f\n", m.speedup());
    std::printf("  },\n");
  }
  std::printf("  \"scaling_asserted\": %s\n", assert_scaling ? "true" : "false");
  std::printf("}\n");
  return 0;
}
