// Parallel-runtime tests: the crypto offload pool (runtime::WorkerPool),
// the thread-safe exponentiation accounting it must not corrupt, the
// lane-affinity contract of RealtimeEnv's Compute seam, and a full-stack
// multi-lane rekey. These suites (WorkerPool*, Parallel*) are the ones
// check.sh re-runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "crypto/bignum.h"
#include "crypto/compute_job.h"
#include "crypto/dh.h"
#include "crypto/exp_counter.h"
#include "gcs/daemon.h"
#include "obs/metrics.h"
#include "runtime/realtime_env.h"
#include "runtime/sim_env.h"
#include "runtime/worker_pool.h"
#include "secure/secure_client.h"
#include "util/mutex.h"

namespace ss {
namespace {

using namespace std::chrono_literals;

/// Polls pred from the test thread until it holds or `budget` passes.
/// pred must be safe to call from outside the lanes (wrap lane-owned reads
/// in run_on_lane inside it).
bool poll_until(const std::function<bool()>& pred,
                std::chrono::milliseconds budget = 20'000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

// ---------------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, ClampsToAtLeastOneThread) {
  runtime::WorkerPool pool(0);
  EXPECT_EQ(pool.threads(), 1u);
}

TEST(WorkerPoolTest, RunsEverySubmittedTask) {
  runtime::WorkerPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  std::atomic<int> ran{0};
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.drain();
  EXPECT_EQ(ran.load(), kTasks);
  const runtime::WorkerPool::Stats s = pool.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_EQ(s.inflight, 0u);
}

TEST(WorkerPoolTest, CurrentWorkerIdentifiesPoolThreads) {
  // Outside any pool: both the static accessor and the runtime-seam free
  // function report "not a worker".
  EXPECT_EQ(runtime::WorkerPool::current_worker(), -1);
  EXPECT_EQ(runtime::current_compute_worker(), -1);

  runtime::WorkerPool pool(3);
  util::Mutex mu;
  std::vector<int> seen;
  for (int i = 0; i < 64; ++i) {
    pool.submit([&] {
      const int w = runtime::WorkerPool::current_worker();
      const int via_seam = runtime::current_compute_worker();
      util::MutexLock lk(mu);
      seen.push_back(w);
      seen.push_back(via_seam);
    });
  }
  pool.drain();
  ASSERT_EQ(seen.size(), 128u);
  for (int w : seen) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 3);
  }
  EXPECT_EQ(runtime::WorkerPool::current_worker(), -1);
}

TEST(WorkerPoolTest, TaskMaySubmitFollowUpWork) {
  runtime::WorkerPool pool(2);
  std::atomic<bool> follow_ran{false};
  pool.submit([&] {
    // A completion submitting more work must not deadlock or be lost; the
    // follow-up is queued before this task completes, so drain() sees it.
    pool.submit([&] { follow_ran = true; });
  });
  pool.drain();
  EXPECT_TRUE(follow_ran.load());
}

TEST(WorkerPoolTest, StatsTrackQueueHighWaterMark) {
  runtime::WorkerPool pool(2);
  util::Mutex mu;
  util::CondVar cv;
  bool go = false;
  auto gate = [&] {
    util::MutexLock lk(mu);
    while (!go) cv.wait(mu);
  };
  // Both workers block on the gate; with 6 tasks submitted and at most 2
  // in flight, the queue must have reached depth >= 4.
  for (int i = 0; i < 6; ++i) pool.submit(gate);
  ASSERT_TRUE(poll_until([&] { return pool.stats().inflight == 2; }, 5'000ms));
  EXPECT_GE(pool.stats().max_queue_depth, 4u);
  {
    util::MutexLock lk(mu);
    go = true;
  }
  cv.notify_all();
  pool.drain();
  const runtime::WorkerPool::Stats s = pool.stats();
  EXPECT_EQ(s.completed, 6u);
  EXPECT_EQ(s.inflight, 0u);
  EXPECT_EQ(s.queue_depth, 0u);
}

// The pool's gauges belong to the registry current when it was built, like
// every other component's metrics (DESIGN.md §8): a task running after that
// registry's scope popped still shows up there.
TEST(WorkerPoolTest, GaugesStayInTheRegistryCurrentAtConstruction) {
  obs::MetricsRegistry built_under;
  std::optional<runtime::WorkerPool> pool;
  {
    obs::RegistryScope scope(built_under);
    pool.emplace(1);
  }
  util::Mutex mu;
  util::CondVar cv;
  bool go = false;
  pool->submit([&] {
    util::MutexLock lk(mu);
    while (!go) cv.wait(mu);
  });
  ASSERT_TRUE(poll_until([&] { return pool->stats().inflight == 1; }, 5'000ms));
  EXPECT_EQ(built_under.gauge("runtime.pool.inflight").value(), 1.0);
  EXPECT_EQ(built_under.gauge("runtime.pool.queue_depth").value(), 0.0);
  {
    util::MutexLock lk(mu);
    go = true;
  }
  cv.notify_all();
  pool->drain();
  EXPECT_EQ(built_under.gauge("runtime.pool.inflight").value(), 0.0);
}

// ---------------------------------------------------------------------------
// Exponentiation accounting under the pool
// ---------------------------------------------------------------------------

/// Runs a fixed set of labelled mod-exp jobs — pooled when `pool` is given,
/// serially on the calling thread otherwise — and returns the sum of the
/// per-job ComputeStats tallies (what the secure layer would charge back).
crypto::ExpTally hammer_exp_counter(runtime::WorkerPool* pool) {
  util::Mutex mu;
  crypto::ExpTally shipped;
  constexpr int kJobs = 48;
  for (int j = 0; j < kJobs; ++j) {
    auto task = [j, &mu, &shipped] {
      crypto::ComputeJob job("hammer", [j] {
        // Cycle through the real purposes so every per-purpose bucket gets
        // concurrent traffic, with a job-dependent amount of work.
        crypto::ExpPurposeScope scope(static_cast<crypto::ExpPurpose>(1 + j % 6));
        const crypto::Bignum base(2 + j);
        const crypto::Bignum exp(12345 + 7 * j);
        const crypto::Bignum mod(1000003);
        for (int k = 0; k <= j % 3; ++k) {
          (void)crypto::Bignum::mod_exp(base, exp, mod);
        }
      });
      const crypto::ComputeStats stats = job.execute();
      util::MutexLock lk(mu);
      shipped += stats.exps;
    };
    if (pool != nullptr) {
      pool->submit(task);
    } else {
      task();
    }
  }
  if (pool != nullptr) pool->drain();
  return shipped;
}

TEST(ParallelExpCounter, PooledTalliesAggregateExactly) {
  const crypto::ExpTally before = crypto::global_exp_tally();
  runtime::WorkerPool pool(4);
  const crypto::ExpTally shipped = hammer_exp_counter(&pool);
  // Nothing lost, nothing double-counted: the process-wide aggregate moved
  // by exactly the sum of the per-thread deltas the jobs shipped back.
  const crypto::ExpTally delta = crypto::global_exp_tally() - before;
  EXPECT_GT(shipped.total(), 0u);
  EXPECT_EQ(delta.by_purpose, shipped.by_purpose);
}

TEST(ParallelExpCounter, SerialPerPurposeCountsByteIdentical) {
  // Serial baseline: loop-thread tally, global aggregate and shipped stats
  // all agree per purpose.
  const crypto::ExpTally global_before = crypto::global_exp_tally();
  const crypto::ExpTally thread_before = crypto::exp_tally();
  const crypto::ExpTally serial = hammer_exp_counter(nullptr);
  const crypto::ExpTally thread_delta = crypto::exp_tally() - thread_before;
  const crypto::ExpTally global_delta = crypto::global_exp_tally() - global_before;
  EXPECT_EQ(thread_delta.by_purpose, serial.by_purpose);
  EXPECT_EQ(global_delta.by_purpose, serial.by_purpose);

  // The same job set through the pool lands on byte-identical per-purpose
  // counts — offloading must not change the paper's accounting.
  runtime::WorkerPool pool(4);
  const crypto::ExpTally pooled = hammer_exp_counter(&pool);
  EXPECT_EQ(pooled.by_purpose, serial.by_purpose);
}

// ---------------------------------------------------------------------------
// Lane affinity of the Compute seam
// ---------------------------------------------------------------------------

TEST(ParallelLanes, NodesShardToLanesStatically) {
  runtime::RealtimeEnv::Options opts;
  opts.lanes = 3;
  runtime::RealtimeEnv env(opts);
  EXPECT_EQ(env.lanes(), 3u);
  EXPECT_EQ(env.lane_of(0), 0u);
  EXPECT_EQ(env.lane_of(4), 1u);
  EXPECT_EQ(env.lane_of(5), 2u);
}

TEST(ParallelLanes, SimComputeRunsInlineOnCallingThread) {
  runtime::SimEnv env(/*seed=*/7);
  const runtime::Env e = env.env(env.add_node());
  ASSERT_NE(e.compute, nullptr);
  EXPECT_EQ(e.compute->workers(), 0u);
  bool work_ran = false;
  bool done_saw_work = false;
  int worker_in_work = -2;
  std::thread::id work_tid;
  e.compute->offload(
      [&] {
        work_ran = true;
        worker_in_work = runtime::current_compute_worker();
        work_tid = std::this_thread::get_id();
      },
      [&] { done_saw_work = work_ran; });
  // Inline backend: both closures already ran, on this thread, in order.
  EXPECT_TRUE(work_ran);
  EXPECT_TRUE(done_saw_work);
  EXPECT_EQ(work_tid, std::this_thread::get_id());
  EXPECT_EQ(worker_in_work, -1);
}

TEST(ParallelLanes, CompletionsLandOnSubmittersHomeLane) {
  runtime::RealtimeEnv::Options opts;
  opts.lanes = 2;
  opts.worker_threads = 2;
  runtime::RealtimeEnv env(opts);
  constexpr int kNodes = 4;
  std::vector<runtime::NodeId> ids;
  for (int i = 0; i < kNodes; ++i) ids.push_back(env.add_node());
  env.start();
  ASSERT_NE(env.pool(), nullptr);

  std::vector<runtime::Env> envs;
  for (int i = 0; i < kNodes; ++i) {
    envs.push_back(env.env(ids[i]));
    ASSERT_NE(envs[i].compute, nullptr);
  }

  // Learn each node's home-lane thread by firing a timer through the
  // node's Clock adapter: timers always run on the home lane.
  std::array<std::atomic<std::thread::id>, kNodes> lane_tid{};
  std::atomic<int> recorded{0};
  for (int i = 0; i < kNodes; ++i) {
    envs[i].clock->at(envs[i].clock->now(), [&, i] {
      lane_tid[i].store(std::this_thread::get_id());
      recorded.fetch_add(1);
    });
  }
  ASSERT_TRUE(poll_until([&] { return recorded.load() == kNodes; }));

  // Offload through each node's Compute adapter: work must run on a pool
  // worker, the continuation on the node's own lane thread.
  std::array<std::atomic<int>, kNodes> work_worker{};
  std::array<std::atomic<int>, kNodes> done_worker{};
  std::array<std::atomic<std::thread::id>, kNodes> done_tid{};
  std::atomic<int> completions{0};
  for (int i = 0; i < kNodes; ++i) {
    envs[i].compute->offload(
        [&, i] { work_worker[i].store(runtime::current_compute_worker()); },
        [&, i] {
          done_worker[i].store(runtime::current_compute_worker());
          done_tid[i].store(std::this_thread::get_id());
          completions.fetch_add(1);
        });
  }
  ASSERT_TRUE(poll_until([&] { return completions.load() == kNodes; }));

  for (int i = 0; i < kNodes; ++i) {
    EXPECT_GE(work_worker[i].load(), 0) << "node " << i;
    EXPECT_LT(work_worker[i].load(), 2) << "node " << i;
    EXPECT_EQ(done_worker[i].load(), -1) << "node " << i;
    EXPECT_EQ(done_tid[i].load(), lane_tid[i].load()) << "node " << i;
  }
  // Same lane -> same loop thread; different lanes -> different threads.
  for (int i = 0; i < kNodes; ++i) {
    for (int j = i + 1; j < kNodes; ++j) {
      if (env.lane_of(ids[i]) == env.lane_of(ids[j])) {
        EXPECT_EQ(lane_tid[i].load(), lane_tid[j].load()) << i << "," << j;
      } else {
        EXPECT_NE(lane_tid[i].load(), lane_tid[j].load()) << i << "," << j;
      }
    }
  }
  env.stop();
}

// ---------------------------------------------------------------------------
// Full-stack: multi-lane daemons + secure clients + offloaded rekeys
// ---------------------------------------------------------------------------

/// One corner of the matrix: the key-agreement module, event lanes and
/// pool workers.
struct RekeyBackend {
  const char* module;
  int lanes;
  int workers;
};

// Prints (lanes, workers): the module is named by the instantiation.
void PrintTo(const RekeyBackend& b, std::ostream* os) {
  *os << "(" << b.lanes << ", " << b.workers << ")";
}

class ParallelRekey : public ::testing::TestWithParam<RekeyBackend> {};

/// Stops the env when the test body exits *by any path*. An ASSERT_* early
/// return must join the lane threads before daemons/clients are destroyed,
/// or the lanes would keep running protocol code over freed objects.
class StopEnvGuard {
 public:
  explicit StopEnvGuard(runtime::RealtimeEnv& env) : env_(env) {}
  ~StopEnvGuard() { env_.stop(); }

 private:
  runtime::RealtimeEnv& env_;
};

TEST_P(ParallelRekey, MultiGroupRekeyAcrossLanes) {
  runtime::RealtimeEnv::Options opts;
  opts.lanes = static_cast<std::size_t>(GetParam().lanes);
  opts.worker_threads = static_cast<std::size_t>(GetParam().workers);
  runtime::RealtimeEnv env(opts);
  constexpr std::size_t kDaemons = 3;
  std::vector<gcs::DaemonId> ids;
  for (std::size_t i = 0; i < kDaemons; ++i) ids.push_back(env.add_node());
  env.start();

  // Generous failure-detection margins: the defaults assume sim-instant
  // scheduling, but here lane threads share whatever CPUs the machine has
  // and a 20ms descheduling hiccup must not read as a daemon crash.
  gcs::TimingConfig timing;
  timing.heartbeat_interval = 25 * runtime::kMillisecond;
  timing.fd_check_interval = 25 * runtime::kMillisecond;
  timing.fail_timeout = 2 * runtime::kSecond;
  timing.link_rto = 10 * runtime::kMillisecond;
  timing.gather_stable = 20 * runtime::kMillisecond;
  timing.gather_timeout = runtime::kSecond;
  timing.recovery_timeout = 2 * runtime::kSecond;

  // Declaration order is destruction order in reverse: the StopEnvGuard is
  // declared last so that on ANY exit (including ASSERT early returns) the
  // lanes are joined first, then clients, daemons, directory, env.
  cliques::KeyDirectory dir(crypto::DhGroup::tiny64());
  secure::SecureGroupConfig cfg;
  cfg.ka_module = GetParam().module;
  cfg.dh = &crypto::DhGroup::tiny64();
  const gcs::GroupName groups[2] = {"alpha", "beta"};
  std::vector<std::unique_ptr<gcs::Daemon>> daemons;
  std::vector<std::unique_ptr<secure::SecureGroupClient>> clients(kDaemons);
  StopEnvGuard stop_guard(env);

  for (gcs::DaemonId id : ids) {
    daemons.push_back(std::make_unique<gcs::Daemon>(env.env(id), ids, timing,
                                                    /*seed=*/1234));
    env.bind(id, daemons.back().get());
  }
  // On a timeout, show where every daemon/client actually is.
  auto dump_state = [&] {
    std::ostringstream os;
    for (std::size_t i = 0; i < kDaemons; ++i) {
      env.run_on_lane(env.lane_of(ids[i]), [&] {
        os << "d" << ids[i] << ": operational=" << daemons[i]->is_operational()
           << " daemon_view=" << daemons[i]->view_members().size() << "\n   "
           << daemons[i]->debug_state();
        for (const auto& g : groups) {
          if (!clients[i]) continue;
          const gcs::GroupView* v = clients[i]->current_view(g);
          os << " " << g << "{has_key=" << clients[i]->has_key(g)
             << " epoch=" << clients[i]->key_epoch(g)
             << " view=" << (v != nullptr ? v->members.size() : 0) << "}";
        }
        os << "\n";
      });
    }
    return os.str();
  };

  // Every daemon starts — and all protocol access below happens — on its
  // home lane; the test thread only marshals through run_on_lane.
  for (std::size_t i = 0; i < kDaemons; ++i) {
    env.run_on_lane(env.lane_of(ids[i]), [&] { daemons[i]->start(); });
  }
  ASSERT_TRUE(poll_until(
      [&] {
        for (std::size_t i = 0; i < kDaemons; ++i) {
          bool ok = false;
          env.run_on_lane(env.lane_of(ids[i]), [&] {
            ok = daemons[i]->is_operational() && daemons[i]->view_members().size() == kDaemons;
          });
          if (!ok) return false;
        }
        return true;
      },
      60'000ms))
      << "daemons did not converge\n"
      << dump_state();

  // The directory is shared by clients on different lanes (it locks
  // internally); tiny64 keeps the offloaded mod-exps fast.
  for (std::size_t i = 0; i < kDaemons; ++i) {
    env.run_on_lane(env.lane_of(ids[i]), [&] {
      clients[i] = std::make_unique<secure::SecureGroupClient>(*daemons[i], dir,
                                                               /*seed=*/100 + i);
      for (const auto& g : groups) clients[i]->join(g, cfg);
    });
  }

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
          // Rekey in flight: the key is not readable yet.
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

  ASSERT_TRUE(poll_until([&] { return keys_agree(groups[0]) && keys_agree(groups[1]); },
                         60'000ms))
      << "groups never agreed on keys\n"
      << dump_state();

  // Concurrent refreshes in different groups from different lanes: an
  // in-flight rekey in one group must not block the other.
  std::uint64_t alpha_epoch = 0;
  std::uint64_t beta_epoch = 0;
  env.run_on_lane(env.lane_of(ids[0]), [&] {
    alpha_epoch = clients[0]->key_epoch(groups[0]);
    clients[0]->refresh_key(groups[0]);
  });
  env.run_on_lane(env.lane_of(ids[1]), [&] {
    beta_epoch = clients[1]->key_epoch(groups[1]);
    clients[1]->refresh_key(groups[1]);
  });
  ASSERT_TRUE(poll_until(
      [&] {
        std::uint64_t a = 0;
        std::uint64_t b = 0;
        env.run_on_lane(env.lane_of(ids[0]), [&] { a = clients[0]->key_epoch(groups[0]); });
        env.run_on_lane(env.lane_of(ids[1]), [&] { b = clients[1]->key_epoch(groups[1]); });
        return a > alpha_epoch && b > beta_epoch && keys_agree(groups[0]) &&
               keys_agree(groups[1]);
      },
      60'000ms))
      << "concurrent refreshes did not complete\n"
      << dump_state();

  // Teardown on the owning lanes (protocol state is lane-owned).
  for (std::size_t i = 0; i < kDaemons; ++i) {
    env.run_on_lane(env.lane_of(ids[i]), [&] { clients[i].reset(); });
  }
  for (std::size_t i = 0; i < kDaemons; ++i) {
    env.run_on_lane(env.lane_of(ids[i]), [&] { daemons[i]->stop(); });
  }
  for (gcs::DaemonId id : ids) env.bind(id, nullptr);
  env.stop();
}

// One lane/no pool is the serial-equivalent baseline; the other corners
// turn on lane parallelism and compute offload independently, then both.
// Every module runs the whole matrix, so each one's calls run on pool
// workers (and under TSan in the rt and tsan stages).
std::vector<RekeyBackend> backends(const char* module) {
  return {{module, 1, 0}, {module, 1, 2}, {module, 2, 0}, {module, 2, 2}};
}

std::string backend_name(const ::testing::TestParamInfo<RekeyBackend>& p) {
  return "Lanes" + std::to_string(p.param.lanes) + "Workers" + std::to_string(p.param.workers);
}

INSTANTIATE_TEST_SUITE_P(Backends, ParallelRekey, ::testing::ValuesIn(backends("cliques")),
                         backend_name);
INSTANTIATE_TEST_SUITE_P(CkdBackends, ParallelRekey, ::testing::ValuesIn(backends("ckd")),
                         backend_name);
INSTANTIATE_TEST_SUITE_P(TgdhBackends, ParallelRekey, ::testing::ValuesIn(backends("tgdh")),
                         backend_name);

}  // namespace
}  // namespace ss
