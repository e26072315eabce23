// Ablation: cost of the data-protection path. Sends a message burst through
// a stable secure group with (a) Blowfish-CBC + HMAC-SHA1 and (b) the null
// cipher, and reports per-message CPU and end-to-end virtual latency. This
// isolates the paper's claim that bulk data protection is cheap relative to
// key management.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench/drivers.h"
#include "gcs/daemon.h"
#include "secure/secure_client.h"
#include "sim/network.h"
#include "sim/scheduler.h"

using namespace ss;
using bench::bench_batch;

namespace {

struct Result {
  double cpu_per_msg_us = 0;
  double latency_ms = 0;
};

// A run whose group never forms or keys, or whose burst does not fully
// arrive, would still print a CPU figure; stop instead.
void require(bool ok, const std::string& cipher, std::size_t payload_size, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "bench_ablation_cipher: %s, %zu-byte payload: %s\n", cipher.c_str(),
               payload_size, what);
  std::exit(1);
}

Result run(const std::string& cipher, int messages, std::size_t payload_size) {
  sim::Scheduler sched;
  sim::SimNetwork net(sched, 3);
  std::vector<gcs::DaemonId> ids = {0, 1};
  std::vector<std::unique_ptr<gcs::Daemon>> daemons;
  for (gcs::DaemonId id : ids) {
    daemons.push_back(std::make_unique<gcs::Daemon>(ss::runtime::Env{&sched, &net, id}, ids, gcs::TimingConfig{},
                                                    99 + id));
    net.add_node(daemons.back().get());
  }
  for (auto& d : daemons) d->start();
  require(sched.run_until_condition(
              [&] {
                for (auto& d : daemons) {
                  if (!d->is_operational() || d->view_members().size() != 2) return false;
                }
                return true;
              },
              10 * sim::kSecond),
          cipher, payload_size, "daemons never formed a view");

  cliques::KeyDirectory dir(crypto::DhGroup::tiny64());
  secure::SecureGroupClient a(*daemons[0], dir, 1);
  secure::SecureGroupClient b(*daemons[1], dir, 2);
  int received = 0;
  b.on_message([&](const secure::SecureMessage&) { ++received; });

  secure::SecureGroupConfig cfg;
  cfg.cipher = cipher;
  cfg.dh = &crypto::DhGroup::tiny64();
  a.join("room", cfg);
  b.join("room", cfg);
  require(sched.run_until_condition(
              [&] {
                const auto* va = a.current_view("room");
                return va != nullptr && va->members.size() == 2 && a.has_key("room") &&
                       b.has_key("room");
              },
              sched.now() + 10 * sim::kSecond),
          cipher, payload_size, "group never keyed");

  const ss::util::Bytes payload(payload_size, 0x77);
  const ss::obs::CpuStopwatch sw;
  const sim::Time t0 = sched.now();
  for (int i = 0; i < messages; ++i) a.send("room", payload);
  require(sched.run_until_condition([&] { return received == messages; },
                                    sched.now() + 60 * sim::kSecond),
          cipher, payload_size, "burst not fully delivered");
  Result r;
  r.cpu_per_msg_us = sw.seconds() * 1e6 / messages;
  r.latency_ms = static_cast<double>(sched.now() - t0) / 1000.0 / messages;
  return r;
}

}  // namespace

int main() {
  const int messages = bench_batch(200);
  std::printf("Ablation — bulk data protection cost (2 members, %d messages)\n\n", messages);
  std::printf("%10s | %20s | %22s | %16s\n", "payload", "cipher", "CPU per message (us)",
              "virtual ms/msg");
  std::printf("-----------+----------------------+------------------------+-----------------\n");
  for (std::size_t size : {64u, 1024u, 8192u}) {
    for (const char* cipher : {"blowfish-cbc-hmac", "null"}) {
      const Result r = run(cipher, messages, size);
      std::printf("%10zu | %20s | %22.1f | %16.3f\n", size, cipher, r.cpu_per_msg_us,
                  r.latency_ms);
    }
  }
  std::printf("\nExpected: encryption adds microseconds per message — orders of\n");
  std::printf("magnitude below key-agreement exponentiation costs (paper 2.1).\n");
  return 0;
}
