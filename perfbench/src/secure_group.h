// One secure group on the loopback cluster: its members, their callbacks
// into the trackers, and membership operations the benchmark thread drives
// asynchronously and checks for key convergence.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "cliques/key_directory.h"
#include "cluster.h"
#include "secure/secure_client.h"
#include "tracker.h"
#include "workload.h"

namespace perfbench {

class SecureGroup {
 public:
  /// Member i lives on daemon i % 3. Clients are created on their lanes.
  SecureGroup(Cluster& cluster, ss::cliques::KeyDirectory& dir, std::string name,
              std::string ka_module, std::size_t members, std::uint64_t seed);
  /// Destroys the clients on their lanes (before the cluster goes).
  ~SecureGroup();

  SecureGroup(const SecureGroup&) = delete;
  SecureGroup& operator=(const SecureGroup&) = delete;

  const std::string& ka() const { return ka_; }
  std::size_t daemon_of(std::size_t member) const { return member % Cluster::kDaemons; }
  const ss::gcs::MemberId& id(std::size_t member) const { return ids_.at(member); }
  KeyTracker& keys() { return keys_; }

  /// Routes every member's decrypted deliveries to `tracker` (receiver
  /// index = member index). Set before any traffic; setting nullptr waits
  /// until no lane is still inside a delivery callback.
  void deliver_to(DeliveryTracker* tracker);

  /// Queues a join / leave / send on the member's lane (non-blocking).
  void post_join(std::size_t member);
  void post_leave(std::size_t member);
  void post_send(std::size_t member, ss::util::Bytes payload);

  /// Mean SecureGroupClient::send call time on the lanes, and call count.
  double send_us_total() const { return send_ns_.load() * 1e-3; }
  std::uint64_t sends() const { return send_calls_.load(); }

  /// Data-path counters summed over members (blocking lane reads).
  ss::secure::SecureGroupStats stats();

 private:
  Cluster& cluster_;
  ss::cliques::KeyDirectory& dir_;
  std::string name_;
  std::string ka_;
  ss::secure::SecureGroupConfig cfg_;
  KeyTracker keys_;
  std::atomic<DeliveryTracker*> tracker_{nullptr};
  std::vector<ss::gcs::MemberId> ids_;
  std::vector<std::unique_ptr<ss::secure::SecureGroupClient>> clients_;  // lane-owned
  std::atomic<std::uint64_t> send_ns_{0};
  std::atomic<std::uint64_t> send_calls_{0};
};

/// One membership operation in flight: started by the benchmark thread,
/// finished when the expected members converge on one new key.
struct MemberOp {
  bool join = false;
  std::size_t member = 0;
  std::vector<std::size_t> expected;  // members that must hold the new key
  TimePoint start{};
  double cpu_start = 0;
};

/// Result of polling an operation.
enum class OpStatus { kRunning, kDone, kTimedOut, kDiverged };

/// Starts an operation on `g` (posts the join/leave) with `expected` the
/// membership after it.
MemberOp start_op(SecureGroup& g, bool join, std::size_t member, std::vector<std::size_t> expected);

/// Checks an operation; after `timeout_ms` without convergence it fails
/// (kDiverged when every member keyed the right view but keys differ).
OpStatus poll_op(SecureGroup& g, const MemberOp& op, double timeout_ms);

/// Books a finished (or failed) operation into `out`: latency, correctness
/// and the per-module rekey statistics reported by the members.
void book_op(SecureGroup& g, const MemberOp& op, OpStatus status, RunData& out);

/// Runs one operation to completion from the benchmark thread (set-up and
/// teardown). Returns false if it failed.
bool run_op(SecureGroup& g, bool join, std::size_t member, std::vector<std::size_t> expected,
            RunData& out, double timeout_ms = 5000);

}  // namespace perfbench
