// Correctness bookkeeping: every delivered multicast and every installed
// key is checked here.
//
// Messages. A payload is [magic u32][sender u32][seq u64][body]; the body
// is a seeded byte pattern, so a receiver can verify every byte without a
// copy of the original. Per receiver, sequence numbers from one sender must
// strictly increase (per-sender FIFO, no duplicates). Anything that breaks
// these rules is counted as corrupted; a delivery an expected receiver never
// made by the deadline is counted as missing.
//
// Keys. Each member reports (view, key material) every time it installs a
// key. A membership operation has converged when every expected member
// reports a key installed after the operation started, for exactly the
// expected membership, and all those keys are byte-identical.
//
// Thread-safety: delivery and key callbacks run on the daemons' event
// lanes; the benchmark thread reads. One mutex guards everything, and the
// condition variable wakes the benchmark thread on progress.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "gcs/types.h"
#include "secure/secure_client.h"
#include "util/bytes.h"

namespace perfbench {

namespace gcs = ss::gcs;
namespace secure = ss::secure;
namespace util = ss::util;

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

inline double ms_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Builds and verifies benchmark payloads.
class PayloadCodec {
 public:
  static constexpr std::size_t kHeader = 16;

  PayloadCodec(std::uint64_t seed, std::size_t senders, std::size_t size);

  std::size_t size() const { return size_; }
  util::Bytes make(std::uint32_t sender, std::uint64_t seq) const;

  struct Header {
    std::uint32_t sender = 0;
    std::uint64_t seq = 0;
  };
  /// Header of a well-formed payload whose body matches its pattern;
  /// nullopt for anything else.
  std::optional<Header> check(const std::uint8_t* data, std::size_t len) const;

 private:
  static constexpr std::size_t kPattern = 251;  // prime: seq shifts the phase
  std::size_t size_;
  std::vector<std::vector<std::uint8_t>> patterns_;  // one per sender
};

class DeliveryTracker {
 public:
  /// `sender_ids[s]` is the member that sends as sender index s.
  DeliveryTracker(const PayloadCodec& codec, std::vector<gcs::MemberId> sender_ids,
                  std::size_t receivers);

  /// Registers message (sender, seq) as due/sent at `t`; seq must be the
  /// sender's next sequence number (0, 1, 2, ...).
  void sent(std::uint32_t sender, std::uint64_t seq, TimePoint t);

  /// Receiver callback (any lane). Verifies the payload and order.
  void delivered(std::size_t receiver, const gcs::MemberId& from, const std::uint8_t* data,
                 std::size_t len);

  /// Messages delivered to every receiver in `full` so far (closed loops
  /// use the full receiver set).
  std::uint64_t completed(std::uint32_t sender) const;
  std::uint64_t completed_total() const;
  /// Messages registered with sent() that `receiver` has not delivered yet.
  std::uint64_t outstanding(std::size_t receiver) const;

  /// Blocks until completed_total() changes from `seen` or `until` passes.
  void wait_progress(std::uint64_t seen, TimePoint until) const;

  std::uint64_t corrupted() const;

  /// Final accounting. `expected(receiver, sent_time)` says whether the
  /// receiver had to deliver a message sent (or due) then; churn excuses
  /// members in flux. A message counts as missing if an expected receiver
  /// never delivered it within `deadline_ms` of its send time; otherwise
  /// its latency is from send (or due) time to its last expected delivery.
  struct Outcome {
    std::uint64_t messages = 0;
    std::uint64_t missing = 0;
    std::vector<double> latency_ms;
  };
  template <typename ExpectedFn>
  Outcome evaluate(ExpectedFn expected, double deadline_ms) const {
    std::lock_guard<std::mutex> lk(mu_);
    Outcome out;
    for (std::uint32_t s = 0; s < sent_at_.size(); ++s) {
      for (std::uint64_t q = 0; q < sent_at_[s].size(); ++q) {
        ++out.messages;
        const std::vector<double>& at = delivered_ms_[s][q];
        double last = 0;
        bool missing = false;
        for (std::size_t r = 0; r < receivers_; ++r) {
          if (!expected(r, sent_at_[s][q])) continue;
          if (at[r] < 0 || at[r] > deadline_ms) {
            missing = true;
          } else if (at[r] > last) {
            last = at[r];
          }
        }
        if (missing) {
          ++out.missing;
        } else {
          out.latency_ms.push_back(last);
        }
      }
    }
    return out;
  }

 private:
  const PayloadCodec& codec_;
  const std::vector<gcs::MemberId> sender_ids_;
  const std::size_t receivers_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::vector<std::vector<TimePoint>> sent_at_;
  // [sender][seq][receiver] -> ms after send, -1 = not delivered.
  std::vector<std::vector<std::vector<double>>> delivered_ms_;
  std::vector<std::vector<std::uint32_t>> delivered_count_;
  // [receiver][sender] -> last seq + 1 seen (0 = none yet).
  std::vector<std::vector<std::uint64_t>> next_seq_;
  std::vector<std::uint64_t> completed_;
  std::uint64_t completed_total_ = 0;
  std::uint64_t sent_total_ = 0;
  std::vector<std::uint64_t> received_;  // per receiver
  std::uint64_t corrupted_ = 0;
};

/// Key convergence bookkeeping for one group.
class KeyTracker {
 public:
  explicit KeyTracker(std::size_t members);

  struct Install {
    TimePoint at{};
    std::vector<gcs::MemberId> view;  // sorted
    util::Bytes key;
    secure::RekeyStats stats;
  };

  /// Member callback from on_rekey (the member's lane): `view` is the
  /// member's current view, `key` its key material.
  void installed(std::size_t member, std::vector<gcs::MemberId> view, util::Bytes key,
                 const secure::RekeyStats& stats);
  /// Member callback from on_view: counts group views.
  void viewed();

  enum class State { kPending, kConverged, kDiverged };
  /// Whether every member in `expected` (indices; `ids` their member ids)
  /// holds one common key installed at or after `since` for exactly that
  /// membership. kDiverged: all installed for the right view but the keys
  /// differ.
  State check(const std::vector<std::size_t>& expected, const std::vector<gcs::MemberId>& ids,
              TimePoint since) const;

  /// Latest installs of the given members (for per-operation rekey stats).
  std::vector<Install> latest(const std::vector<std::size_t>& members) const;

  std::uint64_t views() const;

  /// Test hook: overwrite a member's latest install (planted mismatches).
  void forge(std::size_t member, Install install);

  void wait_progress(std::uint64_t seen, TimePoint until) const;
  std::uint64_t progress() const;

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::vector<std::optional<Install>> latest_;
  std::uint64_t installs_ = 0;
  std::uint64_t views_ = 0;
};

}  // namespace perfbench
