// Compiled-in data-path counters for the zero-copy message path.
//
// The paper's performance argument rests on the messaging substrate being
// cheap next to the cryptography; Spread earns that by packing messages and
// avoiding copies on the data path. These counters make our reproduction's
// behaviour measurable: every payload allocation, payload copy and network
// frame is counted at the point where it happens, so tests and benchmarks
// can assert properties like "local delivery of one multicast performs zero
// payload copies".
//
// The counters are process-wide relaxed atomics: the simulation is
// single-threaded, but the realtime backend shards daemons across event-loop
// lanes, so two lanes can bump the same block concurrently. Counts are pure
// statistics — no ordering is required between fields, and relaxed
// increments keep the serial totals byte-identical to the old plain ints.
//
// There is exactly one block per process. Tests and benchmarks isolate
// their epochs by resetting it (the test Cluster fixture does so when it is
// constructed) or by diffing snapshots.
#pragma once

#include <atomic>
#include <cstdint>

namespace ss::util {

struct MsgPathStats {
  // Payload buffer lifecycle (SharedBytes blocks).
  std::atomic<std::uint64_t> payload_allocs{0};        // fresh refcounted blocks created
  std::atomic<std::uint64_t> payload_copies{0};        // deep copies of payload bytes
  std::atomic<std::uint64_t> payload_bytes_copied{0};  // bytes deep-copied

  // Link layer.
  std::atomic<std::uint64_t> frames_sent{0};      // frames shipped onto the sim network
  std::atomic<std::uint64_t> frames_packed{0};    // pack frames (>= 2 messages coalesced)
  std::atomic<std::uint64_t> messages_packed{0};  // messages that rode inside pack frames

  // Copyable snapshot semantics so benchmarks can grab `before`/`after`
  // values with plain assignment, exactly as with the old plain-int struct.
  MsgPathStats() = default;
  MsgPathStats(const MsgPathStats& o) { *this = o; }
  MsgPathStats& operator=(const MsgPathStats& o) {
    payload_allocs = o.payload_allocs.load(std::memory_order_relaxed);
    payload_copies = o.payload_copies.load(std::memory_order_relaxed);
    payload_bytes_copied = o.payload_bytes_copied.load(std::memory_order_relaxed);
    frames_sent = o.frames_sent.load(std::memory_order_relaxed);
    frames_packed = o.frames_packed.load(std::memory_order_relaxed);
    messages_packed = o.messages_packed.load(std::memory_order_relaxed);
    return *this;
  }
};

/// The process-wide counter set.
MsgPathStats& msgpath();

/// Zeroes all counters (benchmark / test epochs).
void msgpath_reset();

}  // namespace ss::util
