// runtime::Compute — deferred-execution seam for heavy protocol compute.
//
// The paper's measurements put serial modular exponentiation, not the
// network, at the center of rekey latency; Compute is the runtime-level
// seam that lets the secure layer move that work off the protocol thread
// without knowing how (or whether) the backend parallelizes. offload()
// takes two closures:
//
//   work — the heavy computation. May run on any thread, so it must be
//          self-contained: it owns its inputs and writes its outputs into
//          state shared only with `done`.
//   done — the continuation. ALWAYS runs on the submitting actor's event
//          lane (like a timer), so it may touch protocol state freely.
//
// Ordering contract: for a single actor, done-continuations are delivered
// in submission order is NOT guaranteed across jobs — each done is posted
// when its work finishes. Callers that need per-group serialization (the
// secure layer does) must not have two jobs for the same group in flight.
//
// Backends:
//   InlineCompute      — runs work();done() synchronously at the call site.
//                        Every Env defaults to one shared instance (SimEnv
//                        and hand-built Envs), so simulation stays
//                        single-threaded, deterministic and bit-identical.
//   RealtimeEnv        — per-node adapters submit to a WorkerPool and post
//                        done back to the node's event lane; with no pool
//                        configured they degrade to inline execution.
//
// Layering: this header is pure util-level plumbing (std::function only);
// crypto::ComputeJob packages the actual cryptographic work and the secure
// layer glues the two together, so runtime never sees crypto types.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>

namespace ss::runtime {

class Compute {
 public:
  virtual ~Compute() = default;

  /// Schedules work on a compute resource; done runs afterwards on the
  /// submitting actor's event lane. Either may run before offload returns
  /// (inline backends).
  virtual void offload(std::function<void()> work, std::function<void()> done) = 0;

  /// Number of parallel workers behind this seam (0 = inline/serial).
  virtual std::size_t workers() const { return 0; }
};

/// Executes jobs synchronously at the call site. The deterministic
/// backend: no threads, no reordering, bit-identical to pre-seam code.
class InlineCompute : public Compute {
 public:
  void offload(std::function<void()> work, std::function<void()> done) override {
    work();
    done();
  }
};

/// The process-wide inline backend (stateless, so one instance serves
/// every Env that brings no Compute of its own).
inline Compute* inline_compute() {
  static InlineCompute instance;
  return &instance;
}

/// Index of the pool worker executing the calling thread, or -1 from event
/// lanes / inline execution. Lets offloaded work attribute observability
/// (trace lanes, span args) to the worker that ran it without depending on
/// the pool type itself.
int current_compute_worker();

}  // namespace ss::runtime
