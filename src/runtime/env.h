// runtime::Env — everything a protocol actor needs from the world.
//
// One Env per node: a Clock for timers, a Transport for datagrams, and the
// node's own transport address. The whole protocol stack (gcs::Daemon and
// below, flush, secure clients) is constructed against an Env and is
// thereby backend-agnostic: runtime::SimEnv runs it under the
// deterministic discrete-event simulator, runtime::RealtimeEnv under a
// threaded wall-clock event loop. Both must honor the Clock/Transport
// contracts (see clock.h, transport.h); the sim backend additionally
// guarantees bit-for-bit reproducibility for a fixed seed.
#pragma once

#include "runtime/clock.h"
#include "runtime/compute.h"
#include "runtime/transport.h"

namespace ss::runtime {

/// Cheap value type: copy freely. The referenced Clock/Transport/Compute
/// are owned by the backend (SimEnv / RealtimeEnv) and must outlive every
/// actor. `compute` is never null: an Env built as {clock, net, self}
/// runs compute inline, which is the sim semantics.
struct Env {
  Clock* clock = nullptr;
  Transport* net = nullptr;
  NodeId self = kInvalidNode;
  Compute* compute = inline_compute();
};

}  // namespace ss::runtime
