#include "gcs/daemon_key.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/log.h"
#include "util/serial.h"

namespace ss::gcs {

DaemonKeyAgent::DaemonKeyAgent(const DaemonKeyStore& store, DaemonId self, std::uint64_t seed,
                               SendFn send, runtime::Compute* compute)
    : store_(store),
      self_(self),
      rnd_(seed, "daemon-key-agent"),
      crypto_(std::make_shared<LinkCrypto>(store, self, seed ^ 0x9E3779B97F4A7C15ULL)),
      send_(std::move(send)),
      compute_(compute),
      rekeys_("gcs.daemon_key.rekeys", {{"daemon", std::to_string(self)}}) {}

DaemonKeyAgent::~DaemonKeyAgent() { *alive_ = false; }

util::Bytes DaemonKeyAgent::encode_dist(const ViewId& view, const util::Bytes& sealed_key) {
  util::Writer w;
  view.encode(w);
  w.bytes(sealed_key);
  return w.take();
}

std::pair<ViewId, util::Bytes> DaemonKeyAgent::decode_dist(const util::Bytes& body) {
  util::Reader r(body);
  ViewId view = ViewId::decode(r);
  util::Bytes sealed = r.bytes();
  return {view, std::move(sealed)};
}

void DaemonKeyAgent::on_view_installed(const ViewId& view, const std::vector<DaemonId>& members) {
  current_view_ = view;
  current_members_ = members;
  key_.clear();  // old-view key retired

  const DaemonId coordinator = *std::min_element(members.begin(), members.end());
  if (coordinator != self_) return;  // wait for the distribution

  // One seal job at a time (it has exclusive use of the pairwise channel):
  // if a view lands while one runs, the completion notices the view moved
  // on and reseals for the latest membership.
  if (seal_inflight_) return;
  start_seal();
}

void DaemonKeyAgent::start_seal() {
  seal_inflight_ = true;

  // Self-contained job state, shared by work and completion. The channel
  // rides along as a shared_ptr so a daemon stop cannot pull it out from
  // under a running job.
  struct SealJob {
    std::shared_ptr<LinkCrypto> crypto;
    DaemonId self = 0;
    ViewId view;
    std::vector<DaemonId> members;
    util::Bytes key;
    std::vector<std::pair<DaemonId, util::Bytes>> bodies;
  };
  auto job = std::make_shared<SealJob>();
  job->crypto = crypto_;
  job->self = self_;
  job->view = current_view_;
  job->members = current_members_;
  // Coordinator: fresh key, sealed per member under the pairwise channel.
  // Key generation stays on the lane (rnd_ is lane state); the seals — the
  // pairwise-DH derivations and symmetric wrapping — are the offloaded work.
  job->key = rnd_.generate(32);

  auto work = [job] {
    for (DaemonId d : job->members) {
      if (d == job->self) continue;
      try {
        job->bodies.emplace_back(d, encode_dist(job->view, job->crypto->seal(d, job->key)));
      } catch (const std::exception& e) {
        SS_LOG_WARN("daemon-key", "d", job->self, " cannot seal daemon key for d", d, ": ",
                    e.what());
      }
    }
  };
  auto done = [this, alive = alive_, job] {
    if (!*alive) return;  // daemon stopped while the job ran
    finish_seal(job->view, std::move(job->key), std::move(job->bodies));
  };
  if (compute_ != nullptr) {
    compute_->offload(std::move(work), std::move(done));
  } else {
    work();
    done();
  }
}

void DaemonKeyAgent::finish_seal(const ViewId& view, util::Bytes key,
                                 std::vector<std::pair<DaemonId, util::Bytes>> bodies) {
  seal_inflight_ = false;
  if (view == current_view_) {
    for (auto& [d, body] : bodies) send_(d, body);
    install_key(view, std::move(key));
  } else if (!current_members_.empty() &&
             *std::min_element(current_members_.begin(), current_members_.end()) == self_ &&
             !has_key()) {
    // Superseded mid-flight and still the coordinator: reseal for the
    // membership that is actually current.
    start_seal();
  }
  // Replay distributions that arrived while the job held the channel.
  std::vector<std::pair<DaemonId, util::Bytes>> pending = std::move(pending_dists_);
  pending_dists_.clear();
  for (auto& [from, body] : pending) on_key_dist(from, body);
}

void DaemonKeyAgent::on_key_dist(DaemonId from, const util::Bytes& body) {
  if (seal_inflight_) {
    // The in-flight seal job has exclusive use of the pairwise channel;
    // open() after it completes.
    pending_dists_.emplace_back(from, body);
    return;
  }
  try {
    auto [view, sealed] = decode_dist(body);
    if (view != current_view_) return;  // stale distribution
    if (current_members_.empty() ||
        from != *std::min_element(current_members_.begin(), current_members_.end())) {
      return;  // not from the coordinator
    }
    install_key(view, crypto_->open(from, sealed));
  } catch (const std::exception& e) {
    SS_LOG_WARN("daemon-key", "d", self_, " rejected daemon key dist: ", e.what());
  }
}

void DaemonKeyAgent::install_key(const ViewId& view, util::Bytes key) {
  key_ = std::move(key);
  key_view_ = view;
  rekeys_.inc();
  if (obs::TraceSink* s = obs::sink()) {
    s->instant("gcs", "daemon_key.rekey", self_, 0, {{"view", view.to_string()}});
  }
  SS_LOG_DEBUG("daemon-key", "d", self_, " daemon group key for ", view.to_string());
}

}  // namespace ss::gcs
