#include "gcs/daemon_key.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/log.h"

namespace ss::gcs {

DaemonKeyAgent::DaemonKeyAgent(const DaemonKeyStore& store, DaemonId self, std::uint64_t seed,
                               SendFn send)
    : self_(self),
      rnd_(seed, "daemon-key-agent"),
      crypto_(store, self, seed ^ 0x9E3779B97F4A7C15ULL),
      send_(std::move(send)),
      rekeys_("gcs.daemon_key.rekeys", {{"daemon", std::to_string(self)}}) {}

util::Bytes DaemonKeyAgent::encode_dist(const ViewId& view, const util::Bytes& sealed_key) {
  return util::encode(KeyDistMsg{view, sealed_key});
}

DaemonId DaemonKeyAgent::coordinator() const {
  return *std::min_element(current_members_.begin(), current_members_.end());
}

void DaemonKeyAgent::on_view_installed(const ViewId& view, const std::vector<DaemonId>& members) {
  current_view_ = view;
  current_members_ = members;
  key_.clear();  // old-view key retired
  if (coordinator() != self_) return;  // wait for the distribution

  // Coordinator: a fresh key, sealed for each member under the pairwise
  // channel.
  util::Bytes key = rnd_.generate(32);
  for (DaemonId d : members) {
    if (d == self_) continue;
    try {
      send_(d, encode_dist(view, crypto_.seal(d, key)));
    } catch (const std::exception& e) {
      SS_LOG_WARN("daemon-key", "d", self_, " cannot seal daemon key for d", d, ": ", e.what());
    }
  }
  install_key(view, std::move(key));
}

void DaemonKeyAgent::on_key_dist(DaemonId from, const util::SharedBytes& body) {
  try {
    const auto dist = util::decode<KeyDistMsg>(body);
    if (dist.view != current_view_) return;  // stale distribution
    if (current_members_.empty() || from != coordinator()) return;  // not from the coordinator
    install_key(dist.view, crypto_.open(from, dist.sealed_key));
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
