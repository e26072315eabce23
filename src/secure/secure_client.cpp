#include "secure/secure_client.h"

#include <algorithm>

#include "crypto/hmac.h"
#include "crypto/schnorr.h"
#include "gcs/trace.h"
#include "util/log.h"
#include "util/serial.h"

namespace ss::secure {

namespace {

constexpr std::size_t kKeyIdBytes = 8;
constexpr std::size_t kOldCipherWindow = 4;
constexpr std::size_t kEarlyUnicastWindow = 32;

/// Unicast protocol messages carry the view they belong to (multicasts get
/// this from VS delivery for free).
util::Bytes wrap_unicast(const gcs::GroupViewId& vid, const util::Bytes& payload) {
  util::Writer w;
  vid.encode(w);
  w.bytes(payload);
  return w.take();
}

std::pair<gcs::GroupViewId, util::SharedBytes> unwrap_unicast(const util::SharedBytes& raw) {
  util::Reader r(raw);
  gcs::GroupViewId vid = gcs::GroupViewId::decode(r);
  return {vid, r.payload()};  // zero-copy slice of the delivered block
}

bool is_ka_type(std::int16_t t) { return t <= -31000 && t > -32000; }

/// What a sender signature binds: group, key epoch, sender, type, payload.
util::Bytes sig_binding(const gcs::GroupName& group, const util::Bytes& key_id,
                        const gcs::MemberId& sender, std::int16_t app_type,
                        const util::Bytes& payload) {
  util::Writer w;
  w.str(group);
  w.bytes(key_id);
  sender.encode(w);
  w.u16(static_cast<std::uint16_t>(app_type));
  w.bytes(payload);
  return w.take();
}

}  // namespace

SecureGroupClient::SecureGroupClient(gcs::Daemon& daemon, cliques::KeyDirectory& directory,
                                     std::uint64_t seed, bool charge_crypto_time)
    : fm_(daemon),
      directory_(directory),
      rnd_(seed, "secure-client"),
      clock_(daemon.clock()),
      compute_(daemon.compute()),
      charge_crypto_time_(charge_crypto_time) {
  fm_.on_view([this](const gcs::GroupView& v) { handle_view(v); });
  fm_.on_message([this](const gcs::Message& m) { handle_message(m); });
  fm_.on_flush_request([this](const gcs::GroupName& g) {
    // The secure layer has no old-view traffic to finish: acknowledge
    // immediately (applications needing to drain can hook the flush layer
    // directly in a custom build).
    fm_.flush_ok(g);
  });
  // Make sure our long-term key pair exists before anyone needs it.
  directory_.ensure(fm_.id(), rnd_);
}

SecureGroupClient::~SecureGroupClient() {
  for (auto& [group, st] : groups_) {
    if (st.refresh_timer_armed) {
      clock_.cancel(st.refresh_timer);
      st.refresh_timer_armed = false;
    }
    if (st.batch_timer_armed) {
      clock_.cancel(st.batch_timer);
      st.batch_timer_armed = false;
    }
  }
  // After this, a completion timer from a still-running deferred step finds
  // the token expired and returns without touching the freed client. The
  // step itself only reaches module-owned state (the job's shared_ptr keeps
  // the module, and KaModuleEnv::rnd_owner its private DRBG, alive).
  alive_.reset();
}

void SecureGroupClient::join(const gcs::GroupName& group, SecureGroupConfig config) {
  KaModuleEnv env;
  env.dh = config.dh;
  env.directory = &directory_;
  // Fork a private DRBG for the module: its deferred steps run on compute
  // workers while `rnd_` stays lane-owned (cipher IVs, signatures) — and at
  // teardown a step may outlive this client entirely. The fork point is a
  // deterministic position in the client stream and the group name
  // domain-separates, so seeded runs stay replayable.
  util::Bytes fork_seed = rnd_.generate(16);
  fork_seed.insert(fork_seed.end(), group.begin(), group.end());
  auto ka_rng = std::make_shared<crypto::HmacDrbg>(fork_seed);
  env.rnd = ka_rng.get();
  env.rnd_owner = std::move(ka_rng);
  env.clock = &clock_;
  env.self = fm_.id();
  std::unique_ptr<KeyAgreementModule> ka = KaRegistry::instance().create(config.ka_module, env);
  std::unique_ptr<CipherSuite> cipher = CipherRegistry::instance().create(config.cipher);
  groups_.erase(group);  // a repeated join starts from fresh state
  GroupState& st = groups_.try_emplace(group, fm_.id(), config).first->second;
  st.ka = std::move(ka);
  st.cipher = std::move(cipher);
  arm_refresh_timer(group, st);
  fm_.join(group);
}

void SecureGroupClient::leave(const gcs::GroupName& group) {
  auto it = groups_.find(group);
  if (it != groups_.end()) {
    if (it->second.refresh_timer_armed) {
      clock_.cancel(it->second.refresh_timer);
      it->second.refresh_timer_armed = false;
    }
    if (it->second.batch_timer_armed) {
      clock_.cancel(it->second.batch_timer);
      it->second.batch_timer_armed = false;
    }
  }
  fm_.leave(group);
}

void SecureGroupClient::arm_refresh_timer(const gcs::GroupName& group, GroupState& st) {
  if (st.config.auto_refresh_interval == 0 || st.refresh_timer_armed) return;
  st.refresh_timer_armed = true;
  st.refresh_timer = clock_.after(st.config.auto_refresh_interval, [this, group] {
    auto it = groups_.find(group);
    if (it == groups_.end()) return;
    it->second.refresh_timer_armed = false;
    if (it->second.key_ready) {
      it->second.counters.auto_refreshes.inc();
      refresh_key(group);
    }
    arm_refresh_timer(group, it->second);
  });
}

SecureGroupClient::GroupCounters::GroupCounters(const std::string& member,
                                                const std::string& module)
    : sealed("secure.sealed", {{"member", member}}),
      opened("secure.opened", {{"member", member}}),
      dropped_unauthentic("secure.dropped_unauthentic", {{"member", member}}),
      dropped_undecodable("secure.dropped_undecodable", {{"member", member}}),
      keys_installed("secure.keys_installed", {{"member", member}}),
      auto_refreshes("secure.auto_refreshes", {{"member", member}}),
      coalesced_views("secure.coalesced_views", {{"member", member}}),
      dropped_early_ka("secure.dropped_early_ka", {{"member", member}}),
      rekeys("secure.rekeys", {{"member", member}}),
      mod_exps("secure.ka.mod_exps", {{"member", member}, {"module", module}}) {}

SecureGroupStats SecureGroupClient::group_stats(const gcs::GroupName& group) const {
  auto it = groups_.find(group);
  if (it == groups_.end()) return {};
  const GroupCounters& c = it->second.counters;
  SecureGroupStats s;
  s.sealed = c.sealed.value();
  s.opened = c.opened.value();
  s.dropped_unauthentic = c.dropped_unauthentic.value();
  s.dropped_undecodable = c.dropped_undecodable.value();
  s.rekeys = c.keys_installed.value();
  s.auto_refreshes = c.auto_refreshes.value();
  s.coalesced_views = c.coalesced_views.value();
  s.dropped_early_ka = c.dropped_early_ka.value();
  return s;
}

void SecureGroupClient::send(const gcs::GroupName& group, util::Bytes plaintext,
                             std::int16_t msg_type) {
  auto it = groups_.find(group);
  if (it == groups_.end()) throw std::logic_error("SecureGroupClient: not in group " + group);
  if (msg_type <= kShareCommitType) {
    throw std::invalid_argument("SecureGroupClient: reserved msg_type");
  }
  GroupState& st = it->second;
  st.outbox.emplace_back(msg_type, std::move(plaintext));
  if (st.key_ready) flush_outbox(group, st);
}

void SecureGroupClient::refresh_key(const gcs::GroupName& group) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  run_or_queue(it->second, [this, group] {
    auto it2 = groups_.find(group);
    if (it2 == groups_.end()) return;
    GroupState& st = it2->second;
    if (st.pending_batch) return;  // a membership rekey round is already due
    if (!st.in_rekey) {
      st.in_rekey = true;
      st.rekey_start = clock_.now();
      st.cpu_acc = 0;
      st.exp_acc = crypto::ExpTally{};
      begin_rekey_span(group, st);
    }
    dispatch(group, st,
             run_module(st, group, "ka.refresh_request",
                        [&] { return st.ka->request_refresh(); }));
  });
}

bool SecureGroupClient::has_key(const gcs::GroupName& group) const {
  auto it = groups_.find(group);
  return it != groups_.end() && it->second.key_ready;
}

std::uint64_t SecureGroupClient::key_epoch(const gcs::GroupName& group) const {
  auto it = groups_.find(group);
  return it != groups_.end() ? it->second.epoch : 0;
}

util::Bytes SecureGroupClient::key_material(const gcs::GroupName& group, std::size_t len) const {
  auto it = groups_.find(group);
  // A module with deferred compute in flight is being mutated off-lane:
  // its key is "in transition" and not readable until the step completes
  // (never observable with inline compute — the sim/serial path).
  if (it == groups_.end() || !it->second.key_ready ||
      it->second.inflight_generation != 0) {
    throw std::logic_error("SecureGroupClient: no key for " + group);
  }
  return it->second.ka->session_key(len);
}

const gcs::GroupView* SecureGroupClient::current_view(const gcs::GroupName& group) const {
  auto it = groups_.find(group);
  return it != groups_.end() && it->second.have_view ? &it->second.view : nullptr;
}

const std::optional<RekeyStats>& SecureGroupClient::last_rekey(
    const gcs::GroupName& group) const {
  static const std::optional<RekeyStats> kNone;
  auto it = groups_.find(group);
  return it != groups_.end() ? it->second.last_rekey : kNone;
}

KaActions SecureGroupClient::run_module(GroupState& st, const gcs::GroupName& group,
                                        const char* phase,
                                        const std::function<KaActions()>& call) {
  const crypto::ExpTally before = crypto::exp_tally();
  obs::SpanHandle span;
  span.begin("secure.ka", phase, fm_.id().daemon, rekey_lane(group));
  KaActions actions;
  runtime::Time cpu_us = 0;
  {
    runtime::ComputeTimer timer(clock_, charge_crypto_time_);
    try {
      actions = call();
    } catch (const std::exception& e) {
      // A failed protocol step (e.g. a member without credentials) must not
      // take the client down; the next membership event restarts agreement.
      SS_LOG_WARN("secure", "key agreement step failed: ", e.what());
      actions = KaActions{};
    }
    cpu_us = timer.elapsed_us();
    st.cpu_acc += static_cast<double>(cpu_us) * 1e-6;
  }
  const crypto::ExpTally delta = crypto::exp_tally() - before;
  st.exp_acc += delta;
  if (span.open()) {
    obs::TraceArgs args{{"cpu_us", cpu_us}, {"mod_exps", delta.total()}};
    for (std::size_t i = 0; i < crypto::kExpPurposeCount; ++i) {
      const auto p = static_cast<crypto::ExpPurpose>(i);
      const std::uint64_t n = delta.count(p);
      if (n != 0) args.emplace_back(crypto::exp_purpose_name(p), n);
    }
    span.end(std::move(args));
  }
  st.counters.mod_exps.inc(delta.total());
  return actions;
}

void SecureGroupClient::begin_rekey_span(const gcs::GroupName& group, GroupState& st) {
  st.rekey_span.begin("secure", "rekey", fm_.id().daemon, rekey_lane(group),
                      {{"group", group},
                       {"module", st.config.ka_module},
                       {"group_size", st.view.members.size()}});
}

void SecureGroupClient::handle_view(const gcs::GroupView& view) {
  auto it = groups_.find(view.group);
  if (it == groups_.end()) return;

  if (view.reason == gcs::MembershipReason::kSelfLeave) {
    if (it->second.batch_timer_armed) {
      clock_.cancel(it->second.batch_timer);
      it->second.batch_timer_armed = false;
    }
    groups_.erase(it);
    if (on_view_) on_view_(view);
    return;
  }

  GroupState& st = it->second;
  st.view = view;
  st.have_view = true;
  st.key_ready = false;
  SS_LOG_DEBUG("secure", fm_.id().to_string(), " view in ", view.group, ": members=",
               view.members.size(), " joined=", view.joined.size(), " left=",
               view.left.size(), " reason=", static_cast<int>(view.reason));
  // Old-view keys can never validate new-view traffic: retire them all.
  st.old_ciphers.clear();
  st.inbox_pending.clear();

  // A view change (re)starts the agreement — this is the cascading-events
  // rule: whatever was in flight is abandoned for the newest membership.
  // Bumping the generation supersedes any deferred step on the pool (its
  // completion will be dropped) and queued invocations are stale too.
  st.ka_generation = next_generation_++;
  st.pending_invocations.clear();
  st.in_rekey = true;
  st.rekey_start = clock_.now();
  st.cpu_acc = 0;
  st.exp_acc = crypto::ExpTally{};
  begin_rekey_span(view.group, st);

  if (on_view_) on_view_(view);

  // Batched rekeying: fold the view into the pending membership batch. The
  // batch is handed to the module as ONE event when (a) the batch window
  // (if configured) elapses and (b) no superseded deferred step is still
  // mutating the module off-lane. With window 0 and no compute in flight
  // this flushes immediately — the classic per-view flow.
  fold_into_batch(st, view);
  // The window amortizes rekeys of an ESTABLISHED membership. A module that
  // was never handed an event has no key to re-agree — delaying its
  // bootstrap saves nothing, and folding the self-join singleton into a
  // later join would hand Cliques/CKD an everyone-new batch with no keyed
  // member to initiate from. First event always flushes immediately.
  if (st.config.rekey_batch_window != 0 && st.handed_any) {
    if (!st.batch_timer_armed) {
      st.batch_timer_armed = true;
      st.batch_timer =
          clock_.after(st.config.rekey_batch_window, [this, group = view.group] {
            auto it2 = groups_.find(group);
            if (it2 == groups_.end()) return;
            it2->second.batch_timer_armed = false;
            flush_batch(group);
            // Traffic that arrived for the batched membership while the
            // window was open is buffered; the module can process it now
            // that it has the batch (or it queues behind an in-flight
            // compute, which preserves the same order).
            replay_early_unicasts(group);
          });
    }
    replay_early_unicasts(view.group);
    return;
  }
  flush_batch(view.group);
  replay_early_unicasts(view.group);
}

void SecureGroupClient::replay_early_unicasts(const gcs::GroupName& group) {
  auto it = groups_.find(group);
  if (it == groups_.end() || it->second.ka_early.empty()) return;
  // Re-run buffered unicasts through the normal path: one matching the view
  // just installed is processed, one still ahead re-buffers, stale ones
  // drop. Processing may itself change views (inline compute), so re-find
  // the group each round.
  std::deque<gcs::Message> early = std::move(it->second.ka_early);
  it->second.ka_early.clear();
  for (auto& msg : early) handle_message(msg);
}

void SecureGroupClient::buffer_early_ka(GroupState& st, const gcs::Message& msg) {
  // Sized to absorb one coalesced cascade: with the batch window open every
  // live member can have a couple of protocol rounds in flight against a
  // membership the module has not been handed yet.
  const std::size_t cap =
      std::max<std::size_t>(kEarlyUnicastWindow, 2 * st.view.members.size());
  st.ka_early.push_back(msg);
  if (st.ka_early.size() > cap) {
    st.counters.dropped_early_ka.inc();
    SS_LOG_WARN("secure", fm_.id().to_string(), " early-KA buffer full in ", msg.group,
                ": evicted ", ka_phase_name(st.ka_early.front().msg_type),
                " (dropped_early_ka=", st.counters.dropped_early_ka.value(), ")");
    st.ka_early.pop_front();
  }
}

void SecureGroupClient::fold_into_batch(GroupState& st, const gcs::GroupView& view) {
  if (!st.pending_batch) {
    // Singleton batch: the view's own delta, verbatim — modules see exactly
    // the transcript the per-event flow produced.
    KaMembershipEvent ev;
    ev.view = view;
    ev.joined = view.joined;
    ev.left = view.left;
    st.pending_batch = std::move(ev);
    st.batch_departed = view.left;
    return;
  }
  st.counters.coalesced_views.inc();
  KaMembershipEvent& ev = *st.pending_batch;
  ev.view = view;
  ++ev.coalesced;
  // Record who departed at ANY view of the batch: a member that leaves and
  // rejoins within the window cancels out of the endpoint diff below even
  // though it restarted with fresh module state.
  for (const auto& m : view.left) {
    if (std::find(st.batch_departed.begin(), st.batch_departed.end(), m) ==
        st.batch_departed.end()) {
      st.batch_departed.push_back(m);
    }
  }
  // Aggregate diff against the membership last handed to the module: a
  // member that joined and left within the batch cancels out of both lists.
  ev.joined.clear();
  ev.left.clear();
  if (!st.handed_any) {
    // Module is fresh (never keyed any membership): everyone is new to it.
    ev.joined = view.members;
    return;
  }
  for (const auto& m : view.members) {
    if (std::find(st.handed_members.begin(), st.handed_members.end(), m) ==
        st.handed_members.end()) {
      ev.joined.push_back(m);
    }
  }
  for (const auto& m : st.handed_members) {
    if (!view.contains(m)) ev.left.push_back(m);
  }
  // A handed member that departed mid-batch but is back in the final view
  // left and rejoined inside the window: force it into BOTH lists so the
  // module tears down its stale state and re-admits it as a joiner.
  for (const auto& m : st.batch_departed) {
    if (!view.contains(m)) continue;
    if (std::find(ev.joined.begin(), ev.joined.end(), m) != ev.joined.end()) continue;
    ev.joined.push_back(m);
    ev.left.push_back(m);
  }
}

void SecureGroupClient::flush_batch(const gcs::GroupName& group) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  GroupState& st = it->second;
  if (!st.pending_batch) return;
  if (st.batch_timer_armed) return;     // window still open: keep folding
  if (st.inflight_generation != 0) return;  // finish_compute flushes
  KaMembershipEvent ev = std::move(*st.pending_batch);
  st.pending_batch.reset();
  st.batch_departed.clear();
  st.handed_members = ev.view.members;
  st.handed_any = true;
  SS_LOG_DEBUG("secure", fm_.id().to_string(), " rekey round in ", group, ": members=",
               ev.view.members.size(), " joined=", ev.joined.size(), " left=",
               ev.left.size(), " coalesced=", ev.coalesced);
  dispatch(group, st,
           run_module(st, group, "ka.on_membership",
                      [&] { return st.ka->on_membership(ev); }));
}

void SecureGroupClient::handle_message(const gcs::Message& msg) {
  auto it = groups_.find(msg.group);
  if (it == groups_.end()) return;
  GroupState& st = it->second;

  if (msg.msg_type == kSecureDataType) {
    deliver_ciphertext(st, msg, /*buffer_unknown=*/true);
    return;
  }

  if (is_ka_type(msg.msg_type)) {
    gcs::Message inner = msg;
    // Unicasts carry an explicit view tag; multicasts are VS-delivered with
    // the view they were sent in. Stale traffic is dropped; a unicast from
    // a view we have not installed yet (unicasts are not VS-ordered, so a
    // peer's protocol round can race our view install) is buffered and
    // replayed once the view lands. A unicast is recognized by its
    // default-constructed view id (the GCS only stamps multicast
    // deliveries).
    if (msg.view_id == gcs::GroupViewId{}) {
      try {
        auto [vid, payload] = unwrap_unicast(msg.payload);
        if (vid != st.view.view_id) {
          if (!st.have_view || vid > st.view.view_id) {
            buffer_early_ka(st, msg);
          } else {
            SS_LOG_DEBUG("secure", fm_.id().to_string(), " dropped stale KA unicast ",
                         ka_phase_name(msg.msg_type), " in ", msg.group);
          }
          return;
        }
        inner.payload = std::move(payload);
      } catch (const util::SerialError&) {
        return;
      }
    } else if (!st.have_view || msg.view_id != st.view.view_id) {
      SS_LOG_DEBUG("secure", fm_.id().to_string(), " dropped stale KA multicast ",
                   ka_phase_name(msg.msg_type), " in ", msg.group);
      return;
    }
    // A KA message valid for the current view proves a peer has already
    // started agreement for this membership, but the module has not been
    // handed the batch containing it yet. While the batch window is open,
    // buffer the message and replay it after the flush — collapsing the
    // window on first traffic would defeat coalescing entirely (proactive
    // protocols like TGDH multicast within milliseconds of a view). With
    // the window closed (flush only blocked by in-flight compute), hand
    // the batch over now so the module never sees traffic for a
    // membership it was not told about.
    if (st.pending_batch) {
      if (st.batch_timer_armed) {
        buffer_early_ka(st, msg);
        return;
      }
      flush_batch(msg.group);
    }
    // Valid for the current view; if it has to queue behind in-flight
    // compute, a view change clears the queue (making it stale is the only
    // way the view can move on).
    run_or_queue(st, [this, group = msg.group, inner = std::move(inner)] {
      auto it2 = groups_.find(group);
      if (it2 == groups_.end()) return;
      GroupState& s = it2->second;
      dispatch(group, s,
               run_module(s, group, ka_phase_name(inner.msg_type),
                          [&] { return s.ka->on_message(inner); }));
    });
  }
}

void SecureGroupClient::dispatch(const gcs::GroupName& group, GroupState& st,
                                 KaActions actions) {
  for (const auto& u : actions.unicasts) {
    SS_LOG_DEBUG("secure", fm_.id().to_string(), " KA unicast ", ka_phase_name(u.msg_type),
                 " -> ", u.to.to_string(), " in ", group);
    fm_.unicast(u.to, group, wrap_unicast(st.view.view_id, u.payload), u.msg_type);
  }
  for (const auto& m : actions.multicasts) {
    // FIFO suffices for key agreement traffic (paper Section 5.3).
    if (!fm_.send(gcs::ServiceType::kFifo, group, m.payload, m.msg_type)) {
      SS_LOG_DEBUG("secure", "KA multicast blocked by flush in ", group,
                   " (cascade); agreement will restart");
    }
  }
  if (actions.key_ready) apply_new_key(group, st);
  if (actions.pending_compute) start_compute(group, st, std::move(*actions.pending_compute));
}

void SecureGroupClient::run_or_queue(GroupState& st, std::function<void()> fn) {
  if (st.inflight_generation != 0) {
    st.pending_invocations.push_back(std::move(fn));
    return;
  }
  fn();
}

void SecureGroupClient::drain_queue(const gcs::GroupName& group) {
  auto it = groups_.find(group);
  while (it != groups_.end() && it->second.inflight_generation == 0 &&
         !it->second.pending_invocations.empty()) {
    std::function<void()> fn = std::move(it->second.pending_invocations.front());
    it->second.pending_invocations.pop_front();
    fn();
    it = groups_.find(group);  // the invocation may have erased the group
  }
}

void SecureGroupClient::start_compute(const gcs::GroupName& group, GroupState& st,
                                      KaActions::Deferred d) {
  st.inflight_generation = st.ka_generation;
  const std::uint64_t gen = st.ka_generation;

  // Shared between the work and done closures. Holding the module keeps it
  // alive if the group is erased (self-leave) while the step runs.
  struct Pending {
    std::shared_ptr<KeyAgreementModule> ka;
    std::string label;
    std::function<KaActions()> step;
    KaActions result;
    crypto::ComputeStats stats;
  };
  auto p = std::make_shared<Pending>();
  p->ka = st.ka;
  p->label = std::move(d.label);
  p->step = std::move(d.step);

  const std::uint32_t daemon_id = fm_.id().daemon;
  const std::uint64_t home_lane = rekey_lane(group);
  auto work = [p, daemon_id, home_lane] {
    // Attribute the span to the pool worker's trace lane so parallel steps
    // render side by side; inline execution stays on the rekey lane.
    const int w = runtime::current_compute_worker();
    const std::uint64_t lane =
        w >= 0 ? obs::trace_lane(9, static_cast<std::uint64_t>(w), "pool") : home_lane;
    obs::SpanHandle span;
    span.begin("secure.ka", "ka.compute", daemon_id, lane, {{"job", p->label}});
    crypto::ComputeJob job(p->label, [&p] { p->result = p->step(); });
    p->stats = job.execute();
    if (span.open()) {
      obs::TraceArgs args{{"cpu_us", p->stats.cpu_us},
                          {"mod_exps", p->stats.exps.total()}};
      if (w >= 0) args.emplace_back("pool_worker", static_cast<std::uint64_t>(w));
      span.end(std::move(args));
    }
  };
  auto done = [this, alive = std::weak_ptr<bool>(alive_), group, gen, p] {
    if (alive.expired()) return;  // client destroyed while the step ran
    finish_compute(group, gen, std::move(p->result), std::move(p->stats));
  };
  if (compute_ != nullptr) {
    compute_->offload(std::move(work), std::move(done));
  } else {
    // No compute seam (hand-built Envs): serial semantics.
    work();
    done();
  }
}

void SecureGroupClient::finish_compute(const gcs::GroupName& group, std::uint64_t gen,
                                       KaActions result, crypto::ComputeStats stats) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;  // left the group while the step ran
  GroupState& st = it->second;
  if (st.inflight_generation == gen) st.inflight_generation = 0;
  if (st.ka_generation != gen) {
    SS_LOG_DEBUG("secure", fm_.id().to_string(), " dropped superseded compute result in ",
                 group);
    // Superseded by a newer view. The module already absorbed the step —
    // equivalent to serial delivery just before the view change — but its
    // outputs belong to the old view and are dropped like any stale
    // traffic. The views that arrived while the step ran folded into one
    // membership batch: hand it over now (one event for the whole
    // cascade), then let queued invocations for the new view run.
    flush_batch(group);
    drain_queue(group);
    return;
  }
  // Book the off-lane work against this member exactly as run_module books
  // the on-lane step: virtual-time charge, rekey accumulators, counters.
  if (charge_crypto_time_ && stats.cpu_us != 0) {
    clock_.charge_time(static_cast<runtime::Time>(stats.cpu_us));
  }
  st.cpu_acc += static_cast<double>(stats.cpu_us) * 1e-6;
  st.exp_acc += stats.exps;
  st.counters.mod_exps.inc(stats.exps.total());
  if (stats.failed) {
    SS_LOG_WARN("secure", "deferred key agreement step failed in ", group, ": ", stats.error);
    result = KaActions{};
  }
  dispatch(group, st, std::move(result));
  flush_batch(group);
  drain_queue(group);
}

util::Bytes SecureGroupClient::make_aad(const gcs::GroupName& group, const util::Bytes& key_id) {
  util::Writer w;
  w.str(group);
  w.bytes(key_id);
  return w.take();
}

void SecureGroupClient::apply_new_key(const gcs::GroupName& group, GroupState& st) {
  const util::Bytes material = st.ka->session_key(st.cipher->key_material_size());
  // Key id derived from the key itself: consistent at every member with no
  // counter agreement needed.
  const util::Bytes new_key_id = crypto::kdf_sha1(material, "key-id", kKeyIdBytes);

  // Retire the current cipher (under its OLD id) into the decrypt window
  // and install the new key in a fresh suite instance.
  if (st.key_ready) {
    st.old_ciphers.emplace_front(st.key_id, std::move(st.cipher));
    st.cipher = CipherRegistry::instance().create(st.config.cipher);
    while (st.old_ciphers.size() > kOldCipherWindow) st.old_ciphers.pop_back();
  }
  st.cipher->rekey(material);
  st.key_id = new_key_id;
  st.key_ready = true;
  ++st.epoch;
  st.counters.keys_installed.inc();
  if (gcs::ClientTrace* t = gcs::ClientTrace::global()) {
    t->on_key_installed(fm_.id(), group, st.epoch, st.key_id, st.view.view_id);
  }

  if (st.in_rekey) {
    RekeyStats stats;
    stats.epoch = st.epoch;
    stats.reason = st.view.reason;
    stats.group_size = st.view.members.size();
    stats.started_at = st.rekey_start;
    stats.completed_at = clock_.now();
    stats.cpu_seconds = st.cpu_acc;
    stats.exps = st.exp_acc;
    st.last_rekey = stats;
    st.in_rekey = false;
    st.rekey_span.end({{"epoch", st.epoch},
                       {"group_size", stats.group_size},
                       {"mod_exps", stats.exps.total()},
                       {"cpu_us", static_cast<std::uint64_t>(stats.cpu_seconds * 1e6)}});
    st.counters.rekeys.inc();
    if (on_rekey_) on_rekey_(group, stats);
  }

  // Sender authentication: refresh our share secret/commitment for the new
  // epoch and announce the commitment under the group key. Per-sender FIFO
  // guarantees receivers see the commitment before any message we sign.
  if (st.config.authenticate_senders) {
    st.my_secret = st.ka->member_secret();
    st.my_commitment = st.ka->member_commitment();
    if (st.my_commitment) {
      st.outbox.emplace_front(kShareCommitType, st.my_commitment->to_bytes());
    } else {
      SS_LOG_WARN("secure", "module '", st.config.ka_module,
                  "' has no member contribution; sending unsigned in ", group);
    }
  }

  // Traffic that raced ahead of our key: retry now.
  std::deque<gcs::Message> pending = std::move(st.inbox_pending);
  st.inbox_pending.clear();
  for (const auto& msg : pending) deliver_ciphertext(st, msg, /*buffer_unknown=*/false);

  flush_outbox(group, st);
}

void SecureGroupClient::flush_outbox(const gcs::GroupName& group, GroupState& st) {
  while (!st.outbox.empty()) {
    auto& [msg_type, plaintext] = st.outbox.front();

    // Inner wrapper: [flags][signature?][payload]. Commitment announcements
    // are never themselves signed (they bootstrap the signatures).
    util::Writer inner;
    const bool sign = st.config.authenticate_senders && st.my_secret && st.my_commitment &&
                      msg_type != kShareCommitType;
    inner.u8(sign ? 1 : 0);
    if (sign) {
      const crypto::SchnorrSignature sig =
          crypto::schnorr_sign(*st.config.dh, *st.my_secret, *st.my_commitment,
                               sig_binding(group, st.key_id, fm_.id(), msg_type, plaintext),
                               rnd_);
      inner.bytes(sig.encode());
    }
    inner.bytes(plaintext);

    util::Writer w;
    w.bytes(st.key_id);
    w.u16(static_cast<std::uint16_t>(msg_type));
    // Encrypt once, chain the ciphertext: the block is shared down the
    // stack and across all recipient daemons without further copies.
    w.payload(util::SharedBytes(st.cipher->protect(inner.take(), make_aad(group, st.key_id), rnd_)));
    if (!fm_.send(st.config.data_service, group, w.take_shared(), kSecureDataType)) {
      return;  // flushing: keep queued; the next key event retries
    }
    st.counters.sealed.inc();
    st.outbox.pop_front();
  }
}

void SecureGroupClient::deliver_ciphertext(GroupState& st, const gcs::Message& msg,
                                           bool buffer_unknown) {
  util::Bytes key_id;
  std::int16_t app_type = 0;
  util::Bytes sealed;
  try {
    util::Reader r(msg.payload);
    key_id = r.bytes();
    app_type = static_cast<std::int16_t>(r.u16());
    sealed = r.bytes();
  } catch (const util::SerialError&) {
    st.counters.dropped_undecodable.inc();
    return;
  }

  CipherSuite* suite = nullptr;
  if (st.key_ready && key_id == st.key_id) {
    suite = st.cipher.get();
  } else {
    for (auto& [id, cipher] : st.old_ciphers) {
      if (id == key_id) {
        suite = cipher.get();
        break;
      }
    }
  }
  if (suite == nullptr) {
    if (buffer_unknown) st.inbox_pending.push_back(msg);
    return;
  }

  try {
    const util::Bytes inner = suite->unprotect(sealed, make_aad(msg.group, key_id));
    if (gcs::ClientTrace* t = gcs::ClientTrace::global()) {
      t->on_message_opened(fm_.id(), msg.group, key_id, msg.view_id, st.view.view_id);
    }
    util::Reader r(inner);
    const bool signed_msg = r.u8() != 0;
    std::optional<crypto::SchnorrSignature> sig;
    if (signed_msg) sig = crypto::SchnorrSignature::decode(r.bytes());
    util::Bytes payload = r.bytes();

    if (app_type == kShareCommitType) {
      // Commitment announcement: record g^{N_sender} for this key epoch.
      st.commitments[msg.sender] = {key_id, crypto::Bignum::from_bytes(payload)};
      return;
    }

    SecureMessage out;
    out.group = msg.group;
    out.sender = msg.sender;
    out.msg_type = app_type;
    out.plaintext = std::move(payload);
    out.epoch = st.epoch;
    if (sig) {
      const auto cit = st.commitments.find(msg.sender);
      if (cit == st.commitments.end() || cit->second.first != key_id ||
          !crypto::schnorr_verify(*st.config.dh, cit->second.second,
                                  sig_binding(msg.group, key_id, msg.sender, app_type,
                                              out.plaintext),
                                  *sig)) {
        st.counters.dropped_unauthentic.inc();
        SS_LOG_WARN("secure", "bad sender signature in ", msg.group, " from ",
                    msg.sender.to_string());
        return;
      }
      out.authenticated = true;
    }
    st.counters.opened.inc();
    if (on_message_) on_message_(out);
  } catch (const std::exception& e) {
    st.counters.dropped_unauthentic.inc();
    SS_LOG_WARN("secure", "dropping unauthentic message in ", msg.group, ": ", e.what());
  }
}

}  // namespace ss::secure
