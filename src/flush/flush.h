// Flush layer: View Synchrony on top of the EVS client.
//
// The paper (Section 3.1) builds its security layer on VS semantics: every
// message is delivered to all recipients in the same view *the sender
// believed it was in when it sent* — which means a message encrypted under
// the key of view V is only ever delivered to members holding V's key.
//
// Protocol (the classical flush algorithm, as shipped with Spread):
//   1. The GCS delivers a new raw view V'.
//   2. The flush layer blocks sending and asks the application to flush
//      (on_flush_request). A member joining the group for the first time
//      acknowledges automatically.
//   3. The application calls flush_ok(); the layer multicasts a FLUSH_OK
//      marker tagged with V' (agreed service, so the marker lands after
//      the membership change in the daemons' total order and is addressed
//      to a group map that already includes V's joiners).
//   4. When FLUSH_OK has arrived from every member of V', the layer
//      installs V' to the application and unblocks sending.
//
// Data messages carry the sender's installed view id; receivers deliver
// them in exactly that view (messages tagged with a view still being
// flushed are buffered until it installs). Per-sender FIFO at the GCS level
// guarantees a member's old-view messages precede its FLUSH_OK, so no
// old-view message can arrive after the new view installs.
//
// Cascading changes: if another raw view arrives mid-flush, buffered
// messages of the abandoned view are delivered before the new flush round
// starts (EVS-grade guarantee during cascades; stable views get full VS).
#pragma once

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "gcs/mailbox.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ss::flush {

/// msg_type values at or below this are reserved for the flush layer.
constexpr std::int16_t kFlushReservedType = -32000;
constexpr std::int16_t kFlushOkType = -32001;
constexpr std::int16_t kFlushDataType = -32002;

/// A kFlushDataType body: the view the sender was in (the VS tag), the
/// application's message type and its payload. A kFlushOkType body is the
/// acknowledged view's gcs::GroupViewId alone.
struct DataEnvelope {
  gcs::GroupViewId vid;
  std::int16_t app_type = 0;
  util::SharedBytes payload;

  template <class S>
  void fields(S& s) {
    s(vid, app_type, payload);
  }
};

class FlushMailbox {
 public:
  using MessageFn = std::function<void(const gcs::Message&)>;
  using ViewFn = std::function<void(const gcs::GroupView&)>;
  using FlushRequestFn = std::function<void(const gcs::GroupName&)>;
  using TransitionalFn = std::function<void(const gcs::GroupName&)>;

  explicit FlushMailbox(gcs::Daemon& daemon);

  const gcs::MemberId& id() const { return mbox_.id(); }

  void on_message(MessageFn fn) { on_message_ = std::move(fn); }
  void on_view(ViewFn fn) { on_view_ = std::move(fn); }
  void on_flush_request(FlushRequestFn fn) { on_flush_request_ = std::move(fn); }
  void on_transitional(TransitionalFn fn) { on_transitional_ = std::move(fn); }

  void join(const gcs::GroupName& group);
  void leave(const gcs::GroupName& group);

  /// Sends in the current view. Returns false (and sends nothing) while the
  /// group is flushing or before the first view installs. The payload is
  /// chained by reference into the flush envelope, not copied.
  bool send(gcs::ServiceType service, const gcs::GroupName& group, util::SharedBytes payload,
            std::int16_t msg_type = 0);

  /// Acknowledges a flush request; the new view installs once every member
  /// has acknowledged.
  void flush_ok(const gcs::GroupName& group);

  /// Member-to-member unicast (no view semantics; used by key agreement).
  void unicast(const gcs::MemberId& to, const gcs::GroupName& group, util::SharedBytes payload,
               std::int16_t msg_type = 0);

  /// True while `group` is between views (sending blocked).
  bool flushing(const gcs::GroupName& group) const;
  /// The currently installed view, or nullptr before the first install.
  const gcs::GroupView* current_view(const gcs::GroupName& group) const;

  void disconnect() { mbox_.disconnect(); }
  void kill() { mbox_.kill(); }

 private:
  struct GroupState {
    bool has_view = false;
    gcs::GroupView current;
    bool is_flushing = false;
    bool sent_ok = false;
    gcs::GroupView pending;
    std::set<gcs::MemberId> oks;
    std::vector<gcs::Message> buffered;  // data tagged with the pending view
    // Open while the group is between views; closes on install, restarts on
    // cascades, and the destructor closes it on self-leave/teardown.
    obs::SpanHandle round_span;
  };

  void handle_raw_view(const gcs::GroupView& view);
  void handle_raw_message(const gcs::Message& msg);
  void maybe_install(const gcs::GroupName& group);
  void send_flush_ok(const gcs::GroupName& group, GroupState& st);
  /// Hand an event to the application (runs the compiled-in trace first).
  void deliver_app_message(const gcs::Message& msg);
  void deliver_app_view(const gcs::GroupView& view);

  gcs::Mailbox mbox_;
  std::map<gcs::GroupName, GroupState> state_;
  /// FLUSH_OKs that arrived before their raw view did.
  std::map<gcs::GroupViewId, std::set<gcs::MemberId>> early_oks_;
  MessageFn on_message_;
  ViewFn on_view_;
  FlushRequestFn on_flush_request_;
  TransitionalFn on_transitional_;
  obs::Counter rounds_completed_;  // flush.rounds_completed{member=<id>}
};

}  // namespace ss::flush
