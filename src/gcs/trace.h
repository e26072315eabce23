// Compiled-in client-delivery trace points.
//
// The delivery paths of the client stack (gcs::Mailbox, flush::FlushMailbox,
// secure::SecureGroupClient) report every event they hand to an application
// through this interface *before* invoking the application callback. A
// process-wide observer can be installed to watch every client in the
// process at once; the test harness uses this to run the protocol invariant
// checker (src/check) against all members of a simulated cluster without
// touching individual tests.
//
// When no observer is installed (the default, and the state of any
// production build that does not opt in) each trace point costs one branch
// on a plain pointer.
#pragma once

#include <cstdint>

#include "gcs/types.h"

namespace ss::gcs {

/// Which layer of the client stack delivered an event.
enum class TraceLayer : std::uint8_t {
  kGcs = 0,    // raw EVS client (gcs::Mailbox)
  kFlush = 1,  // View Synchrony layer (flush::FlushMailbox)
};

const char* to_string(TraceLayer layer);

/// Observer of client-visible protocol events. All hooks default to no-ops
/// so implementations only override what they check.
class ClientTrace {
 public:
  virtual ~ClientTrace() = default;

  /// A new client connection came up under `member`. Daemon restarts may
  /// reuse member ids; observers treat each attach as a fresh stream.
  virtual void on_attach(const MemberId& member) { (void)member; }

  virtual void on_view(TraceLayer layer, const MemberId& member, const GroupView& view) {
    (void)layer, (void)member, (void)view;
  }
  virtual void on_message(TraceLayer layer, const MemberId& member, const Message& msg) {
    (void)layer, (void)member, (void)msg;
  }
  virtual void on_transitional(TraceLayer layer, const MemberId& member,
                               const GroupName& group) {
    (void)layer, (void)member, (void)group;
  }

  /// Secure layer: `member` installed the group key identified by `key_id`
  /// (epoch counter local to the member) while holding view `view_id`.
  virtual void on_key_installed(const MemberId& member, const GroupName& group,
                                std::uint64_t epoch, const util::Bytes& key_id,
                                const GroupViewId& view_id) {
    (void)member, (void)group, (void)epoch, (void)key_id, (void)view_id;
  }
  /// Secure layer: `member` successfully decrypted a message sealed under
  /// `key_id`. `msg_view` is the view the message was sent in (VS tag);
  /// `current_view` is the member's installed view at decryption time.
  virtual void on_message_opened(const MemberId& member, const GroupName& group,
                                 const util::Bytes& key_id, const GroupViewId& msg_view,
                                 const GroupViewId& current_view) {
    (void)member, (void)group, (void)key_id, (void)msg_view, (void)current_view;
  }

  /// Process-wide observer (nullptr when tracing is off).
  static ClientTrace* global() { return global_; }
  /// Installs `t` as the process-wide observer; returns the previous one so
  /// scopes can nest (restore on teardown).
  static ClientTrace* set_global(ClientTrace* t) {
    ClientTrace* prev = global_;
    global_ = t;
    return prev;
  }

 private:
  static ClientTrace* global_;
};

}  // namespace ss::gcs
