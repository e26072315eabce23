#include "tracker.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::uint32_t kMagic = 0x53535042;  // "SSPB"

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void put_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, sizeof v); }
void put_u64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, sizeof v); }
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

// --- PayloadCodec -------------------------------------------------------------

PayloadCodec::PayloadCodec(std::uint64_t seed, std::size_t senders, std::size_t size)
    : size_(std::max(size, kHeader)) {
  std::uint64_t state = seed ^ 0x7061796C6F6164ULL;
  patterns_.resize(senders);
  for (auto& p : patterns_) {
    p.resize(kPattern);
    for (auto& b : p) b = static_cast<std::uint8_t>(splitmix(state));
  }
}

util::Bytes PayloadCodec::make(std::uint32_t sender, std::uint64_t seq) const {
  util::Bytes out(size_);
  put_u32(out.data(), kMagic);
  put_u32(out.data() + 4, sender);
  put_u64(out.data() + 8, seq);
  const std::vector<std::uint8_t>& pat = patterns_.at(sender);
  std::size_t phase = static_cast<std::size_t>(seq % kPattern);
  for (std::size_t i = kHeader; i < size_; ++i) {
    out[i] = pat[phase];
    if (++phase == kPattern) phase = 0;
  }
  return out;
}

std::optional<PayloadCodec::Header> PayloadCodec::check(const std::uint8_t* data,
                                                        std::size_t len) const {
  if (len != size_ || get_u32(data) != kMagic) return std::nullopt;
  Header h{get_u32(data + 4), get_u64(data + 8)};
  if (h.sender >= patterns_.size()) return std::nullopt;
  const std::vector<std::uint8_t>& pat = patterns_[h.sender];
  std::size_t phase = static_cast<std::size_t>(h.seq % kPattern);
  for (std::size_t i = kHeader; i < size_; ++i) {
    if (data[i] != pat[phase]) return std::nullopt;
    if (++phase == kPattern) phase = 0;
  }
  return h;
}

// --- DeliveryTracker ----------------------------------------------------------

DeliveryTracker::DeliveryTracker(const PayloadCodec& codec,
                                 std::vector<gcs::MemberId> sender_ids, std::size_t receivers)
    : codec_(codec),
      sender_ids_(std::move(sender_ids)),
      receivers_(receivers),
      sent_at_(sender_ids_.size()),
      delivered_ms_(sender_ids_.size()),
      delivered_count_(sender_ids_.size()),
      next_seq_(receivers, std::vector<std::uint64_t>(sender_ids_.size(), 0)),
      completed_(sender_ids_.size(), 0),
      received_(receivers, 0) {}

void DeliveryTracker::sent(std::uint32_t sender, std::uint64_t seq, TimePoint t) {
  std::lock_guard<std::mutex> lk(mu_);
  if (seq != sent_at_.at(sender).size()) {
    throw std::logic_error("perfbench: sequence numbers must be registered in order");
  }
  sent_at_[sender].push_back(t);
  delivered_ms_[sender].emplace_back(receivers_, -1.0);
  delivered_count_[sender].push_back(0);
  ++sent_total_;
}

void DeliveryTracker::delivered(std::size_t receiver, const gcs::MemberId& from,
                                const std::uint8_t* data, std::size_t len) {
  const TimePoint now = Clock::now();
  const std::optional<PayloadCodec::Header> h = codec_.check(data, len);
  std::lock_guard<std::mutex> lk(mu_);
  if (!h || receiver >= receivers_ || h->sender >= sender_ids_.size() ||
      sender_ids_[h->sender] != from || h->seq >= sent_at_[h->sender].size()) {
    ++corrupted_;
    return;
  }
  std::uint64_t& next = next_seq_[receiver][h->sender];
  if (h->seq < next) {  // duplicate or reordered
    ++corrupted_;
    return;
  }
  next = h->seq + 1;
  ++received_[receiver];
  delivered_ms_[h->sender][h->seq][receiver] = ms_between(sent_at_[h->sender][h->seq], now);
  if (++delivered_count_[h->sender][h->seq] == receivers_) {
    ++completed_[h->sender];
    ++completed_total_;
    cv_.notify_all();
  }
}

std::uint64_t DeliveryTracker::completed(std::uint32_t sender) const {
  std::lock_guard<std::mutex> lk(mu_);
  return completed_.at(sender);
}

std::uint64_t DeliveryTracker::completed_total() const {
  std::lock_guard<std::mutex> lk(mu_);
  return completed_total_;
}

std::uint64_t DeliveryTracker::outstanding(std::size_t receiver) const {
  std::lock_guard<std::mutex> lk(mu_);
  return sent_total_ - received_.at(receiver);
}

void DeliveryTracker::wait_progress(std::uint64_t seen, TimePoint until) const {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait_until(lk, until, [&] { return completed_total_ != seen; });
}

std::uint64_t DeliveryTracker::corrupted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return corrupted_;
}

// --- KeyTracker ---------------------------------------------------------------

KeyTracker::KeyTracker(std::size_t members) : latest_(members) {}

void KeyTracker::installed(std::size_t member, std::vector<gcs::MemberId> view, util::Bytes key,
                           const secure::RekeyStats& stats) {
  std::sort(view.begin(), view.end());
  Install in{Clock::now(), std::move(view), std::move(key), stats};
  std::lock_guard<std::mutex> lk(mu_);
  latest_.at(member) = std::move(in);
  ++installs_;
  cv_.notify_all();
}

void KeyTracker::viewed() {
  std::lock_guard<std::mutex> lk(mu_);
  ++views_;
}

KeyTracker::State KeyTracker::check(const std::vector<std::size_t>& expected,
                                    const std::vector<gcs::MemberId>& ids,
                                    TimePoint since) const {
  std::vector<gcs::MemberId> want = ids;
  std::sort(want.begin(), want.end());
  std::lock_guard<std::mutex> lk(mu_);
  const util::Bytes* ref = nullptr;
  bool diverged = false;
  for (std::size_t m : expected) {
    const std::optional<Install>& in = latest_.at(m);
    if (!in || in->at < since || in->view != want || in->key.empty()) return State::kPending;
    if (ref == nullptr) {
      ref = &in->key;
    } else if (in->key != *ref) {
      diverged = true;
    }
  }
  return diverged ? State::kDiverged : State::kConverged;
}

std::vector<KeyTracker::Install> KeyTracker::latest(const std::vector<std::size_t>& members) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Install> out;
  for (std::size_t m : members) {
    if (latest_.at(m)) out.push_back(*latest_[m]);
  }
  return out;
}

std::uint64_t KeyTracker::views() const {
  std::lock_guard<std::mutex> lk(mu_);
  return views_;
}

void KeyTracker::forge(std::size_t member, Install install) {
  std::lock_guard<std::mutex> lk(mu_);
  latest_.at(member) = std::move(install);
  ++installs_;
  cv_.notify_all();
}

void KeyTracker::wait_progress(std::uint64_t seen, TimePoint until) const {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait_until(lk, until, [&] { return installs_ != seen; });
}

std::uint64_t KeyTracker::progress() const {
  std::lock_guard<std::mutex> lk(mu_);
  return installs_;
}

}  // namespace perfbench
