#include "probes.h"

#include <ctime>

#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "secure/cipher.h"
#include "stats.h"
#include "tracker.h"

namespace perfbench {

using namespace ss;

double process_cpu_seconds() {
  // The user + system time getrusage(RUSAGE_SELF) reports, read through the
  // clock that sums the threads' exact run times: getrusage is only as fine
  // as the scheduler tick, too coarse for one membership operation.
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

template <typename Fn>
double median_us(int reps, Fn fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const TimePoint a = Clock::now();
    fn();
    t.push_back(ms_between(a, Clock::now()) * 1000.0);
  }
  return median(t).value_or(0);
}

}  // namespace

CryptoProbe probe_crypto(std::uint64_t seed) {
  CryptoProbe out;
  crypto::HmacDrbg rnd(seed, "perfbench-crypto-probe");
  secure::BlowfishCbcHmacSuite suite;
  suite.rekey(rnd.generate(suite.key_material_size()));
  const util::Bytes aad = rnd.generate(24);
  for (const std::size_t size : {std::size_t{64}, std::size_t{8192}}) {
    const util::Bytes plain = rnd.generate(size);
    const util::Bytes sealed = suite.protect(plain, aad, rnd);
    if (suite.unprotect(sealed, aad) != plain) {
      throw std::runtime_error("perfbench: cipher probe round trip failed");
    }
    const int reps = size == 64 ? 400 : 60;
    const double seal = median_us(reps, [&] { (void)suite.protect(plain, aad, rnd); });
    const double open = median_us(reps, [&] { (void)suite.unprotect(sealed, aad); });
    if (size == 64) {
      out.seal_64_us = seal;
      out.open_64_us = open;
    } else {
      out.seal_8k_us = seal;
      out.open_8k_us = open;
    }
  }
  const crypto::DhGroup& dh = crypto::DhGroup::ss512();
  const crypto::Bignum base = dh.exp_g(dh.random_share(rnd));
  const crypto::Bignum e = dh.random_share(rnd);
  out.modexp_us = median_us(60, [&] { (void)dh.exp(base, e); });
  return out;
}

LaneProbe::LaneProbe(std::size_t lanes, ScheduleFn schedule,
                     std::function<std::int64_t()> now_us)
    : lanes_(lanes), schedule_(std::move(schedule)), now_us_(std::move(now_us)) {}

void LaneProbe::tick() {
  const std::int64_t now = now_us_();
  if (now < next_) return;
  next_ = now + kPeriodUs;
  const std::int64_t due = now + kLeadUs;
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    schedule_(lane, due, [waits = waits_, now_us = now_us_, due] {
      const double late = static_cast<double>(now_us() - due);
      std::lock_guard<std::mutex> lk(waits->mu);
      waits->us.push_back(late < 0 ? 0 : late);
    });
  }
}

std::vector<double> LaneProbe::waits_us() const {
  std::lock_guard<std::mutex> lk(waits_->mu);
  return waits_->us;
}

}  // namespace perfbench
