// Micro-benchmarks for the cryptographic substrate (google-benchmark):
// modular exponentiation per named group (the paper's 12 / 2.5 ms numbers
// at 512 bits), Blowfish, SHA-1/HMAC, the session-key KDF, and the data
// path's seal and open of a group payload.
#include <benchmark/benchmark.h>

#include "crypto/blowfish.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/pi_spigot.h"
#include "crypto/sha1.h"
#include "secure/cipher.h"

using namespace ss::crypto;
using ss::util::Bytes;

namespace {

void BM_ModExp(benchmark::State& state, const char* group_name) {
  const DhGroup& g = DhGroup::by_name(group_name);
  HmacDrbg rnd(1, "bench");
  const Bignum x = g.random_share(rnd);
  Bignum y = g.exp_g(x);
  for (auto _ : state) {
    y = g.exp(y, x);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK_CAPTURE(BM_ModExp, tiny64, "tiny64");
BENCHMARK_CAPTURE(BM_ModExp, ss256, "ss256");
BENCHMARK_CAPTURE(BM_ModExp, ss512_paper_modulus, "ss512");
BENCHMARK_CAPTURE(BM_ModExp, oakley1_768, "oakley1");
BENCHMARK_CAPTURE(BM_ModExp, oakley2_1024, "oakley2");

void BM_BlowfishKeySchedule(benchmark::State& state) {
  const Bytes key = ss::util::from_hex("00112233445566778899aabbccddeeff");
  for (auto _ : state) {
    Blowfish bf(key);
    benchmark::DoNotOptimize(&bf);
  }
}
BENCHMARK(BM_BlowfishKeySchedule);

void BM_BlowfishCbcEncrypt(benchmark::State& state) {
  Blowfish bf(ss::util::from_hex("00112233445566778899aabbccddeeff"));
  const Bytes iv = ss::util::from_hex("0011223344556677");
  Bytes plaintext(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    Bytes ct = bf.encrypt_cbc(iv, plaintext);
    benchmark::DoNotOptimize(ct);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_BlowfishCbcEncrypt)->Arg(64)->Arg(1024)->Arg(16384);

void BM_BlowfishCbcDecrypt(benchmark::State& state) {
  Blowfish bf(ss::util::from_hex("00112233445566778899aabbccddeeff"));
  const Bytes iv = ss::util::from_hex("0011223344556677");
  const Bytes ct = bf.encrypt_cbc(iv, Bytes(static_cast<std::size_t>(state.range(0)), 0x5A));
  for (auto _ : state) {
    Bytes pt = bf.decrypt_cbc(iv, ct);
    benchmark::DoNotOptimize(pt);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_BlowfishCbcDecrypt)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Sha1(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xA5);
  for (auto _ : state) {
    Bytes d = Sha1::hash(data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha1(benchmark::State& state) {
  const Bytes key(20, 0x0B);
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xA5);
  for (auto _ : state) {
    Bytes t = hmac_sha1(key, data);
    benchmark::DoNotOptimize(t);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha1)->Arg(64)->Arg(1024);

// The same tags under a key whose pads were hashed once, as the sealer,
// the KDF's expand loop and the DRBG use it.
void BM_HmacSha1Keyed(benchmark::State& state) {
  const HmacSha1 mac(Bytes(20, 0x0B));
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xA5);
  for (auto _ : state) {
    HmacSha1::Tag t = mac.tag({data});
    benchmark::DoNotOptimize(t);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha1Keyed)->Arg(64)->Arg(1024);

void BM_KdfSha1(benchmark::State& state) {
  const Bytes ikm(64, 0x42);
  for (auto _ : state) {
    Bytes k = kdf_sha1(ikm, "bench", 36);
    benchmark::DoNotOptimize(k);
  }
}
BENCHMARK(BM_KdfSha1);

void BM_Drbg(benchmark::State& state) {
  HmacDrbg d(7, "bench");
  Bytes out(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    d.fill(out.data(), out.size());
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Drbg)->Arg(64)->Arg(1024);

// One group payload through the Blowfish-CBC + HMAC-SHA1 suite, as the
// secure layer seals it once per send and opens it once per receiver.
struct SuiteBench {
  explicit SuiteBench(std::size_t payload)
      : rnd(3, "bench-suite"), plain(payload, 0x5A), aad(ss::util::bytes_of("group|key-id")) {
    suite.rekey(rnd.generate(suite.key_material_size()));
  }
  ss::secure::BlowfishCbcHmacSuite suite;
  HmacDrbg rnd;
  Bytes plain;
  Bytes aad;
};

void BM_SuiteSeal(benchmark::State& state) {
  SuiteBench b(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Bytes sealed = b.suite.protect(b.plain, b.aad, b.rnd);
    benchmark::DoNotOptimize(sealed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SuiteSeal)->Arg(64)->Arg(8192);

void BM_SuiteOpen(benchmark::State& state) {
  SuiteBench b(static_cast<std::size_t>(state.range(0)));
  const Bytes sealed = b.suite.protect(b.plain, b.aad, b.rnd);
  for (auto _ : state) {
    Bytes pt = b.suite.unprotect(sealed, b.aad);
    benchmark::DoNotOptimize(pt);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SuiteOpen)->Arg(64)->Arg(8192);

void BM_PiSpigot(benchmark::State& state) {
  for (auto _ : state) {
    std::string digits = pi_frac_hex(static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(digits);
  }
}
BENCHMARK(BM_PiSpigot)->Arg(64)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
