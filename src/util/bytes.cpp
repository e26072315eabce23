#include "util/bytes.h"

#include <stdexcept>

namespace ss::util {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("from_hex: invalid hex digit");
}
}  // namespace

std::string to_hex(const std::uint8_t* data, std::size_t len) {
  std::string out;
  out.reserve(len * 2);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kHexDigits[data[i] >> 4]);
    out.push_back(kHexDigits[data[i] & 0xF]);
  }
  return out;
}

std::string to_hex(const Bytes& data) { return to_hex(data.data(), data.size()); }

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) throw std::invalid_argument("from_hex: odd length");
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(hex_val(hex[i]) << 4 | hex_val(hex[i + 1])));
  }
  return out;
}

bool ct_equal(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  return acc == 0;
}

void secure_wipe(Bytes& b) {
  volatile std::uint8_t* p = b.data();
  for (std::size_t i = 0; i < b.size(); ++i) p[i] = 0;
  b.clear();
}

Bytes bytes_of(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string string_of(const Bytes& b) { return std::string(b.begin(), b.end()); }

}  // namespace ss::util
