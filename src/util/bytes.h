// Byte-buffer helpers shared across the Secure Spread stack.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ss::util {

using Bytes = std::vector<std::uint8_t>;

/// Encodes `data` as lowercase hex.
std::string to_hex(const Bytes& data);
std::string to_hex(const std::uint8_t* data, std::size_t len);

/// Decodes a hex string (upper or lower case, no separators).
/// Throws std::invalid_argument on malformed input.
Bytes from_hex(std::string_view hex);

/// Constant-time equality for secrets (length leak is acceptable).
bool ct_equal(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b);

/// Best-effort zeroization of key material.
void secure_wipe(Bytes& b);

/// Bytes from a string literal / std::string payload.
Bytes bytes_of(std::string_view s);

/// The inverse of bytes_of, for human-readable payloads.
std::string string_of(const Bytes& b);

}  // namespace ss::util
