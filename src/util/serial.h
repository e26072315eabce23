// Bounds-checked binary serialization used for all wire messages.
//
// Encoding: fixed-width integers are big-endian; byte strings and standard
// strings are length-prefixed with u32. Readers throw SerialError instead of
// reading out of bounds, so a corrupted or truncated message can never walk
// off the end of a buffer.
//
// Zero-copy path: Writer::payload() chains a SharedBytes by reference after
// its length prefix — the bytes are gathered at most once, in take() /
// take_shared(). Reader::payload() is the matching decode: when the Reader
// is backed by a SharedBytes it returns a zero-copy slice of the backing
// block. Both produce/consume exactly the same wire bytes as the legacy
// bytes() calls, so the wire format is unchanged.
//
// Field lists: a wire message names its fields once, in wire order,
//
//   template <class S> void fields(S& s) { s(view, sender, seq, payload); }
//
// and encode() / decode() below run that one list both ways, so the two
// directions cannot drift apart. The decoder enforces, for every message:
//   1. a length or count is checked against the bytes left before anything
//      is allocated for it;
//   2. an enum byte must name an enumerator (wire_valid, found by ADL) and a
//      bool byte must be 0 or 1;
//   3. a top-level decode must consume its buffer exactly (nested records
//      are not checked on their own).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/shared_bytes.h"

namespace ss::util {

class SerialError : public std::runtime_error {
 public:
  explicit SerialError(const std::string& what) : std::runtime_error(what) {}
};

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void raw(const Bytes& b) { buf_.insert(buf_.end(), b.begin(), b.end()); }
  void raw(const std::uint8_t* p, std::size_t n) { buf_.insert(buf_.end(), p, p + n); }
  /// Length-prefixed byte string (copied inline).
  void bytes(const Bytes& b);
  /// Length-prefixed byte string chained by reference — not copied here;
  /// the gather happens (at most once) in take() or take_shared().
  /// Wire bytes are identical to bytes().
  void payload(const SharedBytes& p);
  /// Length-prefixed UTF-8 string.
  void str(std::string_view s);

  /// Total encoded size including chained payloads.
  std::size_t size() const;

  /// Inline view; only valid while no payload() chunks are pending.
  const Bytes& data() const;
  /// Contiguous encoding; copies any chained payloads (counted).
  Bytes take();
  /// Contiguous encoding as a fresh shared block — the single exact-size
  /// gather that the send path performs per encoded message.
  SharedBytes take_shared() { return SharedBytes(take()); }

 private:
  struct Chunk {
    std::size_t at;  // insert position within buf_
    SharedBytes bytes;
  };

  Bytes buf_;
  std::vector<Chunk> chunks_;
};

class Reader {
 public:
  /// Views `buf`, which must outlive the Reader. Decoded payloads are copies.
  explicit Reader(const Bytes& buf) : data_(buf.data()), size_(buf.size()) {}
  /// Views a shared buffer; decoded payloads alias its block (zero-copy).
  explicit Reader(const SharedBytes& buf)
      : backing_(buf), backed_(true), data_(buf.data()), size_(buf.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  Bytes bytes();
  std::string str();
  Bytes rest();

  /// Length-prefixed byte string as a SharedBytes: a zero-copy slice when
  /// this Reader is backed by one, otherwise a (counted) deep copy.
  SharedBytes payload();
  /// `n` raw bytes with the same backing rules as payload().
  SharedBytes raw_shared(std::size_t n);

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }
  /// Throws unless the whole buffer was consumed — catches trailing garbage.
  void expect_done() const;

 private:
  void need(std::size_t n) const;

  SharedBytes backing_;
  bool backed_ = false;
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// --- Field-list codec ---------------------------------------------------------
//
// Field kinds, by C++ type:
//   bool                       one byte, 0 or 1
//   enum (one byte)            its value; wire_valid(e) must accept it
//   other integers             fixed width, big-endian (signed: two's complement)
//   std::string, Bytes         u32 length + bytes (copied)
//   SharedBytes                u32 length + bytes; chained by reference when
//                              encoding, a zero-copy slice when decoding from
//                              a SharedBytes-backed Reader
//   std::vector<T>             u32 count + elements
//   std::map<K, V>             u32 count + (key, value) pairs in key order;
//                              decoding keeps the first of duplicate keys
//   std::pair<A, B>            A then B
//   std::optional<T>           a bool, then T if present
//   delimited(vector<T>&)      u32 count + each element as its own
//                              length-prefixed record, decoded zero-copy and
//                              required to fill its record
//   any type with fields()     its field list, nested
// Types above util (Bignum, MemberId, ...) supply their own fields().

/// Field-list modifier: see delimited().
template <class T>
struct Delimited {
  std::vector<T>& items;
};

/// Each element of `items` travels as a length-prefixed record of its own.
template <class T>
Delimited<T> delimited(std::vector<T>& items) {
  return Delimited<T>{items};
}

namespace detail {
template <class T>
inline constexpr bool kIsVector = false;
template <class T, class A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;
template <class T>
inline constexpr bool kIsMap = false;
template <class K, class V, class C, class A>
inline constexpr bool kIsMap<std::map<K, V, C, A>> = true;
template <class T>
inline constexpr bool kIsPair = false;
template <class A, class B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;
template <class T>
inline constexpr bool kIsOptional = false;
template <class T>
inline constexpr bool kIsOptional<std::optional<T>> = true;
template <class T>
inline constexpr bool kIsDelimited = false;
template <class T>
inline constexpr bool kIsDelimited<Delimited<T>> = true;
}  // namespace detail

/// Runs field lists into a Writer.
class Encoder {
 public:
  static constexpr bool kDecoding = false;

  explicit Encoder(Writer& w) : w_(w) {}

  template <class... T>
  void operator()(const T&... fields) {
    (put(fields), ...);
  }

 private:
  template <class T>
  void put(const T& v);
  void put_count(std::size_t n) {
    if (n > UINT32_MAX) throw SerialError("Encoder: too many elements");
    w_.u32(static_cast<std::uint32_t>(n));
  }

  Writer& w_;
};

/// Runs field lists out of a Reader, enforcing the three decoder rules.
class Decoder {
 public:
  static constexpr bool kDecoding = true;

  explicit Decoder(Reader& r) : r_(r) {}

  template <class... T>
  void operator()(T&&... fields) {
    (get(fields), ...);
  }

 private:
  template <class T>
  void get(T& v);
  /// Rule 1: a count of `T`s must fit in the bytes left.
  template <class T>
  std::uint32_t count();

  Reader& r_;
};

/// The wire encoding of `m`; chained payloads are gathered into it once.
template <class T>
Bytes encode(const T& m) {
  Writer w;
  Encoder{w}(m);
  return w.take();
}

/// encode() as a fresh shared block (the send path's single gather).
template <class T>
SharedBytes encode_shared(const T& m) {
  Writer w;
  Encoder{w}(m);
  return w.take_shared();
}

namespace detail {
template <class T>
T decode_whole(Reader r) {
  T m{};
  Decoder{r}(m);
  r.expect_done();
  return m;
}
}  // namespace detail

/// Decodes the whole of `buf` as one T (rule 3: no trailing bytes).
/// Payload fields are zero-copy slices of `buf`'s block.
template <class T>
T decode(const SharedBytes& buf) {
  return detail::decode_whole<T>(Reader(buf));
}
/// Same over a plain buffer; payload fields are (counted) copies.
template <class T>
T decode(const Bytes& buf) {
  return detail::decode_whole<T>(Reader(buf));
}

/// Decodes one T from the front of `r` (a type tag ahead of a body).
template <class T>
T decode_front(Reader& r) {
  T v{};
  Decoder{r}(v);
  return v;
}

/// The fewest bytes any encoding of a T takes: the encoding of T{}, whose
/// strings, lists and big numbers are all empty. Computed once per type.
template <class T>
std::size_t min_wire_size() {
  static const std::size_t n = [] {
    Writer w;
    Encoder{w}(T{});
    return w.size();
  }();
  return n;
}

template <class T>
void Encoder::put(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w_.u8(v ? 1 : 0);
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(sizeof(T) == 1, "wire enums are one byte");
    w_.u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_integral_v<T>) {
    const auto u = static_cast<std::make_unsigned_t<T>>(v);
    if constexpr (sizeof(T) == 1) {
      w_.u8(u);
    } else if constexpr (sizeof(T) == 2) {
      w_.u16(u);
    } else if constexpr (sizeof(T) == 4) {
      w_.u32(u);
    } else {
      static_assert(sizeof(T) == 8);
      w_.u64(u);
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    w_.str(v);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    w_.bytes(v);
  } else if constexpr (std::is_same_v<T, SharedBytes>) {
    w_.payload(v);
  } else if constexpr (detail::kIsVector<T> || detail::kIsMap<T>) {
    put_count(v.size());
    for (const auto& e : v) put(e);
  } else if constexpr (detail::kIsPair<T>) {
    put(v.first);
    put(v.second);
  } else if constexpr (detail::kIsOptional<T>) {
    put(v.has_value());
    if (v) put(*v);
  } else if constexpr (detail::kIsDelimited<T>) {
    put_count(v.items.size());
    for (const auto& e : v.items) w_.bytes(encode(e));
  } else {
    // The field list only reads its members when encoding.
    const_cast<T&>(v).fields(*this);
  }
}

template <class T>
std::uint32_t Decoder::count() {
  const std::uint32_t n = r_.u32();
  const std::size_t min = std::max<std::size_t>(1, min_wire_size<T>());
  if (n > r_.remaining() / min) throw SerialError("Decoder: count exceeds the bytes left");
  return n;
}

template <class T>
void Decoder::get(T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    const std::uint8_t b = r_.u8();
    if (b > 1) throw SerialError("Decoder: bool byte is neither 0 nor 1");
    v = b == 1;
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(sizeof(T) == 1, "wire enums are one byte");
    v = static_cast<T>(r_.u8());
    if (!wire_valid(v)) throw SerialError("Decoder: enum byte names no enumerator");
  } else if constexpr (std::is_integral_v<T>) {
    if constexpr (sizeof(T) == 1) {
      v = static_cast<T>(r_.u8());
    } else if constexpr (sizeof(T) == 2) {
      v = static_cast<T>(r_.u16());
    } else if constexpr (sizeof(T) == 4) {
      v = static_cast<T>(r_.u32());
    } else {
      v = static_cast<T>(r_.u64());
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r_.str();
  } else if constexpr (std::is_same_v<T, Bytes>) {
    v = r_.bytes();
  } else if constexpr (std::is_same_v<T, SharedBytes>) {
    v = r_.payload();
  } else if constexpr (detail::kIsVector<T>) {
    const std::uint32_t n = count<typename T::value_type>();
    v.clear();
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) get(v.emplace_back());
  } else if constexpr (detail::kIsMap<T>) {
    using Entry = std::pair<typename T::key_type, typename T::mapped_type>;
    const std::uint32_t n = count<Entry>();
    v.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      Entry e;
      get(e);
      v.emplace(std::move(e));
    }
  } else if constexpr (detail::kIsPair<T>) {
    get(v.first);
    get(v.second);
  } else if constexpr (detail::kIsOptional<T>) {
    bool present = false;
    get(present);
    if (present) {
      get(v.emplace());
    } else {
      v.reset();
    }
  } else if constexpr (detail::kIsDelimited<T>) {
    using Item = typename std::remove_reference_t<decltype(v.items)>::value_type;
    const std::uint32_t n = count<Bytes>();
    v.items.clear();
    v.items.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.items.push_back(decode<Item>(r_.payload()));
  } else {
    v.fields(*this);
  }
}

}  // namespace ss::util
