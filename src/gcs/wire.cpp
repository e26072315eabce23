#include "gcs/wire.h"

namespace ss::gcs {

namespace {

template <class M>
util::SharedBytes encode_framed(MsgType type, const M& m) {
  util::Writer w;
  util::Encoder{w}(type, m);
  return w.take_shared();
}

}  // namespace

util::SharedBytes DataMsg::encode_framed() const {
  return gcs::encode_framed(MsgType::kData, *this);
}

util::SharedBytes UnicastMsg::encode_framed() const {
  return gcs::encode_framed(MsgType::kUnicast, *this);
}

util::Bytes frame(MsgType type, const util::Bytes& body) {
  util::Bytes out;
  out.reserve(body.size() + 1);
  out.push_back(static_cast<std::uint8_t>(type));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::pair<MsgType, util::SharedBytes> unframe(const util::SharedBytes& data) {
  util::Reader r(data);
  const auto type = util::decode_front<MsgType>(r);
  return {type, data.slice(1)};
}

}  // namespace ss::gcs
