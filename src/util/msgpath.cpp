#include "util/msgpath.h"

namespace ss::util {

MsgPathStats& msgpath() {
  static MsgPathStats block;
  return block;
}

void msgpath_reset() { msgpath() = MsgPathStats{}; }

}  // namespace ss::util
