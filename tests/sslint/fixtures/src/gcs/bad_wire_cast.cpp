// Violation [reader-cast] at line 6: a wire byte cast straight to an enum
// skips the decoder's enumerator check.
#include "util/ok.h"
enum class ServiceType : unsigned char { kFifo = 2 };
struct Reader { unsigned char u8(); };
ServiceType service_of(Reader& r) { return static_cast<ServiceType>(r.u8()); }
