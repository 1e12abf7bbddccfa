#include "serve/request.hpp"

#include "util/error.hpp"

namespace vedliot::serve {

std::string_view priority_class_name(PriorityClass p) {
  switch (p) {
    case PriorityClass::kBatch: return "batch";
    case PriorityClass::kStandard: return "standard";
    case PriorityClass::kInteractive: return "interactive";
  }
  throw InvalidArgument("unknown priority class");
}

}  // namespace vedliot::serve
