#include "rt/status.hpp"

namespace gnnbridge::rt {

std::string_view status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kDataLoss: return "DATA_LOSS";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kFaultInjected: return "FAULT_INJECTED";
  }
  return "UNKNOWN";
}

std::string Status::to_string() const {
  if (ok()) return "OK";
  std::string out(status_code_name(code_));
  out += ": ";
  out += message_;
  if (!context_.empty()) {
    out += " (in ";
    for (std::size_t i = 0; i < context_.size(); ++i) {
      if (i > 0) out += " <- ";
      out += context_[i];
    }
    out += ")";
  }
  return out;
}

}  // namespace gnnbridge::rt
