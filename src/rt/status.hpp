// Structured error model (robustness subsystem, DESIGN.md §10).
//
// Every fallible seam in the system — loaders, the tuner, the engine's
// entry points — reports failure as a `Status`: a machine-readable code, a
// human-readable message, and a context chain accumulated as the error
// propagates outward (innermost frame first). `Result<T>` carries either a
// value or a non-ok Status. `StageFailure` is the exception vehicle for
// call chains whose signatures cannot thread a Status (the simulator's
// kernel-launch path); the engine catches it at stage boundaries and
// degrades instead of crashing.
#pragma once

#include <cassert>
#include <exception>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace gnnbridge::rt {

/// Error taxonomy, loosely following the absl/grpc canonical codes.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     ///< caller passed something unusable (bad flag, bad token)
  kNotFound,            ///< a named resource (file, dataset) does not exist
  kDataLoss,            ///< corrupt or truncated on-disk data
  kOutOfRange,          ///< a value overflows the representable range
  kFailedPrecondition,  ///< a structural invariant does not hold
  kUnavailable,         ///< a dependency (I/O, measurement) failed transiently
  kInternal,            ///< a bug on our side
  kFaultInjected,       ///< a deliberately injected fault (GNNBRIDGE_FAULT_PLAN)
};

/// Stable upper-snake name for a code ("DATA_LOSS", ...).
std::string_view status_code_name(StatusCode code);

/// An outcome: ok, or a code + message + context chain.
class Status {
 public:
  /// Ok status.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    assert(code != StatusCode::kOk && "error Status needs a non-ok code");
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  explicit operator bool() const { return ok(); }

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  /// Frames pushed while propagating, innermost first.
  const std::vector<std::string>& context() const { return context_; }

  /// Pushes a propagation frame ("try_make_dataset('collab', scale=0.050000)").
  /// Chainable on both lvalues and temporaries; no-op on ok statuses.
  Status& with_context(std::string frame) & {
    if (!ok()) context_.push_back(std::move(frame));
    return *this;
  }
  Status&& with_context(std::string frame) && {
    if (!ok()) context_.push_back(std::move(frame));
    return std::move(*this);
  }

  /// "FAULT_INJECTED: injected fault at seam 'dataset_load'
  /// (in try_make_dataset('collab', scale=0.050000))".
  std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
  std::vector<std::string> context_;
};

inline Status OkStatus() { return Status(); }

/// A value or a non-ok Status.
template <typename T>
class Result {
 public:
  Result(T value) : rep_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : rep_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(rep_).ok() && "Result from ok Status has no value");
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }
  explicit operator bool() const { return ok(); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(rep_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(rep_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(rep_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<Status, T> rep_;
};

/// Early-return on error, preserving the context chain.
#define GNNBRIDGE_RETURN_IF_ERROR(expr)                     \
  do {                                                      \
    ::gnnbridge::rt::Status gnnbridge_status_ = (expr);     \
    if (!gnnbridge_status_.ok()) return gnnbridge_status_;  \
  } while (false)

/// Thrown by stages whose call chains cannot return a Status (e.g. the
/// simulator's kernel launch inside a deep kernel-helper stack). Carries
/// the seam name so the engine's degradation ladder knows which knob
/// failed. Catch at stage boundaries; never let it cross a public API —
/// convert to a Status there.
class StageFailure : public std::exception {
 public:
  StageFailure(std::string seam, Status status)
      : seam_(std::move(seam)), status_(std::move(status)), what_(status_.to_string()) {}

  const char* what() const noexcept override { return what_.c_str(); }
  const std::string& seam() const { return seam_; }
  const Status& status() const { return status_; }

 private:
  std::string seam_;
  Status status_;
  std::string what_;
};

}  // namespace gnnbridge::rt
