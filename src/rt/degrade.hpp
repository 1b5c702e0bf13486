// Degradation events (robustness subsystem, DESIGN.md §10).
//
// When an optimization stage fails — injected via the fault plan or real —
// the engine walks down the ablation ladder the paper's own evaluation
// defines (every knob independently switchable, Figures 8-11): it disables
// the failed knob, retries, and records one of these events through the
// metrics sink (`degradations[]` in the gnnbridge-metrics document).
#pragma once

#include <string>

#include "rt/status.hpp"

namespace gnnbridge::rt {

/// One recorded step down the degradation ladder.
struct DegradationEvent {
  std::string seam;    ///< fault seam (or stage name) that failed
  /// Knob disabled in response, as the metrics schema names it: a row of
  /// the engine's knob table, or "metrics_sink" for the sink's write retry.
  std::string knob;
  std::string action;  ///< fallback taken, e.g. "las->natural_order"
  std::string detail;  ///< underlying Status, rendered
  bool injected = false;  ///< true when the failure came from the fault plan
};

/// Builds an event from the failure Status (sets `injected` from the code).
inline DegradationEvent make_degradation(std::string_view seam, std::string_view knob,
                                         std::string_view action, const Status& cause) {
  DegradationEvent ev;
  ev.seam = std::string(seam);
  ev.knob = std::string(knob);
  ev.action = std::string(action);
  ev.detail = cause.to_string();
  ev.injected = cause.code() == StatusCode::kFaultInjected;
  return ev;
}

}  // namespace gnnbridge::rt
