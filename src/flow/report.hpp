// The one machine-readable report format shared by every surface that
// renders a flow outcome: lily_lint --json, the serving daemon's per-job
// verdicts, and the bench harnesses. Keeping a single serializer here means
// a dashboard that parses a served job's verdict parses the CLI's output
// unchanged — same keys, same stage states, same status taxonomy.
#pragma once

#include <string>

#include "flow/diagnostics.hpp"
#include "flow/flow.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/status.hpp"
#include "util/trace.hpp"

namespace lily {

/// Append {"severity","stage","node","message"} issue objects as a JSON
/// array under the current writer position.
void write_check_report(JsonWriter& w, const CheckReport& report);

/// Append the per-stage diagnostics array ({"name","state","elapsed_ms",
/// "retries","note"} per stage).
void write_flow_diagnostics(JsonWriter& w, const FlowDiagnostics& diag);

/// Append the flow metrics object.
void write_flow_metrics(JsonWriter& w, const FlowMetrics& metrics);

/// Append the executor's trace as an object:
///   {"flows":    [{"id","name","elapsed_ms","closed"}, ...],
///    "spans":    [{"flow","name","depth","elapsed_ms","state","retries",
///                  "note"?,"closed"}, ...],
///    "counters": [{"name","value"}, ...]}
/// Span elapsed_ms carries the exact increment the executor added to the
/// stage's FlowDiagnostics entry, so summing spans by name reproduces the
/// "stages" elapsed figures bit-for-bit.
void write_trace(JsonWriter& w, const TraceSink& trace);

/// The complete report document:
///   {"status": {"code","ok","message"},
///    "degraded": bool,
///    "stages": [...],          (when diag != nullptr)
///    "metrics": {...},         (when metrics != nullptr)
///    "check": [...],           (when check != nullptr)
///    "trace": {...}}           (when trace != nullptr)
std::string flow_report_json(const Status& status, const FlowDiagnostics* diag,
                             const FlowMetrics* metrics, const CheckReport* check = nullptr,
                             const TraceSink* trace = nullptr);

}  // namespace lily
