// The traced run's view of one batch Lily flow: the same public functions
// run_lily_flow_checked calls, in flow order, each timed from here.
#pragma once

#include <map>
#include <string>

#include "flow/flow.hpp"

namespace perfbench {

/// Layer samples of one op, accumulated over every flow the op runs.
using OpLayers = std::map<std::string, double>;

struct Replayed {
    lily::FlowMetrics metrics;
    /// Time of the calls that make up the flow itself (decompose, Lily
    /// mapping, placement, legalization, routing, STA); the match walk and
    /// the inchoate-placement replay run inside map_checked and are extra.
    double flow_ms = 0.0;
    /// Time of the extra replays (match walk, inchoate placement).
    double extra_ms = 0.0;
};

/// Replay run_lily_flow_checked(net, lib, opts) layer by layer, adding each
/// layer's time and counts to `layers`. Verify must be off in `opts` (the
/// caller replays check_equivalence itself). The result's metrics equal
/// the flow's bit for bit; a failed Lily mapping (the flow's baseline
/// fallback rung) is returned as an error.
lily::StatusOr<Replayed> replay_lily_flow(const lily::Network& net, const lily::Library& lib,
                                          const lily::FlowOptions& opts, OpLayers& layers);

/// True when two flow results agree on every QoR number bit for bit.
bool same_qor(const lily::FlowMetrics& a, const lily::FlowMetrics& b);

}  // namespace perfbench
