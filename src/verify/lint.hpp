// Static netlist lint for a Boolean network: Network::check() (the one
// structural checker, reported under CheckStage::Network — cycles, edge
// symmetry, out-of-range and dead ids, SOP fanin slots, PI fanins, PO
// drivers, duplicate names) plus the passes that flag constructs that are
// legal but almost always a bug upstream, reported under CheckStage::Verify:
//
//   warning is_po_driver flag set on a node no output references
//   warning floating primary input (reaches no primary output)
//   warning dead cone (live logic node that reaches no primary output)
//   warning constant-mergeable logic (a node with fanins whose function
//           simplifies to constant 0/1 under AIG lowering; skipped when the
//           structural check found errors)
//
// Callers (lily_lint --lint-netlist and its stage audit, tests) decide
// whether to warn or fail.
#pragma once

#include "netlist/network.hpp"
#include "util/check.hpp"

namespace lily {

CheckReport lint_network(const Network& net);

}  // namespace lily
