// Static netlist lint: the one structural checker for a Boolean network.
// Where the checkers in src/check/ compare a transformed artifact against
// the stage before it, lint inspects ONE network for defects — broken
// records that only in-place mutation can produce, and constructs that are
// legal but almost always a bug upstream:
//
//   error   combinational cycle or self-loop (a fanin at or after its
//           reader: node ids are a topological order by construction)
//   error   fanin/fanout edge asymmetry, out-of-range fanin or fanout
//   error   primary output with a null, out-of-range or dead driver, or a
//           driver whose is_po_driver flag is unset
//   error   logic node reading a dead fanin, SOP referencing a fanin slot
//           the node does not have, primary input with fanins, empty name
//   error   duplicate net name on two live nodes, duplicate PO name
//           (a multi-driver net in BLIF terms)
//   warning is_po_driver flag set on a node no output references
//   warning floating primary input (reaches no primary output)
//   warning dead cone (live logic node that reaches no primary output)
//   warning constant-mergeable logic (a node with fanins whose function
//           simplifies to constant 0/1 under AIG lowering)
//
// Findings come back as a CheckReport under CheckStage::Verify; callers
// (lily_lint --lint-netlist and its stage audit, tests) decide whether to
// warn or fail.
#pragma once

#include "check/check.hpp"
#include "netlist/network.hpp"

namespace lily {

CheckReport lint_network(const Network& net);

}  // namespace lily
