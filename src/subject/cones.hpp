// Logic cones, maximal-tree partitioning, and the paper's cone-ordering
// heuristic (Section 3.5).
//
// MIS-style mapping processes one logic cone (a primary output plus its
// transitive fanin) at a time, allowing covers to cross tree boundaries by
// duplicating logic. DAGON-style mapping instead partitions the subject
// graph into maximal fanout-free trees and maps each optimally.
//
// A cone is stored as its root only: member lists would total O(N x cones).
// Membership is derived in one reverse-id pass instead (ids are topological,
// so a node's fanouts are final before it is visited): the first cone that
// holds each node, for the DP's cone_schedule, and per-node cone bitsets,
// for exit_line_matrix.
//
// The cone ordering minimizes references from mapped cones into not-yet-
// mapped logic: build the exit-line matrix E where E[i][j] counts lines
// leaving cone i into cone j, then repeatedly emit the cone with minimum
// remaining row sum.
#pragma once

#include <cstddef>
#include <vector>

#include "subject/subject_graph.hpp"
#include "util/csr.hpp"

namespace lily {

/// One logic cone K_i: a primary output driver and (implicitly) its
/// transitive fanin.
struct Cone {
    std::string po_name;
    SubjectId root = kNullSubject;
};

/// One cone per distinct primary output driver, in PO order (outputs
/// sharing a driver share the cone of the first of them).
std::vector<Cone> logic_cones(const SubjectGraph& g);

/// The DP schedule for processing `cones` in `order` (cone indices, each at
/// most once; cones left out are never processed). Bucket k lists, in id
/// order, every gate node v with !done[v] whose first cone is order[k]: the
/// earliest position whose cone's transitive fanin holds v. Gates outside
/// every listed cone are in no bucket. `done` is indexed by node id; empty
/// means no node is done. O(N + E + cones).
Csr<SubjectId> cone_schedule(const SubjectGraph& g, const std::vector<Cone>& cones,
                             const std::vector<std::size_t>& order,
                             const std::vector<bool>& done = {});

/// E[i][j] = number of lines from a node of cone i to a node of cone j that
/// is outside cone i ("exit lines", Section 3.5). Diagonal is zero.
std::vector<std::vector<unsigned>> exit_line_matrix(const SubjectGraph& g,
                                                    const std::vector<Cone>& cones);

/// Greedy min-row-sum ordering of the cones (the paper's procedure).
/// Returns a permutation of cone indices.
std::vector<std::size_t> order_cones(const SubjectGraph& g, const std::vector<Cone>& cones);

/// Total forward references of an ordering: sum over consecutive prefixes of
/// exit lines from processed cones into unprocessed ones (the objective the
/// greedy ordering minimizes). Used to compare orderings.
std::size_t ordering_cost(const std::vector<std::vector<unsigned>>& matrix,
                          const std::vector<std::size_t>& order);

/// Maximal-tree partition (DAGON). A node roots a tree iff it drives a
/// primary output, has multiple fanouts, or has none. Every tree lists its
/// member nodes in topological order (root last); leaves of the tree are
/// fanins that belong to other trees or are graph inputs.
struct TreePartition {
    std::vector<std::vector<SubjectId>> trees;
    std::vector<std::size_t> tree_of;  // node id -> tree index (inputs: npos)
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

TreePartition partition_trees(const SubjectGraph& g);

}  // namespace lily
