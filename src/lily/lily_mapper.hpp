// Lily: layout-driven technology mapping (the paper's contribution).
//
// The mapper runs the same DAG-covering dynamic programming as the baseline
// but charges every candidate match for the interconnect it creates,
// estimated against a dynamically updated global placement of the inchoate
// network:
//
//  * a GORDIAN-style balanced global placement assigns every subject node a
//    placePosition; I/O pads are fixed before mapping (Section 3.1);
//  * logic cones are processed in an exit-line-minimizing order
//    (Section 3.5);
//  * candidate matches are positioned by CM-of-Merged or CM-of-Fans
//    (Section 3.2) and their wire cost computed from fanin/fanout
//    rectangles built over each input's true fanouts (Sections 3.3, 3.4);
//  * in delay mode, arrival times split into load-independent block arrival
//    times plus R*C_L, with the wiring part of C_L taken from the evolving
//    placement (Section 4);
//  * nodes move through the egg -> nestling -> hawk/dove life cycle
//    (Section 2, Figure 2.2); doves reachable from later cones reincarnate
//    through logic duplication.
#pragma once

#include <optional>

#include "map/base_mapper.hpp"
#include "place/netlist_adapters.hpp"
#include "place/placement.hpp"
#include "route/wire_models.hpp"
#include "subject/cones.hpp"
#include "util/budget.hpp"
#include "util/status.hpp"

namespace lily {

/// Node life cycle during mapping (Section 2).
enum class LifeState : std::uint8_t {
    Egg,       // not yet visited
    Nestling,  // visited, in the current cone, fate undecided
    Dove,      // merged into a hawk (absorbed by a chosen match)
    Hawk,      // sink of a chosen match: will exist in the mapped network
};

/// Dynamic placement update rule (Section 3.2).
enum class PositionUpdate : std::uint8_t { CMofMerged, CMofFans };

struct LilyOptions {
    MapObjective objective = MapObjective::Area;
    /// Trees restricts covers to tree-legal matches (no logic duplication,
    /// as DAGON and the MIS area mapper); Cones allows matches to bury
    /// multi-fanout nodes and duplicates the buried logic where still
    /// needed. Duplication inflates both area and wiring, so Trees is the
    /// default for area-driven mapping.
    CoverMode cover = CoverMode::Trees;
    PositionUpdate update = PositionUpdate::CMofFans;
    WireModel wire_model = WireModel::SteinerHpwl;
    /// Weight of the wire cost against gate area (area mode), i.e. the
    /// layout-area value of one unit of estimated wire. 0.2 reproduces the
    /// paper's balance (cell ~+2%, chip ~-5%, wire ~-7~9% vs the baseline
    /// on the bundled suite); the paper suggests re-running with a reduced
    /// weight when the estimates misfire on a particular circuit.
    double wire_weight = 0.2;
    /// Use the exit-line cone ordering (Section 3.5); false = PO order.
    bool order_cones = true;
    /// Re-run the global placement of the partially mapped network after
    /// every N cones (0 = never), per the Section 3.2 remark.
    std::size_t replace_every_n_cones = 0;

    // Delay mode electrical parameters (match TimingOptions defaults).
    double cap_per_unit_h = 0.03;
    double cap_per_unit_v = 0.03;
    double default_pin_load = 0.1;  // constant-load assumption for eggs
    double po_pad_load = 0.1;

    GlobalPlacementOptions placement;

    /// Optional wall-clock/iteration budget for the mapping stage (also
    /// threaded into the inchoate placement unless placement.budget is set
    /// explicitly). When it runs out mid-mapping the remaining nodes are
    /// covered with base gates only (INV/NAND2, no wire-cost search) — a
    /// legal but degraded cover, flagged in LilyResult. Null = unlimited.
    StageBudget* budget = nullptr;
};

/// Rise/fall pair (kept minimal to avoid an sta dependency cycle).
struct RiseFallPair {
    double rise = 0.0;
    double fall = 0.0;
    double worst() const { return rise > fall ? rise : fall; }
};

/// DP solution at one subject node.
struct LilyNodeSolution {
    Match match;
    bool has_match = false;
    Point position;        // tentative mapPosition of the chosen match
    double cost = 0.0;     // combined DP cost (area mode)
    double area_cost = 0.0;
    double wire_cost = 0.0;   // recursive wire cost (Section 3's wCost)
    double local_wire = 0.0;  // this match's own wire term only
    std::vector<RiseFallPair> block;  // delay mode: block arrival per pin
    double arrival_rise = 0.0;        // delay mode output arrival
    double arrival_fall = 0.0;
    double worst_arrival() const { return arrival_rise > arrival_fall ? arrival_rise
                                                                      : arrival_fall; }
};

struct LilyResult {
    MappedNetlist netlist;
    /// Constructive placement: position of every gate instance (parallel to
    /// netlist.gates), from the chosen matches' mapPositions.
    std::vector<Point> instance_positions;
    /// The inchoate placement the wire estimates were drawn from.
    GlobalPlacement inchoate_placement;
    std::vector<Point> pad_positions;
    std::vector<std::size_t> cone_order;
    std::vector<LifeState> final_state;       // per subject node
    std::vector<LilyNodeSolution> solution;   // per subject node
    /// placePosition per subject node (the inchoate coordinates the DP read;
    /// hawks' mapPositions live in `solution`). Kept so an ECO remap can
    /// resume from the same layout view without re-running the placer.
    std::vector<Point> subject_positions;
    double total_area = 0.0;
    double estimated_wirelength = 0.0;  // sum of per-match wire costs used
    double worst_arrival = 0.0;         // delay mode
    std::size_t replacements = 0;       // how many mid-mapping re-placements ran
    /// The stage budget fired mid-mapping; `degraded_nodes` subject nodes
    /// were covered with base gates only (still a legal cover).
    bool budget_exhausted = false;
    std::size_t degraded_nodes = 0;
    /// ECO bookkeeping (remap_checked only): nodes re-solved by the
    /// cone-scoped DP vs. nodes whose DP solution carried over unchanged.
    std::size_t remapped_nodes = 0;
    std::size_t reused_nodes = 0;
};

/// Seed for cone-scoped incremental re-mapping: the previous mapping of the
/// same (append-only) subject graph lineage plus the graph size it was
/// produced against. Subject ids below `prior_subject_size` must be
/// structurally identical in the current graph — exactly what the
/// structural-hash incremental decomposition guarantees.
struct LilyRemapSeed {
    const LilyResult* prior = nullptr;
    std::size_t prior_subject_size = 0;
};

class LilyMapper {
public:
    explicit LilyMapper(const Library& lib) : lib_(&lib), matcher_(lib) {}

    /// Map the subject graph. Pad positions may be supplied (one per PI then
    /// per PO, the SubjectPlacementView convention); if absent they are
    /// chosen by the connectivity-driven pad placer. Errors:
    ///   InvariantViolation  wrong pad position count;
    ///   ConvergenceFailure  the inchoate placement produced non-finite
    ///                       coordinates (or the placement:diverge fault is
    ///                       active) — callers can fall back to a wire-blind
    ///                       baseline mapping;
    ///   Unsupported         some node has no matching gate (matcher:no-match
    ///                       fault, or a library without usable base gates).
    StatusOr<LilyResult> map_checked(
        const SubjectGraph& g, const LilyOptions& opts = {},
        std::optional<std::vector<Point>> pad_positions = std::nullopt) const;

    /// Cone-scoped incremental re-mapping for ECO deltas. `g` must extend the
    /// graph `seed.prior` was mapped against append-only (ids below
    /// seed.prior_subject_size unchanged). Prior DP solutions, life states,
    /// pad positions and placePositions are reused verbatim; only cones
    /// containing unsolved nodes (new subject nodes, or old nodes that were
    /// never inside a mapped cone) are re-run through the DP, and the commit
    /// walk re-derives hawks/doves from the current primary outputs. New
    /// nodes are seeded at the centroid of their fanins' placePositions —
    /// no global placement runs. Errors mirror map_checked, plus
    /// InvariantViolation when the seed does not match the graph.
    StatusOr<LilyResult> remap_checked(const SubjectGraph& g, const LilyRemapSeed& seed,
                                       const LilyOptions& opts = {}) const;

    const Library& library() const { return *lib_; }

private:
    const Library* lib_;
    Matcher matcher_;
};

}  // namespace lily
