// Placement substrate (the paper's GORDIAN substitute, refs [14][21]):
// quadratic global placement with fixed I/O pads, recursive center-of-mass
// partitioning for balance, connectivity-driven pad placement (ref [20]
// substitute) and row-based legalization (detailed placement).
//
// The placer is netlist-agnostic: it sees movable cells, fixed pads, and
// nets over both. Adapters for subject graphs and mapped netlists live in
// netlist_adapters.hpp.
#pragma once

#include <cstddef>
#include <vector>

#include "util/budget.hpp"
#include "util/check.hpp"
#include "util/geometry.hpp"

namespace lily {

/// The placement view of a circuit.
struct PlacementNetlist {
    std::size_t n_cells = 0;            // movable objects, indexed 0..n_cells-1
    std::vector<double> cell_area;      // size n_cells
    std::vector<Point> pad_positions;   // fixed objects (I/O pads)

    struct Net {
        std::vector<std::size_t> cells;
        std::vector<std::size_t> pads;
        std::size_t pin_count() const { return cells.size() + pads.size(); }
    };
    std::vector<Net> nets;

    double total_cell_area() const;
    /// Structural invariants, reported under CheckStage::Placement and
    /// never thrown: cell_area sized n_cells with finite non-negative
    /// entries, every net pin a valid cell or pad index; warns on nets
    /// with fewer than 2 pins.
    CheckReport check() const;
};

struct GlobalPlacementOptions {
    /// Stop partitioning when a region holds at most this many cells. The
    /// paper stops early on purpose: a *global* placement (several modules
    /// per region) preserves the connectivity structure better than forcing
    /// rows too soon (Section 3.1).
    std::size_t max_cells_per_region = 4;
    /// Anchor spring to the region center; doubled every partition level.
    double anchor_weight = 0.02;
    double cg_tolerance = 1e-9;
    std::size_t cg_max_iters = 2000;
    /// Optional stage budget (non-owning; must outlive the call). On
    /// exhaustion the partitioner stops refining and the CG solver returns
    /// its partial iterate — the result is coarser but still a legal
    /// placement. Null = unlimited (bit-identical to the unbudgeted path).
    StageBudget* budget = nullptr;
};

struct GlobalPlacement {
    std::vector<Point> positions;  // one per cell
    Rect region;
    std::size_t partition_levels = 0;
    /// True when the stage budget fired mid-placement and refinement was
    /// cut short (positions are a best-effort partial result).
    bool budget_exhausted = false;
};

/// Quadratic ("Euclidean distance squared", Section 3.1) global placement:
/// clique net model, conjugate-gradient solves per axis, recursive
/// bipartitioning with center-of-mass anchoring for balance. Every cell
/// ends inside `region`; pads should sit on or near its boundary.
GlobalPlacement place_global(const PlacementNetlist& nl, const Rect& region,
                             const GlobalPlacementOptions& opts = {});

/// One unconstrained quadratic solve (level 0 of place_global) — the "point
/// placement" used for pad assignment and for tests.
GlobalPlacement place_quadratic(const PlacementNetlist& nl, const Rect& region,
                                const GlobalPlacementOptions& opts = {});

/// Connectivity-driven pad placement (bottom-up, ref [20] substitute):
/// choose positions on the boundary of `region` for all pads, ordering them
/// by the angular position of their connected cells' center of mass.
/// `nl.pad_positions` is ignored on input; returns one boundary point per pad.
std::vector<Point> place_pads(const PlacementNetlist& nl, const Rect& region);

/// Uniformly spaced boundary slots (pads in given order); the trivial pad
/// placement used as an ablation baseline.
std::vector<Point> uniform_pad_ring(std::size_t n_pads, const Rect& region);

struct DetailedPlacement {
    std::vector<Point> positions;   // cell centers after legalization
    std::vector<int> row_of;        // row index per cell
    double row_height = 1.0;
    std::size_t n_rows = 0;
    Rect region;
};

/// Row-based legalization: snap the balanced global placement into standard
/// cell rows (sorted into rows by y, packed within each row by x order,
/// respecting per-row capacity).
DetailedPlacement legalize_rows(const PlacementNetlist& nl, const GlobalPlacement& global,
                                double row_height = 1.0, double utilization = 0.85);

/// Wirelength-driven intra-row refinement: adjacent same-row cells are
/// swapped (and the row re-packed locally) whenever the half-perimeter
/// wirelength of their incident nets decreases. Classic detailed-placement
/// polish; returns the number of swaps applied.
std::size_t improve_rows(const PlacementNetlist& nl, DetailedPlacement& dp,
                         std::size_t max_passes = 4);

/// Result of an ECO-local placement re-solve.
struct IncrementalPlacement {
    std::size_t solved_cells = 0;   // distinct dirty cells moved through the QP
    std::size_t cg_iterations = 0;  // both axes combined
    bool converged = false;
    bool budget_exhausted = false;
};

/// ECO-local quadratic re-solve: only the cells in `dirty` move; every other
/// cell (and every pad) is frozen at its entry in `positions` and folded
/// into the dirty subsystem as a fixed anchor with the same clique weight
/// (2/k) the full placer uses, so the local optimum agrees with the global
/// model on the boundary. Nets touching no dirty cell drop out entirely. On
/// entry `positions` holds prior coordinates for clean cells and a seed
/// guess for dirty ones; on exit the dirty entries are replaced with the
/// re-solved, region-clamped coordinates — clean entries are never written.
IncrementalPlacement place_incremental(const PlacementNetlist& nl, const Rect& region,
                                       std::vector<Point>& positions,
                                       std::span<const std::size_t> dirty,
                                       const GlobalPlacementOptions& opts = {});

/// Bookkeeping from an ECO-local legalization pass.
struct IncrementalLegalization {
    std::size_t repacked_rows = 0;
    std::size_t moved_cells = 0;  // cells whose position actually changed
};

/// ECO-local legalization: keep every clean cell in its prior row at its
/// prior position and fold only the `dirty` cells into the row structure.
/// On entry `dp` carries the prior row geometry (region, row_height,
/// n_rows), prior legalized positions and rows for clean cells, and the
/// continuous re-solved positions for dirty cells (their row_of entries are
/// ignored). Each dirty cell is assigned to the row nearest its solved y
/// that still has horizontal space; then ONLY the rows that received a cell
/// are re-packed (x-order preserved, centered like legalize_rows) and
/// snapped to their centerline. Rows untouched by the edit keep their
/// positions bit-identical — the property the incremental timing splice
/// depends on. Rows that merely lost cells keep a gap instead of
/// re-packing, for the same reason.
IncrementalLegalization legalize_rows_incremental(const PlacementNetlist& nl,
                                                  std::span<const std::size_t> dirty,
                                                  DetailedPlacement& dp);

/// Total half-perimeter wirelength of all nets under the given positions.
double total_hpwl(const PlacementNetlist& nl, std::span<const Point> cell_positions);

/// Per-net HPWL cache for incremental wirelength bookkeeping: build once
/// against a full placement, then re-measure only the nets incident to the
/// cells an ECO moved. `total` accumulates the patches in net order; it can
/// drift from a fresh total_hpwl by float rounding only (diagnostic use).
struct HpwlCache {
    std::vector<double> net_hpwl;                     // per net
    std::vector<std::vector<std::size_t>> nets_of_cell;
    double total = 0.0;
};
HpwlCache build_hpwl_cache(const PlacementNetlist& nl, std::span<const Point> cell_positions);
/// Re-measure the nets incident to `moved_cells` under the new positions and
/// patch the cache. Returns the number of nets re-measured.
std::size_t update_hpwl(const PlacementNetlist& nl, std::span<const Point> cell_positions,
                        std::span<const std::size_t> moved_cells, HpwlCache& cache);

/// Sum of squared Euclidean lengths over the clique net model — the
/// objective place_global minimizes (for monotonicity tests).
double quadratic_objective(const PlacementNetlist& nl, std::span<const Point> cell_positions);

}  // namespace lily
