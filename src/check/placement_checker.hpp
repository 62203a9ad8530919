// Placement geometry invariants (the placement view's own indices are
// PlacementNetlist::check()'s): every coordinate finite, every cell inside
// the chip region, legalized cells aligned to their rows, and pre-placed
// I/O pads actually sitting on the region boundary (the paper fixes the pad
// assignment before mapping; a pad drifting off the boundary silently skews
// every wire estimate drawn from it).
#pragma once

#include <span>

#include "place/placement.hpp"
#include "util/check.hpp"

namespace lily {

struct PlacementCheckerOptions {
    /// Relative tolerance (fraction of the region half-perimeter) used for
    /// containment and row-alignment comparisons.
    double tolerance = 1e-9;
    /// Pads farther than this fraction of the region half-perimeter from
    /// the boundary are flagged.
    double pad_boundary_tolerance = 1e-6;
};

class PlacementChecker {
public:
    explicit PlacementChecker(PlacementCheckerOptions opts = {}) : opts_(opts) {}

    /// Cell positions: correct count, finite, inside `region` (within
    /// `slack` extra length units on each side — row legalization may
    /// overflow a full row by at most one cell).
    CheckReport check_positions(std::span<const Point> positions, std::size_t n_cells,
                                const Rect& region, double slack = 0.0) const;

    /// Global placement result against its netlist: containment is strict.
    CheckReport check_global(const PlacementNetlist& nl, const GlobalPlacement& gp) const;

    /// Detailed placement: row indices in range, y aligned to the row
    /// centerline, same-row cells at identical y.
    CheckReport check_detailed(const PlacementNetlist& nl, const DetailedPlacement& dp) const;

    /// Pads: finite and on (or within tolerance of) the region boundary.
    CheckReport check_pads(std::span<const Point> pads, const Rect& region) const;

private:
    PlacementCheckerOptions opts_;
};

}  // namespace lily
