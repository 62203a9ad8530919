#include "replay.hpp"

#include "common.hpp"
#include "flow/stage.hpp"
#include "match/matcher.hpp"
#include "place/netlist_adapters.hpp"
#include "subject/decompose.hpp"
#include "util/alloc_stats.hpp"

namespace perfbench {

using namespace lily;

namespace {

double allocs_since(const AllocStats& a0) {
    return static_cast<double>(alloc_stats_snapshot().count - a0.count);
}

}  // namespace

bool same_qor(const FlowMetrics& a, const FlowMetrics& b) {
    return a.gate_count == b.gate_count && a.cell_area == b.cell_area &&
           a.chip_area == b.chip_area && a.wirelength == b.wirelength &&
           a.critical_delay == b.critical_delay && a.max_congestion == b.max_congestion;
}

StatusOr<Replayed> replay_lily_flow(const Network& net, const Library& lib,
                                    const FlowOptions& opts, OpLayers& layers) {
    Replayed out;

    // ---- subject: NAND2/INV decomposition.
    Clock::time_point t0 = Clock::now();
    const DecomposeResult sub = decompose(net, opts.decompose);
    double ms = ms_since(t0);
    layers["subject.decompose_ms"] += ms;
    out.flow_ms += ms;
    const SubjectGraph& g = sub.graph;

    // ---- match: every match at every subject node (the enumeration the
    // Lily DP performs inside map_checked, replayed on its own).
    {
        const Matcher matcher(lib);
        MatchScratch scratch;
        std::vector<Match> buf;
        std::size_t matches = 0;
        t0 = Clock::now();
        for (SubjectId v = 0; v < g.size(); ++v) matches += matcher.matches_at(g, v, scratch, buf);
        ms = ms_since(t0);
        layers["match.walk_ms"] += ms;
        layers["match.matches"] += static_cast<double>(matches);
        out.extra_ms += ms;
    }

    // ---- lily: the placement-coupled DP, as the mapping stage calls it.
    LilyOptions lily_opts = opts.lily;
    lily_opts.objective = opts.objective;
    lily_opts.cover = effective_cover(opts);
    AllocStats a0 = alloc_stats_snapshot();
    t0 = Clock::now();
    const LilyMapper mapper(lib);
    StatusOr<LilyResult> mapped = mapper.map_checked(g, lily_opts);
    ms = ms_since(t0);
    layers["lily.map_ms"] += ms;
    layers["lily.map_allocs"] += allocs_since(a0);
    out.flow_ms += ms;
    if (!mapped.is_ok()) return mapped.status();
    const LilyResult& res = mapped.value();

    // The balanced global placement of the inchoate network that opens
    // map_checked (its stage 0), replayed on the subject view.
    {
        t0 = Clock::now();
        SubjectPlacementView view = make_placement_view(g);
        const Rect region = make_region(view.netlist.total_cell_area());
        view.netlist.pad_positions = place_pads(view.netlist, region);
        const GlobalPlacement inchoate = place_global(view.netlist, region, lily_opts.placement);
        ms = ms_since(t0);
        layers["lily.inchoate_place_ms"] += ms;
        out.extra_ms += ms;
        if (inchoate.positions != res.inchoate_placement.positions) {
            return Status(StatusCode::Internal, "inchoate replay diverged from the mapper");
        }
    }

    // ---- Back end, as run_lily_flow_checked hands the mapping to it: the
    // pre-mapping pad ring and the constructive mapPositions, rescaled from
    // the inchoate region, anchor the placement.
    const MappedNetlist& m = res.netlist;
    MappedPlacementView view = make_placement_view(m, lib);
    const Rect region = make_region(view.netlist.total_cell_area(), opts.placement_utilization);
    const Rect& seed_region = res.inchoate_placement.region;
    if (res.pad_positions.size() != view.netlist.pad_positions.size() ||
        res.instance_positions.size() != view.netlist.n_cells) {
        return Status(StatusCode::Internal, "mapping result does not fit its placement view");
    }
    for (std::size_t i = 0; i < res.pad_positions.size(); ++i) {
        view.netlist.pad_positions[i] = rescale_point(res.pad_positions[i], seed_region, region);
    }
    PlacementNetlist anchored = view.netlist;
    for (std::size_t c = 0; c < anchored.n_cells; ++c) {
        const std::size_t pad = anchored.pad_positions.size();
        anchored.pad_positions.push_back(
            rescale_point(res.instance_positions[c], seed_region, region));
        for (int dup = 0; dup < 2; ++dup) {
            PlacementNetlist::Net anchor;
            anchor.cells = {c};
            anchor.pads = {pad};
            anchored.nets.push_back(anchor);
        }
    }

    // ---- place: global placement, then row legalization and refinement.
    a0 = alloc_stats_snapshot();
    t0 = Clock::now();
    const GlobalPlacement global = place_global(anchored, region, opts.lily.placement);
    ms = ms_since(t0);
    layers["place.global_ms"] += ms;
    out.flow_ms += ms;
    t0 = Clock::now();
    DetailedPlacement detailed = legalize_rows(view.netlist, global);
    improve_rows(view.netlist, detailed);
    ms = ms_since(t0);
    layers["place.legalize_ms"] += ms;
    layers["place.allocs"] += allocs_since(a0);
    out.flow_ms += ms;

    // ---- route: global routing with rip-up and maze refinement.
    t0 = Clock::now();
    const RouteResult routed = route_global(view.netlist, detailed.positions, region, opts.router);
    ms = ms_since(t0);
    layers["route.global_ms"] += ms;
    layers["route.mazed_connections"] += static_cast<double>(routed.mazed_connections);
    layers["route.overflow"] += routed.total_overflow;
    out.flow_ms += ms;
    const ChipAreaEstimate chip =
        estimate_chip_area(view.netlist.total_cell_area(), routed, opts.chip);

    // ---- sta: static timing with wire loads from the detailed placement.
    t0 = Clock::now();
    const TimingReport timing = analyze_timing(m, lib, view, detailed.positions, opts.timing);
    ms = ms_since(t0);
    layers["sta.analyze_ms"] += ms;
    out.flow_ms += ms;

    out.metrics.gate_count = m.gate_count();
    out.metrics.cell_area = chip.cell_area;
    out.metrics.chip_area = chip.chip_area;
    out.metrics.wirelength = routed.total_wirelength;
    out.metrics.critical_delay = timing.critical_delay;
    out.metrics.max_congestion = routed.max_congestion;
    return out;
}

}  // namespace perfbench
