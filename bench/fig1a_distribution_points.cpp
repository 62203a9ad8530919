// Reproduces Figure 1.1(a): active gate area versus wire length. A sink
// computes the AND of k sources. When the sources sit near one another on
// the layout, one big gate (a single "distribution point") is best; when
// they are pinned far apart, the minimum-wire solution uses several smaller
// gates (k > 1 distribution points). The interconnect-blind baseline always
// picks the single biggest gate; Lily's wire term makes it split when the
// placement says so.
#include <array>
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"
#include "lily/lily_mapper.hpp"
#include "map/base_mapper.hpp"
#include "subject/decompose.hpp"

using namespace lily;

namespace {

/// "Distribution points" of Figure 1.1(a): logic gates between the sources
/// and the sink — inverters are drive elements, not distribution points.
std::size_t distribution_points(const MappedNetlist& m, const Library& lib) {
    std::size_t k = 0;
    for (const GateInstance& inst : m.gates) {
        if (lib.gate(inst.gate).n_inputs() >= 2) ++k;
    }
    return k;
}

Network wide_and(unsigned k) {
    Network net("and" + std::to_string(k));
    std::vector<NodeId> ins;
    for (unsigned i = 0; i < k; ++i) ins.push_back(net.add_input("s" + std::to_string(i)));
    net.add_output("t", net.make_and(ins));
    return net;
}

/// Pad positions. Clustered: all sources side by side on the bottom edge.
/// Spread: sources come in pairs, each pair pinned to a different corner —
/// the Figure 1.1(a) situation where sources "are strongly connected to
/// different gate clusters ... and hence may have positions far from one
/// another". The sink pad sits mid-right in both cases.
std::vector<Point> pads(unsigned k, const Rect& region, bool spread) {
    std::vector<Point> out;
    if (spread) {
        const std::array<Point, 4> corners{region.ll, Point{region.ll.x, region.ur.y},
                                           Point{region.ur.x, region.ur.y},
                                           Point{region.ur.x, region.ll.y}};
        const double d = region.width() * 0.08;  // pair spacing along the edge
        for (unsigned i = 0; i < k; ++i) {
            const Point c = corners[(i / 2) % 3];  // 3 corners; 4th is the sink's
            const double off = (i % 2 == 0 ? 0.0 : d) + static_cast<double>(i / 6) * 2.0 * d;
            out.push_back({c.x + (c.x < region.center().x ? off : -off), c.y});
        }
    } else {
        const double step = region.width() / static_cast<double>(k + 1);
        for (unsigned i = 0; i < k; ++i) {
            out.push_back({region.ll.x + step * (i + 1), region.ll.y});  // bottom edge
        }
    }
    out.push_back({region.ur.x, region.center().y});  // sink
    return out;
}

}  // namespace

int main() {
    const Library lib = load_msu_big();
    std::printf("Figure 1.1(a): distribution points vs wire length (AND of k sources)\n");
    std::printf("%-2s %-9s | %8s %10s %10s | %8s %10s %10s\n", "k", "sources", "MIS k",
                "MIS cell", "MIS wire", "Lily k", "Lily cell", "Lily wire");
    bench::print_rule(84);

    for (const unsigned k : {3u, 4u, 5u, 6u}) {
        for (const bool spread : {false, true}) {
            const Network net = wide_and(k);
            const DecomposeResult sub = decompose(net);
            const SubjectPlacementView view = make_placement_view(sub.graph);
            const Rect region = make_region(view.netlist.total_cell_area(), 0.1);
            const auto pad_pos = pads(k, region, spread);

            // Baseline: interconnect-blind area mapping.
            const MapResult base = BaseMapper(lib).map(sub.graph);
            FlowOptions fopts;
            const FlowResult base_flow =
                run_backend_checked(base.netlist, lib, fopts, PadsInRegion{pad_pos, region})
                    .take_or_raise();

            // Lily with the same pads.
            const LilyOptions lopts;
            const LilyResult lily =
                LilyMapper(lib).map_checked(sub.graph, lopts, pad_pos).take_or_raise();
            const FlowResult lily_flow =
                run_backend_checked(lily.netlist, lib, fopts, PadsInRegion{pad_pos, region})
                    .take_or_raise();

            std::printf("%-2u %-9s | %8zu %10.2f %10.2f | %8zu %10.2f %10.2f\n", k,
                        spread ? "spread" : "clustered",
                        distribution_points(base_flow.netlist, lib),
                        base_flow.metrics.cell_area, base_flow.metrics.wirelength,
                        distribution_points(lily_flow.netlist, lib),
                        lily_flow.metrics.cell_area, lily_flow.metrics.wirelength);
        }
    }
    bench::print_rule(84);
    std::printf("shape: for small k / clustered sources one gate suffices; for spread\n"
                "sources Lily accepts more distribution points (gates) for less wire.\n");
    return 0;
}
