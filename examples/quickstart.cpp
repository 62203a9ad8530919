// Quickstart: parse a BLIF circuit, decompose it into the NAND2/INV subject
// graph, map it with the baseline mapper and with Lily, and verify both
// results against the source by random simulation.
//
//   ./quickstart [file.blif]
//
// Without an argument a small built-in full-adder BLIF is used.
#include <cstdio>
#include <string>

#include "library/standard_cells.hpp"
#include "lily/lily_mapper.hpp"
#include "map/base_mapper.hpp"
#include "netlist/blif.hpp"
#include "netlist/simulate.hpp"
#include "subject/decompose.hpp"

using namespace lily;

namespace {

constexpr const char* kFullAdderBlif = R"(.model full_adder
.inputs a b cin
.outputs sum cout
.names a b axb
10 1
01 1
.names axb cin sum
10 1
01 1
.names a b ab
11 1
.names axb cin cx
11 1
.names ab cx cout
1- 1
-1 1
.end
)";

}  // namespace

int main(int argc, char** argv) {
    // 1. Load a circuit.
    const Network net =
        (argc > 1 ? read_blif_file_checked(argv[1]) : read_blif_checked(kFullAdderBlif))
            .take_or_raise();
    std::printf("circuit '%s': %zu inputs, %zu outputs, %zu logic nodes, depth %zu\n",
                net.name().c_str(), net.inputs().size(), net.outputs().size(),
                net.logic_node_count(), net.depth());

    // 2. Decompose into the 2-input NAND / inverter subject graph.
    const DecomposeResult sub = decompose(net);
    std::printf("subject graph: %zu base gates, depth %zu\n", sub.graph.gate_count(),
                sub.graph.depth());

    // 3. Load the bundled cell library (gates up to 6 inputs).
    const Library lib = load_msu_big();
    std::printf("library '%s': %zu gates, max %u inputs\n", lib.name().c_str(), lib.size(),
                lib.max_gate_inputs());

    // 4. Map: interconnect-blind baseline (DAGON/MIS style)...
    const MapResult base = BaseMapper(lib).map(sub.graph);
    std::printf("baseline mapping: %zu gates, area %.1f\n", base.netlist.gate_count(),
                base.total_area);

    // ...and layout-driven (Lily).
    const LilyResult lily = LilyMapper(lib).map_checked(sub.graph).take_or_raise();
    std::printf("lily mapping:     %zu gates, area %.1f, estimated wire %.1f\n",
                lily.netlist.gate_count(), lily.total_area, lily.estimated_wirelength);

    // 5. Verify equivalence by 64-way random simulation.
    const bool base_ok =
        equivalent_random_checked(net, base.netlist.to_network(lib), 32, 1234).take_or_raise();
    const bool lily_ok =
        equivalent_random_checked(net, lily.netlist.to_network(lib), 32, 1234).take_or_raise();
    std::printf("equivalence: baseline %s, lily %s\n", base_ok ? "PASS" : "FAIL",
                lily_ok ? "PASS" : "FAIL");

    // 6. Show the chosen gates of the Lily netlist.
    std::printf("\nlily netlist:\n");
    for (const GateInstance& inst : lily.netlist.gates) {
        std::printf("  %-8s drives s%u <-", lib.gate(inst.gate).name.c_str(), inst.driver);
        for (const SubjectId in : inst.inputs) std::printf(" s%u", in);
        std::printf("\n");
    }
    return base_ok && lily_ok ? 0 : 1;
}
