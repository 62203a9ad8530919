// Command-line mapping tool: the downstream-user entry point. Reads a
// combinational BLIF circuit and a genlib library, runs the selected
// mapper, and writes the mapped netlist back out as BLIF (one .names block
// per gate instance) together with a metrics report.
//
//   ./map_blif <circuit.blif> [options]
//     --lib <file.genlib>   library (default: bundled msu_big)
//     --mapper lily|base    mapper (default: lily)
//     --delay               optimize delay instead of area
//     --buffer <N>          fanout-optimize to at most N sinks per net
//     --out <mapped.blif>   write the mapped netlist here
#include <cstdio>
#include <cstring>
#include <string>

#include "flow/flow.hpp"
#include "library/standard_cells.hpp"
#include "lily/fanout_opt.hpp"
#include "netlist/blif.hpp"
#include "netlist/simulate.hpp"

using namespace lily;

/// Parse and validate a genlib file; throws with the parser's or the
/// validator's message (e.g. "library: no inverter gate").
Library load_library(const std::string& path) {
    Library lib = read_genlib_file_checked(path).take_or_raise();
    if (const Status valid = lib.validate(); !valid.is_ok()) valid.raise();
    return lib;
}

int main(int argc, char** argv) {
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <circuit.blif> [--lib f.genlib] [--mapper lily|base]\n"
                     "          [--delay] [--buffer N] [--out mapped.blif]\n",
                     argv[0]);
        return 2;
    }
    std::string circuit_path = argv[1];
    std::string lib_path;
    std::string out_path;
    std::string mapper = "lily";
    bool delay = false;
    std::size_t buffer_limit = 0;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--lib") {
            lib_path = next();
        } else if (arg == "--mapper") {
            mapper = next();
        } else if (arg == "--delay") {
            delay = true;
        } else if (arg == "--buffer") {
            buffer_limit = static_cast<std::size_t>(std::stoul(next()));
        } else if (arg == "--out") {
            out_path = next();
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return 2;
        }
    }

    try {
        const Network net = read_blif_file_checked(circuit_path).take_or_raise();
        const Library lib = lib_path.empty() ? load_msu_big() : load_library(lib_path);
        std::printf("circuit %s: %zu PIs, %zu POs, %zu nodes; library %s (%zu gates)\n",
                    net.name().c_str(), net.inputs().size(), net.outputs().size(),
                    net.logic_node_count(), lib.name().c_str(), lib.size());

        FlowOptions opts;
        opts.objective = delay ? MapObjective::Delay : MapObjective::Area;
        const FlowKind kind = mapper == "base" ? FlowKind::Baseline : FlowKind::Lily;
        FlowResult result = run_flow_checked(kind, net, lib, opts).take_or_raise();

        if (buffer_limit >= 2) {
            FanoutOptOptions fo;
            fo.max_fanout = buffer_limit;
            const FanoutOptResult r =
                optimize_fanout(result.netlist, lib, &result.final_positions, fo);
            std::printf("fanout optimization: %zu buffers on %zu nets\n", r.buffers_added,
                        r.nets_split);
        }

        const bool ok =
            equivalent_random_checked(net, result.netlist.to_network(lib), 32, 2024)
                .take_or_raise();
        std::printf("mapped: %zu gates, cell %.3f mm^2, chip %.3f mm^2, wire %.1f mm, "
                    "delay %.2f ns — equivalence %s\n",
                    result.netlist.gate_count(), result.metrics.cell_area_mm2(),
                    result.metrics.chip_area_mm2(), result.metrics.wirelength_mm(),
                    result.metrics.critical_delay, ok ? "PASS" : "FAIL");

        if (!out_path.empty()) {
            write_blif_file(result.netlist.to_network(lib, net.name() + "_mapped"), out_path);
            std::printf("wrote %s\n", out_path.c_str());
        }
        return ok ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
