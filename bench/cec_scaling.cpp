// CEC scaling harness: what does a formal verdict cost compared to the
// random-simulation spot check, and how much work does SAT sweeping save?
//
// For each workload (the example circuits plus synthetic control logic at a
// few sizes) the harness maps the network with the wire-blind baseline
// mapper, then checks mapped-vs-source three ways:
//
//   sim    equivalent_random_checked on 8 random blocks (the historical check)
//   prove  check_equivalence with SAT sweeping (the default prover setup)
//   nosweep  check_equivalence with sweeping disabled (ablation: how much
//            the simulation-guided merges shrink the per-output proofs)
//
// Emits BENCH_cec.json and exits non-zero unless every workload is Proven
// and simulation-clean — this is the CI regression gate for the verifier.
//
// Usage:
//   cec_scaling [--out=BENCH_cec.json] [--quick]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "circuits/benchmarks.hpp"
#include "library/standard_cells.hpp"
#include "map/base_mapper.hpp"
#include "netlist/blif.hpp"
#include "netlist/simulate.hpp"
#include "subject/decompose.hpp"
#include "verify/cec.hpp"

using namespace lily;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::string json_num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

struct Row {
    std::string name;
    std::size_t source_nodes = 0;
    std::size_t mapped_gates = 0;
    std::size_t aig_ands = 0;
    double sim_ms = 0.0;
    bool sim_equivalent = false;
    double prove_ms = 0.0;
    std::string prove_verdict;
    std::size_t merged_nodes = 0;
    std::size_t sat_calls = 0;
    std::size_t conflicts = 0;
    double nosweep_ms = 0.0;
    std::size_t nosweep_conflicts = 0;
};

}  // namespace

int main(int argc, char** argv) {
    std::string out_path = "BENCH_cec.json";
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else if (arg == "--quick") {
            quick = true;
        } else {
            std::fprintf(stderr, "usage: cec_scaling [--out=FILE] [--quick]\n");
            return 2;
        }
    }

    const Library lib = load_msu_big();

    // Workloads: every shipped example, then synthetic control logic of
    // growing size so the curve has more than toy points on it.
    std::vector<std::pair<std::string, Network>> workloads;
    const std::string dir = std::string(LILY_SOURCE_DIR) + "/examples/circuits/";
    for (const char* name : {"decoder3", "full_adder", "mux4", "parity8"}) {
        workloads.emplace_back(name, read_blif_file_checked(dir + name + ".blif").take_or_raise());
    }
    const std::vector<unsigned> sizes =
        quick ? std::vector<unsigned>{120} : std::vector<unsigned>{120, 400};
    for (const unsigned gates : sizes) {
        const std::string name = "control_" + std::to_string(gates);
        workloads.emplace_back(
            name, make_control_logic(gates / 8 + 8, gates / 16 + 4, gates, 0xCEC, name));
    }

    std::vector<Row> rows;
    bool all_proven = true;
    bench::RatioTracker prove_over_sim;

    for (const auto& [name, net] : workloads) {
        Row row;
        row.name = name;
        row.source_nodes = net.node_count();

        const MapResult mapped = BaseMapper(lib).map(decompose(net).graph);
        row.mapped_gates = mapped.netlist.gate_count();
        const Network impl = mapped.netlist.to_network(lib);

        Clock::time_point t0 = Clock::now();
        const StatusOr<bool> sim = equivalent_random_checked(net, impl, 8, 0xCEC);
        row.sim_ms = ms_since(t0);
        if (!sim.is_ok()) {
            std::fprintf(stderr, "%s: sim check failed: %s\n", name.c_str(),
                         sim.status().to_string().c_str());
            return 1;
        }
        row.sim_equivalent = sim.value();

        t0 = Clock::now();
        const StatusOr<CecResult> prove = check_equivalence(net, impl);
        row.prove_ms = ms_since(t0);
        if (!prove.is_ok()) {
            std::fprintf(stderr, "%s: prover failed: %s\n", name.c_str(),
                         prove.status().to_string().c_str());
            return 1;
        }
        const CecResult& cec = prove.value();
        row.prove_verdict = to_string(cec.verdict);
        row.aig_ands = cec.stats.aig_and_nodes;
        row.merged_nodes = cec.stats.merged_nodes;
        row.sat_calls = cec.stats.sat_calls;
        row.conflicts = cec.stats.conflicts;

        // The ablation is budget-capped and skipped on the largest
        // workloads: monolithic per-output proofs blow up combinatorially
        // there (that blow-up is the point of the ablation), and an
        // Inconclusive verdict under a cap is an honest data point.
        if (row.aig_ands <= 4000) {
            CecOptions nosweep;
            nosweep.sweep = false;
            nosweep.output_conflict_budget = 20000;
            t0 = Clock::now();
            const StatusOr<CecResult> raw = check_equivalence(net, impl, nosweep);
            row.nosweep_ms = ms_since(t0);
            if (raw.is_ok()) row.nosweep_conflicts = raw.value().stats.conflicts;
        }

        const bool proven = cec.verdict == CecVerdict::Proven;
        all_proven = all_proven && proven && row.sim_equivalent;
        prove_over_sim.add(row.prove_ms, row.sim_ms);

        std::fprintf(stderr,
                     "%s: %zu nodes -> %zu gates, %zu AIG ands; sim %.2f ms (%s), "
                     "prove %.2f ms (%s, %zu/%zu merged, %zu SAT calls, %zu conflicts), "
                     "no-sweep %.2f ms (%zu conflicts)\n",
                     name.c_str(), row.source_nodes, row.mapped_gates, row.aig_ands,
                     row.sim_ms, row.sim_equivalent ? "clean" : "MISCOMPARE", row.prove_ms,
                     row.prove_verdict.c_str(), row.merged_nodes, row.aig_ands,
                     row.sat_calls, row.conflicts, row.nosweep_ms, row.nosweep_conflicts);
        rows.push_back(row);
    }

    std::ostringstream os;
    os << "{\n";
    os << "  \"all_proven\": " << (all_proven ? "true" : "false") << ",\n";
    os << "  \"geomean_prove_over_sim_time\": " << json_num(prove_over_sim.geomean())
       << ",\n";
    os << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        os << "  {\n";
        os << "    \"name\": \"" << r.name << "\",\n";
        os << "    \"source_nodes\": " << r.source_nodes << ",\n";
        os << "    \"mapped_gates\": " << r.mapped_gates << ",\n";
        os << "    \"aig_and_nodes\": " << r.aig_ands << ",\n";
        os << "    \"sim\": {\"ms\": " << json_num(r.sim_ms)
           << ", \"equivalent\": " << (r.sim_equivalent ? "true" : "false") << "},\n";
        os << "    \"prove\": {\"ms\": " << json_num(r.prove_ms) << ", \"verdict\": \""
           << r.prove_verdict << "\", \"merged_nodes\": " << r.merged_nodes
           << ", \"sat_calls\": " << r.sat_calls << ", \"conflicts\": " << r.conflicts
           << "},\n";
        os << "    \"prove_nosweep\": {\"ms\": " << json_num(r.nosweep_ms)
           << ", \"conflicts\": " << r.nosweep_conflicts << "}\n";
        os << "  }" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";

    std::ofstream f(out_path);
    f << os.str();
    f.close();
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());

    if (!all_proven) {
        std::fprintf(stderr, "FAIL: a mapped workload was not proven equivalent\n");
        return 1;
    }
    return 0;
}
