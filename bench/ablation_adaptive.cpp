// Section 5 remedy: "our dynamic wire length estimation procedure is not
// always accurate (as seen by poor results for misex1 ...). In such cases,
// we could repeat the mapping with reduced wire cost weight to obtain
// better solutions." This bench compares plain Lily against the adaptive
// retry on the circuits where plain Lily loses to the baseline.
#include <cstdio>

#include "bench/common.hpp"
#include "circuits/benchmarks.hpp"
#include "flow/flow.hpp"
#include "library/standard_cells.hpp"

using namespace lily;

int main() {
    const Library lib = load_msu_big();
    const auto suite = paper_suite(1.0);

    std::printf("Adaptive wire-weight retry (area mode)\n");
    std::printf("%-8s | %10s | %10s %7s | %10s %7s\n", "Ex.", "MIS wire", "Lily wire",
                "vs MIS", "adaptive", "vs MIS");
    bench::print_rule(66);

    bench::RatioTracker plain, adaptive;
    for (const Benchmark& b : suite) {
        const FlowResult base = run_baseline_flow_checked(b.network, lib).take_or_raise();
        const FlowResult lily = run_lily_flow_checked(b.network, lib).take_or_raise();
        const FlowResult tuned =
            run_lily_flow_adaptive_checked(b.network, lib, {}, base.metrics.wirelength)
                .take_or_raise();
        plain.add(lily.metrics.wirelength, base.metrics.wirelength);
        adaptive.add(tuned.metrics.wirelength, base.metrics.wirelength);
        std::printf("%-8s | %10.1f | %10.1f %+6.1f%% | %10.1f %+6.1f%%\n", b.name.c_str(),
                    base.metrics.wirelength, lily.metrics.wirelength,
                    (lily.metrics.wirelength / base.metrics.wirelength - 1.0) * 100.0,
                    tuned.metrics.wirelength,
                    (tuned.metrics.wirelength / base.metrics.wirelength - 1.0) * 100.0);
    }
    bench::print_rule(66);
    std::printf("geomean wire vs MIS: plain %+.1f%%, adaptive %+.1f%%\n", plain.percent(),
                adaptive.percent());
    std::printf("(the adaptive column should never be worse than the plain column)\n");
    return 0;
}
