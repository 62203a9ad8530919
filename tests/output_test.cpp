#include <gtest/gtest.h>

#include <fstream>

#include "circuits/benchmarks.hpp"
#include "library/standard_cells.hpp"
#include "lily/lily_mapper.hpp"
#include "map/verilog.hpp"
#include "netlist/simulate.hpp"
#include "place/netlist_adapters.hpp"
#include "subject/decompose.hpp"

namespace lily {
namespace {

struct Mapped {
    Library lib = load_msu_big();
    Network net;
    MappedNetlist netlist;
};

Mapped map_small() {
    Mapped m;
    m.net = make_priority_controller(8);
    const DecomposeResult sub = decompose(m.net);
    m.netlist = LilyMapper(m.lib).map_checked(sub.graph).take_or_raise().netlist;
    return m;
}

// ---------------------------------------------------------------- verilog

TEST(Verilog, StructureOfOutput) {
    const Mapped m = map_small();
    const std::string v = write_verilog(m.netlist, m.lib, "prio");
    EXPECT_NE(v.find("module prio ("), std::string::npos);
    EXPECT_NE(v.find("endmodule"), std::string::npos);
    // Every PI is declared as input, every PO as output.
    for (const std::string& n : m.netlist.subject_input_names) {
        EXPECT_NE(v.find("input " + n + ";"), std::string::npos) << n;
    }
    for (const MappedOutput& po : m.netlist.outputs) {
        EXPECT_NE(v.find("output " + po.name), std::string::npos) << po.name;
    }
    // One instance per gate, named u<i>.
    EXPECT_NE(v.find(" u0 ("), std::string::npos);
    EXPECT_NE(v.find(" u" + std::to_string(m.netlist.gate_count() - 1) + " ("),
              std::string::npos);
    // Cell names from the library appear.
    bool found_cell = false;
    for (const Gate& g : m.lib.gates()) {
        if (v.find("  " + g.name + " u") != std::string::npos) found_cell = true;
    }
    EXPECT_TRUE(found_cell);
}

TEST(Verilog, SanitizesAwkwardNames) {
    Network net("weird");
    const NodeId a = net.add_input("sig[3]");
    const NodeId b = net.add_input("2bad");
    net.add_output("out.x", net.make_and2(a, b));
    const Library lib = load_msu_big();
    const DecomposeResult sub = decompose(net);
    const MappedNetlist m = LilyMapper(lib).map_checked(sub.graph).take_or_raise().netlist;
    const std::string v = write_verilog(m, lib);
    EXPECT_EQ(v.find('['), std::string::npos);
    EXPECT_EQ(v.find('.'), v.find(".O("));  // only pin connections use '.'
    EXPECT_NE(v.find("sig_3_"), std::string::npos);
    EXPECT_NE(v.find("n2bad"), std::string::npos);
}

TEST(Verilog, FileWriting) {
    const Mapped m = map_small();
    const std::string path = ::testing::TempDir() + "/lily_out.v";
    write_verilog_file(m.netlist, m.lib, path, "prio");
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_EQ(text, write_verilog(m.netlist, m.lib, "prio"));
}

// ------------------------------------------------------------ improve_rows

TEST(ImproveRows, NeverIncreasesHpwl) {
    const Network net = make_control_logic(12, 8, 150, 0xAB, "ir");
    const DecomposeResult sub = decompose(net);
    SubjectPlacementView view = make_placement_view(sub.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    view.netlist.pad_positions = uniform_pad_ring(view.netlist.pad_positions.size(), region);
    const GlobalPlacement gp = place_global(view.netlist, region);
    DetailedPlacement dp = legalize_rows(view.netlist, gp);
    const double before = total_hpwl(view.netlist, dp.positions);
    const std::size_t swaps = improve_rows(view.netlist, dp);
    const double after = total_hpwl(view.netlist, dp.positions);
    EXPECT_LE(after, before + 1e-9);
    if (swaps > 0) {
        EXPECT_LT(after, before);
    }
    // Rows still non-overlapping.
    for (std::size_t i = 0; i < dp.positions.size(); ++i) {
        for (std::size_t j = i + 1; j < dp.positions.size(); ++j) {
            if (dp.row_of[i] != dp.row_of[j]) continue;
            const double wi = view.netlist.cell_area[i] / dp.row_height;
            const double wj = view.netlist.cell_area[j] / dp.row_height;
            EXPECT_GE(std::abs(dp.positions[i].x - dp.positions[j].x) + 1e-9, (wi + wj) / 2.0);
        }
    }
}

TEST(ImproveRows, IdempotentAtFixpoint) {
    const Network net = make_control_logic(10, 6, 80, 0xCD, "ir2");
    const DecomposeResult sub = decompose(net);
    SubjectPlacementView view = make_placement_view(sub.graph);
    const Rect region = make_region(view.netlist.total_cell_area());
    view.netlist.pad_positions = uniform_pad_ring(view.netlist.pad_positions.size(), region);
    const GlobalPlacement gp = place_global(view.netlist, region);
    DetailedPlacement dp = legalize_rows(view.netlist, gp);
    improve_rows(view.netlist, dp, 16);
    EXPECT_EQ(improve_rows(view.netlist, dp, 16), 0u);
}

// ---------------------------------------------------------------- flat PLA

TEST(FlatPla, MatchesTreePlaFunction) {
    // Same seed/parameters: the flat and tree-shaped PLAs compute the same
    // functions (same RNG draw schedule by construction).
    const Network tree = make_pla(12, 8, 30, 0x99, "p");
    const Network flat = make_pla_flat(12, 8, 30, 0x99, "p");
    EXPECT_TRUE(equivalent_random_checked(tree, flat, 16, 21).take_or_raise());
    // Flat: one logic node per output.
    EXPECT_EQ(flat.logic_node_count(), flat.outputs().size());
    EXPECT_THROW(make_pla_flat(65, 4, 10, 1, "x"), std::invalid_argument);
}

}  // namespace
}  // namespace lily
