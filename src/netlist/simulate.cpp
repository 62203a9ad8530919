#include "netlist/simulate.hpp"

#include <bit>
#include <stdexcept>
#include <string>

#include "netlist/interface.hpp"

namespace lily {

std::vector<std::uint64_t> simulate_block(const Network& net,
                                          std::span<const std::uint64_t> input_words) {
    if (input_words.size() != net.inputs().size()) {
        throw std::invalid_argument("simulate_block: wrong number of input words");
    }
    std::vector<std::uint64_t> value(net.node_count(), 0);
    for (std::size_t i = 0; i < net.inputs().size(); ++i) value[net.inputs()[i]] = input_words[i];

    for (NodeId id = 0; id < net.node_count(); ++id) {
        const Node& n = net.node(id);
        if (n.kind != NodeKind::Logic) continue;
        // Evaluate the SOP 64 patterns at a time: a cube contributes pattern
        // k iff every literal is satisfied in bit k.
        std::uint64_t acc = 0;
        for (const Cube& c : n.function.cubes) {
            std::uint64_t cube_val = ~std::uint64_t{0};
            std::uint64_t care = c.care;
            while (care != 0) {
                const unsigned i = static_cast<unsigned>(std::countr_zero(care));
                care &= care - 1;
                const std::uint64_t lit = value[n.fanins[i]];
                cube_val &= ((c.polarity >> i) & 1) ? lit : ~lit;
                if (cube_val == 0) break;
            }
            acc |= cube_val;
            if (acc == ~std::uint64_t{0}) break;
        }
        value[id] = n.function.complement ? ~acc : acc;
    }
    return value;
}

std::vector<std::uint64_t> simulate_random(const Network& net, std::size_t blocks,
                                           std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint64_t> out;
    out.reserve(blocks * net.outputs().size());
    std::vector<std::uint64_t> ins(net.inputs().size());
    for (std::size_t b = 0; b < blocks; ++b) {
        for (auto& w : ins) w = rng.next_u64();
        const auto value = simulate_block(net, ins);
        for (const PrimaryOutput& po : net.outputs()) out.push_back(value[po.driver]);
    }
    return out;
}

StatusOr<bool> equivalent_random_checked(const Network& a, const Network& b,
                                         std::size_t blocks, std::uint64_t seed) {
    LILY_ASSIGN_OR_RETURN(const InterfaceAlignment align, align_interfaces(a, b));

    Rng rng(seed);
    std::vector<std::uint64_t> ins_a(a.inputs().size());
    std::vector<std::uint64_t> ins_b(b.inputs().size());
    for (std::size_t blk = 0; blk < blocks; ++blk) {
        for (auto& w : ins_a) w = rng.next_u64();
        for (std::size_t i = 0; i < ins_b.size(); ++i) ins_b[i] = ins_a[align.pi_of_b[i]];
        const auto va = simulate_block(a, ins_a);
        const auto vb = simulate_block(b, ins_b);
        for (std::size_t i = 0; i < b.outputs().size(); ++i) {
            const std::uint64_t wa = va[a.outputs()[align.po_of_b[i]].driver];
            const std::uint64_t wb = vb[b.outputs()[i].driver];
            if (wa != wb) return false;
        }
    }
    return true;
}

}  // namespace lily
