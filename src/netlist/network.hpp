// The Boolean network: the technology-independent representation that enters
// technology mapping ("optimized logic equations" in the paper). Nodes carry
// SOP functions over their fanins; primary outputs reference driver nodes.
// Combinational only — every benchmark in the paper is combinational.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/sop.hpp"
#include "util/check.hpp"
#include "util/csr.hpp"
#include "util/status.hpp"
#include "util/version.hpp"

namespace lily {

struct NetDelta;

using NodeId = std::uint32_t;
inline constexpr NodeId kNullNode = std::numeric_limits<NodeId>::max();

enum class NodeKind : std::uint8_t {
    PrimaryInput,
    Logic,
};

struct Node {
    NodeKind kind = NodeKind::Logic;
    std::string name;
    std::vector<NodeId> fanins;
    Sop function;  // over `fanins`; unused for primary inputs
    std::vector<NodeId> fanouts;
    bool is_po_driver = false;
    /// Removed by an ECO delta: the slot is retained so ids stay stable,
    /// but decomposition, sweeps and checkers skip the node.
    bool dead = false;
};

struct PrimaryOutput {
    std::string name;
    NodeId driver = kNullNode;
};

/// Outcome of applying a delta: the network's new version plus the directly
/// edited nodes (callers expand to the fanout closure for dirty-cone work).
struct AppliedDelta {
    Version version = kNeverBuilt;
    std::vector<NodeId> touched;
};

/// Frozen flat-adjacency view of a Network: fanin and fanout edges in CSR
/// form (dead nodes keep empty rows). Graph walks that only need structure
/// — TFI/TFO closures, adapters — read this instead of chasing per-node
/// std::vector storage. Stamped with the structure generation it was built
/// from; Network::topology() rebuilds lazily after mutation.
struct NetworkTopology {
    Version built_from = kNeverBuilt;
    Csr<NodeId> fanins;
    Csr<NodeId> fanouts;

    std::size_t size() const { return fanins.node_count(); }
    std::span<const NodeId> fanins_of(NodeId v) const { return fanins.neighbors(v); }
    std::span<const NodeId> fanouts_of(NodeId v) const { return fanouts.neighbors(v); }
};

/// A combinational multi-level logic network.
class Network {
public:
    explicit Network(std::string name = "top") : name_(std::move(name)) {}

    const std::string& name() const { return name_; }
    void set_name(std::string n) { name_ = std::move(n); }

    // ---- construction -------------------------------------------------
    NodeId add_input(std::string name);
    NodeId add_node(std::string name, std::vector<NodeId> fanins, Sop function);
    void add_output(std::string name, NodeId driver);

    /// Convenience constructors for common gates (used by the circuit
    /// generators). Each creates one logic node.
    NodeId make_not(NodeId a, std::string name = {});
    NodeId make_buf(NodeId a, std::string name = {});
    NodeId make_and(std::span<const NodeId> ins, std::string name = {});
    NodeId make_or(std::span<const NodeId> ins, std::string name = {});
    NodeId make_nand(std::span<const NodeId> ins, std::string name = {});
    NodeId make_nor(std::span<const NodeId> ins, std::string name = {});
    NodeId make_xor(std::span<const NodeId> ins, std::string name = {});
    NodeId make_xnor(std::span<const NodeId> ins, std::string name = {});
    NodeId make_and2(NodeId a, NodeId b) { return make_and(std::array{a, b}); }
    NodeId make_or2(NodeId a, NodeId b) { return make_or(std::array{a, b}); }
    NodeId make_xor2(NodeId a, NodeId b) { return make_xor(std::array{a, b}); }
    NodeId make_mux(NodeId sel, NodeId when0, NodeId when1, std::string name = {});
    NodeId make_const(bool value, std::string name = {});

    // ---- access --------------------------------------------------------
    std::size_t node_count() const { return nodes_.size(); }
    const Node& node(NodeId id) const { return nodes_[id]; }
    Node& node(NodeId id) { return nodes_[id]; }
    std::span<const NodeId> inputs() const { return inputs_; }
    std::span<const PrimaryOutput> outputs() const { return outputs_; }

    bool is_dead(NodeId id) const { return nodes_[id].dead; }

    std::optional<NodeId> find_node(std::string_view name) const;

    /// All node ids in creation order (creation order is topological because
    /// fanins must exist before a node is added).
    std::vector<NodeId> topological_order() const;

    /// Nodes in the transitive fanin of `root`, including `root`, in
    /// topological order.
    std::vector<NodeId> transitive_fanin(NodeId root) const;

    /// Logic nodes only (no PIs), topological order.
    std::vector<NodeId> logic_nodes() const;

    std::size_t logic_node_count() const;
    std::size_t literal_count() const;
    std::size_t max_fanin() const;
    /// Longest PI->PO path measured in logic levels.
    std::size_t depth() const;

    /// Remove logic nodes that reach no primary output. Returns the number
    /// of nodes removed. Ids are invalidated; names are stable.
    std::size_t sweep();

    /// Structural invariants, reported under CheckStage::Network and never
    /// thrown: id order (a fanin at or after its reader is a cycle),
    /// fanin/fanout edge symmetry, out-of-range ids, dead nodes still
    /// connected or read, SOP fanin slots, PI fanins, PO drivers and the
    /// is_po_driver flag, empty and duplicate node names, duplicate output
    /// names. On a clean network it builds no strings and allocates only a
    /// set of the output names; cheap enough after every transformation.
    CheckReport check() const;

    // ---- change journal (ECO pipeline) ---------------------------------
    /// One journal record: the nodes directly edited under one version bump.
    struct JournalEntry {
        Version version = kNeverBuilt;
        std::vector<NodeId> touched;
    };

    /// Current generation. Starts at 1; every successful apply_delta bumps
    /// it, so a downstream artifact stamped with the version it was built
    /// from can detect staleness by comparison.
    Version version() const { return version_.value(); }

    /// Structure generation: bumped by every node allocation, sweep, and
    /// applied delta — anything that can change adjacency. Distinct from
    /// version(), which counts ECO deltas for the journal. Note that the
    /// non-const node() accessor is a mutation backdoor this counter cannot
    /// see; code editing fanins/fanouts directly (rather than through
    /// add_node/apply_delta/sweep) must not be mixed with topology().
    Version struct_version() const { return struct_version_.value(); }

    /// The frozen flat-adjacency view, rebuilt lazily when struct_version()
    /// moved. The warm path just compares stamps; cold builds are O(V + E).
    /// Not safe against a concurrent first build — freeze it from serial
    /// code before handing the network to parallel kernels.
    const NetworkTopology& topology() const;

    /// Apply an ordered list of ECO edits atomically: either every op
    /// validates and the network advances one version, or the network is
    /// left untouched and an error Status is returned. The touched node ids
    /// are journaled under the new version.
    StatusOr<AppliedDelta> apply_delta(const NetDelta& delta);

    /// All journal entries, oldest first (full-rebuild sentinels journal an
    /// empty touched list).
    std::span<const JournalEntry> journal() const { return journal_; }

    /// Union of nodes touched by every delta applied after `since`, sorted
    /// and deduplicated.
    std::vector<NodeId> touched_since(Version since) const;

private:
    NodeId allocate(Node n);
    std::string fresh_name(const char* prefix);

    std::string name_;
    std::vector<Node> nodes_;
    std::vector<NodeId> inputs_;
    std::vector<PrimaryOutput> outputs_;
    std::unordered_map<std::string, NodeId> by_name_;
    std::uint64_t next_auto_ = 0;
    VersionCounter version_;
    VersionCounter struct_version_;
    mutable std::shared_ptr<const NetworkTopology> topo_;  // stamped lazy cache
    std::vector<JournalEntry> journal_;
};

}  // namespace lily
