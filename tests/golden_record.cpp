// Rewrites the golden corpora under tests/golden/ from the current build.
//
// The corpora pin ISP, the graph kernels, the Timeline engine and the
// path-LP consumers; run this only after an intentional behaviour change
// and review every changed record before committing:
//
//   cmake --build build --target netrec_golden_record
//   build/netrec_golden_record
//   git diff tests/golden
#include <cstdio>
#include <exception>

#include "golden.hpp"

namespace {

using namespace netrec;

constexpr const char* kRegenerate =
    "#\n"
    "# Regenerate ONLY after an intentional behaviour change, then review\n"
    "# every changed record:\n"
    "#   cmake --build build --target netrec_golden_record\n"
    "#   build/netrec_golden_record\n"
    "#   git diff tests/golden\n";

std::vector<test::GoldenCase> isp_golden_cases() {
  std::vector<test::GoldenCase> cases;
  for (const test::IspCase& c : test::isp_cases()) {
    cases.push_back(
        {c.key, [c] { return test::isp_record(c.problem(), c.options); }});
  }
  return cases;
}

}  // namespace

int main() {
  try {
    test::write_golden(
        test::kIspCorpus,
        std::string(
            "# ISP golden corpus (paper Section IV): one record per seeded\n"
            "# scenario and option combination (tests/golden.hpp:\n"
            "# isp_cases, isp_record), checked by\n"
            "# tests/test_isp_differential.cpp.  First recorded while three\n"
            "# ISP implementations (callback kernels, cached views with\n"
            "# one-shot LPs, cached views with persistent LP sessions)\n"
            "# agreed exactly on every record.\n"
            "#\n"
            "# Fields: repairs in decision order, solver counters, objective\n"
            "# and referee routing as hex-floats (%a), feasibility, and the\n"
            "# traced event count with an FNV-1a-64 digest of (kind, demand,\n"
            "# node, edge, amount bits) over the event stream.\n") +
            kRegenerate,
        isp_golden_cases());
    test::write_golden(
        test::kGraphKernels,
        std::string(
            "# Graph-kernel golden corpus: Dijkstra trees (FNV-1a-64 digest\n"
            "# of distance bits and parent edges), widest paths, Brandes\n"
            "# betweenness, Dinic max flows and successive shortest paths on\n"
            "# seeded broken ER and Bell-Canada graphs (tests/golden.hpp:\n"
            "# graph_kernel_cases), checked by tests/test_graph_view.cpp.\n"
            "# First recorded while the CSR GraphView kernels and the\n"
            "# callback reference kernels agreed exactly.\n"
            "#\n"
            "# `topology` records pin what the generators and the GML loader\n"
            "# build: sizes, FNV-1a-64 digests of every node column (name,\n"
            "# x, y, cost, broken) and edge column (u, v, capacity, cost,\n"
            "# broken), and of each node's incident-edge order.  First\n"
            "# recorded while Graph still had an incremental add_node /\n"
            "# add_edge construction path next to graph::Builder.\n") +
            kRegenerate,
        test::graph_kernel_cases());
    test::write_golden(
        test::kTimelineRestoration,
        std::string(
            "# Timeline golden corpus: restoration curves of staged recovery\n"
            "# under aftershock and cascade dynamics (tests/golden.hpp:\n"
            "# timeline_cases), checked by tests/test_recovery_timeline.cpp.\n"
            "# First recorded while the persistent-session and one-shot LP\n"
            "# measurements agreed exactly.\n") +
            kRegenerate,
        test::timeline_cases());
    test::write_golden(
        test::kLpCorpus,
        std::string(
            "# Path-LP consumer golden corpus (tests/golden.hpp: lp_cases),\n"
            "# checked by tests/test_mcf.cpp (LpGolden).  `eager` records\n"
            "# (Bell-Canada and ER, every master under the eager capacity-row\n"
            "# threshold) pin, as hex-floats: max_routed_flow on the working\n"
            "# view, route_demands and max_routed_flow on the full graph\n"
            "# (verdict, total, per-demand routed, FNV-1a-64 digest of the\n"
            "# flows), min_broken_usage (eq. 8 cost, flow digest, implied\n"
            "# repairs), six explore_optimal_face samples, the feasibility\n"
            "# verdict, the scored ISP plan and schedule_repairs'\n"
            "# restored_after series with greedy and exact scoring.  `lazy`\n"
            "# records (CAIDA-like, lazy capacity rows) keep only what every\n"
            "# optimal LP vertex shares: verdicts, ISP's repairs in decision\n"
            "# order and their cost, objectives and satisfied fractions to\n"
            "# nine significant digits, and the schedule length.  First\n"
            "# recorded while the one-shot consumers still ran on a separate\n"
            "# one-shot LP class; they now run on one-use PathLpSession\n"
            "# masters.\n") +
            kRegenerate,
        test::lp_cases());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
