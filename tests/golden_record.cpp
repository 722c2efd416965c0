// Rewrites the golden corpora under tests/golden/ from the current build.
//
// The corpora pin ISP, the graph kernels and the Timeline engine bit for
// bit; run this only after an intentional behaviour change and review every
// changed record before committing:
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
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
