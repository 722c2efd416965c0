// Iterative Split and Prune (paper Section IV) — the primary contribution.
//
// ISP repeatedly:
//   1. tests routability of the current demand over the working-or-repaired
//      subgraph G(n) (termination condition);
//   2. PRUNES demands routable over working "bubbles" (Theorem 3), consuming
//      residual capacity and shrinking the instance.  The bubble test
//      (core/bubble.hpp) is bounded by the bubble, not the graph: it fails
//      at the first interior node next to another demand's endpoint or an
//      unrepaired broken node, and checks the boundary of the bubble's
//      members only;
//   3. repairs broken supply edges that directly connect still-unsatisfiable
//      demand endpoints (Section IV-E);
//   4. otherwise SPLITS: picks the node v_BC with highest demand-based
//      centrality (repairing it if broken), selects the contributing demand
//      hardest to route elsewhere (decision 1) and splits the LP-maximal
//      amount dx through v_BC (decision 2).
//
// Invariant maintained by every action: the (rewritten) demand stays
// routable on the full graph with current residual capacities — i.e. the
// instance stays solvable if everything remaining were repaired (Theorem 4's
// premise).  The solver checks that premise only when the loop stops
// unrouted (max_iterations, or the watchdog gives up): it then runs
// RecoveryProblem::feasible_when_fully_repaired() and, if that fails,
// clears RecoverySolution::instance_feasible and logs a warning.  A loop
// that ends routed has proved the premise, because the pruned flows and
// the routed remainder carry the original demand on a subgraph of the
// full graph (split halves rejoin at their v_BC).
//
// The implementation adds a watchdog that force-repairs along a cheapest
// path when an iteration makes no progress.  It is not a step of
// the paper's ISP, and it fires often: in 52 of the 80 ER and
// Bell-Canada records of tests/golden/isp_corpus.txt and in all 17 of its
// netrec-bench preload records, about 8 times per solve on the CAIDA-like
// instance (825 nodes, 20% damage) of netrec-bench's plan_fresh,
// because the split scan gives up after 8 candidates (kSplitCandidates in
// isp.cpp).  It also guarantees termination on adversarial input.
//
// One engine runs the loop: a graph::ViewCache keeps the working, full and
// metric snapshots alive across iterations (residual updates refresh them,
// repairs rebuild exactly the slots whose membership changed), and two
// persistent mcf::PathLpSession masters answer the routability and split
// probes with pooled columns and warm bases (their tolerances and the
// 160-edge eager/lazy capacity-row rule are fixed in
// mcf/path_lp_session.cpp).  tests/golden/isp_corpus.txt
// freezes its outputs on seeded scenarios; the corpus was recorded while
// this engine agreed bit for bit with the callback-kernel and one-shot-LP
// implementations it replaced.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "core/centrality.hpp"
#include "core/problem.hpp"
#include "util/timer.hpp"

namespace netrec::core {

/// Thrown by IspSolver::solve when IspOptions::deadline expires (or the
/// "isp.deadline" fault site fires).  serve::PlanningEngine catches it and
/// degrades to the heuristic fallback plan instead of hanging the worker.
class DeadlineExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct IspOptions {
  std::size_t max_iterations = 5000;
  /// Dynamic metric `const` (length of a working link, Section IV-D).
  double metric_const = 1.0;
  /// Ablation toggles (see bench/ablation).
  bool enable_prune = true;
  bool enable_direct_edge_repair = true;
  /// Rank split candidates by classic Brandes betweenness instead of the
  /// paper's demand-based centrality (Section IV-B ablation).
  bool use_classic_betweenness = false;
  /// Multiplicative random perturbation of the dynamic metric in
  /// [1, 1 + length_jitter] per edge; 0 disables.  Used by OPT's randomised
  /// ISP restarts to diversify solutions on instances too large for MILP.
  double length_jitter = 0.0;
  std::uint64_t jitter_seed = 1;
  /// Intra-solve parallelism: fans the independent per-demand kernels of
  /// ONE solve out on a thread pool — centrality path enumeration (one
  /// task per demand source, its shared tree included), LP seed
  /// enumeration for unpooled endpoint pairs, per-binding LP pricing
  /// Dijkstras, the split phase's full-graph max flows, the watchdog's
  /// per-demand working-graph max flows and the final scoring LP
  /// (score_solution).  Each computes into per-task slots; every merge
  /// runs serially in a fixed order (demand, row or job order), so the
  /// solve is bit-identical to the serial one at any thread count.
  /// netrecd's engine and the Timeline policies also hand this pool to
  /// heuristics::schedule_repairs.  `pool`
  /// borrows a caller-owned pool (must outlive the solve; scenario runners
  /// share one across solves); when null and solve_threads != 1 the solver
  /// owns a private pool for the solve's duration (0 = auto: NETREC_THREADS
  /// or hardware concurrency).  The default, solve_threads == 1 with no
  /// pool, is the all-serial reference.
  util::ThreadPool* pool = nullptr;
  std::size_t solve_threads = 1;
  /// Cooperative solve deadline, checked once at the top of every ISP
  /// iteration (the phases themselves run to completion, so the overshoot
  /// is one iteration's work).  Non-owning — the caller's Deadline must
  /// outlive the solve; null means no limit.  On expiry solve() throws
  /// DeadlineExceeded.
  const util::Deadline* deadline = nullptr;
};

/// One algorithm action, for tracing/examples.
struct IspEvent {
  enum class Kind {
    kPrune,
    kRepairNode,
    kRepairEdge,
    kSplit,
    kWatchdog,
  };
  Kind kind;
  int demand = -1;           ///< dynamic demand index (kPrune/kSplit)
  graph::NodeId node = graph::kInvalidNode;
  graph::EdgeId edge = graph::kInvalidEdge;
  double amount = 0.0;

  std::string to_string() const;
};

struct IspStats {
  std::size_t iterations = 0;
  std::size_t prunes = 0;
  std::size_t splits = 0;
  std::size_t direct_edge_repairs = 0;
  std::size_t watchdog_activations = 0;
  std::vector<IspEvent> events;  ///< populated when options trace enabled
};

class IspSolver {
 public:
  IspSolver(const RecoveryProblem& problem, IspOptions options = {});

  /// Runs ISP to completion and returns the scored solution.
  RecoverySolution solve();

  /// Statistics of the last solve() call.
  const IspStats& stats() const { return stats_; }

  /// Enables event tracing (off by default; events cost memory).
  void set_trace(bool on) { trace_ = on; }

 private:
  const RecoveryProblem& problem_;
  IspOptions opt_;
  IspStats stats_;
  bool trace_ = false;
};

}  // namespace netrec::core
