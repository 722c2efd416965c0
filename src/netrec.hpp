// netrec — network recovery after massive failures.
//
// Umbrella header for the public API.  Reproduces Bartolini, Ciavarella,
// La Porta & Silvestri, "Network Recovery After Massive Failures", DSN 2016.
//
// Typical flow:
//   core::RecoveryProblem problem;            // supply graph + demand graph
//   problem.graph = topology::make_topology(params);  // or graph::Builder
//   ... add problem.demands, mark broken elements ...
//   core::RecoverySolution plan = core::IspSolver(problem).solve();
//
// Baselines (heuristics::solve_srt / solve_grd_com / solve_grd_nc /
// solve_all / solve_opt) consume the same problem type and return the same
// solution type, scored by the shared LP referee.
#pragma once

#include "core/centrality.hpp"
#include "core/isp.hpp"
#include "core/problem.hpp"
#include "core/repair_state.hpp"
#include "disruption/disruption.hpp"
#include "graph/builder.hpp"
#include "graph/dijkstra.hpp"
#include "graph/gml.hpp"
#include "graph/graph.hpp"
#include "graph/maxflow.hpp"
#include "graph/path.hpp"
#include "graph/simple_paths.hpp"
#include "graph/traversal.hpp"
#include "heuristics/baselines.hpp"
#include "heuristics/local_search.hpp"
#include "heuristics/opt.hpp"
#include "heuristics/schedule.hpp"
#include "mcf/broken_usage.hpp"
#include "mcf/routing.hpp"
#include "mcf/split.hpp"
#include "mcf/types.hpp"
#include "recovery/dynamics.hpp"
#include "recovery/policies.hpp"
#include "recovery/timeline.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "scenario/timeline_runner.hpp"
#include "steiner/steiner.hpp"
#include "topology/generator.hpp"
#include "topology/topologies.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
