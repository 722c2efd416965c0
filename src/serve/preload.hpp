// The problem netrecd preloads at startup, described by command-line flags.
//
// netrecd declares these flags and builds its problem with
// build_preloaded_problem().  Any other program that must plan over the
// exact instance a daemon serves (tests/test_netrecd.cpp compares every
// served plan with a direct solve) builds it from the same flag values:
// generators and demand placement are seeded and file loads are
// deterministic, so equal flags give a bit-identical RecoveryProblem.
//
//   --topology  generator family (bell_canada | erdos_renyi | caida | rmat |
//               barabasi_albert, plus the er/ba shorthands), or "gml:<path>" /
//               "ntb:<path>" to load a file
//   --topo-seed generator seed (ignored for file loads)
//   --pairs     number of far-apart demand pairs placed on the topology
//   --demand    demand volume per pair
//   --demand-seed  seed for demand placement
//
// ISP is defined only for instances that become feasible once every
// element is repaired (Theorem 4's premise), so an instance that fails
// that check is refused rather than served.
#pragma once

#include "core/problem.hpp"
#include "util/flags.hpp"

namespace netrec::serve {

/// Declares the preload flags with their defaults (bell_canada, 8 pairs of
/// 8 demand, seeds 1/7), a feasible instance.
void declare_preload_flags(util::Flags& flags);

/// Builds the problem the flags describe.  Throws std::invalid_argument on
/// a malformed --topology spec, and std::runtime_error on unreadable files
/// or when the demands cannot all be routed even with every element
/// repaired (the message names the topology, pair count and demand).
core::RecoveryProblem build_preloaded_problem(const util::Flags& flags);

/// One-line human description of what was loaded ("bell_canada seed=1,
/// 48 nodes / 64 edges, 8 demands"), for startup logs.
std::string describe_preload(const core::RecoveryProblem& problem,
                             const util::Flags& flags);

}  // namespace netrec::serve
