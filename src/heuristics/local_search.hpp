// Redundant-repair elimination.
//
// Given any feasible repair set, repeatedly drop elements whose removal
// keeps the demand routable (most expensive first, newest first on ties).
// Polynomial (one routability test per candidate per pass) and never hurts:
// used to tighten ISP's output into the incumbent that seeds OPT's
// branch-and-bound, and as the final polish on every OPT result.
#pragma once

#include "core/problem.hpp"

namespace netrec::heuristics {

/// Returns a solution whose repair set is a (weak) subset of the input's,
/// rescored; the algorithm label gains a "+LS" suffix.  At most 3 passes
/// run over the candidates; a pass that drops nothing ends the search.
core::RecoverySolution reduce_repairs(const core::RecoveryProblem& problem,
                                      const core::RecoverySolution& solution);

}  // namespace netrec::heuristics
