#include "heuristics/multicommodity.hpp"

namespace netrec::heuristics {

MulticommodityBand multicommodity_band(const core::RecoveryProblem& problem,
                                       std::size_t samples, util::Rng& rng,
                                       const mcf::PathLpOptions& lp) {
  MulticommodityBand band;
  const auto face = mcf::explore_optimal_face(problem.graph, problem.demands,
                                              samples, rng, lp);
  if (!face.feasible) return band;
  band.feasible = true;
  band.relaxation_cost = face.relaxation_cost;
  band.mcb_repairs = face.best_repairs;
  band.mcw_repairs = face.worst_repairs;
  return band;
}

}  // namespace netrec::heuristics
