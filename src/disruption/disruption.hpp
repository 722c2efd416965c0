// Disruption models (paper Section VII).
//
// Complete destruction is the stress case of Sections VII-A1/A2; the
// geographically-correlated bi-variate Gaussian model drives Section VII-A3:
// elements fail with probability that decays with distance from the
// epicentre, with the variance sweep scaled so larger variance produces
// strictly larger disasters — at the top of the paper's sweep (variance
// ~150) the network is almost completely destroyed.
//
// The Gaussian model normalises the scene so the farthest node sits at
// distance 15 from the barycentre; failure probability is
//   p(d) = min(1, (variance / 50) * exp(-d^2 / 2 variance)).
// The first factor is the paper's "scaled the probability accordingly";
// README's "Where netrec departs from the paper" records this
// interpretation.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "mcf/types.hpp"
#include "util/rng.hpp"

namespace netrec::disruption {

/// Marks every node and edge broken.
void complete_destruction(graph::Graph& g);

struct GaussianDisasterOptions {
  double variance = 50.0;
  /// Epicentre in original coordinates; defaults to the node barycentre.
  std::optional<std::pair<double, double>> epicenter;
};

struct DisruptionReport {
  std::size_t broken_nodes = 0;
  std::size_t broken_edges = 0;
  std::size_t total() const { return broken_nodes + broken_edges; }
};

/// Applies the Gaussian disaster; returns how much broke.  Existing broken
/// flags are preserved (failures accumulate).
DisruptionReport gaussian_disaster(graph::Graph& g,
                                   const GaussianDisasterOptions& options,
                                   util::Rng& rng);

/// Uniformly random failures: each element breaks independently.
DisruptionReport random_failures(graph::Graph& g, double node_probability,
                                 double edge_probability, util::Rng& rng);

// --- recovery-time dynamics --------------------------------------------------
//
// The paper applies one disaster and plans once; the recovery::Timeline
// engine keeps the disaster evolving while crews repair.  AftershockProcess
// and CascadeModel are the two stochastic-process building blocks it plugs
// in: a decaying sequence of gaussian_disaster draws (Omori-style magnitude
// decay) and a capacity-overload cascade in the style of Motter & Lai,
// where surviving traffic concentrates on the remaining edges and breaks
// the overloaded ones.

struct AftershockOptions {
  /// Parameters of the first aftershock.  `first.variance` is the initial
  /// magnitude; the failure-probability peak scales with the variance (the
  /// gaussian_disaster scaling rule), so a decaying variance makes shocks
  /// shrink in both radius and intensity.
  GaussianDisasterOptions first;
  /// Variance multiplier per shock (magnitude decay), in (0, 1].
  double decay = 0.5;
  /// The sequence ends after this many shocks...
  std::size_t max_shocks = 3;
  /// ...or earlier, once the decayed variance drops below this floor.
  double min_variance = 1e-3;
};

/// A decaying-magnitude sequence of gaussian_disaster draws.  Each next()
/// call applies one aftershock to the graph (failures accumulate; existing
/// broken flags are never cleared) and decays the magnitude.  Stateful and
/// single-sequence: construct one process per disaster scenario.
class AftershockProcess {
 public:
  explicit AftershockProcess(AftershockOptions options = {});

  /// True once the sequence has ended; next() is a no-op from then on.
  bool exhausted() const;

  /// Magnitude (variance) the next shock would use.
  double current_variance() const { return variance_; }
  std::size_t shocks_fired() const { return fired_; }

  /// Applies the next aftershock; returns what broke (empty when
  /// exhausted).
  DisruptionReport next(graph::Graph& g, util::Rng& rng);

 private:
  AftershockOptions opt_;
  double variance_ = 0.0;
  std::size_t fired_ = 0;
};

struct CascadeOptions {
  /// An edge breaks when its re-routed load exceeds
  /// overload_factor * capacity (strictly, beyond a 1e-9 tolerance).
  double overload_factor = 1.0;
};

/// Capacity-overload cascade: each round routes every demand fully along
/// its shortest operational path — capacity-*oblivious*, modelling traffic
/// that concentrates on the surviving infrastructure instead of being
/// admission-controlled — sums per-edge loads, and breaks every operational
/// edge whose load exceeds overload_factor * capacity.  Broken edges force
/// re-routing, which may overload further edges; rounds repeat until no
/// edge breaks (or 8 rounds).  Deterministic given graph and demands;
/// only edges break (a broken edge is equipment overload, a node outage is
/// not this model's failure mode).
class CascadeModel {
 public:
  explicit CascadeModel(CascadeOptions options = {});

  /// Runs the cascade to quiescence; returns the total breakage.
  DisruptionReport advance(graph::Graph& g,
                           const std::vector<mcf::Demand>& demands);

 private:
  CascadeOptions opt_;
};

}  // namespace netrec::disruption
