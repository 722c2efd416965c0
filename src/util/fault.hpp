// Deterministic fault injection for chaos testing the serving stack.
//
// A fault *site* is a named program point — `FAULT_POINT("serve.recv")` —
// that normally does nothing: when the site is disarmed the macro compiles
// down to one relaxed atomic load (no counters, no locks), so sites can sit
// on hot paths permanently.  Arming happens from a spec string (netrecd's
// `--faults`, or arm() / ScopedArm in tests):
//
//   serve.recv=p0.1,engine.solve=every8,isp.deadline=once3
//
//   name=p<float>   fire each hit independently with probability <float>
//   name=every<N>   fire every Nth hit (N >= 1)
//   name=once<N>    fire exactly once, on the Nth hit
//
// Decisions are *deterministic*: a probability site hashes (seed, site
// name, per-site hit index), so a given spec + seed produces the same
// fire pattern on every run regardless of wall clock or scheduling of
// unrelated sites — the property the chaos tests' identity checks and the
// fault-matrix tests rely on.
//
// What a firing site does is the call site's choice.  The serving stack
// uses two conventions:
//   * throw InjectedFault — a recoverable failure (derives
//     std::runtime_error; the server maps it to 503 + Retry-After so
//     clients retry);
//   * throw InjectedCrash — a worker-killing failure.  Deliberately NOT a
//     std::exception: it flies past the generic catch(const std::exception&)
//     handlers in the request path and unwinds the whole worker, which is
//     exactly what the supervisor's respawn logic needs to see.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace netrec::util::fault {

/// Recoverable injected failure (see file header for the convention).
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& site)
      : std::runtime_error("injected fault at " + site) {}
};

/// Worker-killing injected failure; intentionally not a std::exception so
/// generic handlers cannot swallow it (only catch(...) sees it).
struct InjectedCrash {
  const char* site;
};

/// One named fault site.  Obtained via site(); never destroyed.
class Site {
 public:
  explicit Site(std::string name) : name_(std::move(name)) {}
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  const std::string& name() const { return name_; }

  /// Trigger kind (see the spec grammar in the file header).
  enum class Mode { kProbability, kEveryN, kOnceAt };

  /// True when this hit should fail.  Disarmed: one relaxed load, nothing
  /// else (hits are not even counted, so a disarmed site costs the same as
  /// a branch on a cached bool).
  bool fire() noexcept {
    if (!armed_.load(std::memory_order_relaxed)) return false;
    return fire_armed();
  }

  /// Hits observed while armed / hits that fired.  Approximate under
  /// concurrent traffic (relaxed counters), exact once traffic stops.
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t fired() const {
    return fired_.load(std::memory_order_relaxed);
  }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

 private:
  friend void arm(const std::string&, std::uint64_t);
  friend void disarm_all();

  bool fire_armed() noexcept;

  std::string name_;
  std::atomic<bool> armed_{false};
  // Trigger parameters; written by arm() (armed_ false during the write,
  // release-published by the armed_ store), read by fire_armed() behind an
  // acquire load.
  Mode mode_ = Mode::kProbability;
  double probability_ = 0.0;
  std::uint64_t n_ = 1;
  std::uint64_t seed_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> fired_{0};
};

/// Finds or creates the site with this name.  References stay valid forever
/// (sites are never destroyed), so call sites cache them in function-local
/// statics — that is what FAULT_POINT does.
Site& site(const char* name);

/// Parses and arms a spec (grammar in the file header).  Sites named in the
/// spec are (re)armed with fresh counters; sites not named keep their
/// current state.  Throws std::invalid_argument on malformed specs without
/// arming anything.
void arm(const std::string& spec, std::uint64_t seed = 1);

/// Disarms every site (counters are left readable for post-mortems).
void disarm_all();

struct SiteStats {
  std::string name;
  bool armed = false;
  std::uint64_t hits = 0;
  std::uint64_t fired = 0;
};

/// Snapshot of every site ever touched, in creation order.
std::vector<SiteStats> stats();

/// RAII arming for tests: arms the spec on construction, disarms every
/// site on destruction.
class ScopedArm {
 public:
  explicit ScopedArm(const std::string& spec, std::uint64_t seed = 1) {
    arm(spec, seed);
  }
  ~ScopedArm() { disarm_all(); }
  ScopedArm(const ScopedArm&) = delete;
  ScopedArm& operator=(const ScopedArm&) = delete;
};

}  // namespace netrec::util::fault

/// The canonical fault-site check: true when the named site fires this hit.
/// The Site lookup happens once per call site (function-local static); the
/// steady-state disarmed cost is a single relaxed atomic load.
#define FAULT_POINT(name_literal)                                  \
  ([]() noexcept -> bool {                                         \
    static ::netrec::util::fault::Site& fault_point_site =         \
        ::netrec::util::fault::site(name_literal);                 \
    return fault_point_site.fire();                                \
  }())
