#include "util/fault.hpp"

#include <deque>
#include <mutex>

namespace netrec::util::fault {

namespace {

/// SplitMix64 — the same portable mixer Rng seeds with; good avalanche, so
/// (seed, hit) -> uniform double is safe even for sequential hit indices.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Sites live forever in a deque (stable addresses, no relocation on
/// growth) so FAULT_POINT can cache references in function-local statics.
struct Registry {
  std::mutex mutex;
  std::deque<Site> sites;
};

Registry& registry() {
  static Registry* instance = new Registry();  // leaked: outlives statics
  return *instance;
}

struct ParsedTrigger {
  Site::Mode mode = Site::Mode::kProbability;
  double probability = 0.0;
  std::uint64_t n = 1;
};

}  // namespace

bool Site::fire_armed() noexcept {
  // Re-load with acquire to synchronise with arm()'s release publish of the
  // trigger parameters; the relaxed fast path in fire() already returned
  // for the (overwhelmingly common) disarmed case.
  if (!armed_.load(std::memory_order_acquire)) return false;
  const std::uint64_t hit = hits_.fetch_add(1, std::memory_order_relaxed);
  bool fail = false;
  switch (mode_) {
    case Mode::kProbability: {
      const std::uint64_t bits = splitmix64(seed_ ^ splitmix64(hit));
      const double u =
          static_cast<double>(bits >> 11) * 0x1.0p-53;  // uniform [0,1)
      fail = u < probability_;
      break;
    }
    case Mode::kEveryN:
      fail = (hit + 1) % n_ == 0;
      break;
    case Mode::kOnceAt:
      fail = (hit + 1) == n_;
      break;
  }
  if (fail) fired_.fetch_add(1, std::memory_order_relaxed);
  return fail;
}

Site& site(const char* name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (Site& s : reg.sites) {
    if (s.name() == name) return s;
  }
  return reg.sites.emplace_back(std::string(name));
}

namespace {

ParsedTrigger parse_trigger(const std::string& site_name,
                            const std::string& value) {
  auto fail = [&](const std::string& why) -> ParsedTrigger {
    throw std::invalid_argument("fault spec '" + site_name + "=" + value +
                                "': " + why);
  };
  if (value.empty()) return fail("empty trigger");
  ParsedTrigger trigger;
  std::size_t consumed = 0;
  try {
    if (value[0] == 'p') {
      trigger.mode = Site::Mode::kProbability;
      trigger.probability = std::stod(value.substr(1), &consumed);
      consumed += 1;
      if (trigger.probability < 0.0 || trigger.probability > 1.0) {
        return fail("probability must be in [0, 1]");
      }
    } else if (value.rfind("every", 0) == 0) {
      trigger.mode = Site::Mode::kEveryN;
      trigger.n = std::stoull(value.substr(5), &consumed);
      consumed += 5;
    } else if (value.rfind("once", 0) == 0) {
      trigger.mode = Site::Mode::kOnceAt;
      trigger.n = std::stoull(value.substr(4), &consumed);
      consumed += 4;
    } else {
      return fail("expected p<float>, every<N> or once<N>");
    }
  } catch (const std::invalid_argument&) {
    return fail("malformed number");
  } catch (const std::out_of_range&) {
    return fail("number out of range");
  }
  if (consumed != value.size()) return fail("trailing characters");
  if (trigger.mode != Site::Mode::kProbability && trigger.n == 0) {
    return fail("N must be >= 1");
  }
  return trigger;
}

}  // namespace

void arm(const std::string& spec, std::uint64_t seed) {
  // Parse the whole spec before touching any site so a malformed tail
  // cannot leave a half-armed registry.
  std::vector<std::pair<std::string, ParsedTrigger>> parsed;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string token = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("fault spec token '" + token +
                                  "': expected <site>=<trigger>");
    }
    const std::string name = token.substr(0, eq);
    parsed.emplace_back(name, parse_trigger(name, token.substr(eq + 1)));
  }

  for (const auto& [name, trigger] : parsed) {
    Site& s = site(name.c_str());
    // Disarm while rewriting the trigger so a concurrent fire() either sees
    // the old armed state or the new one, never a torn mix.
    s.armed_.store(false, std::memory_order_release);
    s.mode_ = trigger.mode;
    s.probability_ = trigger.probability;
    s.n_ = trigger.n;
    s.seed_ = splitmix64(seed ^ fnv1a(name));
    s.hits_.store(0, std::memory_order_relaxed);
    s.fired_.store(0, std::memory_order_relaxed);
    s.armed_.store(true, std::memory_order_release);
  }
}

void disarm_all() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (Site& s : reg.sites) {
    s.armed_.store(false, std::memory_order_release);
  }
}

std::vector<SiteStats> stats() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<SiteStats> out;
  out.reserve(reg.sites.size());
  for (const Site& s : reg.sites) {
    out.push_back({s.name(), s.armed(), s.hits(), s.fired()});
  }
  return out;
}

}  // namespace netrec::util::fault
