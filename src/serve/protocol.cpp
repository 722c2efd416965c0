#include "serve/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace netrec::serve {

namespace {

[[noreturn]] void bad_request(const std::string& why) {
  throw std::invalid_argument(why);
}

/// Non-negative integer field; JSON numbers are doubles, so integrality and
/// the 2^53 exact-representation ceiling are both checked.
std::uint64_t require_uint(const util::Json& value, const char* field,
                           std::uint64_t max_value) {
  if (value.type() != util::Json::Type::kNumber) {
    bad_request(std::string(field) + " must be a number");
  }
  const double d = value.as_number();
  if (!(d >= 0.0) || d != std::floor(d) || d >= 9007199254740992.0) {
    bad_request(std::string(field) + " must be a non-negative integer");
  }
  const auto out = static_cast<std::uint64_t>(d);
  if (out > max_value) {
    bad_request(std::string(field) + " out of range (max " +
                std::to_string(max_value) + ")");
  }
  return out;
}

/// Sorted, deduplicated id list; every id must reference an element of the
/// preloaded topology.
template <class Id>
std::vector<Id> parse_id_list(const util::Json& value, const char* field,
                              std::size_t element_count) {
  if (value.type() != util::Json::Type::kArray) {
    bad_request(std::string(field) + " must be an array of ids");
  }
  std::vector<Id> ids;
  ids.reserve(value.size());
  for (std::size_t i = 0; i < value.size(); ++i) {
    const std::uint64_t id = require_uint(value.at(i), field,
                                          element_count == 0
                                              ? 0
                                              : element_count - 1);
    if (element_count == 0) {
      bad_request(std::string(field) + ": topology has no such elements");
    }
    ids.push_back(static_cast<Id>(id));
  }
  if (!std::is_sorted(ids.begin(), ids.end())) {
    std::sort(ids.begin(), ids.end());
  }
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

template <class T>
void append_int(std::string& out, T value) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

/// Longest id text, "-2147483648".
constexpr std::size_t kMaxIdChars = 11;

/// Writes `label` and the comma-separated ids at `out`, which must have
/// room for label.size() + ids.size() * (kMaxIdChars + 1) bytes; returns
/// the new end.
char* write_ids(char* out, std::string_view label,
                const std::vector<std::int32_t>& ids) {
  out = std::copy(label.begin(), label.end(), out);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) *out++ = ',';
    out = std::to_chars(out, out + kMaxIdChars, ids[i]).ptr;
  }
  return out;
}

}  // namespace

const char* mode_name(PlanRequest::Mode mode) {
  return mode == PlanRequest::Mode::kIsp ? "isp" : "timeline";
}

const char* policy_name(PlanRequest::Policy policy) {
  return policy == PlanRequest::Policy::kReplay ? "replay" : "replan";
}

PlanRequest parse_plan_request(const util::Json& body,
                               const core::RecoveryProblem& baseline) {
  if (body.type() != util::Json::Type::kObject) {
    bad_request("request body must be a JSON object");
  }
  // Unknown keys are errors: a typo'd "broken_node" silently planning
  // against an undamaged network is exactly the failure mode strict
  // parsing exists to prevent.
  static const char* const kKnown[] = {"broken_nodes", "broken_edges",
                                       "mode",         "policy",
                                       "stage_budget", "max_stages",
                                       "seed"};
  for (const std::string& key : body.keys()) {
    bool known = false;
    for (const char* k : kKnown) known = known || key == k;
    if (!known) bad_request("unknown request field '" + key + "'");
  }

  PlanRequest request;
  const std::size_t num_nodes = baseline.graph.num_nodes();
  const std::size_t num_edges = baseline.graph.num_edges();
  if (body.contains("broken_nodes")) {
    request.broken_nodes = parse_id_list<graph::NodeId>(
        body.at("broken_nodes"), "broken_nodes", num_nodes);
  }
  if (body.contains("broken_edges")) {
    request.broken_edges = parse_id_list<graph::EdgeId>(
        body.at("broken_edges"), "broken_edges", num_edges);
  }
  if (body.contains("mode")) {
    const util::Json& mode = body.at("mode");
    if (mode.type() != util::Json::Type::kString) {
      bad_request("mode must be a string");
    }
    if (mode.as_string() == "isp") {
      request.mode = PlanRequest::Mode::kIsp;
    } else if (mode.as_string() == "timeline") {
      request.mode = PlanRequest::Mode::kTimeline;
    } else {
      bad_request("mode must be 'isp' or 'timeline', got '" +
                  mode.as_string() + "'");
    }
  }
  if (body.contains("policy")) {
    const util::Json& policy = body.at("policy");
    if (policy.type() != util::Json::Type::kString) {
      bad_request("policy must be a string");
    }
    if (policy.as_string() == "replay") {
      request.policy = PlanRequest::Policy::kReplay;
    } else if (policy.as_string() == "replan") {
      request.policy = PlanRequest::Policy::kReplan;
    } else {
      bad_request("policy must be 'replay' or 'replan', got '" +
                  policy.as_string() + "'");
    }
  }
  if (body.contains("stage_budget")) {
    request.stage_budget = static_cast<std::size_t>(
        require_uint(body.at("stage_budget"), "stage_budget", 1u << 20));
  }
  if (body.contains("max_stages")) {
    request.max_stages = static_cast<std::size_t>(
        require_uint(body.at("max_stages"), "max_stages", 4096));
    if (request.max_stages == 0) bad_request("max_stages must be >= 1");
  }
  if (body.contains("seed")) {
    request.seed = require_uint(body.at("seed"), "seed",
                                9007199254740991ULL);
  }
  return request;
}

std::string canonical_key(const PlanRequest& request) {
  std::string key = "v1|mode=";
  key += mode_name(request.mode);
  if (request.mode == PlanRequest::Mode::kTimeline) {
    // Timeline-only options join the key only when they affect the solve;
    // in kIsp mode two requests differing only in, say, the seed must share
    // one cache entry.
    key += "|policy=";
    key += policy_name(request.policy);
    key += "|budget=";
    append_int(key, request.stage_budget);
    key += "|stages=";
    append_int(key, request.max_stages);
    key += "|seed=";
    append_int(key, request.seed);
  }
  // The id lists are written in place into room sized for the widest ids,
  // then the string is trimmed to what was written.
  const std::size_t head = key.size();
  key.resize(head + 6 + (kMaxIdChars + 1) * (request.broken_nodes.size() +
                                             request.broken_edges.size()));
  char* out = write_ids(key.data() + head, "|n=", request.broken_nodes);
  out = write_ids(out, "|e=", request.broken_edges);
  key.resize(static_cast<std::size_t>(out - key.data()));
  return key;
}

std::string fingerprint(std::string_view key) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : key) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buf);
}

std::string fingerprint(const PlanRequest& request) {
  return fingerprint(canonical_key(request));
}

}  // namespace netrec::serve
