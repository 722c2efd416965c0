// serve:: — the netrecd planning service.
//
// The load-bearing suites:
//   * ServeProtocol* — strict request parsing (unknown keys, bad ids and
//     malformed options are hard 400s, never silent no-ops) and the
//     canonical-key contract: order, duplicates and spelled-out defaults
//     must not split cache entries; anything the solve depends on must.
//   * ServeEngine* — payload determinism: the engine's output is a pure
//     function of the request (two engines, or one engine twice, dump
//     byte-identical results), and damage state never leaks between
//     requests.
//   * ServeServer* — HTTP round-trips against a real socket server:
//     routing, error mapping, metrics, the shutdown endpoint, and the
//     cache-hit-is-bit-identical guarantee on the wire.
//   * ServeGolden* — the request path byte for byte against
//     tests/golden/serve_corpus.txt: body dump, canonical key, fingerprint
//     and the solved payload's digest for seeded damage states.
//   * ServeConcurrency* — N client threads firing mixed cached/uncached
//     requests at a multi-worker server; every response must be
//     bit-identical to a serial direct solve.  Runs under the sanitizer CI
//     like every other suite.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "golden.hpp"
#include "serve/engine.hpp"
#include "serve/http.hpp"
#include "serve/metrics.hpp"
#include "serve/plan_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace netrec;

util::Json plan_body(std::vector<int> nodes, std::vector<int> edges) {
  util::Json body = util::Json::object();
  util::Json n = util::Json::array();
  for (int id : nodes) n.push_back(id);
  util::Json e = util::Json::array();
  for (int id : edges) e.push_back(id);
  body.set("broken_nodes", std::move(n));
  body.set("broken_edges", std::move(e));
  return body;
}

// ---------------------------------------------------------------------------
// Protocol: strict parsing.

TEST(ServeProtocol, ParsesAndCanonicalisesIdLists) {
  const core::RecoveryProblem p = test::serve_bell_problem();
  util::Json body = util::Json::object();
  util::Json nodes = util::Json::array();
  for (int id : {7, 3, 7, 1}) nodes.push_back(id);
  body.set("broken_nodes", std::move(nodes));
  const serve::PlanRequest request = serve::parse_plan_request(body, p);
  EXPECT_EQ(request.broken_nodes,
            (std::vector<graph::NodeId>{1, 3, 7}));  // sorted, deduped
  EXPECT_TRUE(request.broken_edges.empty());
  EXPECT_EQ(request.mode, serve::PlanRequest::Mode::kIsp);
}

TEST(ServeProtocol, RejectsUnknownFields) {
  const core::RecoveryProblem p = test::serve_bell_problem();
  util::Json body = plan_body({1}, {});
  body.set("broken_node", util::Json::array());  // typo'd key
  EXPECT_THROW(serve::parse_plan_request(body, p), std::invalid_argument);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  const core::RecoveryProblem p = test::serve_bell_problem();
  EXPECT_THROW(serve::parse_plan_request(util::Json(3.0), p),
               std::invalid_argument);
  {
    util::Json body = util::Json::object();
    body.set("broken_nodes", "all");  // not an array
    EXPECT_THROW(serve::parse_plan_request(body, p), std::invalid_argument);
  }
  {
    util::Json body = util::Json::object();
    util::Json nodes = util::Json::array();
    nodes.push_back(1.5);  // non-integer id
    body.set("broken_nodes", std::move(nodes));
    EXPECT_THROW(serve::parse_plan_request(body, p), std::invalid_argument);
  }
  {
    util::Json body = util::Json::object();
    util::Json nodes = util::Json::array();
    nodes.push_back(static_cast<double>(p.graph.num_nodes()));  // off by one
    body.set("broken_nodes", std::move(nodes));
    EXPECT_THROW(serve::parse_plan_request(body, p), std::invalid_argument);
  }
  {
    util::Json body = util::Json::object();
    body.set("mode", "magic");
    EXPECT_THROW(serve::parse_plan_request(body, p), std::invalid_argument);
  }
  {
    util::Json body = util::Json::object();
    body.set("max_stages", 0);
    EXPECT_THROW(serve::parse_plan_request(body, p), std::invalid_argument);
  }
}

TEST(ServeProtocol, MutatedBodiesParseOrThrowCleanly) {
  // Seeded single-byte replacements, insertions and truncations of a real
  // request body: each must either decode or fail with the decoder's
  // documented exceptions — never crash, hang or throw anything else.
  const core::RecoveryProblem p = test::serve_caida_problem();
  const std::string body =
      test::serve_request_body(p, 0.2, 1, 0, "isp", 0, 0).dump();
  ASSERT_GT(body.size(), 1000u);
  static constexpr char kInteresting[] = "0123456789-+.eE,[]{}\":\\ \tnu";
  util::Rng rng(104729);
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 10000; ++trial) {
    std::string mutated = body;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(body.size()) - 1));
    const auto byte = static_cast<char>(
        rng.chance(0.5) ? kInteresting[rng.uniform_int(
                              0, sizeof(kInteresting) - 2)]
                        : rng.uniform_int(0, 255));
    switch (rng.uniform_int(0, 3)) {
      case 0:
        mutated.resize(pos);  // truncation
        break;
      case 1:
        mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(pos),
                       byte);
        break;
      default:
        mutated[pos] = byte;
    }
    try {
      serve::parse_plan_request(util::Json::parse(mutated), p);
      ++decoded;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(decoded + rejected, 10000u);
  EXPECT_GT(decoded, 100u);   // mutations inside ids and whitespace survive
  EXPECT_GT(rejected, 1000u);  // structural damage is caught
}

TEST(ServeProtocol, CanonicalKeyIgnoresOrderAndTimelineFieldsInIspMode) {
  const core::RecoveryProblem p = test::serve_bell_problem();
  const serve::PlanRequest a =
      serve::parse_plan_request(plan_body({5, 2}, {1}), p);
  const serve::PlanRequest b =
      serve::parse_plan_request(plan_body({2, 5, 5}, {1}), p);
  EXPECT_EQ(serve::canonical_key(a), serve::canonical_key(b));
  EXPECT_EQ(serve::fingerprint(a), serve::fingerprint(b));

  // In kIsp mode the timeline-only options must not split cache entries.
  util::Json with_seed = plan_body({5, 2}, {1});
  with_seed.set("seed", 99);
  const serve::PlanRequest c = serve::parse_plan_request(with_seed, p);
  EXPECT_EQ(serve::canonical_key(a), serve::canonical_key(c));

  // Different damage -> different key.
  const serve::PlanRequest d =
      serve::parse_plan_request(plan_body({5}, {1}), p);
  EXPECT_NE(serve::canonical_key(a), serve::canonical_key(d));
}

TEST(ServeProtocol, CanonicalKeyCoversTimelineOptions) {
  const core::RecoveryProblem p = test::serve_bell_problem();
  util::Json base = plan_body({4}, {});
  base.set("mode", "timeline");
  const serve::PlanRequest a = serve::parse_plan_request(base, p);

  util::Json seeded = plan_body({4}, {});
  seeded.set("mode", "timeline");
  seeded.set("seed", 99);
  const serve::PlanRequest b = serve::parse_plan_request(seeded, p);
  EXPECT_NE(serve::canonical_key(a), serve::canonical_key(b));

  util::Json budgeted = plan_body({4}, {});
  budgeted.set("mode", "timeline");
  budgeted.set("stage_budget", 3);
  const serve::PlanRequest c = serve::parse_plan_request(budgeted, p);
  EXPECT_NE(serve::canonical_key(a), serve::canonical_key(c));
}

// ---------------------------------------------------------------------------
// Golden: body bytes, canonical key, fingerprint and payload digest.

void expect_serve_golden(const std::string& prefix) {
  for (const std::string& diff :
       test::golden_diffs(test::kServeCorpus, test::serve_cases(), prefix)) {
    ADD_FAILURE() << diff;
  }
}

TEST(ServeGolden, BellCanadaRequestPathMatchesCorpus) {
  expect_serve_golden("bell-canada ");
}

TEST(ServeGolden, CaidaRequestPathMatchesCorpus) {
  expect_serve_golden("caida ");
}

// plan_scale serves at 2 solve threads: the engine's pool reaches the ISP
// kernels, the repair schedule and the Timeline's session, and every record
// must stay the same.
TEST(ServeGolden, TwoSolveThreadsMatchCorpus) {
  for (const std::string& diff :
       test::golden_diffs(test::kServeCorpus, test::serve_cases(2), "")) {
    ADD_FAILURE() << diff;
  }
}

// plan_scale's own preload, BA-2000, as its worker serves it (2 solve
// threads): its schedules run several greedy rounds, so the pooled scoring
// LP, the schedule's route fan-out and greedy routing's speculative first
// paths all run.  Every payload must equal the serial engine's byte for
// byte, in isp mode and under both Timeline policies.
TEST(ServeThreads, Ba2000PayloadsMatchSerial) {
  const core::RecoveryProblem p = test::ba2000_problem();
  serve::PlanningEngine serial(p, serve::EngineOptions{.solve_threads = 1});
  serve::PlanningEngine pooled(p, serve::EngineOptions{.solve_threads = 2});
  const auto expect_same = [&](std::uint64_t seed, std::uint64_t state,
                               const std::string& variant) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " state " +
                 std::to_string(state) + " " + variant);
    const serve::PlanRequest request = serve::parse_plan_request(
        test::serve_request_body(p, 0.1, seed, state, variant, 2, 4), p);
    EXPECT_EQ(pooled.solve(request).payload.dump(),
              serial.solve(request).payload.dump());
  };
  for (const std::uint64_t seed : {1ULL, 104729ULL}) {
    for (std::uint64_t state = 0; state < 4; ++state) {
      expect_same(seed, state, "isp");
    }
  }
  expect_same(1, 0, "replay");
  expect_same(1, 0, "replan");
}

// ---------------------------------------------------------------------------
// Plan cache.

TEST(ServePlanCache, LruEvictionAndStats) {
  serve::PlanCache cache(2);
  EXPECT_EQ(cache.find("a"), nullptr);
  cache.insert("a", "plan-a");
  cache.insert("b", "plan-b");
  ASSERT_NE(cache.find("a"), nullptr);  // touches a: b becomes LRU
  cache.insert("c", "plan-c");          // evicts b
  EXPECT_EQ(cache.find("b"), nullptr);
  ASSERT_NE(cache.find("a"), nullptr);
  EXPECT_EQ(*cache.find("c"), "plan-c");

  const serve::PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST(ServePlanCache, ZeroCapacityDisables) {
  serve::PlanCache cache(0);
  cache.insert("a", "plan-a");
  EXPECT_EQ(cache.find("a"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ServePlanCache, EvictedPayloadSurvivesViaSharedPtr) {
  serve::PlanCache cache(1);
  cache.insert("a", "plan-a");
  auto held = cache.find("a");
  cache.insert("b", "plan-b");  // evicts a
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, "plan-a");  // still valid after eviction
}

// ---------------------------------------------------------------------------
// Metrics.

TEST(ServeMetrics, WindowPercentiles) {
  serve::LatencyWindow window(100);
  for (int i = 1; i <= 100; ++i) window.add(i * 1e-3);
  // Nearest rank: the ceil(q * n)-th smallest sample.
  EXPECT_NEAR(window.percentile(0.50), 50e-3, 1e-9);
  EXPECT_NEAR(window.percentile(0.99), 99e-3, 1e-9);
  EXPECT_NEAR(window.percentile(1.00), 100e-3, 1e-9);
  EXPECT_NEAR(window.mean(), 50.5e-3, 1e-9);
}

TEST(ServeMetrics, WindowAgesOutOldSamples) {
  serve::LatencyWindow window(4);
  for (int i = 0; i < 100; ++i) window.add(1.0);  // old traffic
  for (int i = 0; i < 4; ++i) window.add(2e-3);   // fills the whole ring
  EXPECT_EQ(window.count(), 4u);
  EXPECT_NEAR(window.percentile(0.99), 2e-3, 1e-9);
}

TEST(ServeMetrics, RegistrySnapshotShape) {
  serve::MetricsRegistry registry(16);
  registry.record("POST /v1/plan", 0.010, false, false);
  registry.record("POST /v1/plan", 0.002, false, true);
  registry.record("POST /v1/plan", 0.001, true, false);
  const util::Json snapshot = registry.snapshot();
  ASSERT_TRUE(snapshot.contains("POST /v1/plan"));
  const util::Json& entry = snapshot.at("POST /v1/plan");
  EXPECT_EQ(entry.at("requests").as_number(), 3.0);
  EXPECT_EQ(entry.at("errors").as_number(), 1.0);
  EXPECT_EQ(entry.at("cache_hits").as_number(), 1.0);
  EXPECT_NEAR(entry.at("cache_hit_rate").as_number(), 1.0 / 3.0, 1e-12);
  EXPECT_GT(entry.at("latency_ms").at("p99").as_number(), 0.0);
}

// ---------------------------------------------------------------------------
// Engine determinism.

TEST(ServeEngine, PayloadIsPureFunctionOfRequest) {
  const core::RecoveryProblem p = test::serve_bell_problem();
  const serve::PlanRequest request =
      serve::parse_plan_request(plan_body({2, 9, 14}, {0, 11}), p);

  serve::PlanningEngine engine_a(p);
  serve::PlanningEngine engine_b(p);
  const std::string first = engine_a.solve(request).payload.dump();
  const std::string again = engine_a.solve(request).payload.dump();
  const std::string other = engine_b.solve(request).payload.dump();
  EXPECT_EQ(first, again);  // one engine twice
  EXPECT_EQ(first, other);  // two engines

  const util::Json payload = util::Json::parse(first);
  EXPECT_EQ(payload.at("mode").as_string(), "isp");
  EXPECT_GT(payload.at("total_repairs").as_number(), 0.0);
  EXPECT_GT(payload.at("restoration").at("auc").as_number(), 0.0);
}

TEST(ServeEngine, DamageDoesNotLeakBetweenRequests) {
  const core::RecoveryProblem p = test::serve_bell_problem();
  serve::PlanningEngine engine(p);
  const serve::PlanRequest damaged =
      serve::parse_plan_request(plan_body({1, 2, 3, 4, 5}, {2, 3}), p);
  const serve::PlanRequest light =
      serve::parse_plan_request(plan_body({8}, {}), p);

  const std::string light_before = engine.solve(light).payload.dump();
  engine.solve(damaged);
  const std::string light_after = engine.solve(light).payload.dump();
  EXPECT_EQ(light_before, light_after);
  EXPECT_EQ(engine.problem().graph.num_broken_nodes(), 0u);
  EXPECT_EQ(engine.problem().graph.num_broken_edges(), 0u);
}

TEST(ServeEngine, BaselineDamageIsCleared) {
  core::RecoveryProblem p = test::serve_bell_problem();
  p.graph.set_node_broken(0, true);  // stale damage in the loaded topology
  p.graph.set_edge_broken(0, true);
  serve::PlanningEngine engine(p);
  EXPECT_EQ(engine.problem().graph.num_broken_nodes(), 0u);
  EXPECT_EQ(engine.problem().graph.num_broken_edges(), 0u);
}

TEST(ServeEngine, TimelineModeIsDeterministic) {
  const core::RecoveryProblem p = test::serve_bell_problem();
  util::Json body = plan_body({2, 9, 14}, {0});
  body.set("mode", "timeline");
  body.set("policy", "replay");
  body.set("stage_budget", 2);
  body.set("max_stages", 8);
  body.set("seed", 5);
  const serve::PlanRequest request = serve::parse_plan_request(body, p);

  serve::PlanningEngine engine(p);
  const std::string first = engine.solve(request).payload.dump();
  const std::string again = engine.solve(request).payload.dump();
  EXPECT_EQ(first, again);

  const util::Json payload = util::Json::parse(first);
  EXPECT_EQ(payload.at("mode").as_string(), "timeline");
  EXPECT_EQ(payload.at("restoration").at("series").size(), 8u);
}

// ---------------------------------------------------------------------------
// Server round-trips over a real socket.

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    problem_ = test::serve_bell_problem();
    serve::ServerOptions options;
    options.workers = 2;
    options.cache_capacity = 64;
    server_ = std::make_unique<serve::Server>(problem_, options);
    server_->start();
    port_ = server_->port();
  }
  void TearDown() override { server_->stop(); }

  serve::HttpResponse fetch(const std::string& method,
                            const std::string& target,
                            const std::string& body = "") const {
    return serve::http_fetch("127.0.0.1", port_, method, target, body);
  }
  int post_plan(const std::string& body, std::string& response) const {
    serve::HttpResponse r = fetch("POST", "/v1/plan", body);
    response = std::move(r.body);
    return r.status;
  }

  core::RecoveryProblem problem_;
  std::unique_ptr<serve::Server> server_;
  int port_ = 0;
};

TEST_F(ServeServerTest, HealthAndTopology) {
  const serve::HttpResponse health_response = fetch("GET", "/v1/health");
  ASSERT_EQ(health_response.status, 200);
  util::Json health = util::Json::parse(health_response.body);
  EXPECT_EQ(health.at("status").as_string(), "ok");
  EXPECT_EQ(health.at("nodes").as_number(),
            static_cast<double>(problem_.graph.num_nodes()));

  const serve::HttpResponse topology_response = fetch("GET", "/v1/topology");
  ASSERT_EQ(topology_response.status, 200);
  util::Json topology = util::Json::parse(topology_response.body);
  EXPECT_EQ(topology.at("demands").as_number(),
            static_cast<double>(problem_.demands.size()));
}

TEST_F(ServeServerTest, PlanMatchesDirectSolveAndCacheHitIsBitIdentical) {
  const std::string request_body = plan_body({2, 9}, {5}).dump();

  std::string first_response;
  ASSERT_EQ(post_plan(request_body, first_response), 200);
  std::string second_response;
  ASSERT_EQ(post_plan(request_body, second_response), 200);

  // Extract the verbatim result bytes (string surgery, not re-serialisation).
  const auto result_bytes = [](const std::string& response) {
    const std::string prefix = "{\"result\":";
    const std::size_t meta = response.rfind(",\"meta\":{\"fingerprint\":");
    EXPECT_EQ(response.rfind(prefix, 0), 0u);
    EXPECT_NE(meta, std::string::npos);
    return response.substr(prefix.size(), meta - prefix.size());
  };
  const std::string first = result_bytes(first_response);
  const std::string second = result_bytes(second_response);
  EXPECT_EQ(first, second);  // cache hit bit-identical to fresh solve
  EXPECT_NE(second_response.find("\"cached\":true"), std::string::npos);

  // And both equal the direct solve.
  serve::PlanningEngine direct(problem_);
  const serve::PlanRequest request = serve::parse_plan_request(
      util::Json::parse(request_body), problem_);
  EXPECT_EQ(first, direct.solve(request).payload.dump());

  const serve::PlanCache::Stats stats = server_->cache_stats();
  EXPECT_GE(stats.hits, 1u);
}

TEST_F(ServeServerTest, ErrorMapping) {
  std::string body;
  EXPECT_EQ(post_plan("{not json", body), 400);
  EXPECT_NE(util::Json::parse(body).at("error").as_string().find("JSON"),
            std::string::npos);

  EXPECT_EQ(post_plan("{\"broken_node\":[1]}", body), 400);  // unknown field
  EXPECT_EQ(post_plan("{\"broken_nodes\":[99999]}", body), 400);  // bad id

  EXPECT_EQ(fetch("GET", "/v1/nope").status, 404);
  EXPECT_EQ(fetch("GET", "/v1/plan").status, 405);
  EXPECT_EQ(fetch("PUT", "/v1/plan", "{}").status, 405);
}

TEST_F(ServeServerTest, MalformedNumbersAndDuplicateKeysAre400) {
  // Not a plan against node 1: the number grammar is strict.
  std::string body;
  for (const char* bad :
       {"{\"broken_nodes\":[1-2]}", "{\"broken_nodes\":[1e]}",
        "{\"broken_nodes\":[007]}", "{\"broken_nodes\":[+1]}"}) {
    EXPECT_EQ(post_plan(bad, body), 400) << bad;
    EXPECT_NE(util::Json::parse(body).at("error").as_string().find(
                  "invalid JSON"),
              std::string::npos)
        << body;
  }
  // Not a plan against node 2 only: a repeated key is rejected.
  EXPECT_EQ(post_plan("{\"broken_nodes\":[1],\"broken_nodes\":[2]}", body),
            400);
  EXPECT_NE(util::Json::parse(body).at("error").as_string().find(
                "duplicate object key 'broken_nodes'"),
            std::string::npos)
      << body;
  EXPECT_EQ(server_->cache_stats().misses, 0u);  // nothing was planned
}

TEST_F(ServeServerTest, MetricsReflectTraffic) {
  const std::string request_body = plan_body({3}, {}).dump();
  std::string response;
  ASSERT_EQ(post_plan(request_body, response), 200);
  ASSERT_EQ(post_plan(request_body, response), 200);
  post_plan("{bad", response);

  const serve::HttpResponse metrics_response = fetch("GET", "/v1/metrics");
  ASSERT_EQ(metrics_response.status, 200);
  const util::Json metrics = util::Json::parse(metrics_response.body);
  const util::Json& plan = metrics.at("endpoints").at("POST /v1/plan");
  EXPECT_EQ(plan.at("requests").as_number(), 3.0);
  EXPECT_EQ(plan.at("errors").as_number(), 1.0);
  EXPECT_EQ(plan.at("cache_hits").as_number(), 1.0);
  EXPECT_GT(plan.at("latency_ms").at("p50").as_number(), 0.0);
  const util::Json& cache = metrics.at("plan_cache");
  EXPECT_EQ(cache.at("hits").as_number(), 1.0);
  EXPECT_GT(cache.at("hit_rate").as_number(), 0.0);
}

TEST_F(ServeServerTest, ShutdownEndpointReleasesWait) {
  const serve::HttpResponse response = fetch("POST", "/v1/shutdown");
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(util::Json::parse(response.body).at("status").as_string(),
            "stopping");
  server_->wait();  // must return promptly now
}

// ---------------------------------------------------------------------------
// Concurrency: mixed cached/uncached requests from many clients, every
// response bit-identical to a serial direct solve.

TEST(ServeConcurrency, ParallelMixedRequestsMatchSerialSolves) {
  const core::RecoveryProblem problem = test::serve_bell_problem();

  // Distinct scenarios; each client cycles through them with a different
  // phase, so the same fingerprint is solved fresh by one client and served
  // from cache to others, interleaved with misses.
  const std::vector<util::Json> bodies = {
      plan_body({1, 4}, {}), plan_body({2, 9, 14}, {0}),
      plan_body({}, {3, 8}), plan_body({6}, {12}), plan_body({10, 11}, {})};

  serve::PlanningEngine serial(problem);
  std::vector<std::string> expected;
  expected.reserve(bodies.size());
  for (const util::Json& body : bodies) {
    expected.push_back(
        serial.solve(serve::parse_plan_request(body, problem)).payload.dump());
  }

  serve::ServerOptions options;
  options.workers = 4;
  options.cache_capacity = 16;
  serve::Server server(problem, options);
  server.start();

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRequestsPerClient = 10;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        const std::size_t which = (c + i) % bodies.size();
        serve::HttpResponse fetched;
        try {
          fetched = serve::http_fetch("127.0.0.1", server.port(), "POST",
                                      "/v1/plan", bodies[which].dump());
        } catch (const std::exception&) {
          ++mismatches;
          continue;
        }
        const int status = fetched.status;
        const std::string& response = fetched.body;
        const std::string prefix = "{\"result\":";
        const std::size_t meta =
            response.rfind(",\"meta\":{\"fingerprint\":");
        if (status != 200 || response.rfind(prefix, 0) != 0 ||
            meta == std::string::npos ||
            response.substr(prefix.size(), meta - prefix.size()) !=
                expected[which]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  server.stop();

  EXPECT_EQ(mismatches.load(), 0);

  const serve::PlanCache::Stats stats = server.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, kClients * kRequestsPerClient);
  EXPECT_GT(stats.hits, 0u);  // the mix actually exercised the cache
}

}  // namespace
