// serve:: under injected faults — the PR 9 robustness layer.
//
// The load-bearing suites:
//   * ServeChaosMatrix — every serving-path fault site armed in turn
//     against a live server; the service must stay *serviceable*: every
//     request still ends in a 200 within the client's retry budget, and
//     the daemon answers health checks after the faults are disarmed.
//   * ServeRespawn — the "engine.solve" crash site kills workers
//     mid-request; the supervisor must respawn them (worker_restarts
//     counted, /v1/metrics agrees) while clients ride out the resets.
//   * ServeDegrade — the deadline-degradation differential: a degraded
//     response must be byte-identical to PlanningEngine::heuristic_plan,
//     tagged "degraded":true, and must never be served from cache.
//   * ServeShed — admission control: a tiny queue budget plus stalled
//     workers turns excess connections into 503 + Retry-After, counted in
//     shed_total.
//   * ServeShutdown — stop() under load drains within the bounded grace
//     and never wedges on in-flight connections.
//   * ServeClient — the retry/backoff client against a scripted responder:
//     transport errors and 503s are retried, terminal statuses are not.
//   * ServeChaosSweep — every serving-path site armed at once at a 10%
//     fault rate on netrecd's default (feasible) preload, 8 retrying
//     clients: availability, byte identity, healed crashes, and a healthy
//     server afterwards.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "plan_fleet.hpp"
#include "scenario/scenario.hpp"
#include "serve/client.hpp"
#include "serve/engine.hpp"
#include "serve/http.hpp"
#include "serve/preload.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "topology/generator.hpp"
#include "util/fault.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace netrec;
namespace fault = netrec::util::fault;

core::RecoveryProblem small_problem() {
  core::RecoveryProblem p;
  p.graph = topology::make_topology({topology::BellCanadaOptions{}});
  util::Rng rng(7);
  p.demands = scenario::far_apart_demands(p.graph, 3, 6.0, rng);
  return p;
}

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

serve::ClientOptions fast_client_options(std::uint64_t seed) {
  serve::ClientOptions copt;
  copt.max_attempts = 6;
  copt.initial_backoff_ms = 1.0;
  copt.max_backoff_ms = 20.0;
  copt.retry_after_cap_ms = 20.0;
  copt.jitter_seed = seed;
  return copt;
}

/// Polls `predicate` until true or ~5s elapse.
bool eventually(const std::function<bool()>& predicate) {
  for (int i = 0; i < 500; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return predicate();
}

// ---------------------------------------------------------------------------
// Fault matrix: each serving-path site in turn; service stays serviceable.

TEST(ServeChaosMatrix, EverySiteStaysServiceableUnderRetry) {
  const core::RecoveryProblem p = small_problem();
  serve::ServerOptions options;
  options.workers = 2;
  options.engine.solve_threads = 2;  // so pool.task is actually on the path
  options.retry_after_seconds = 0;   // keep retries fast in tests
  serve::Server server(p, options);
  server.start();

  // Triggers chosen so consecutive retries cannot both fail: every2 faults
  // alternate hits, once2 fires a single time.  (pool.task uses once2:
  // with every2 armed, *every* multi-chunk solve would throw.)
  const std::vector<std::string> specs = {
      "serve.recv=every2",        "serve.send=every2",
      "serve.stall=every3",       "serve.cache.find=every2",
      "serve.cache.insert=every2", "pool.task=once2",
      "isp.deadline=every2",
  };
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    fault::ScopedArm arm(spec, 11);
    serve::Client client("127.0.0.1", server.port(),
                         fast_client_options(0x5115u));
    for (int i = 0; i < 6; ++i) {
      const serve::ClientResult result = client.request(
          "POST", "/v1/plan", plan_body({i % 8, 9}, {i % 5}).dump());
      EXPECT_EQ(result.response.status, 200)
          << "request " << i << ": " << result.error;
    }
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(client.request("GET", "/v1/health").response.status, 200);
    }
  }

  // All sites disarmed: the daemon must be fully healthy, first try.
  serve::Client client("127.0.0.1", server.port(), fast_client_options(1));
  const serve::ClientResult health = client.request("GET", "/v1/health");
  EXPECT_EQ(health.response.status, 200);
  EXPECT_EQ(health.attempts, 1);
  server.stop();
}

// ---------------------------------------------------------------------------
// Self-healing: worker crashes are respawned and counted.

TEST(ServeRespawn, CrashedWorkersAreRespawnedAndCounted) {
  const core::RecoveryProblem p = small_problem();
  serve::ServerOptions options;
  options.workers = 2;
  options.retry_after_seconds = 0;
  serve::Server server(p, options);
  server.start();
  EXPECT_EQ(server.worker_restarts(), 0u);

  {
    // Every 3rd engine.solve call throws InjectedCrash, which unwinds the
    // whole worker.  Distinct bodies force a fresh solve per request.
    fault::ScopedArm arm("engine.solve=every3", 5);
    serve::Client client("127.0.0.1", server.port(),
                         fast_client_options(0xdeadu));
    for (int i = 0; i < 9; ++i) {
      const serve::ClientResult result = client.request(
          "POST", "/v1/plan", plan_body({i}, {}).dump());
      EXPECT_EQ(result.response.status, 200)
          << "request " << i << ": " << result.error;
    }
  }

  EXPECT_TRUE(eventually([&] { return server.worker_restarts() >= 1; }));

  // The restart counter is exposed on /v1/metrics ("server" section).
  serve::Client client("127.0.0.1", server.port(), fast_client_options(2));
  const serve::ClientResult metrics = client.request("GET", "/v1/metrics");
  ASSERT_EQ(metrics.response.status, 200);
  const util::Json parsed = util::Json::parse(metrics.response.body);
  EXPECT_GE(parsed.at("server").at("worker_restarts").as_number(), 1.0);
  EXPECT_EQ(parsed.at("server").at("workers").as_number(), 2.0);

  // Respawned workers serve with fresh engines.
  const serve::ClientResult after =
      client.request("POST", "/v1/plan", plan_body({1, 2}, {}).dump());
  EXPECT_EQ(after.response.status, 200);
  server.stop();
}

// ---------------------------------------------------------------------------
// Deadline degradation: the differential against the heuristic fallback.

TEST(ServeDegrade, RealDeadlineDegradesToHeuristicBitIdentically) {
  const core::RecoveryProblem p = small_problem();
  serve::PlanRequest request;
  request.broken_nodes = {2, 5, 9};
  request.broken_edges = {3};

  serve::EngineOptions tight;
  tight.deadline_ms = 1e-4;  // expired before the first ISP iteration
  serve::PlanningEngine deadline_engine(p, tight);
  const serve::PlanOutcome outcome = deadline_engine.solve(request);
  EXPECT_TRUE(outcome.degraded);

  serve::PlanningEngine reference(p);
  EXPECT_EQ(outcome.payload.dump(),
            reference.heuristic_plan(request).dump());
  // Degraded twice in a row is still deterministic.
  EXPECT_EQ(deadline_engine.solve(request).payload.dump(),
            outcome.payload.dump());
  // Without a deadline the same request solves fully.
  const serve::PlanOutcome full = reference.solve(request);
  EXPECT_FALSE(full.degraded);
  EXPECT_NE(full.payload.dump(), outcome.payload.dump());
}

TEST(ServeDegrade, TimelineRequestsDegradeToTheIspShapedFallback) {
  const core::RecoveryProblem p = small_problem();
  serve::PlanRequest request;
  request.broken_nodes = {4, 7};
  request.mode = serve::PlanRequest::Mode::kTimeline;

  fault::ScopedArm arm("isp.deadline=every1", 3);
  serve::PlanningEngine engine(p);
  const serve::PlanOutcome outcome = engine.solve(request);
  EXPECT_TRUE(outcome.degraded);
  // The fallback is always isp-shaped, whatever the requested mode
  // (documented in serve_protocol.md).
  EXPECT_EQ(outcome.payload.at("mode").as_string(), "isp");
  fault::disarm_all();
  EXPECT_EQ(engine.heuristic_plan(request).dump(), outcome.payload.dump());
}

TEST(ServeDegrade, DegradedResponsesAreTaggedAndNeverCached) {
  const core::RecoveryProblem p = small_problem();
  serve::ServerOptions options;
  options.workers = 1;
  serve::Server server(p, options);
  server.start();
  const std::string body = plan_body({2, 5, 9}, {3}).dump();

  serve::PlanRequest request;
  request.broken_nodes = {2, 5, 9};
  request.broken_edges = {3};
  serve::PlanningEngine direct(p);
  const std::string expected_degraded = direct.heuristic_plan(request).dump();
  const std::string expected_full = direct.solve(request).payload.dump();

  serve::Client client("127.0.0.1", server.port(), fast_client_options(9));
  {
    fault::ScopedArm arm("isp.deadline=every1", 3);
    for (int i = 0; i < 2; ++i) {
      const serve::ClientResult result =
          client.request("POST", "/v1/plan", body);
      ASSERT_EQ(result.response.status, 200);
      // Tagged degraded, never served from cache (a hit must always be a
      // full solve), and byte-identical to the heuristic fallback.
      EXPECT_NE(result.response.body.find("\"degraded\":true"),
                std::string::npos);
      EXPECT_NE(result.response.body.find("\"cached\":false"),
                std::string::npos);
      EXPECT_EQ(test::result_bytes(result.response.body), expected_degraded);
    }
    EXPECT_EQ(server.degraded_total(), 2u);
  }

  // Faults gone: the same request now solves fully (fresh, then cached).
  const serve::ClientResult fresh = client.request("POST", "/v1/plan", body);
  ASSERT_EQ(fresh.response.status, 200);
  EXPECT_NE(fresh.response.body.find("\"degraded\":false"),
            std::string::npos);
  EXPECT_NE(fresh.response.body.find("\"cached\":false"), std::string::npos);
  EXPECT_EQ(test::result_bytes(fresh.response.body), expected_full);

  const serve::ClientResult cached = client.request("POST", "/v1/plan", body);
  ASSERT_EQ(cached.response.status, 200);
  EXPECT_NE(cached.response.body.find("\"cached\":true"), std::string::npos);
  EXPECT_NE(cached.response.body.find("\"degraded\":false"),
            std::string::npos);
  EXPECT_EQ(test::result_bytes(cached.response.body), expected_full);
  server.stop();
}

// ---------------------------------------------------------------------------
// Admission control: overload is shed with 503 + Retry-After.

TEST(ServeShed, OverloadShedsWith503AndRetryAfter) {
  const core::RecoveryProblem p = small_problem();
  serve::ServerOptions options;
  options.workers = 1;
  options.queue_budget = 1;
  options.retry_after_seconds = 1;
  serve::Server server(p, options);
  server.start();

  // Park the single worker on every request so the queue fills instantly.
  fault::ScopedArm arm("serve.stall=p1", 1);
  const std::string body = plan_body({1}, {}).dump();
  std::atomic<int> shed_seen{0};
  std::atomic<int> ok_seen{0};
  std::atomic<int> retry_after_seen{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&] {
      try {
        // Raw fetch, no retries: a shed 503 must reach the caller as-is.
        const serve::HttpResponse response =
            serve::http_fetch("127.0.0.1", server.port(), "POST", "/v1/plan",
                              body);
        if (response.status == 503) {
          ++shed_seen;
          if (response.headers.count("retry-after") > 0 &&
              response.headers.at("retry-after") == "1") {
            ++retry_after_seen;
          }
        } else if (response.status == 200) {
          ++ok_seen;
        }
      } catch (const std::exception&) {
        // A reset during the shed race also counts as load shed away.
      }
    });
  }
  for (std::thread& thread : clients) thread.join();

  EXPECT_GE(shed_seen.load(), 1);
  EXPECT_EQ(retry_after_seen.load(), shed_seen.load());
  EXPECT_GE(ok_seen.load(), 1);  // admitted requests still complete
  EXPECT_GE(server.shed_total(), static_cast<std::uint64_t>(shed_seen));
  server.stop();
}

// ---------------------------------------------------------------------------
// Shutdown under load: bounded-grace drain, no wedge.

TEST(ServeShutdown, StopUnderLoadDrainsWithinGrace) {
  const core::RecoveryProblem p = small_problem();
  serve::ServerOptions options;
  options.workers = 2;
  options.shutdown_grace_seconds = 2.0;
  serve::Server server(p, options);
  server.start();

  // Stalled handlers keep connections in flight while stop() runs.
  fault::ScopedArm arm("serve.stall=p1", 1);
  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      try {
        serve::http_fetch("127.0.0.1", server.port(), "POST", "/v1/plan",
                          plan_body({c}, {}).dump());
      } catch (const std::exception&) {
        // Flushed with 503 or reset by the grace timeout — both fine; the
        // point is that the call RETURNS.
      }
      ++completed;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const double stop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_FALSE(server.running());
  // Bounded: in-flight stalls are ~200ms, well inside the 2s grace; the
  // force-shut path bounds even a pathological stall by grace + join time.
  EXPECT_LT(stop_seconds, 10.0);
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(completed.load(), 6);
}

TEST(ServeShutdown, StopIsIdempotentAndRestartable) {
  const core::RecoveryProblem p = small_problem();
  serve::Server server(p, {});
  server.start();
  serve::Client client("127.0.0.1", server.port(), fast_client_options(3));
  EXPECT_EQ(client.request("GET", "/v1/health").response.status, 200);
  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(server.running());
}

// ---------------------------------------------------------------------------
// The retrying client against a scripted responder.

TEST(ServeClient, RetriesTransportErrorsAnd503ThenSucceeds) {
  const int listen_fd = serve::listen_on("127.0.0.1", 0);
  const int port = serve::bound_port(listen_fd);
  std::thread responder([listen_fd] {
    // Connection 1: reset without a response (transport error).
    int fd = ::accept(listen_fd, nullptr, nullptr);
    ::close(fd);
    // Connection 2: overloaded, advertise an immediate retry.
    fd = ::accept(listen_fd, nullptr, nullptr);
    serve::HttpRequest request;
    serve::read_http_request(fd, request);
    serve::write_http_response(fd, 503, "application/json", "{}",
                               {{"Retry-After", "0"}});
    ::close(fd);
    // Connection 3: healthy.
    fd = ::accept(listen_fd, nullptr, nullptr);
    serve::read_http_request(fd, request);
    serve::write_http_response(fd, 200, "application/json", "{\"ok\":true}");
    ::close(fd);
  });

  serve::Client client("127.0.0.1", port, fast_client_options(0xbac0ffu));
  const serve::ClientResult result = client.request("GET", "/v1/health");
  EXPECT_EQ(result.response.status, 200);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(result.transient_errors, 2);
  EXPECT_TRUE(result.ok());
  responder.join();
  ::close(listen_fd);
}

TEST(ServeClient, DoesNotRetryTerminalStatuses) {
  const int listen_fd = serve::listen_on("127.0.0.1", 0);
  const int port = serve::bound_port(listen_fd);
  std::thread responder([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    serve::HttpRequest request;
    serve::read_http_request(fd, request);
    serve::write_http_response(fd, 500, "application/json", "{}");
    ::close(fd);
  });
  serve::Client client("127.0.0.1", port, fast_client_options(4));
  const serve::ClientResult result = client.request("GET", "/x");
  EXPECT_EQ(result.response.status, 500);
  EXPECT_EQ(result.attempts, 1);  // 500 is an answer, not an outage
  EXPECT_EQ(result.transient_errors, 0);
  EXPECT_FALSE(result.ok());
  responder.join();
  ::close(listen_fd);
}

TEST(ServeClient, ReportsExhaustionAfterMaxAttempts) {
  const int listen_fd = serve::listen_on("127.0.0.1", 0);
  const int port = serve::bound_port(listen_fd);
  serve::ClientOptions copt = fast_client_options(5);
  copt.max_attempts = 3;
  std::thread responder([listen_fd] {
    for (int i = 0; i < 3; ++i) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      ::close(fd);  // every attempt resets
    }
  });
  serve::Client client("127.0.0.1", port, copt);
  const serve::ClientResult result = client.request("GET", "/v1/health");
  EXPECT_EQ(result.response.status, 0);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(result.transient_errors, 3);
  EXPECT_FALSE(result.error.empty());
  EXPECT_FALSE(result.ok());
  responder.join();
  ::close(listen_fd);
}

// ---------------------------------------------------------------------------
// The chaos sweep: every serving-path site armed at once.

/// Fault spec for one sweep level.  Every serving-path site is armed,
/// scaled so the *per-request* failure probability stays in the same ball
/// park as `rate` even though a request crosses several sites; the
/// engine-crash site uses a deterministic every<N> trigger so each
/// non-zero level provokes worker respawns.
std::string spec_for_rate(double rate) {
  char buf[256];
  // engine.solve counts *solves*, and most requests are cache hits: the
  // site's traffic is roughly rate * requests (the forced cache misses),
  // so the crash period must be short for every non-zero level to provoke
  // respawns.  Re-arming at each level resets the hit counters.
  std::snprintf(buf, sizeof(buf),
                "serve.recv=p%g,serve.send=p%g,serve.cache.find=p%g,"
                "serve.cache.insert=p%g,isp.deadline=p%g,pool.task=p%g,"
                "engine.solve=every4",
                rate / 2.0, rate / 2.0, rate, rate, rate, rate / 4.0);
  return buf;
}

TEST(ServeChaosSweep, TenPercentFaultRateKeepsServiceAvailableAndExact) {
  util::Flags flags;
  serve::declare_preload_flags(flags);
  const core::RecoveryProblem p = serve::build_preloaded_problem(flags);
  const std::vector<test::PlanScenario> scenarios =
      test::plan_scenarios(p, 6, 42);
  serve::ServerOptions options;
  options.workers = 4;
  serve::Server server(p, options);
  server.start();

  test::FleetResult fleet;
  {
    fault::ScopedArm arm(spec_for_rate(0.1), 7);
    fleet = test::run_fleet(server.port(), scenarios, 8, 24);
  }
  EXPECT_GE(fleet.availability(), 0.97) << fleet.first_failure;
  EXPECT_EQ(fleet.mismatches, 0u) << fleet.first_failure;
  EXPECT_TRUE(eventually([&] { return server.worker_restarts() >= 1; }));

  // Faults disarmed: healthy on the first attempt, then a clean stop.
  serve::Client client("127.0.0.1", server.port(), fast_client_options(1));
  const serve::ClientResult health = client.request("GET", "/v1/health");
  EXPECT_EQ(health.response.status, 200);
  EXPECT_EQ(health.attempts, 1);
  server.stop();
  EXPECT_FALSE(server.running());
}

}  // namespace
