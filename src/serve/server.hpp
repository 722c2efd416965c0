// netrecd core: recovery planning as a long-running service.
//
// One Server owns a listening socket, an acceptor thread, a bounded
// connection queue and a pool of worker threads; each worker owns a warm
// serve::PlanningEngine (private problem copy + private intra-solve
// ThreadPool) and serves one request per connection popped off the queue.
// Re-entrancy therefore holds by isolation: no request ever shares solver
// state with another, and the only cross-worker structures — the plan
// cache, the metrics registry and the queue itself — are internally locked.
//
// Robustness layer (PR 9):
//   * Admission control: the acceptor sheds connections with 503 +
//     Retry-After once the queue is `queue_budget` deep (all workers busy
//     and a backlog building), instead of letting latency grow unbounded.
//   * Self-healing workers: a supervisor thread joins any worker killed by
//     a crash escaping the request path (e.g. the "engine.solve" injected
//     crash) and respawns it with a fresh warm engine; restarts are counted
//     in /v1/metrics.
//   * Graceful degradation: with EngineOptions::deadline_ms set, a solve
//     that blows its budget returns the heuristic fallback plan tagged
//     "degraded": true in meta (never cached) instead of hanging a worker.
//   * Bounded-grace stop(): queued-but-unserved connections are flushed
//     with 503, in-flight requests get `shutdown_grace_seconds` to finish,
//     then their sockets are force-shut so a stalled peer cannot wedge
//     shutdown.
//
// Endpoints (request/response schemas in docs/serve_protocol.md):
//   GET  /v1/health    liveness + topology summary
//   GET  /v1/topology  preloaded problem description
//   POST /v1/plan      damage state in -> repair plan + restoration out
//   GET  /v1/metrics   per-endpoint windowed metrics + cache/server stats
//   POST /v1/shutdown  clean stop (optional; netrecd enables it)
//
// /v1/plan responses are {"result": <payload>, "meta": {fingerprint,
// cached, degraded, latency_ms}}: the payload bytes come either from a
// fresh PlanningEngine solve or verbatim from the plan cache, so a cache
// hit is bit-identical to a fresh solve by construction (the meta object
// carries everything request-specific).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/problem.hpp"
#include "serve/engine.hpp"
#include "serve/http.hpp"
#include "serve/metrics.hpp"
#include "serve/plan_cache.hpp"

namespace netrec::serve {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port (query with port() after start()).
  int port = 0;
  /// Worker threads == concurrently served requests == warm engines.
  std::size_t workers = 4;
  /// Plan-cache entry cap; 0 disables caching.
  std::size_t cache_capacity = 4096;
  /// Latency samples kept per endpoint for the windowed percentiles.
  std::size_t metrics_window = 4096;
  /// Per-worker engine configuration (intra-solve threads, ISP options,
  /// the per-request solve deadline).
  EngineOptions engine;
  /// Allow POST /v1/shutdown (netrecd turns this on; embedded test servers
  /// usually stop via stop()).
  bool enable_shutdown_endpoint = true;
  /// Admission control: accepted connections queued beyond this depth are
  /// shed with 503 + Retry-After.  0 = auto (2x workers).
  std::size_t queue_budget = 0;
  /// Retry-After value (seconds) advertised on shed/overload 503s.
  int retry_after_seconds = 1;
  /// stop() under load: how long in-flight requests may keep running
  /// before their sockets are force-shut.
  double shutdown_grace_seconds = 5.0;
};

class Server {
 public:
  /// Copies the baseline problem; see EngineOptions for damage semantics.
  Server(core::RecoveryProblem baseline, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns acceptor + workers + supervisor; throws
  /// std::runtime_error on bind failure.  Call at most once.
  void start();

  /// Signals wait() to return (used by the shutdown endpoint and signal
  /// handlers); does not join workers.  Safe from any thread.
  void request_stop();

  /// Blocks until request_stop() (or the shutdown endpoint) fires.
  void wait();

  /// Stops accepting, flushes the queue with 503s, grants in-flight
  /// requests a bounded grace period, then force-shuts their sockets and
  /// joins everything; idempotent.  Must not be called from a worker
  /// thread (the shutdown endpoint uses request_stop() + the owner's
  /// stop()).
  void stop();

  /// Bound port (resolves ephemeral binds); valid after start().
  int port() const { return port_; }
  bool running() const { return running_.load(); }

  const core::RecoveryProblem& baseline() const { return baseline_; }
  PlanCache::Stats cache_stats() const { return cache_.stats(); }

  /// Robustness counters (also exposed under "server" in /v1/metrics).
  std::uint64_t worker_restarts() const { return worker_restarts_.load(); }
  std::uint64_t shed_total() const { return shed_total_.load(); }
  std::uint64_t degraded_total() const { return degraded_total_.load(); }

 private:
  /// One worker: the thread plus its supervision state.  `active_fd` is
  /// the connection currently being served (-1 idle) — stop() force-shuts
  /// it after the grace period; `dead` flags a crash for the supervisor.
  /// Both are guarded by queue_mutex_.
  struct WorkerSlot {
    std::thread thread;
    int active_fd = -1;
    bool dead = false;
  };

  void acceptor_loop();
  void worker_loop(std::size_t worker_index);
  void supervisor_loop();
  void handle_connection(int fd, PlanningEngine& engine);
  /// Routes one parsed request; returns {status, body}.
  std::pair<int, std::string> route(const HttpRequest& request,
                                    PlanningEngine& engine, bool& cache_hit);
  std::string handle_plan(const std::string& body, PlanningEngine& engine,
                          bool& cache_hit, double start_seconds);
  /// Writes a 503 + Retry-After and closes the fd (shed / shutdown flush).
  void refuse_connection(int fd);
  std::size_t queue_budget() const;

  core::RecoveryProblem baseline_;
  ServerOptions opt_;
  PlanCache cache_;
  MetricsRegistry metrics_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread acceptor_;
  std::thread supervisor_;
  std::vector<WorkerSlot> slots_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  /// Connection queue + worker supervision state (one mutex: the pieces
  /// are touched together on every transition).
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;       // workers: queue non-empty/stop
  std::condition_variable supervisor_cv_;  // supervisor: worker died/stop
  std::condition_variable drained_cv_;     // stop(): all workers idle
  std::deque<int> conn_queue_;

  std::atomic<std::uint64_t> shed_total_{0};
  std::atomic<std::uint64_t> worker_restarts_{0};
  std::atomic<std::uint64_t> degraded_total_{0};

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
};

}  // namespace netrec::serve
