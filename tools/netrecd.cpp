// netrecd: the recovery planner as a long-running HTTP-JSON service.
//
// Preloads one topology + demand set at startup, then serves damage-state
// what-if requests from a pool of warm planning engines:
//
//   netrecd --port 8080 --workers 4
//   netrecd --topology gml:zoo.gml --pairs 12 --demand 8
//
//   curl -s localhost:8080/v1/health
//   curl -s -X POST localhost:8080/v1/plan -d '{"broken_nodes":[3,7]}'
//   curl -s localhost:8080/v1/metrics
//
// Request/response schemas: docs/serve_protocol.md.  The process runs until
// SIGINT/SIGTERM or POST /v1/shutdown, then drains workers and exits 0.
#include <csignal>
#include <cstdio>
#include <thread>

#include "serve/preload.hpp"
#include "serve/server.hpp"
#include "util/fault.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"

int main(int argc, char** argv) {
  using namespace netrec;

  util::Flags flags;
  serve::declare_preload_flags(flags);
  flags.define("bind", "127.0.0.1", "address to listen on");
  flags.define("port", "0", "port to listen on (0 = kernel-assigned)");
  flags.define("workers", "4", "worker threads (= concurrent requests)");
  flags.define("solve-threads", "1",
               "intra-solve threads per worker (bit-identical to serial)");
  flags.define("cache", "4096", "plan cache capacity (0 = disabled)");
  flags.define("metrics-window", "4096",
               "latency samples per endpoint for p50/p99");
  flags.define("deadline-ms", "0",
               "per-request solve deadline in ms; expired solves degrade to "
               "the heuristic fallback (0 = no deadline)");
  flags.define("queue-budget", "0",
               "queued connections before shedding with 503 (0 = 2x workers)");
  flags.define("retry-after", "1",
               "Retry-After seconds advertised on shed/overload 503s");
  flags.define("grace", "5",
               "shutdown grace seconds for in-flight requests");
  flags.define("faults", "",
               "fault-injection spec, e.g. 'serve.recv=p0.05,"
               "engine.solve=every8' (see src/util/fault.hpp)");
  flags.define("fault-seed", "1", "fault-injection decision seed");
  flags.define("verbose", "false", "log request handling to stderr");
  try {
    if (!flags.parse(argc, argv)) {
      std::fputs(flags.usage("netrecd").c_str(), stdout);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 flags.usage("netrecd").c_str());
    return 2;
  }
  util::set_log_level(flags.get_bool("verbose") ? util::LogLevel::kInfo
                                                : util::LogLevel::kWarn);

  try {
    serve::ServerOptions options;
    options.bind_address = flags.get("bind");
    options.port = flags.get_int("port");
    options.workers = static_cast<std::size_t>(flags.get_int("workers"));
    options.cache_capacity = static_cast<std::size_t>(flags.get_int("cache"));
    options.metrics_window =
        static_cast<std::size_t>(flags.get_int("metrics-window"));
    options.engine.solve_threads =
        static_cast<std::size_t>(flags.get_int("solve-threads"));
    options.engine.deadline_ms = flags.get_double("deadline-ms");
    options.queue_budget =
        static_cast<std::size_t>(flags.get_int("queue-budget"));
    options.retry_after_seconds = flags.get_int("retry-after");
    options.shutdown_grace_seconds = flags.get_double("grace");

    // Chaos testing: arm fault sites from --faults / --fault-seed.
    if (!flags.get("faults").empty()) {
      util::fault::arm(flags.get("faults"),
                       static_cast<std::uint64_t>(
                           flags.get_int("fault-seed")));
      std::fprintf(stderr, "netrecd: armed faults: %s\n",
                   flags.get("faults").c_str());
    }

    core::RecoveryProblem problem = serve::build_preloaded_problem(flags);
    std::fprintf(stderr, "netrecd: preloaded %s\n",
                 serve::describe_preload(problem, flags).c_str());

    serve::Server server(std::move(problem), options);

    // Route SIGINT/SIGTERM through a dedicated sigwait thread: blocking the
    // signals first makes delivery race-free, and request_stop() is an
    // ordinary call there (no async-signal-safety contortions).
    static sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGINT);
    sigaddset(&signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);

    server.start();
    std::fprintf(stderr, "netrecd: ready on %s:%d\n", flags.get("bind").c_str(),
                 server.port());
    std::fflush(stderr);

    std::thread signal_thread([&server] {
      int sig = 0;
      if (sigwait(&signals, &sig) == 0) {
        std::fprintf(stderr, "netrecd: caught signal %d, stopping\n", sig);
        server.request_stop();
      }
    });
    signal_thread.detach();  // blocked in sigwait at clean shutdown

    server.wait();
    server.stop();
    std::fprintf(stderr, "netrecd: stopped cleanly\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "netrecd: error: %s\n", e.what());
    return 1;
  }
}
