// netrecd as a process: the built daemon (NETREC_NETRECD) spawned with its
// stderr piped back, driven over loopback and stopped through
// POST /v1/shutdown.
//
//   * NetrecdPreload — build_preloaded_problem refuses an instance that is
//     infeasible even with every element repaired; the defaults are
//     feasible.
//   * NetrecdDaemon — a plain daemon serves every plan byte-identical to a
//     direct PlanningEngine solve (the repeat as a cache hit) and exits 0
//     on shutdown; a daemon with faults armed stays available and exact
//     through retrying clients and heals its crashed workers; an
//     infeasible preload exits 1.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "plan_fleet.hpp"
#include "serve/client.hpp"
#include "serve/preload.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

extern char** environ;

namespace {

using namespace netrec;

core::RecoveryProblem preload(std::vector<const char*> args) {
  util::Flags flags;
  serve::declare_preload_flags(flags);
  args.insert(args.begin(), "netrecd");
  flags.parse(static_cast<int>(args.size()), args.data());
  return serve::build_preloaded_problem(flags);
}

/// A netrecd child process.  The constructor reads stderr up to the
/// "ready on <host>:<port>" line; a thread then drains the rest so the
/// daemon never blocks on a full pipe.
class Daemon {
 public:
  explicit Daemon(std::vector<std::string> args) {
    args.insert(args.begin(), NETREC_NETRECD);
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDERR_FILENO);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    const int spawned = posix_spawn(&pid_, argv[0], &actions, nullptr,
                                    argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (spawned != 0) {
      ::close(fds[0]);
      throw std::runtime_error("cannot spawn " + args.front());
    }
    stderr_ = ::fdopen(fds[0], "r");
    char line[1024];
    while (port_ == 0 && std::fgets(line, sizeof(line), stderr_) != nullptr) {
      log_ += line;
      const std::string text = line;
      if (text.find("ready on ") != std::string::npos) {
        port_ = std::atoi(text.c_str() + text.rfind(':') + 1);
      }
    }
    drain_ = std::thread([this] {
      char rest[1024];
      while (std::fgets(rest, sizeof(rest), stderr_) != nullptr) {
        tail_ += rest;
      }
    });
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) wait_exit(0.0);
  }

  int port() const { return port_; }

  /// Exit status once the daemon exits, or -1 if it is still running after
  /// `seconds` (it is then killed).  Afterwards log() holds all of stderr.
  int wait_exit(double seconds) {
    int status = 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        status = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pid_ = -1;
    drain_.join();
    std::fclose(stderr_);
    log_ += tail_;
    return status >= 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  const std::string& log() const { return log_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  std::FILE* stderr_ = nullptr;
  std::string log_;
  std::string tail_;
  std::thread drain_;  // reads stderr_ into tail_
};

/// Asks the daemon to stop (retrying through any armed faults) and returns
/// its exit status.
int shut_down(Daemon& daemon) {
  serve::Client client("127.0.0.1", daemon.port());
  client.request("POST", "/v1/shutdown");
  return daemon.wait_exit(30.0);
}

TEST(NetrecdPreload, DefaultsAreFeasible) {
  const core::RecoveryProblem p = preload({});
  EXPECT_EQ(p.demands.size(), 8u);
  EXPECT_EQ(p.demands.front().amount, 8.0);
  EXPECT_TRUE(p.feasible_when_fully_repaired());
}

TEST(NetrecdPreload, InfeasibleDemandThrowsNamingTheInstance) {
  try {
    preload({"--demand", "12"});
    FAIL() << "an infeasible preload was accepted";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("bell_canada"), std::string::npos) << message;
    EXPECT_NE(message.find("8 pairs of demand 12"), std::string::npos)
        << message;
  }
}

TEST(NetrecdDaemon, PlansMatchDirectSolvesAndRepeatsAreCacheHits) {
  const std::vector<test::PlanScenario> scenarios =
      test::plan_scenarios(preload({}), 4, 42);
  Daemon daemon({"--port", "0", "--workers", "2"});
  ASSERT_GT(daemon.port(), 0) << daemon.log();

  serve::Client client("127.0.0.1", daemon.port());
  for (const test::PlanScenario& scenario : scenarios) {
    for (const char* cached : {"\"cached\":false", "\"cached\":true"}) {
      const serve::ClientResult result =
          client.request("POST", "/v1/plan", scenario.body);
      ASSERT_EQ(result.response.status, 200) << result.error;
      EXPECT_EQ(test::result_bytes(result.response.body), scenario.full);
      EXPECT_NE(result.response.body.find(cached), std::string::npos)
          << result.response.body;
    }
  }
  EXPECT_EQ(shut_down(daemon), 0) << daemon.log();
}

TEST(NetrecdDaemon, FaultedDaemonStaysAvailableExactAndHealed) {
  const std::vector<test::PlanScenario> scenarios =
      test::plan_scenarios(preload({}), 6, 42);
  Daemon daemon({"--port", "0", "--workers", "2", "--deadline-ms", "2000",
                 "--faults",
                 "serve.recv=p0.05,serve.send=p0.05,engine.solve=every6,"
                 "isp.deadline=p0.1",
                 "--fault-seed", "7"});
  ASSERT_GT(daemon.port(), 0) << daemon.log();

  const test::FleetResult fleet =
      test::run_fleet(daemon.port(), scenarios, 4, 12);
  EXPECT_GE(fleet.availability(), 0.97) << fleet.first_failure;
  EXPECT_EQ(fleet.mismatches, 0u) << fleet.first_failure;

  serve::ClientOptions copt;
  copt.max_attempts = 6;
  serve::Client client("127.0.0.1", daemon.port(), copt);
  const serve::ClientResult metrics = client.request("GET", "/v1/metrics");
  ASSERT_EQ(metrics.response.status, 200) << metrics.error;
  const util::Json parsed = util::Json::parse(metrics.response.body);
  EXPECT_GE(parsed.at("server").at("worker_restarts").as_number(), 1.0);
  EXPECT_EQ(shut_down(daemon), 0) << daemon.log();
}

TEST(NetrecdDaemon, InfeasiblePreloadExitsOne) {
  Daemon daemon({"--port", "0", "--demand", "12"});
  EXPECT_EQ(daemon.port(), 0);
  EXPECT_EQ(daemon.wait_exit(30.0), 1);
  EXPECT_NE(daemon.log().find("infeasible"), std::string::npos)
      << daemon.log();
}

}  // namespace
