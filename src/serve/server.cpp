#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "serve/http.hpp"
#include "serve/protocol.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace netrec::serve {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string error_body(const std::string& message) {
  util::Json body = util::Json::object();
  body.set("error", message);
  return body.dump();
}

/// Formats latency with fixed precision so response bytes stay compact.
std::string format_latency_ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e3);
  return buf;
}

/// Per-connection receive and send timeout.
constexpr int kSocketTimeoutSeconds = 30;

void set_socket_timeout(int fd, int option, int seconds) {
  timeval timeout{};
  timeout.tv_sec = seconds;
  ::setsockopt(fd, SOL_SOCKET, option, &timeout, sizeof(timeout));
}

util::Json describe_problem(const core::RecoveryProblem& problem) {
  util::Json out = util::Json::object();
  out.set("nodes", problem.graph.num_nodes());
  out.set("edges", problem.graph.num_edges());
  out.set("demands", problem.demands.size());
  out.set("total_demand", problem.total_demand());
  out.set("total_repair_cost_if_all_broken", [&] {
    double total = 0.0;
    for (std::size_t n = 0; n < problem.graph.num_nodes(); ++n) {
      total += problem.graph.node_repair_cost(static_cast<graph::NodeId>(n));
    }
    for (std::size_t e = 0; e < problem.graph.num_edges(); ++e) {
      total += problem.graph.edge_repair_cost(static_cast<graph::EdgeId>(e));
    }
    return total;
  }());
  return out;
}

}  // namespace

Server::Server(core::RecoveryProblem baseline, ServerOptions options)
    : baseline_(std::move(baseline)),
      opt_(std::move(options)),
      cache_(opt_.cache_capacity),
      metrics_(opt_.metrics_window) {
  if (opt_.workers == 0) {
    throw std::invalid_argument("Server: workers must be >= 1");
  }
}

Server::~Server() { stop(); }

std::size_t Server::queue_budget() const {
  return opt_.queue_budget > 0 ? opt_.queue_budget : 2 * opt_.workers;
}

void Server::start() {
  if (running_.exchange(true)) {
    throw std::logic_error("Server::start called twice");
  }
  stopping_.store(false);
  listen_fd_ = listen_on(opt_.bind_address, opt_.port);
  port_ = bound_port(listen_fd_);
  slots_ = std::vector<WorkerSlot>(opt_.workers);
  for (std::size_t i = 0; i < opt_.workers; ++i) {
    slots_[i].thread = std::thread([this, i] { worker_loop(i); });
  }
  supervisor_ = std::thread([this] { supervisor_loop(); });
  acceptor_ = std::thread([this] { acceptor_loop(); });
  NETREC_LOG(kInfo) << "netrecd listening on " << opt_.bind_address << ":"
                    << port_ << " (" << opt_.workers << " workers, queue "
                    << queue_budget() << ")";
}

void Server::request_stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
}

void Server::stop() {
  if (!running_.load()) return;
  if (!stopping_.exchange(true)) {
    // Unblock the acceptor: shutdown makes pending and future accepts fail
    // immediately; close releases the fd.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (acceptor_.joinable()) acceptor_.join();

  // Flush queued-but-unserved connections with 503 + Retry-After (their
  // clients retry against the next instance) and wake every worker.
  std::deque<int> flush;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    flush.swap(conn_queue_);
  }
  queue_cv_.notify_all();
  for (int fd : flush) {
    shed_total_.fetch_add(1, std::memory_order_relaxed);
    refuse_connection(fd);
  }

  // Bounded grace: in-flight requests may finish normally; past the grace
  // their sockets are force-shut so a stalled peer cannot wedge the joins
  // below (blocked recv/send return immediately after shutdown()).
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    const auto all_idle = [this] {
      for (const WorkerSlot& slot : slots_) {
        if (slot.active_fd >= 0) return false;
      }
      return true;
    };
    if (!drained_cv_.wait_for(
            lock, std::chrono::duration<double>(opt_.shutdown_grace_seconds),
            all_idle)) {
      NETREC_LOG(kWarn) << "serve: shutdown grace expired; force-closing "
                           "in-flight connections";
      for (WorkerSlot& slot : slots_) {
        if (slot.active_fd >= 0) ::shutdown(slot.active_fd, SHUT_RDWR);
      }
    }
  }

  // Supervisor first: it joins crashed workers and only exits once no
  // worker is marked dead, so the loop below never joins a thread the
  // supervisor is also joining.
  supervisor_cv_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();
  for (WorkerSlot& slot : slots_) {
    if (slot.thread.joinable()) slot.thread.join();
  }
  slots_.clear();
  listen_fd_ = -1;
  running_.store(false);
  request_stop();  // release wait()-ers even when stop() came first
}

void Server::acceptor_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stopping_.load()) break;
      // Transient accept failures (ECONNABORTED, EMFILE...) should not
      // kill the acceptor; anything persistent will just spin back here.
      continue;
    }
    set_socket_timeout(fd, SO_RCVTIMEO, kSocketTimeoutSeconds);
    // SO_SNDTIMEO too: without it a stalled reader blocks send_all in the
    // worker forever.
    set_socket_timeout(fd, SO_SNDTIMEO, kSocketTimeoutSeconds);
    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (stopping_.load() || conn_queue_.size() >= queue_budget()) {
        shed = true;
      } else {
        conn_queue_.push_back(fd);
      }
    }
    if (shed) {
      shed_total_.fetch_add(1, std::memory_order_relaxed);
      refuse_connection(fd);
    } else {
      queue_cv_.notify_one();
    }
  }
}

void Server::refuse_connection(int fd) {
  write_http_response(
      fd, 503, "application/json",
      error_body("server overloaded; retry later"),
      {{"Retry-After", std::to_string(opt_.retry_after_seconds)}});
  // The request bytes were never read; closing now would RST the socket
  // and could discard the 503 before the client saw it.  Half-close and
  // briefly drain until the client (who reads to EOF) hangs up.
  set_socket_timeout(fd, SO_RCVTIMEO, 1);
  ::shutdown(fd, SHUT_WR);
  char sink[4096];
  std::size_t drained = 0;
  while (drained < 16 * 1024) {
    const ssize_t n = ::recv(fd, sink, sizeof(sink), 0);
    if (n <= 0) break;
    drained += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

void Server::worker_loop(std::size_t worker_index) {
  try {
    // Each worker owns a warm engine for its whole lifetime: the expensive
    // problem copy and thread-pool spin-up happen once, not per request —
    // and a respawned worker gets a fresh one, untouched by the crash.
    PlanningEngine engine(baseline_, opt_.engine);
    for (;;) {
      int fd = -1;
      {
        std::unique_lock<std::mutex> lock(queue_mutex_);
        queue_cv_.wait(lock, [this] {
          return stopping_.load() || !conn_queue_.empty();
        });
        if (conn_queue_.empty()) break;  // stopping_ and drained
        fd = conn_queue_.front();
        conn_queue_.pop_front();
        slots_[worker_index].active_fd = fd;
      }
      try {
        handle_connection(fd, engine);
      } catch (const std::exception& e) {
        NETREC_LOG(kWarn) << "serve: dropping connection: " << e.what();
      }
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        ::close(slots_[worker_index].active_fd);
        slots_[worker_index].active_fd = -1;
      }
      drained_cv_.notify_all();
    }
  } catch (...) {
    // A crash — injected (fault::InjectedCrash is not a std::exception, so
    // it sails past the handler above) or real — escaped the request path.
    // Mark the slot dead and hand the corpse to the supervisor; the client
    // on the active connection sees a reset and retries.
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      WorkerSlot& slot = slots_[worker_index];
      if (slot.active_fd >= 0) {
        ::close(slot.active_fd);
        slot.active_fd = -1;
      }
      slot.dead = true;
    }
    supervisor_cv_.notify_one();
    drained_cv_.notify_all();
  }
}

void Server::supervisor_loop() {
  for (;;) {
    std::size_t dead_index = slots_.size();
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      supervisor_cv_.wait(lock, [this] {
        if (stopping_.load()) return true;
        for (const WorkerSlot& slot : slots_) {
          if (slot.dead) return true;
        }
        return false;
      });
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].dead) {
          slots_[i].dead = false;
          dead_index = i;
          break;
        }
      }
      if (dead_index == slots_.size()) {
        if (stopping_.load()) return;
        continue;
      }
    }
    // Join outside the lock (the dying thread grabs queue_mutex_ on its way
    // out).  No other thread touches this slot's thread object: stop()
    // only joins workers after joining the supervisor.
    slots_[dead_index].thread.join();
    worker_restarts_.fetch_add(1, std::memory_order_relaxed);
    NETREC_LOG(kWarn) << "serve: worker " << dead_index
                      << " died; respawning with a fresh engine";
    if (stopping_.load()) continue;  // shutting down: no respawn
    slots_[dead_index].thread =
        std::thread([this, dead_index] { worker_loop(dead_index); });
  }
}

void Server::handle_connection(int fd, PlanningEngine& engine) {
  if (FAULT_POINT("serve.recv")) return;  // injected: drop before reading
  HttpRequest request;
  const double start = now_seconds();
  try {
    if (!read_http_request(fd, request)) return;  // idle close
  } catch (const HttpError& e) {
    write_http_response(fd, e.status(), "application/json",
                        error_body(e.what()));
    return;
  }
  if (FAULT_POINT("serve.stall")) {
    // Injected slow handler: parks this worker so overload tests can fill
    // the queue and exercise admission control.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  bool cache_hit = false;
  int status = 500;
  std::string body;
  try {
    std::tie(status, body) = route(request, engine, cache_hit);
  } catch (const HttpError& e) {
    status = e.status();
    body = error_body(e.what());
  } catch (const util::fault::InjectedFault& e) {
    // Recoverable injected failure (e.g. "pool.task"): retryable, so map
    // it to 503 + Retry-After rather than a terminal 500.
    status = 503;
    body = error_body(e.what());
  } catch (const std::exception& e) {
    status = 500;
    body = error_body(std::string("internal error: ") + e.what());
  }
  metrics_.record(request.method + " " + request.target, now_seconds() - start,
                  status >= 400, cache_hit);
  if (FAULT_POINT("serve.send")) return;  // injected: drop the response
  if (status == 503) {
    write_http_response(
        fd, status, "application/json", body,
        {{"Retry-After", std::to_string(opt_.retry_after_seconds)}});
  } else {
    write_http_response(fd, status, "application/json", body);
  }
}

std::pair<int, std::string> Server::route(const HttpRequest& request,
                                          PlanningEngine& engine,
                                          bool& cache_hit) {
  const std::string& target = request.target;
  const bool is_get = request.method == "GET";
  const bool is_post = request.method == "POST";
  if (!is_get && !is_post) {
    throw HttpError(405, "unsupported method " + request.method);
  }

  if (target == "/v1/health") {
    if (!is_get) throw HttpError(405, "use GET /v1/health");
    util::Json body = util::Json::object();
    body.set("status", "ok");
    body.set("nodes", baseline_.graph.num_nodes());
    body.set("edges", baseline_.graph.num_edges());
    body.set("workers", opt_.workers);
    return {200, body.dump()};
  }
  if (target == "/v1/topology") {
    if (!is_get) throw HttpError(405, "use GET /v1/topology");
    return {200, describe_problem(baseline_).dump()};
  }
  if (target == "/v1/metrics") {
    if (!is_get) throw HttpError(405, "use GET /v1/metrics");
    util::Json body = util::Json::object();
    body.set("endpoints", metrics_.snapshot());
    const PlanCache::Stats stats = cache_.stats();
    util::Json cache = util::Json::object();
    cache.set("hits", stats.hits);
    cache.set("misses", stats.misses);
    cache.set("evictions", stats.evictions);
    cache.set("entries", stats.entries);
    cache.set("capacity", stats.capacity);
    const std::uint64_t lookups = stats.hits + stats.misses;
    cache.set("hit_rate", lookups == 0 ? 0.0
                                       : static_cast<double>(stats.hits) /
                                             static_cast<double>(lookups));
    body.set("plan_cache", cache);
    util::Json server = util::Json::object();
    server.set("workers", opt_.workers);
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      std::size_t busy = 0;
      for (const WorkerSlot& slot : slots_) {
        if (slot.active_fd >= 0) ++busy;
      }
      server.set("busy_workers", busy);
      server.set("queue_depth", conn_queue_.size());
    }
    server.set("queue_budget", queue_budget());
    server.set("shed_total", shed_total_.load());
    server.set("worker_restarts", worker_restarts_.load());
    server.set("degraded_total", degraded_total_.load());
    body.set("server", server);
    return {200, body.dump()};
  }
  if (target == "/v1/plan") {
    if (!is_post) throw HttpError(405, "use POST /v1/plan");
    return {200, handle_plan(request.body, engine, cache_hit, now_seconds())};
  }
  if (target == "/v1/shutdown") {
    if (!is_post) throw HttpError(405, "use POST /v1/shutdown");
    if (!opt_.enable_shutdown_endpoint) {
      throw HttpError(404, "shutdown endpoint disabled");
    }
    request_stop();
    util::Json body = util::Json::object();
    body.set("status", "stopping");
    return {200, body.dump()};
  }
  throw HttpError(404, "no such endpoint: " + target);
}

std::string Server::handle_plan(const std::string& body,
                                PlanningEngine& engine, bool& cache_hit,
                                double start_seconds) {
  util::Json parsed;
  try {
    parsed = util::Json::parse(body);
  } catch (const std::exception& e) {
    throw HttpError(400, std::string("invalid JSON: ") + e.what());
  }
  PlanRequest request;
  try {
    request = parse_plan_request(parsed, baseline_);
  } catch (const std::invalid_argument& e) {
    throw HttpError(400, e.what());
  }

  const std::string key = canonical_key(request);
  const std::string digest = fingerprint(key);

  std::shared_ptr<const std::string> payload = cache_.find(key);
  cache_hit = payload != nullptr;
  bool degraded = false;
  if (!payload) {
    PlanOutcome outcome = engine.solve(request);
    degraded = outcome.degraded;
    payload = std::make_shared<const std::string>(outcome.payload.dump());
    if (degraded) {
      // Degraded payloads never enter the cache: a hit must always be
      // bit-identical to a *full* fresh solve.
      degraded_total_.fetch_add(1, std::memory_order_relaxed);
    } else {
      cache_.insert(key, *payload);
    }
  }

  // The payload bytes are spliced in verbatim — identical between a cache
  // hit and a fresh solve.  Everything request-specific (fingerprint,
  // cached/degraded flags, latency) lives in the meta object outside those
  // bytes.
  std::string response = "{\"result\":";
  response += *payload;
  response += ",\"meta\":{\"fingerprint\":\"";
  response += digest;
  response += "\",\"cached\":";
  response += cache_hit ? "true" : "false";
  response += ",\"degraded\":";
  response += degraded ? "true" : "false";
  response += ",\"latency_ms\":";
  response += format_latency_ms(now_seconds() - start_seconds);
  response += "}}";
  return response;
}

}  // namespace netrec::serve
