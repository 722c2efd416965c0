// serve::Client — retrying HTTP client for netrecd.
//
// Wraps http_fetch with the retry discipline a fault-tolerant server
// expects of its callers: transport errors (connection reset by a crashed
// worker, dropped response from an injected send fault) and 503 overload
// responses are retried with capped exponential backoff plus deterministic
// jitter; when the server advertises Retry-After on a 503 the client
// honors it (capped) instead of its own backoff.  Everything else — 2xx,
// 4xx, 500 — is returned to the caller immediately: those are answers,
// not outages.
//
// Determinism: the jitter stream is seeded (ClientOptions::jitter_seed),
// so a given client instance retries on an identical schedule run-to-run.
// A Client is single-threaded; give each load-generator thread its own.
#pragma once

#include <cstdint>
#include <string>

#include "serve/http.hpp"
#include "util/rng.hpp"

namespace netrec::serve {

struct ClientOptions {
  /// Total tries (first attempt + retries).
  int max_attempts = 4;
  /// Backoff before retry k (0-based) is initial * 2^k, capped.
  double initial_backoff_ms = 25.0;
  double max_backoff_ms = 1000.0;
  /// Jitter stream seed; the actual sleep is backoff * [0.5, 1.0).
  std::uint64_t jitter_seed = 0x5eedu;
  /// Upper bound applied to server-advertised Retry-After waits so a
  /// misconfigured server cannot park the client for minutes.
  double retry_after_cap_ms = 2000.0;
};

/// Outcome of a request() call after retries are exhausted or resolved.
struct ClientResult {
  /// Final response; status == 0 means every attempt failed at transport
  /// level (error holds the last failure).
  HttpResponse response;
  /// Attempts actually made (>= 1).
  int attempts = 0;
  /// Transport failures + 503s encountered along the way.
  int transient_errors = 0;
  /// Last transport error message (empty if none).
  std::string error;

  bool ok() const { return response.status > 0 && response.status < 500; }
};

class Client {
 public:
  Client(std::string host, int port, ClientOptions options = {});

  /// Sends one request, retrying transport failures and 503s with backoff.
  ClientResult request(const std::string& method, const std::string& target,
                       const std::string& body = "");

 private:
  double backoff_ms(int retry_index, const HttpResponse* last_response);

  std::string host_;
  int port_;
  ClientOptions opt_;
  util::Rng rng_;
};

}  // namespace netrec::serve
