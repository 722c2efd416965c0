#include "serve/client.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

namespace netrec::serve {

namespace {

/// Growth factor of the backoff per retry.
constexpr double kBackoffMultiplier = 2.0;

/// Parses a Retry-After header value in seconds; returns < 0 when absent
/// or malformed (HTTP-date forms are not supported — netrecd only emits
/// delta-seconds).
double retry_after_seconds(const HttpResponse& response) {
  const auto it = response.headers.find("retry-after");
  if (it == response.headers.end()) return -1.0;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(it->second, &consumed);
    if (consumed != it->second.size() || value < 0.0) return -1.0;
    return value;
  } catch (const std::exception&) {
    return -1.0;
  }
}

}  // namespace

Client::Client(std::string host, int port, ClientOptions options)
    : host_(std::move(host)),
      port_(port),
      opt_(options),
      rng_(options.jitter_seed) {}

double Client::backoff_ms(int retry_index, const HttpResponse* last) {
  if (last != nullptr && last->status == 503) {
    const double advertised = retry_after_seconds(*last) * 1e3;
    if (advertised >= 0.0) {
      return std::min(advertised, opt_.retry_after_cap_ms);
    }
  }
  const double base =
      std::min(opt_.initial_backoff_ms *
                   std::pow(kBackoffMultiplier, retry_index),
               opt_.max_backoff_ms);
  // Jitter in [0.5, 1.0) of the base: desynchronises a fleet of retrying
  // clients without ever retrying sooner than half the nominal backoff.
  return base * (0.5 + 0.5 * rng_.uniform());
}

ClientResult Client::request(const std::string& method,
                             const std::string& target,
                             const std::string& body) {
  ClientResult result;
  for (int attempt = 0; attempt < opt_.max_attempts; ++attempt) {
    bool transport_failed = false;
    ++result.attempts;
    try {
      result.response = http_fetch(host_, port_, method, target, body);
      result.error.clear();
    } catch (const std::exception& e) {
      transport_failed = true;
      result.error = e.what();
      result.response = HttpResponse{};
    }
    const bool retryable = transport_failed || result.response.status == 503;
    if (!retryable) return result;
    ++result.transient_errors;
    if (attempt + 1 >= opt_.max_attempts) break;
    const double sleep_ms = backoff_ms(
        attempt, transport_failed ? nullptr : &result.response);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::max(0.0, sleep_ms)));
  }
  return result;
}

}  // namespace netrec::serve
