// The benchmark's HTTP client for timed requests.
//
// netrecd answers one request per connection and closes first, so at tens
// of thousands of plans per second (plan_hot) every connection would leave
// a TIME_WAIT socket behind on the server side.  The kernel's TIME_WAIT
// table then fills within a run and carries over to the next one, and
// connect/accept cost drifts with its state.  This client reads the whole
// response up to the server's FIN and then closes with SO_LINGER 0: the RST
// releases both ends at once.  The request bytes are exactly what
// serve::http_fetch sends, and the retry discipline matches serve::Client:
// transport failures and 503s are retried with capped exponential backoff.
#pragma once

#include <string>

namespace perfbench {

struct PostResult {
  int status = 0;         ///< 0 = every attempt failed at transport level
  int transient_errors = 0;  ///< transport failures and 503s retried
  std::string response;   ///< response body
};

/// POSTs `body` to http://127.0.0.1:<port><target>, retrying up to
/// `max_attempts` times.
PostResult post(int port, const std::string& target, const std::string& body,
                int max_attempts = 4);

}  // namespace perfbench
