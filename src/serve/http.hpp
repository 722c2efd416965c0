// Minimal HTTP/1.1 plumbing over blocking POSIX sockets — just enough for
// netrecd's request/response JSON protocol, not a general web server.
//
// Supported subset: one request per connection (every response carries
// "Connection: close"), request line + headers + Content-Length body,
// CRLF or bare-LF line endings, hard caps on header and body size so an
// abusive client cannot balloon a worker.  Chunked encoding, pipelining
// and TLS are out of scope.
//
// All fds are plain blocking sockets with a receive timeout; writes use
// send(MSG_NOSIGNAL) so a client hanging up mid-response surfaces as an
// error return instead of SIGPIPE.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace netrec::serve {

/// Protocol-level failure carrying the HTTP status the server should
/// answer with (400 malformed, 413 too large, ...).
class HttpError : public std::runtime_error {
 public:
  HttpError(int status, const std::string& message)
      : std::runtime_error(message), status_(status) {}
  int status() const { return status_; }

 private:
  int status_;
};

struct HttpRequest {
  std::string method;
  std::string target;
  /// Header names lower-cased; values trimmed of surrounding whitespace.
  std::map<std::string, std::string> headers;
  std::string body;
};

inline constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
inline constexpr std::size_t kMaxBodyBytes = 8 * 1024 * 1024;

/// Reads one request from `fd`.  Returns false on clean EOF before any
/// bytes arrived (client closed an idle connection); throws HttpError on
/// malformed or oversized input and std::runtime_error on socket errors.
bool read_http_request(int fd, HttpRequest& out);

/// Writes a complete response (status line, Content-Type, Content-Length,
/// Connection: close, body).  Returns false when the client hung up.
bool write_http_response(int fd, int status, const std::string& content_type,
                         const std::string& body);

/// As above, with extra response headers ("Retry-After" on shed 503s).
/// Names/values are emitted verbatim; callers must not include CR/LF.
bool write_http_response(
    int fd, int status, const std::string& content_type,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers);

const char* http_status_text(int status);

/// Binds and listens on host:port (port 0 = kernel-assigned); returns the
/// listening fd.  Throws std::runtime_error with errno context on failure.
int listen_on(const std::string& host, int port, int backlog = 64);

/// The actual bound port of a listening fd (resolves port-0 binds).
int bound_port(int fd);

/// A parsed one-shot client response: status, lower-cased headers, body.
struct HttpResponse {
  int status = 0;
  std::map<std::string, std::string> headers;
  std::string body;
};

/// Blocking one-shot HTTP client for tests and the load generator: connects
/// to host:port, sends the request, reads and parses the full response
/// (headers included, so callers can honor Retry-After).  Throws
/// std::runtime_error on connection or protocol failure.
HttpResponse http_fetch(const std::string& host, int port,
                        const std::string& method, const std::string& target,
                        const std::string& body);

}  // namespace netrec::serve
