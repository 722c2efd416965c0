#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <thread>

namespace perfbench {

namespace {

constexpr double kInitialBackoffMs = 25.0;

/// One attempt; returns false on a transport failure.
bool attempt(int port, const std::string& request, int& status,
             std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const linger abort_on_close{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_on_close,
               sizeof(abort_on_close));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  std::string response;
  bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0;
  for (std::size_t sent = 0; ok && sent < request.size();) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0;
    if (ok) sent += static_cast<std::size_t>(n);
  }
  while (ok) {
    char chunk[16384];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ok = n == 0;  // EOF: the server sent its FIN after the response
      break;
    }
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (!ok) return false;

  // "HTTP/1.1 NNN ...\r\n...\r\n\r\n<body>"
  const std::size_t head_end = response.find("\r\n\r\n");
  const std::size_t space = response.find(' ');
  if (head_end == std::string::npos || space == std::string::npos ||
      space + 4 > head_end) {
    return false;
  }
  status = 0;
  for (std::size_t i = space + 1; i < space + 4; ++i) {
    if (response[i] < '0' || response[i] > '9') return false;
    status = status * 10 + (response[i] - '0');
  }
  body = response.substr(head_end + 4);
  return true;
}

}  // namespace

PostResult post(int port, const std::string& target, const std::string& body,
                int max_attempts) {
  const std::string request =
      "POST " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  PostResult result;
  double backoff_ms = kInitialBackoffMs;
  for (int i = 0; i < max_attempts; ++i) {
    if (i > 0) {
      ++result.transient_errors;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
      backoff_ms *= 2.0;
    }
    int status = 0;
    std::string response;
    if (!attempt(port, request, status, response)) {
      result.status = 0;
      continue;
    }
    result.status = status;
    result.response = std::move(response);
    if (status != 503) break;
  }
  return result;
}

}  // namespace perfbench
