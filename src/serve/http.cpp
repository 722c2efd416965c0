#include "serve/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace netrec::serve {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

ssize_t recv_some(int fd, char* buf, std::size_t len) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf, len, 0);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    return -1;
  }
}

bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Splits the header block into lines, accepting CRLF or bare LF.
std::vector<std::string> header_lines(const std::string& block) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < block.size()) {
    std::size_t eol = block.find('\n', pos);
    if (eol == std::string::npos) eol = block.size();
    std::size_t end = eol;
    if (end > pos && block[end - 1] == '\r') --end;
    if (end > pos) lines.push_back(block.substr(pos, end - pos));
    pos = eol + 1;
  }
  return lines;
}

}  // namespace

const char* http_status_text(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 413:
      return "Payload Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

bool read_http_request(int fd, HttpRequest& out) {
  std::string buffer;
  // Read until the blank line terminating the header block.
  std::size_t header_end = std::string::npos;
  while (header_end == std::string::npos) {
    char chunk[4096];
    const ssize_t n = recv_some(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw HttpError(408, "timed out reading request");
      }
      sys_fail("recv");
    }
    if (n == 0) {
      if (buffer.empty()) return false;  // idle connection closed
      throw HttpError(400, "connection closed mid-request");
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (buffer.size() > kMaxHeaderBytes + kMaxBodyBytes) {
      throw HttpError(413, "request too large");
    }
    header_end = buffer.find("\r\n\r\n");
    std::size_t skip = 4;
    if (header_end == std::string::npos) {
      header_end = buffer.find("\n\n");
      skip = 2;
    }
    if (header_end == std::string::npos) {
      if (buffer.size() > kMaxHeaderBytes) {
        throw HttpError(413, "header block too large");
      }
      continue;
    }
    header_end += skip;
  }

  const std::string head = buffer.substr(0, header_end);
  std::string body = buffer.substr(header_end);

  const std::vector<std::string> lines = header_lines(head);
  if (lines.empty()) throw HttpError(400, "empty request");
  // Request line: METHOD SP TARGET SP VERSION.
  {
    const std::string& line = lines.front();
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      throw HttpError(400, "malformed request line");
    }
    out.method = line.substr(0, sp1);
    out.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (line.compare(sp2 + 1, 5, "HTTP/") != 0) {
      throw HttpError(400, "malformed HTTP version");
    }
  }
  out.headers.clear();
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::size_t colon = lines[i].find(':');
    if (colon == std::string::npos) {
      throw HttpError(400, "malformed header line");
    }
    out.headers[lower(trim(lines[i].substr(0, colon)))] =
        trim(lines[i].substr(colon + 1));
  }

  std::size_t content_length = 0;
  if (const auto it = out.headers.find("content-length");
      it != out.headers.end()) {
    std::size_t consumed = 0;
    unsigned long long parsed = 0;
    try {
      parsed = std::stoull(it->second, &consumed);
    } catch (const std::exception&) {
      throw HttpError(400, "malformed Content-Length");
    }
    if (consumed != it->second.size()) {
      throw HttpError(400, "malformed Content-Length");
    }
    if (parsed > kMaxBodyBytes) throw HttpError(413, "body too large");
    content_length = static_cast<std::size_t>(parsed);
  } else if (out.headers.count("transfer-encoding")) {
    throw HttpError(400, "chunked transfer encoding is not supported");
  }

  while (body.size() < content_length) {
    char chunk[4096];
    const ssize_t n = recv_some(
        fd, chunk, std::min(sizeof(chunk), content_length - body.size()));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw HttpError(408, "timed out reading request body");
      }
      sys_fail("recv");
    }
    if (n == 0) throw HttpError(400, "connection closed mid-body");
    body.append(chunk, static_cast<std::size_t>(n));
  }
  if (body.size() > content_length) {
    // Trailing bytes beyond Content-Length (pipelining) are unsupported.
    throw HttpError(400, "unexpected bytes after request body");
  }
  out.body = std::move(body);
  return true;
}

bool write_http_response(int fd, int status, const std::string& content_type,
                         const std::string& body) {
  return write_http_response(fd, status, content_type, body, {});
}

bool write_http_response(
    int fd, int status, const std::string& content_type,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  std::string response = "HTTP/1.1 " + std::to_string(status) + " " +
                         http_status_text(status) +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size());
  for (const auto& [name, value] : extra_headers) {
    response += "\r\n" + name + ": " + value;
  }
  response += "\r\nConnection: close\r\n\r\n";
  // Head and body leave in one send: as a second small segment the body
  // would wait out Nagle until the head is ACKed (server sockets run
  // without TCP_NODELAY).
  response += body;
  return send_all(fd, response.data(), response.size());
}

int listen_on(const std::string& host, int port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("listen_on: bad bind address '" + host + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd, backlog) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("listen");
  }
  return fd;
}

int bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    sys_fail("getsockname");
  }
  return ntohs(addr.sin_port);
}

HttpResponse http_fetch(const std::string& host, int port,
                        const std::string& method, const std::string& target,
                        const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("http_fetch: bad host '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("connect " + host + ":" + std::to_string(port));
  }

  std::string request = method + " " + target + " HTTP/1.1\r\nHost: " + host +
                        "\r\nContent-Length: " + std::to_string(body.size()) +
                        "\r\nConnection: close\r\n\r\n" + body;
  if (!send_all(fd, request.data(), request.size())) {
    ::close(fd);
    throw std::runtime_error("http_fetch: send failed");
  }

  std::string response;
  for (;;) {
    char chunk[4096];
    const ssize_t n = recv_some(fd, chunk, sizeof(chunk));
    if (n < 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      sys_fail("recv");
    }
    if (n == 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
    if (response.size() > kMaxHeaderBytes + kMaxBodyBytes) {
      ::close(fd);
      throw std::runtime_error("http_fetch: oversized response");
    }
  }
  ::close(fd);

  std::size_t header_end = response.find("\r\n\r\n");
  std::size_t skip = 4;
  if (header_end == std::string::npos) {
    header_end = response.find("\n\n");
    skip = 2;
  }
  if (header_end == std::string::npos) {
    throw std::runtime_error("http_fetch: malformed response");
  }
  const std::vector<std::string> lines =
      header_lines(response.substr(0, header_end));
  if (lines.empty()) {
    throw std::runtime_error("http_fetch: empty response head");
  }
  // "HTTP/1.1 NNN ...".
  const std::string& status_line = lines.front();
  const std::size_t sp = status_line.find(' ');
  if (sp == std::string::npos || status_line.size() < sp + 4) {
    throw std::runtime_error("http_fetch: malformed status line");
  }
  HttpResponse out;
  out.status = std::stoi(status_line.substr(sp + 1, 3));
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::size_t colon = lines[i].find(':');
    if (colon == std::string::npos) continue;  // tolerate junk headers
    out.headers[lower(trim(lines[i].substr(0, colon)))] =
        trim(lines[i].substr(colon + 1));
  }
  out.body = response.substr(header_end + skip);
  return out;
}

}  // namespace netrec::serve
