#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ndft::net {

namespace {

std::string errno_text(const char* op) {
  return std::string(op) + " failed: " + std::strerror(errno);
}

sockaddr_in make_addr(const std::string& address, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    throw NdftError("invalid IPv4 address: " + address);
  }
  return addr;
}

// Waits for readability; returns true when ready, false on timeout.
// timeout_ms == 0 waits forever (in bounded slices so EINTR is harmless).
bool wait_readable(int fd, double timeout_ms) {
  const bool forever = timeout_ms <= 0.0;
  double remaining = timeout_ms;
  while (true) {
    int slice = 100;  // ms; bounds how long a stale wait can linger
    if (!forever) {
      if (remaining <= 0.0) return false;
      if (remaining < slice) slice = static_cast<int>(remaining) + 1;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, slice);
    if (rc > 0) return true;
    if (rc < 0 && errno != EINTR) {
      throw NdftError(errno_text("poll"));
    }
    if (!forever) remaining -= slice;
  }
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket Socket::connect(const std::string& address, std::uint16_t port) {
  const sockaddr_in addr = make_addr(address, port);
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    throw NdftError(errno_text("socket"));
  }
  int rc;
  do {
    rc = ::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    throw NdftError("connect to " + address + ":" + std::to_string(port) +
                    " failed: " + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::send_all(const char* data, std::size_t size) {
  NDFT_REQUIRE(valid(), "send on closed socket");
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as EPIPE,
    // not kill the process with SIGPIPE.
    const ssize_t n =
        ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw NdftError(errno_text("send"));
    }
    sent += static_cast<std::size_t>(n);
  }
}

long Socket::recv_some(char* data, std::size_t size, double timeout_ms) {
  NDFT_REQUIRE(valid(), "recv on closed socket");
  if (!wait_readable(fd_, timeout_ms)) return -1;
  while (true) {
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    if (errno == ECONNRESET) return 0;  // abrupt close == orderly for us
    throw NdftError(errno_text("recv"));
  }
}

std::string Socket::peer_address() const {
  if (!valid()) return "?";
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      addr.sin_family != AF_INET) {
    return "?";
  }
  char buf[INET_ADDRSTRLEN] = {};
  if (::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf)) == nullptr) {
    return "?";
  }
  return buf;
}

Listener::Listener(const std::string& address, std::uint16_t port,
                   int backlog) {
  const sockaddr_in addr = make_addr(address, port);
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw NdftError(errno_text("socket"));
  }
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string text = "bind " + address + ":" + std::to_string(port) +
                             " failed: " + std::strerror(errno);
    close();
    throw NdftError(text);
  }
  if (::listen(fd_, backlog) != 0) {
    const std::string text = errno_text("listen");
    close();
    throw NdftError(text);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const std::string text = errno_text("getsockname");
    close();
    throw NdftError(text);
  }
  port_ = ntohs(bound.sin_port);
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

Socket Listener::accept(double timeout_ms) {
  NDFT_REQUIRE(valid(), "accept on closed listener");
  if (!wait_readable(fd_, timeout_ms)) return Socket();
  while (true) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      Socket sock(fd);
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return sock;
    }
    if (errno == EINTR) continue;
    // The pending connection was already reset (or the listener was
    // closed under us): not fatal.
    if (errno == EBADF || errno == EINVAL || errno == ECONNABORTED) {
      return Socket();
    }
    throw NdftError(errno_text("accept"));
  }
}

void Listener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace ndft::net
