#include "net/frame.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>

#include "util/check.hpp"

namespace lvq::netio {

namespace {

enum class IoResult : std::uint8_t { kOk, kEof, kTimeout, kError };

/// Polls `fd` for `events` until readiness or the deadline.
IoResult wait_fd(int fd, short events, Deadline deadline) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline != kNoDeadline) {
      Clock::time_point now = Clock::now();
      if (now >= deadline) return IoResult::kTimeout;
      auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
              .count();
      // +1 rounds up so we never poll(0) and spin at the deadline edge.
      timeout_ms = static_cast<int>(
          remaining + 1 < static_cast<long long>(INT_MAX) ? remaining + 1
                                                          : INT_MAX);
    }
    pollfd p{fd, events, 0};
    int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) return IoResult::kOk;
    if (rc == 0) return IoResult::kTimeout;
    if (errno == EINTR) continue;
    return IoResult::kError;
  }
}

IoResult read_full(int fd, std::uint8_t* out, std::size_t n,
                   Deadline deadline) {
  std::size_t off = 0;
  while (off < n) {
    IoResult ready = wait_fd(fd, POLLIN, deadline);
    if (ready != IoResult::kOk) return ready;
    ssize_t got = ::read(fd, out + off, n - off);
    if (got == 0) return IoResult::kEof;
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IoResult::kError;
    }
    off += static_cast<std::size_t>(got);
  }
  return IoResult::kOk;
}

/// Sends every byte of `iov[0..cnt)`, one sendmsg per readiness, so all
/// the buffers leave together (a frame's header never goes out alone).
/// Advances `iov` in place across partial writes.
IoResult write_iov(int fd, iovec* iov, std::size_t cnt, Deadline deadline) {
  for (;;) {
    while (cnt > 0 && iov->iov_len == 0) {
      ++iov;
      --cnt;
    }
    if (cnt == 0) return IoResult::kOk;
    IoResult ready = wait_fd(fd, POLLOUT, deadline);
    if (ready != IoResult::kOk) return ready;
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = cnt;
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as EPIPE,
    // not kill the process with SIGPIPE.
    ssize_t put = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IoResult::kError;
    }
    for (auto left = static_cast<std::size_t>(put); left > 0;) {
      const std::size_t step = std::min(left, iov->iov_len);
      iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + step;
      iov->iov_len -= step;
      left -= step;
      if (iov->iov_len == 0) {
        ++iov;
        --cnt;
      }
    }
  }
}

FrameResult map_io(IoResult r, bool mid_frame) {
  switch (r) {
    case IoResult::kOk: return FrameResult::kOk;
    case IoResult::kEof:
      return mid_frame ? FrameResult::kTruncated : FrameResult::kEof;
    case IoResult::kTimeout: return FrameResult::kTimeout;
    case IoResult::kError: return FrameResult::kError;
  }
  return FrameResult::kError;
}

}  // namespace

const char* frame_result_name(FrameResult r) {
  switch (r) {
    case FrameResult::kOk: return "ok";
    case FrameResult::kEof: return "eof";
    case FrameResult::kTruncated: return "truncated";
    case FrameResult::kTimeout: return "timeout";
    case FrameResult::kOversize: return "oversize";
    case FrameResult::kError: return "error";
  }
  return "unknown";
}

void encode_frame_header(std::uint8_t header[4], std::uint32_t len) {
  for (int i = 0; i < 4; ++i)
    header[i] = static_cast<std::uint8_t>(len >> (8 * i));
}

std::uint32_t decode_frame_len(const std::uint8_t header[4]) {
  std::uint32_t n = 0;
  for (int i = 0; i < 4; ++i) n |= std::uint32_t{header[i]} << (8 * i);
  return n;
}

FrameResult write_frame(int fd, ByteSpan payload, std::uint32_t cap,
                        Deadline deadline) {
  // size_t comparison BEFORE the u32 cast: a >4 GiB payload must be
  // rejected here, not framed with a silently wrapped length.
  if (payload.size() > cap) return FrameResult::kOversize;
  std::uint8_t header[4];
  encode_frame_header(header, static_cast<std::uint32_t>(payload.size()));
  iovec iov[2] = {{header, 4},
                  {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  return map_io(write_iov(fd, iov, 2, deadline), /*mid_frame=*/true);
}

FrameResult read_frame(int fd, Bytes& out, std::uint32_t cap,
                       Deadline deadline) {
  std::uint8_t header[4];
  // First byte separately: EOF here is an orderly close between frames,
  // EOF anywhere later means the peer died mid-frame.
  IoResult r = read_full(fd, header, 1, deadline);
  if (r != IoResult::kOk) return map_io(r, /*mid_frame=*/false);
  r = read_full(fd, header + 1, 3, deadline);
  if (r != IoResult::kOk) return map_io(r, /*mid_frame=*/true);
  std::uint32_t n = decode_frame_len(header);
  if (n > cap) return FrameResult::kOversize;
  out.resize(n);
  if (n == 0) return FrameResult::kOk;
  r = read_full(fd, out.data(), n, deadline);
  return map_io(r, /*mid_frame=*/true);
}

FrameResult wait_readable(int fd, Deadline deadline) {
  return map_io(wait_fd(fd, POLLIN, deadline), /*mid_frame=*/false);
}

FrameResult write_raw(int fd, ByteSpan data, Deadline deadline) {
  iovec iov{const_cast<std::uint8_t*>(data.data()), data.size()};
  return map_io(write_iov(fd, &iov, 1, deadline), /*mid_frame=*/true);
}

ParseStatus parse_frame(ByteSpan in, std::uint32_t cap, ByteSpan* payload,
                        std::size_t* frame_len) {
  if (in.size() < 4) return ParseStatus::kNeedMore;
  std::uint32_t n = decode_frame_len(in.data());
  if (n > cap) return ParseStatus::kOversize;
  if (in.size() < 4 + static_cast<std::size_t>(n)) return ParseStatus::kNeedMore;
  if (payload) *payload = in.subspan(4, n);
  if (frame_len) *frame_len = 4 + static_cast<std::size_t>(n);
  return ParseStatus::kOk;
}

Bytes encode_frame(ByteSpan payload) {
  LVQ_CHECK(payload.size() <= 0xffffffffu);
  Bytes out(4);
  out.reserve(payload.size() + 4);
  encode_frame_header(out.data(), static_cast<std::uint32_t>(payload.size()));
  append(out, payload);
  return out;
}

}  // namespace lvq::netio
