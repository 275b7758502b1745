// Length-prefixed framing with deadlines.
//
// Every blocking socket operation in net/ goes through these helpers, and
// every helper takes an absolute deadline — a stalled peer costs the caller
// at most the configured timeout, never a hang. Frames are `u32 LE length |
// payload` with a caller-supplied size cap checked *before* any cast to
// u32, so a >4 GiB payload is rejected instead of silently truncated.
// Every frame writer encodes the header through `encode_frame_header`.
//
// Each frame leaves in one send call (`sendmsg` over a header iovec and a
// payload iovec). Sending the header and the payload as two writes makes a
// client's request a write-write-read: Nagle holds the payload until the
// server's delayed ACK of the header fires, ~44 ms per round trip on Linux
// loopback.
//
// The pure parser (`parse_frame`) is shared with the fuzz tests and the
// fault-injection harness: one source of truth for what a valid frame is.
#pragma once

#include <chrono>
#include <cstdint>

#include "util/bytes.hpp"

namespace lvq::netio {

using Clock = std::chrono::steady_clock;
using Deadline = Clock::time_point;

/// Sentinel for "no deadline" (used by callers that opt out of timeouts).
inline constexpr Deadline kNoDeadline = Deadline::max();

/// Absolute deadline `ms` from now; 0 means no deadline.
inline Deadline deadline_after_ms(std::uint32_t ms) {
  return ms == 0 ? kNoDeadline : Clock::now() + std::chrono::milliseconds(ms);
}

enum class FrameResult : std::uint8_t {
  kOk,
  kEof,        // orderly close at a frame boundary (clean disconnect)
  kTruncated,  // connection died mid-frame (malformed)
  kTimeout,    // deadline expired
  kOversize,   // length prefix (or outgoing payload) exceeds the cap
  kError,      // socket error (reset, EPIPE, ...)
};

const char* frame_result_name(FrameResult r);

/// Writes `u32 len | payload` in one gathered send; a partial write
/// resumes mid-iovec until the whole frame is out. Rejects payloads over
/// `cap` (checked as size_t, before the narrowing cast) with kOversize.
FrameResult write_frame(int fd, ByteSpan payload, std::uint32_t cap,
                        Deadline deadline);

/// Reads one frame into `out`. Distinguishes a clean EOF before any byte of
/// the header (kEof) from a connection lost mid-frame (kTruncated).
FrameResult read_frame(int fd, Bytes& out, std::uint32_t cap,
                       Deadline deadline);

/// Polls `fd` for readability without consuming bytes: kOk when at least
/// one byte (or EOF) is pending, kTimeout at the deadline, kError on a
/// socket error. Servers use it to split "waiting for a request to start"
/// (idle timeout) from "finishing a frame that has started" (a tighter
/// per-frame deadline — the slow-loris guard).
FrameResult wait_readable(int fd, Deadline deadline);

/// Writes raw bytes with no framing — the fault-injection harness uses
/// this to emit deliberately broken frames.
FrameResult write_raw(int fd, ByteSpan data, Deadline deadline);

// ---- pure, socket-free frame layer (fuzzing & fault injection) ----

enum class ParseStatus : std::uint8_t {
  kOk,        // a complete frame is present
  kNeedMore,  // buffer is a valid but incomplete prefix
  kOversize,  // length prefix exceeds the cap
};

/// The 4 header bytes of a frame whose payload is `len` bytes (u32 LE).
void encode_frame_header(std::uint8_t header[4], std::uint32_t len);

/// Little-endian u32 from the 4 header bytes.
std::uint32_t decode_frame_len(const std::uint8_t header[4]);

/// Parses one frame from the front of `in`. On kOk, `*payload` views the
/// payload inside `in` and `*frame_len` is the total bytes consumed.
ParseStatus parse_frame(ByteSpan in, std::uint32_t cap, ByteSpan* payload,
                        std::size_t* frame_len);

/// Encodes `u32 len | payload` into an owning buffer. The caller must have
/// enforced the cap; this asserts payload fits a u32.
Bytes encode_frame(ByteSpan payload);

}  // namespace lvq::netio
