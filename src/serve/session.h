#ifndef OTFAIR_SERVE_SESSION_H_
#define OTFAIR_SERVE_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "obs/registry.h"
#include "serve/batcher.h"
#include "serve/repair_service.h"

namespace otfair::serve {

/// What every session of one front end shares: the service, the owner's
/// batcher, the `checkpoint` hook and the transport's counters.
struct SessionEnv {
  RepairService* service = nullptr;
  Batcher* batcher = nullptr;
  /// `checkpoint` verb: persist now, return the generation. Unset answers
  /// FAILED_PRECONDITION.
  std::function<common::Result<uint64_t>()> checkpoint;
  /// Optional counters (null: not counted): lines the parser rejected,
  /// streams closed for an oversized line or garbage, and repair rows
  /// answered UNAVAILABLE.
  obs::Counter* protocol_errors = nullptr;
  obs::Counter* oversize_closed = nullptr;
  obs::Counter* backpressure = nullptr;
};

/// One request stream of the serve protocol (serve/protocol.h): line
/// framing, parsing, the verb dispatch and the pending output. Transports
/// are thin drivers: they `Feed` the bytes they read, flush the batcher,
/// and write out `pending_output()`. Stdio drives one session on fds 0/1;
/// the TCP server drives one per connection.
///
/// Framing: lines end at '\n'; a trailing '\r' is stripped and blank
/// lines are skipped. A line longer than kMaxRequestLineBytes — judged on
/// the buffered prefix, so the cap holds before its newline arrives — gets
/// an error line and closes the stream.
///
/// Errors: a line whose first token is not a verb (binary junk, another
/// protocol) gets a sanitized error line and closes the stream; a known
/// verb with bad arguments gets an error line and the stream stays open.
///
/// Rows go to the batcher stamped with this session's stream id; the
/// batcher's sink hands each response back through `Deliver` on the
/// session whose id it carries. Single-threaded, like the batcher.
class Session {
 public:
  /// `env` must outlive the session.
  Session(const SessionEnv* env, uint64_t stream_id);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Handles every complete line in `data` (plus what earlier calls left
  /// buffered). Input after the stream closes is ignored.
  void Feed(const char* data, size_t size);

  /// The peer stopped sending: a final unterminated line is handled as if
  /// terminated, then the stream closes.
  void EndOfInput();

  /// No more input will be handled (quit, garbage, oversize, end of
  /// input). Every row this session submitted has been delivered by the
  /// time it closes, so the transport may close once output is written.
  bool closed() const { return closed_; }

  /// Appends a repaired row's response line.
  void Deliver(const RowResponse& response);

  /// Output not yet written, and how the transport reports progress.
  const char* pending_output() const { return out_.data() + out_off_; }
  size_t pending_output_size() const { return out_.size() - out_off_; }
  void ConsumeOutput(size_t n);

  uint64_t stream_id() const { return stream_id_; }

 private:
  /// `line` views the input buffer, which stays untouched until it returns.
  void HandleLine(std::string_view line);
  void Respond(const std::string& line);
  /// Closes the stream after delivering every row it submitted.
  void Close();

  const SessionEnv* env_;
  uint64_t stream_id_;
  /// Unconsumed input (at most one partial line between Feed calls).
  std::string in_;
  /// Pending output; [out_off_, out_.size()) is unwritten.
  std::string out_;
  size_t out_off_ = 0;
  bool closed_ = false;
};

}  // namespace otfair::serve

#endif  // OTFAIR_SERVE_SESSION_H_
