#include "serve/session.h"

#include <utility>

#include "serve/protocol.h"

namespace otfair::serve {

using common::Status;

namespace {

/// Verbs ParseRequestLine understands. A parse failure on a line whose
/// first token is NOT one of these is garbage input (binary junk, the
/// wrong protocol) and closes the stream; a malformed line with a known
/// verb is a client bug worth an error line but not a disconnect.
bool KnownVerb(std::string_view line) {
  const size_t i = line.find_first_not_of(" \t");
  if (i == std::string_view::npos) return false;
  const std::string_view verb = line.substr(i, line.find_first_of(" \t", i) - i);
  return verb == "repair" || verb == "metrics" || verb == "health" || verb == "reload" ||
         verb == "checkpoint" || verb == "quit";
}

void Count(obs::Counter* counter) {
  if (counter != nullptr) counter->Add(1);
}

}  // namespace

Session::Session(const SessionEnv* env, uint64_t stream_id)
    : env_(env), stream_id_(stream_id) {}

void Session::Feed(const char* data, size_t size) {
  if (closed_) return;
  // What earlier calls left buffered holds no newline; scan only the rest.
  size_t scan = in_.size();
  in_.append(data, size);
  size_t start = 0;
  while (!closed_) {
    const size_t nl = in_.find('\n', scan);
    const size_t line_len = (nl == std::string::npos ? in_.size() : nl) - start;
    if (line_len > kMaxRequestLineBytes) {
      // The cap holds across split reads: a newline-less line is rejected
      // as soon as the buffered prefix alone exceeds it.
      Count(env_->oversize_closed);
      Respond(FormatErrorLine(Status::InvalidArgument(
          "request line exceeds " + std::to_string(kMaxRequestLineBytes) + " bytes")));
      Close();
      break;
    }
    if (nl == std::string::npos) break;
    HandleLine(std::string_view(in_).substr(start, line_len));
    start = scan = nl + 1;
  }
  if (closed_) {
    in_.clear();
  } else {
    in_.erase(0, start);
  }
}

void Session::EndOfInput() {
  if (closed_) return;
  if (!in_.empty()) {
    HandleLine(in_);
    in_.clear();
  }
  Close();
}

void Session::HandleLine(std::string_view line) {
  while (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line.empty()) return;
  RepairService& service = *env_->service;
  Batcher& batcher = *env_->batcher;
  auto request =
      ParseRequestLine(line, service.dim(), service.u_levels(), service.s_levels());
  if (!request.ok()) {
    Count(env_->protocol_errors);
    Respond(FormatErrorLine(request.status()));
    if (!KnownVerb(line)) {
      // Garbage: this stream is not speaking the protocol.
      Count(env_->oversize_closed);
      Close();
    }
    return;
  }
  switch (request->kind) {
    case RequestKind::kRepair: {
      const uint64_t session = request->row.session_id;
      const uint64_t row = request->row.row_index;
      request->row.stream_id = stream_id_;
      if (Status status = batcher.Submit(std::move(request->row)); !status.ok()) {
        // Explicit backpressure: the row is answered, never dropped.
        Count(env_->backpressure);
        Respond(FormatErrorLine(session, row, status));
      }
      break;
    }
    case RequestKind::kMetrics:
      Respond(service.metrics().Snapshot(batcher.queue_depth()).ToJson());
      break;
    case RequestKind::kMetricsProm: {
      // The one multi-line response: the exposition text (every line
      // newline-terminated by the renderer) plus a "# EOF" marker so a
      // line-oriented client knows where the payload ends.
      std::string text = service.metrics().RenderPrometheus(batcher.queue_depth());
      text += "# EOF";
      Respond(text);
      break;
    }
    case RequestKind::kHealth:
      Respond(service.Health().ToJson());
      break;
    case RequestKind::kReload:
      if (Status status = service.ReloadPlanFromFile(request->plan_path); !status.ok()) {
        Respond(FormatErrorLine(status));
      } else {
        Respond("ok reload " + std::to_string(service.plan_version()));
      }
      break;
    case RequestKind::kCheckpoint: {
      if (!env_->checkpoint) {
        Respond(FormatErrorLine(Status::FailedPrecondition(
            "checkpointing disabled (serve with --checkpoint_dir)")));
        break;
      }
      // Drain the pending micro-batch first so the acked checkpoint covers
      // every row accepted before the verb, and their responses precede
      // the ack.
      batcher.Flush();
      auto generation = env_->checkpoint();
      if (!generation.ok()) {
        Respond(FormatErrorLine(generation.status()));
      } else {
        Respond("ok checkpoint " + std::to_string(*generation));
      }
      break;
    }
    case RequestKind::kQuit:
      Close();
      break;
  }
}

void Session::Deliver(const RowResponse& response) { AppendRowResponse(response, &out_); }

void Session::Respond(const std::string& line) {
  out_ += line;
  out_ += '\n';
}

void Session::ConsumeOutput(size_t n) {
  out_off_ += n;
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  } else if (out_off_ > (1u << 20)) {
    out_.erase(0, out_off_);
    out_off_ = 0;
  }
}

void Session::Close() {
  // Flush while still open: a transport that sees a closed session with
  // no pending output may close the stream, and these responses are owed.
  env_->batcher->Flush();
  closed_ = true;
}

}  // namespace otfair::serve
