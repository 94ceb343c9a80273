#ifndef OTFAIR_SERVE_PROTOCOL_H_
#define OTFAIR_SERVE_PROTOCOL_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "serve/repair_service.h"

namespace otfair::serve {

/// The newline-delimited request/response protocol `otfair serve` speaks.
/// One protocol, two transports: stdin/stdout, or one stream per TCP
/// connection (`otfair serve --listen`). Both drive a `serve::Session`
/// (serve/session.h), which owns framing and verb dispatch. One request
/// per line, whitespace-separated fields:
///
///   repair <session_id> <row_index> <u> <s> <x_1> ... <x_d>
///   metrics              -> one-line JSON metrics snapshot
///   metrics --prom       -> Prometheus text exposition, "# EOF"-terminated
///   health               -> one-line JSON drift/health verdict
///   reload <plan_path>   -> hot-swaps the serving plan
///   checkpoint           -> forces a synchronous checkpoint write
///   quit                 -> delivers pending rows and ends the stream
///
/// Responses (one line each):
///
///   ok <session_id> <row_index> <y_1> ... <y_d>     repaired row
///   err <session_id> <row_index> <CODE> <message>   per-row failure
///   ok reload <version>                             after a reload
///   ok checkpoint <generation>                      after a forced write
///   {...}                                           metrics / health JSON
///
/// `metrics --prom` is the one multi-line response: the full exposition
/// text followed by a terminating "# EOF" line (a comment under the
/// exposition grammar, so the payload stays checker-clean).
///
/// Numbers: the integer fields are unsigned decimal, digits only. A
/// feature is a finite decimal double: one optional sign ('+' only before
/// a digit or '.'), digits with an optional '.', an optional exponent
/// (`1`, `-0.5`, `+.25`, `5.`, `1e-3`, `4e-320`). Hex floats, nan/inf in
/// any spelling and values that overflow or underflow to zero are
/// rejected. Repaired values print as the shortest decimal that parses
/// back to the same double (`std::to_chars`), so a round trip through the
/// protocol is bit-exact. Framing and which errors end a stream are
/// `serve::Session`'s.

enum class RequestKind { kRepair, kMetrics, kMetricsProm, kHealth, kReload, kCheckpoint, kQuit };

/// Hard ceiling on one request line's length. A well-formed repair line is
/// ~25 bytes per feature, so 64 KiB comfortably covers dim in the
/// thousands; anything longer is garbage (or a protocol abuse) and is
/// rejected with a structured error before tokenization touches it.
inline constexpr size_t kMaxRequestLineBytes = 64 * 1024;

struct ProtocolRequest {
  RequestKind kind = RequestKind::kRepair;
  RowRequest row;         // kRepair
  std::string plan_path;  // kReload
};

/// Parses one request line. `dim` is the serving dimensionality; a repair
/// line must carry exactly `dim` features. `u_levels`/`s_levels` bound the
/// categorical group labels (the binary protocol is u_levels = s_levels =
/// 2). Blank lines are invalid.
///
/// Hardened against garbage input: any malformed line — truncated
/// commands, out-of-range labels, non-numeric or non-finite (nan/inf)
/// feature payloads, oversized lines (> kMaxRequestLineBytes), binary
/// junk — comes back as an InvalidArgument status (rendered by
/// FormatErrorLine into a structured `err` line). Parsing never throws,
/// crashes, or silently coerces a bad field. Nothing is allocated per
/// token: a valid line allocates only its feature vector (or reload path).
common::Result<ProtocolRequest> ParseRequestLine(std::string_view line, size_t dim,
                                                 size_t u_levels = 2, size_t s_levels = 2);

/// Appends the `ok .../err ...` response line for one repaired row, with
/// its trailing newline, to `out`. An `ok` line is written in place, with
/// no temporary string.
void AppendRowResponse(const RowResponse& response, std::string* out);

/// The same line as a string, without the trailing newline.
std::string FormatRowResponse(const RowResponse& response);

/// Formats a request-level failure (parse errors, rejected submits) as an
/// `err` line; session/row are echoed when known, `-` otherwise.
std::string FormatErrorLine(const common::Status& status);
std::string FormatErrorLine(uint64_t session_id, uint64_t row_index,
                            const common::Status& status);

}  // namespace otfair::serve

#endif  // OTFAIR_SERVE_PROTOCOL_H_
