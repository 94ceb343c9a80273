#include "serve/protocol.h"

#include <charconv>
#include <cmath>
#include <system_error>

namespace otfair::serve {

using common::Result;
using common::Status;

namespace {

bool IsBlank(char c) { return c == ' ' || c == '\t'; }

/// Returns the next token of `line` at or after `*pos` and moves `*pos`
/// past it; empty once the line is exhausted. Tokens are split on runs
/// of spaces/tabs (unlike common::Split, which keeps empty tokens):
/// protocol lines are human-typeable.
std::string_view NextToken(std::string_view line, size_t* pos) {
  size_t i = *pos;
  while (i < line.size() && IsBlank(line[i])) ++i;
  const size_t start = i;
  while (i < line.size() && !IsBlank(line[i])) ++i;
  *pos = i;
  return line.substr(start, i - start);
}

bool ParseU64(std::string_view text, uint64_t* out) {
  // Digit first: no sign, no leading blank. from_chars rejects overflow.
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// The feature grammar: an optional single sign ('+' only before a digit
/// or '.'), then a decimal number with an optional exponent. Hex floats
/// are not numbers here; subnormals are. A value that overflows or
/// underflows to zero is rejected, and so is nan/inf in any spelling: a
/// non-finite feature would poison the repair tables and the
/// drift/sketch accumulators.
bool ParseDouble(std::string_view text, double* out) {
  if (text.size() >= 2 && text[0] == '+' &&
      ((text[1] >= '0' && text[1] <= '9') || text[1] == '.'))
    text.remove_prefix(1);
  const char* end = text.data() + text.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// Echoes at most a 32-char prefix of an input token inside an error
/// message, with control characters replaced: the token may be huge or
/// binary junk, and the rendered `err` line must stay one sane line.
std::string SanitizeToken(std::string_view token) {
  std::string shown(token.substr(0, 32));
  for (char& c : shown)
    if (static_cast<unsigned char>(c) < 0x20 || static_cast<unsigned char>(c) >= 0x7f)
      c = '?';
  return shown;
}

/// `repair <session> <row> <u> <s> <x_1..x_dim>`; `pos` is just past the
/// verb. One pass reads every field and counts them; the faults are then
/// reported in the order field count, header, features, so each
/// malformed line names its first fault.
Result<ProtocolRequest> ParseRepair(std::string_view line, size_t pos, size_t dim,
                                    size_t u_levels, size_t s_levels) {
  ProtocolRequest request;
  request.kind = RequestKind::kRepair;
  RowRequest& row = request.row;
  row.features.resize(dim);
  uint64_t header[4] = {};
  bool header_ok = true;
  std::string_view bad_feature;
  size_t fields = 0;
  for (std::string_view token = NextToken(line, &pos); !token.empty();
       token = NextToken(line, &pos), ++fields) {
    if (fields < 4) {
      header_ok = header_ok && ParseU64(token, &header[fields]);
    } else if (fields - 4 < dim && bad_feature.empty() &&
               !ParseDouble(token, &row.features[fields - 4])) {
      bad_feature = token;
    }
  }
  if (fields != 4 + dim)
    return Status::InvalidArgument("usage: repair <session> <row> <u> <s> <x_1..x_" +
                                   std::to_string(dim) + "> (got " + std::to_string(fields) +
                                   " fields)");
  if (!header_ok || header[2] >= u_levels || header[3] >= s_levels)
    return Status::InvalidArgument("bad session/row/u/s fields");
  if (!bad_feature.empty())
    return Status::InvalidArgument("bad feature value '" + SanitizeToken(bad_feature) +
                                   "' (must be a finite number)");
  row.session_id = header[0];
  row.row_index = header[1];
  row.u = static_cast<int>(header[2]);
  row.s = static_cast<int>(header[3]);
  return request;
}

/// Bytes AppendRowResponse may need before trimming: "ok ", two u64s
/// (20 digits each) with their separators, the newline, and per value a
/// separator plus the longest shortest-round-trip double
/// ("-2.2250738585072014e-308", 24 chars).
constexpr size_t kRowHeaderBytes = 3 + 20 + 1 + 20 + 1;
constexpr size_t kValueBytes = 1 + 24;

}  // namespace

Result<ProtocolRequest> ParseRequestLine(std::string_view line, size_t dim, size_t u_levels,
                                         size_t s_levels) {
  if (line.size() > kMaxRequestLineBytes)
    return Status::InvalidArgument("request line exceeds " +
                                   std::to_string(kMaxRequestLineBytes) + " bytes");
  size_t pos = 0;
  const std::string_view verb = NextToken(line, &pos);
  if (verb.empty()) return Status::InvalidArgument("empty request line");
  if (verb == "repair") return ParseRepair(line, pos, dim, u_levels, s_levels);
  ProtocolRequest request;
  if (verb == "metrics") {
    const std::string_view arg = NextToken(line, &pos);
    request.kind =
        arg == "--prom" || arg == "prom" ? RequestKind::kMetricsProm : RequestKind::kMetrics;
    return request;
  }
  if (verb == "health") {
    request.kind = RequestKind::kHealth;
    return request;
  }
  if (verb == "quit") {
    request.kind = RequestKind::kQuit;
    return request;
  }
  if (verb == "checkpoint") {
    request.kind = RequestKind::kCheckpoint;
    return request;
  }
  if (verb == "reload") {
    const std::string_view path = NextToken(line, &pos);
    if (path.empty() || !NextToken(line, &pos).empty())
      return Status::InvalidArgument("usage: reload <plan_path>");
    request.kind = RequestKind::kReload;
    request.plan_path = path;
    return request;
  }
  return Status::InvalidArgument("unknown request '" + SanitizeToken(verb) + "'");
}

void AppendRowResponse(const RowResponse& response, std::string* out) {
  if (!response.status.ok()) {
    *out += FormatErrorLine(response.session_id, response.row_index, response.status);
    *out += '\n';
    return;
  }
  const size_t start = out->size();
  out->resize(start + kRowHeaderBytes + kValueBytes * response.repaired.size());
  char* p = out->data() + start;
  char* const end = out->data() + out->size();
  *p++ = 'o';
  *p++ = 'k';
  *p++ = ' ';
  p = std::to_chars(p, end, response.session_id).ptr;
  *p++ = ' ';
  p = std::to_chars(p, end, response.row_index).ptr;
  for (const double v : response.repaired) {
    *p++ = ' ';
    p = std::to_chars(p, end, v).ptr;
  }
  *p++ = '\n';
  out->resize(static_cast<size_t>(p - out->data()));
}

std::string FormatRowResponse(const RowResponse& response) {
  std::string line;
  AppendRowResponse(response, &line);
  line.pop_back();
  return line;
}

std::string FormatErrorLine(const common::Status& status) {
  std::string line = "err - - ";
  line += common::StatusCodeToString(status.code());
  line += ' ';
  line += status.message();
  return line;
}

std::string FormatErrorLine(uint64_t session_id, uint64_t row_index,
                            const common::Status& status) {
  std::string line = "err ";
  line += std::to_string(session_id);
  line += ' ';
  line += std::to_string(row_index);
  line += ' ';
  line += common::StatusCodeToString(status.code());
  line += ' ';
  line += status.message();
  return line;
}

}  // namespace otfair::serve
