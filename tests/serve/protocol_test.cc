#include "serve/protocol.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace otfair::serve {
namespace {

TEST(ProtocolTest, ParsesRepairLine) {
  auto request = ParseRequestLine("repair 3 17 1 0 0.25 -1.5", 2);
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->kind, RequestKind::kRepair);
  EXPECT_EQ(request->row.session_id, 3u);
  EXPECT_EQ(request->row.row_index, 17u);
  EXPECT_EQ(request->row.u, 1);
  EXPECT_EQ(request->row.s, 0);
  ASSERT_EQ(request->row.features.size(), 2u);
  EXPECT_EQ(request->row.features[0], 0.25);
  EXPECT_EQ(request->row.features[1], -1.5);
}

TEST(ProtocolTest, ToleratesExtraWhitespace) {
  auto request = ParseRequestLine("  repair  0\t0  0 1   1.0  2.0 ", 2);
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->row.s, 1);
}

TEST(ProtocolTest, RejectsMalformedRepairLines) {
  EXPECT_FALSE(ParseRequestLine("", 2).ok());
  EXPECT_FALSE(ParseRequestLine("repair", 2).ok());
  EXPECT_FALSE(ParseRequestLine("repair 0 0 0 1 1.0", 2).ok());          // missing feature
  EXPECT_FALSE(ParseRequestLine("repair 0 0 0 1 1.0 2.0 3.0", 2).ok());  // extra feature
  EXPECT_FALSE(ParseRequestLine("repair 0 0 2 0 1.0 2.0", 2).ok());      // u out of range
  EXPECT_FALSE(ParseRequestLine("repair 0 0 0 1 1.0 abc", 2).ok());      // bad number
  EXPECT_FALSE(ParseRequestLine("repair x 0 0 1 1.0 2.0", 2).ok());      // bad session
  EXPECT_FALSE(ParseRequestLine("repair -1 0 0 1 1.0 2.0", 2).ok());     // negative session
  EXPECT_FALSE(ParseRequestLine("repair 0 -3 0 1 1.0 2.0", 2).ok());     // negative row
  EXPECT_FALSE(ParseRequestLine("unknown-verb 1 2 3", 2).ok());
}

TEST(ProtocolTest, ParsesControlVerbs) {
  EXPECT_EQ(ParseRequestLine("metrics", 2)->kind, RequestKind::kMetrics);
  EXPECT_EQ(ParseRequestLine("health", 2)->kind, RequestKind::kHealth);
  EXPECT_EQ(ParseRequestLine("quit", 2)->kind, RequestKind::kQuit);
  auto reload = ParseRequestLine("reload /tmp/plan.bin", 2);
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload->kind, RequestKind::kReload);
  EXPECT_EQ(reload->plan_path, "/tmp/plan.bin");
  EXPECT_FALSE(ParseRequestLine("reload", 2).ok());
  EXPECT_FALSE(ParseRequestLine("reload a b", 2).ok());
  EXPECT_EQ(ParseRequestLine("checkpoint", 2)->kind, RequestKind::kCheckpoint);
  EXPECT_EQ(ParseRequestLine("  checkpoint  ", 2)->kind, RequestKind::kCheckpoint);
  // No operands: a checkpoint request names nothing.
  EXPECT_FALSE(ParseRequestLine("checkpointing", 2).ok());
}

TEST(ProtocolTest, FormatsOkResponseWithRoundTripPrecision) {
  RowResponse response;
  response.session_id = 4;
  response.row_index = 9;
  response.repaired = {0.1, -2.0};
  const std::string line = FormatRowResponse(response);
  // The shortest decimal that reads back as the same double.
  EXPECT_EQ(line, "ok 4 9 0.1 -2");
  double parsed = 0.0;
  ASSERT_EQ(std::sscanf(line.c_str(), "ok 4 9 %lf", &parsed), 1);
  EXPECT_EQ(parsed, 0.1);
}

TEST(ProtocolTest, AppendRowResponseAppendsOneTerminatedLine) {
  RowResponse ok;
  ok.session_id = 18446744073709551615u;
  ok.row_index = 0;
  ok.repaired = {-0.0, 1e+300, 5e-324};
  RowResponse err;
  err.session_id = 2;
  err.row_index = 5;
  err.status = common::Status::InvalidArgument("bad row");
  std::string out = "prefix\n";
  AppendRowResponse(ok, &out);
  AppendRowResponse(err, &out);
  EXPECT_EQ(out,
            "prefix\n"
            "ok 18446744073709551615 0 -0 1e+300 5e-324\n"
            "err 2 5 INVALID_ARGUMENT bad row\n");
  EXPECT_EQ(FormatRowResponse(ok), "ok 18446744073709551615 0 -0 1e+300 5e-324");
}

// --- Number grammar ----------------------------------------------------------
//
// Features are read with std::from_chars plus one rule: a single leading
// '+' before a digit or '.' is skipped. That pins the three spellings on
// which from_chars and strtod disagree.

/// The one feature of a dim-1 repair line, or nullopt when rejected.
std::optional<double> ParseFeature(const std::string& text) {
  auto request = ParseRequestLine("repair 0 0 0 0 " + text, 1);
  if (!request.ok()) return std::nullopt;
  return request->row.features[0];
}

TEST(ProtocolNumberGrammarTest, AcceptsOneLeadingPlusBeforeADigitOrPoint) {
  EXPECT_EQ(ParseFeature("+1.0"), 1.0);
  EXPECT_EQ(ParseFeature("+.5"), 0.5);
  EXPECT_EQ(ParseFeature("+2e3"), 2000.0);
  EXPECT_EQ(ParseFeature("+0"), 0.0);
  EXPECT_EQ(ParseFeature("+-1"), std::nullopt);
  EXPECT_EQ(ParseFeature("++1"), std::nullopt);
  EXPECT_EQ(ParseFeature("-+1"), std::nullopt);
  EXPECT_EQ(ParseFeature("+"), std::nullopt);
  EXPECT_EQ(ParseFeature("+inf"), std::nullopt);
  EXPECT_EQ(ParseFeature("+nan"), std::nullopt);
  EXPECT_EQ(ParseFeature("+e1"), std::nullopt);
}

TEST(ProtocolNumberGrammarTest, RejectsHexFloats) {
  EXPECT_EQ(ParseFeature("0x1p3"), std::nullopt);
  EXPECT_EQ(ParseFeature("0X10"), std::nullopt);
  EXPECT_EQ(ParseFeature("-0x1.8p1"), std::nullopt);
  EXPECT_EQ(ParseFeature("+0x1p3"), std::nullopt);
}

TEST(ProtocolNumberGrammarTest, AcceptsSubnormalsAndRejectsUnderflowToZero) {
  const std::optional<double> subnormal = ParseFeature("4e-320");
  ASSERT_TRUE(subnormal.has_value());
  EXPECT_GT(*subnormal, 0.0);
  EXPECT_LT(*subnormal, std::numeric_limits<double>::min());
  EXPECT_EQ(ParseFeature("4.9406564584124654e-324"),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(ParseFeature("-5e-324"), -std::numeric_limits<double>::denorm_min());
  // Below half of denorm_min the value would round to zero: out of range,
  // as under strtod.
  EXPECT_EQ(ParseFeature("1e-400"), std::nullopt);
  EXPECT_EQ(ParseFeature("2e-324"), std::nullopt);
}

TEST(ProtocolNumberGrammarTest, KeepsTheDecimalSpellingsStrtodAccepted) {
  EXPECT_EQ(ParseFeature("5."), 5.0);
  EXPECT_EQ(ParseFeature(".5"), 0.5);
  EXPECT_EQ(ParseFeature("-.5"), -0.5);
  EXPECT_EQ(ParseFeature("1.e5"), 1e5);
  EXPECT_EQ(ParseFeature("1E-3"), 1e-3);
  EXPECT_EQ(ParseFeature("00012"), 12.0);
  EXPECT_EQ(ParseFeature("1.7976931348623157e308"), std::numeric_limits<double>::max());
  const std::optional<double> negative_zero = ParseFeature("-0");
  ASSERT_TRUE(negative_zero.has_value());
  EXPECT_TRUE(std::signbit(*negative_zero));
  for (const char* bad : {"1e", "e5", "-", ".", "1.0.0", "1e5.0", "1,5", "1_000",
                          "1.7976931348623159e308", "infinity", "-nan", "nan(1)"})
    EXPECT_EQ(ParseFeature(bad), std::nullopt) << bad;
}

/// The request line that sends `response`'s values back: "ok" becomes
/// "repair" and u = s = 0 follow the row index.
std::string EchoAsRequest(const RowResponse& response) {
  std::string line;
  AppendRowResponse(response, &line);
  EXPECT_EQ(line.back(), '\n');
  line.pop_back();
  EXPECT_EQ(line.compare(0, 3, "ok "), 0) << line;
  const size_t values = line.find(' ', line.find(' ', 3) + 1);
  return "repair " + line.substr(3, values - 3) + " 0 0" + line.substr(values);
}

TEST(ProtocolRoundTripTest, EveryFiniteDoubleSurvivesFormatThenParseBitExactly) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
  std::vector<double> values = {0.0,
                                -0.0,
                                kDenormMin,
                                -kDenormMin,
                                kMax,
                                -kMax,
                                kMin,
                                std::nextafter(kMin, 0.0),
                                std::nextafter(1.0, 2.0),
                                std::nextafter(1.0, 0.0),
                                0.1,
                                1.0 / 3.0,
                                1e16,
                                123456789012345680.0,
                                -2.2250738585072014e-308};
  // Random bit patterns cover every exponent and sign evenly; non-finite
  // patterns (all-ones exponent) are not values the protocol carries.
  common::Rng rng(0x70c0de);
  while (values.size() < 8 * 5000) {
    const double v = std::bit_cast<double>(rng.Next64());
    if (std::isfinite(v)) values.push_back(v);
  }
  constexpr size_t kDim = 8;
  for (size_t begin = 0; begin < values.size(); begin += kDim) {
    RowResponse response;
    response.session_id = rng.Next64();
    response.row_index = begin == 0 ? std::numeric_limits<uint64_t>::max() : rng.Next64();
    response.repaired.assign(values.begin() + begin, values.begin() + begin + kDim);
    const std::string line = EchoAsRequest(response);
    auto request = ParseRequestLine(line, kDim);
    ASSERT_TRUE(request.ok()) << line << ": " << request.status();
    EXPECT_EQ(request->row.session_id, response.session_id);
    EXPECT_EQ(request->row.row_index, response.row_index);
    for (size_t k = 0; k < kDim; ++k)
      ASSERT_EQ(std::bit_cast<uint64_t>(request->row.features[k]),
                std::bit_cast<uint64_t>(response.repaired[k]))
          << line << " k " << k;
  }
}

TEST(ProtocolTest, FormatsErrorResponses) {
  RowResponse response;
  response.session_id = 2;
  response.row_index = 5;
  response.status = common::Status::InvalidArgument("bad row");
  EXPECT_EQ(FormatRowResponse(response), "err 2 5 INVALID_ARGUMENT bad row");
  EXPECT_EQ(FormatErrorLine(common::Status::Unavailable("full")),
            "err - - UNAVAILABLE full");
}

TEST(ProtocolMultiGroupTest, AcceptsLabelsWithinConfiguredLevels) {
  auto request = ParseRequestLine("repair 1 2 2 3 0.5 1.5", 2, /*u_levels=*/3,
                                  /*s_levels=*/4);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->row.u, 2);
  EXPECT_EQ(request->row.s, 3);
}

TEST(ProtocolMultiGroupTest, RejectsLabelsBeyondConfiguredLevels) {
  EXPECT_FALSE(ParseRequestLine("repair 1 2 3 0 0.5 1.5", 2, 3, 4).ok());  // u = |U|
  EXPECT_FALSE(ParseRequestLine("repair 1 2 0 4 0.5 1.5", 2, 3, 4).ok());  // s = |S|
  // The default bounds stay binary.
  EXPECT_FALSE(ParseRequestLine("repair 1 2 2 0 0.5 1.5", 2).ok());
}

// --- Hardening gauntlet -----------------------------------------------------
//
// Every case must come back as a clean InvalidArgument status — never a
// crash, throw, or silently coerced field. The table covers truncation,
// out-of-range labels, non-finite payloads, numeric-overflow spellings,
// binary junk, and oversized lines.

struct GarbageCase {
  const char* name;
  std::string line;
};

std::string RepeatChar(char c, size_t n) { return std::string(n, c); }

TEST(ProtocolHardeningTest, GarbageLinesNeverCrashAndReportStructuredErrors) {
  const GarbageCase kCases[] = {
      {"empty", ""},
      {"whitespace_only", "   \t  \t "},
      {"truncated_verb", "rep"},
      {"truncated_repair_no_fields", "repair"},
      {"truncated_repair_mid_header", "repair 0 0"},
      {"truncated_repair_missing_last_feature", "repair 0 0 0 1 1.0"},
      {"nan_feature", "repair 0 0 0 1 nan 2.0"},
      {"nan_uppercase", "repair 0 0 0 1 NaN 2.0"},
      {"inf_feature", "repair 0 0 0 1 1.0 inf"},
      {"negative_inf", "repair 0 0 0 1 -inf 2.0"},
      {"infinity_spelled_out", "repair 0 0 0 1 Infinity 2.0"},
      {"overflowing_double", "repair 0 0 0 1 1e999 2.0"},
      {"hex_session", "repair 0x10 0 0 1 1.0 2.0"},
      {"float_row_index", "repair 0 1.5 0 1 1.0 2.0"},
      {"u_out_of_range", "repair 0 0 9 0 1.0 2.0"},
      {"s_out_of_range", "repair 0 0 0 9 1.0 2.0"},
      {"huge_u", "repair 0 0 18446744073709551615 0 1.0 2.0"},
      {"overflow_session", "repair 99999999999999999999999 0 0 1 1.0 2.0"},
      {"trailing_junk_on_number", "repair 0 0 0 1 1.0x 2.0"},
      {"embedded_nul_like_junk", std::string("repair 0 0 0 1 1.0 2.0\x01\x02")},
      {"binary_junk_verb", std::string("\xff\xfe\x00garbage", 10)},
      {"reload_no_path", "reload"},
      {"reload_two_paths", "reload a b"},
      {"unknown_verb", "destroy everything"},
      {"feature_is_binary_noise", "repair 0 0 0 1 \x07\x1b[31m 2.0"},
      {"oversized_line", "repair 0 0 0 1 " + RepeatChar('9', kMaxRequestLineBytes + 64)},
      {"oversized_whitespace", RepeatChar(' ', kMaxRequestLineBytes + 1)},
  };
  for (const GarbageCase& c : kCases) {
    auto request = ParseRequestLine(c.line, 2);
    ASSERT_FALSE(request.ok()) << "case " << c.name << " was accepted";
    EXPECT_EQ(request.status().code(), common::StatusCode::kInvalidArgument)
        << "case " << c.name;
    // The error must render as a single sane response line: no control
    // characters leaked from the input, no unbounded echo.
    const std::string rendered = FormatErrorLine(request.status());
    EXPECT_LT(rendered.size(), 512u) << "case " << c.name;
    for (char ch : rendered)
      EXPECT_GE(static_cast<unsigned char>(ch), 0x20)
          << "case " << c.name << " leaked a control character";
  }
}

TEST(ProtocolHardeningTest, BadFeatureEchoIsTruncatedAndSanitized) {
  const std::string junk(500, 'z');
  auto request = ParseRequestLine("repair 0 0 0 1 " + junk + " 2.0", 2);
  ASSERT_FALSE(request.ok());
  // At most a 32-char prefix of the offending token is echoed.
  EXPECT_LT(request.status().message().size(), 128u);
  EXPECT_NE(request.status().message().find("zzzz"), std::string::npos);
}

TEST(ProtocolHardeningTest, MaxSizedValidLineStillParses) {
  // The ceiling rejects oversized lines, not long-but-valid ones.
  std::string line = "repair 0 0 0 1 1.0 2.0";
  line += RepeatChar(' ', kMaxRequestLineBytes - line.size());
  EXPECT_TRUE(ParseRequestLine(line, 2).ok());
  line += ' ';
  EXPECT_FALSE(ParseRequestLine(line, 2).ok());
}

}  // namespace
}  // namespace otfair::serve
