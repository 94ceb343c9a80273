// Seeded mutation fuzzing of the serve protocol, with a fixed budget so it
// runs in the default test job (no Clang or libFuzzer needed). Valid
// repair and verb lines are mutated by byte flips, truncation, inserted
// junk and oversized tokens, then fed to ParseRequestLine and, as whole
// byte streams cut at random points, to serve::Session.

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/designer.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "sim/gaussian_mixture.h"

namespace otfair::serve {
namespace {

constexpr size_t kDim = 2;

/// Seed lines: valid repair lines of the binary protocol at dim 2 and the
/// control verbs whose answers do not depend on timing.
const std::vector<std::string>& SeedLines() {
  static const std::vector<std::string> kSeeds = {
      "repair 0 0 0 1 0.5 -0.25",
      "repair 7 12 1 0 -1.5e-3 2.75",
      "repair 18446744073709551615 3 1 1 +4e-320 1e300",
      "  repair\t1 2  0 0 .5 5.",
      "repair 3 4 1 0 0.1 0.2\r",
      "checkpoint",
      "reload /nonexistent/plan.bin",
      "quit",
  };
  return kSeeds;
}

/// Bytes worth inserting: number-grammar edges, separators, framing bytes
/// and binary junk.
const std::vector<std::string>& JunkTokens() {
  static const std::vector<std::string> kJunk = {
      "+", "-", "++", "+-", ".", "e", "e+", "0x", "0x1p3", "nan", "inf", "-inf",
      "1e999", "1e-400", "4e-320", " ", "\t", "\r", "\n", "\r\n", "\x01", "\x7f",
      std::string("\0", 1), "\xff\xfe", "repair", "quit", "99999999999999999999999"};
  return kJunk;
}

/// One mutation of `line`: a byte flip, a truncation, inserted junk, a
/// field replaced by junk, or an oversized token (sometimes past the
/// 64 KiB line cap).
std::string Mutate(const std::string& line, common::Rng& rng) {
  std::string out = line;
  const size_t at = out.empty() ? 0 : rng.UniformInt(out.size() + 1);
  const auto& junk = JunkTokens();
  switch (rng.UniformInt(5)) {
    case 0:
      if (!out.empty())
        out[std::min(at, out.size() - 1)] = static_cast<char>(rng.UniformInt(256));
      break;
    case 1:
      out.resize(at);
      break;
    case 2:
      out.insert(at, junk[rng.UniformInt(junk.size())]);
      break;
    case 3: {
      // The field count stays right, so the junk reaches the field parsers.
      auto blank = [&](size_t i) { return out[i] == ' ' || out[i] == '\t'; };
      size_t start = at;
      while (start > 0 && !blank(start - 1)) --start;
      size_t end = at;
      while (end < out.size() && !blank(end)) ++end;
      out.replace(start, end - start, junk[rng.UniformInt(junk.size())]);
      break;
    }
    default: {
      const size_t length = rng.Bernoulli(0.1) ? kMaxRequestLineBytes + rng.UniformInt(64)
                                               : 1 + rng.UniformInt(2000);
      out.insert(at, std::string(length, "9.e-+x "[rng.UniformInt(7)]));
      break;
    }
  }
  return out;
}

/// A line of one or two stacked mutations of a random seed line.
std::string FuzzLine(common::Rng& rng) {
  std::string line = SeedLines()[rng.UniformInt(SeedLines().size())];
  const uint64_t rounds = 1 + rng.UniformInt(2);
  for (uint64_t r = 0; r < rounds; ++r) line = Mutate(line, rng);
  return line;
}

TEST(ProtocolFuzzTest, MutatedLinesParseCleanlyOrRenderOneSaneErrorLine) {
  common::Rng rng(0xf022);
  size_t accepted_repairs = 0;
  size_t rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string line = FuzzLine(rng);
    const size_t u_levels = 2 + rng.UniformInt(3);
    const size_t s_levels = 2 + rng.UniformInt(3);
    auto request = ParseRequestLine(line, kDim, u_levels, s_levels);
    if (request.ok()) {
      if (request->kind != RequestKind::kRepair) continue;
      ++accepted_repairs;
      const RowRequest& row = request->row;
      ASSERT_EQ(row.features.size(), kDim) << line;
      for (const double x : row.features) ASSERT_TRUE(std::isfinite(x)) << line;
      ASSERT_GE(row.u, 0);
      ASSERT_LT(static_cast<size_t>(row.u), u_levels) << line;
      ASSERT_GE(row.s, 0);
      ASSERT_LT(static_cast<size_t>(row.s), s_levels) << line;
      continue;
    }
    ++rejected;
    ASSERT_EQ(request.status().code(), common::StatusCode::kInvalidArgument) << line;
    const std::string rendered = FormatErrorLine(request.status());
    ASSERT_EQ(rendered.compare(0, 4, "err "), 0) << rendered;
    ASSERT_LT(rendered.size(), 512u);
    for (const char c : rendered)
      ASSERT_TRUE(c >= 0x20 && c < 0x7f) << "unprintable byte in: " << rendered;
  }
  // The mutations must exercise both outcomes, or the budget is wasted.
  EXPECT_GT(accepted_repairs, 200u);
  EXPECT_GT(rejected, 10000u);
}

std::unique_ptr<RepairService> MakeService() {
  common::Rng rng(11);
  auto research =
      sim::SimulateGaussianMixture(600, sim::GaussianSimConfig::PaperDefault(), rng);
  EXPECT_TRUE(research.ok());
  auto plans = core::DesignDistributionalRepair(*research, {});
  EXPECT_TRUE(plans.ok());
  auto service = RepairService::Create(std::move(*plans), {});
  EXPECT_TRUE(service.ok()) << service.status();
  return std::move(*service);
}

/// Everything one session writes for `stream`, fed in pieces that end at
/// the ascending offsets `cuts`, then closed by end of input.
std::string Serve(RepairService* service, const std::string& stream,
                  const std::vector<size_t>& cuts) {
  std::unique_ptr<Session> session;
  BatcherOptions options;
  options.max_batch = 8;
  Batcher batcher(service, options,
                  [&](const RowResponse& response) { session->Deliver(response); });
  SessionEnv env;
  env.service = service;
  env.batcher = &batcher;
  session = std::make_unique<Session>(&env, 0);
  size_t begin = 0;
  for (const size_t cut : cuts) {
    session->Feed(stream.data() + begin, cut - begin);
    begin = cut;
  }
  session->Feed(stream.data() + begin, stream.size() - begin);
  session->EndOfInput();
  EXPECT_TRUE(session->closed());
  return std::string(session->pending_output(), session->pending_output_size());
}

TEST(ProtocolFuzzTest, SessionOutputDoesNotDependOnWhereReadsSplitTheStream) {
  auto service = MakeService();
  common::Rng rng(0x5e55);
  size_t answered_rows = 0;
  for (int trial = 0; trial < 150; ++trial) {
    // Mostly valid lines (every seed but quit) with some mutated ones. A
    // mutation that breaks the verb ends the stream early, which the
    // comparison covers too.
    std::string stream;
    const uint64_t lines = 1 + rng.UniformInt(40);
    for (uint64_t i = 0; i < lines; ++i) {
      const std::string& seed = SeedLines()[rng.UniformInt(SeedLines().size() - 1)];
      stream += rng.Bernoulli(0.15) ? Mutate(seed, rng) : seed;
      if (i + 1 < lines || rng.Bernoulli(0.8)) stream += '\n';
    }
    const std::string whole = Serve(service.get(), stream, {});
    std::vector<size_t> cuts;
    for (size_t at = 0; at < stream.size(); at += 1 + rng.UniformInt(48)) cuts.push_back(at);
    ASSERT_EQ(Serve(service.get(), stream, cuts), whole) << "trial " << trial;
    // One byte per read: every split point at once.
    std::vector<size_t> every_byte(stream.size());
    for (size_t at = 0; at < stream.size(); ++at) every_byte[at] = at;
    ASSERT_EQ(Serve(service.get(), stream, every_byte), whole) << "trial " << trial;
    for (size_t p = whole.find("\nok "); p != std::string::npos; p = whole.find("\nok ", p + 1))
      ++answered_rows;
  }
  EXPECT_GT(answered_rows, 500u);
}

}  // namespace
}  // namespace otfair::serve
