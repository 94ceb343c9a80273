#include "serve/session.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/designer.h"
#include "serve/protocol.h"
#include "sim/gaussian_mixture.h"

namespace otfair::serve {
namespace {

std::unique_ptr<RepairService> MakeService(uint64_t seed) {
  common::Rng rng(seed);
  auto research =
      sim::SimulateGaussianMixture(600, sim::GaussianSimConfig::PaperDefault(), rng);
  EXPECT_TRUE(research.ok());
  auto plans = core::DesignDistributionalRepair(*research, {});
  EXPECT_TRUE(plans.ok());
  auto service = RepairService::Create(std::move(*plans), {});
  EXPECT_TRUE(service.ok()) << service.status();
  return std::move(*service);
}

/// Splits a session's pending output into lines and consumes it.
std::vector<std::string> TakeLines(Session& session) {
  const std::string out(session.pending_output(), session.pending_output_size());
  session.ConsumeOutput(out.size());
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t nl = out.find('\n'); nl != std::string::npos; nl = out.find('\n', start)) {
    lines.push_back(out.substr(start, nl - start));
    start = nl + 1;
  }
  EXPECT_EQ(start, out.size()) << "output must end with a newline";
  return lines;
}

/// The response line the service gives `line`'s row when repaired alone.
std::string OfflineAnswer(RepairService& service, const std::string& line) {
  auto request = ParseRequestLine(line, service.dim());
  EXPECT_TRUE(request.ok()) << request.status();
  RowResponse response;
  EXPECT_TRUE(service.RepairRow(request->row, &response).ok());
  return FormatRowResponse(response);
}

/// A service, one batcher whose sink routes each response to the session
/// whose stream id it carries, and the counters a transport would pass.
class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override { service_ = MakeService(11); }

  void MakeBatcher(BatcherOptions options = {}) {
    batcher_ = std::make_unique<Batcher>(service_.get(), options,
                                         [this](const RowResponse& response) {
                                           ASSERT_LT(response.stream_id, sessions_.size());
                                           sessions_[response.stream_id]->Deliver(response);
                                         });
    env_.service = service_.get();
    env_.batcher = batcher_.get();
    env_.protocol_errors = &protocol_errors_;
    env_.oversize_closed = &closed_by_error_;
    env_.backpressure = &backpressure_;
  }

  Session& AddSession() {
    const uint64_t id = sessions_.size();
    sessions_.push_back(std::make_unique<Session>(&env_, id));
    return *sessions_.back();
  }

  static void Feed(Session& session, const std::string& bytes) {
    session.Feed(bytes.data(), bytes.size());
  }

  std::unique_ptr<RepairService> service_;
  std::unique_ptr<Batcher> batcher_;
  SessionEnv env_;
  obs::Counter protocol_errors_;
  obs::Counter closed_by_error_;
  obs::Counter backpressure_;
  std::vector<std::unique_ptr<Session>> sessions_;
};

TEST_F(SessionTest, FramesLinesAcrossSplitFeedsAndSkipsBlankLines) {
  MakeBatcher();
  Session& session = AddSession();
  const std::string first = "repair 1 0 0 1 0.5 -0.25";
  const std::string second = "repair 1 1 1 0 0.125 0.75";
  // CRLF endings, blank and CR-only lines between, and the second request
  // arriving one byte per read.
  Feed(session, first + "\r\n\n\r\n");
  for (const char c : second + "\r\n") session.Feed(&c, 1);
  batcher_->Flush();
  EXPECT_EQ(TakeLines(session), (std::vector<std::string>{
                                    OfflineAnswer(*service_, first),
                                    OfflineAnswer(*service_, second)}));
  EXPECT_FALSE(session.closed());
  EXPECT_EQ(protocol_errors_.Value(), 0u);
}

TEST_F(SessionTest, OversizedPrefixClosesBeforeItsNewline) {
  MakeBatcher();
  Session& session = AddSession();
  // Exactly the cap without a newline is still a line in progress.
  Feed(session, std::string(kMaxRequestLineBytes, 'x'));
  EXPECT_FALSE(session.closed());
  EXPECT_EQ(session.pending_output_size(), 0u);
  // One more byte and the buffered prefix alone breaks the cap.
  Feed(session, "x");
  EXPECT_TRUE(session.closed());
  const std::vector<std::string> lines = TakeLines(session);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("err - - INVALID_ARGUMENT", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find("exceeds"), std::string::npos) << lines[0];
  EXPECT_EQ(closed_by_error_.Value(), 1u);
  // A closed stream ignores whatever follows.
  Feed(session, "\nhealth\n");
  EXPECT_EQ(session.pending_output_size(), 0u);
}

TEST_F(SessionTest, GarbageClosesAndLaterLinesAreIgnored) {
  MakeBatcher();
  Session& session = AddSession();
  Feed(session, "GET / HTTP/1.1\nhealth\n");
  EXPECT_TRUE(session.closed());
  const std::vector<std::string> lines = TakeLines(session);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("err - - INVALID_ARGUMENT", 0), 0u) << lines[0];
  EXPECT_EQ(protocol_errors_.Value(), 1u);
  EXPECT_EQ(closed_by_error_.Value(), 1u);
}

TEST_F(SessionTest, KnownVerbWithBadArgumentsStaysOpen) {
  MakeBatcher();
  Session& session = AddSession();
  Feed(session, "repair 0 0 0 1 1.0\nhealth\n");  // one feature short
  EXPECT_FALSE(session.closed());
  const std::vector<std::string> lines = TakeLines(session);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("err - - INVALID_ARGUMENT", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1], service_->Health().ToJson());
  EXPECT_EQ(protocol_errors_.Value(), 1u);
  EXPECT_EQ(closed_by_error_.Value(), 0u);
}

TEST_F(SessionTest, RejectedSubmitIsAnsweredUnavailableAndNothingIsDropped) {
  BatcherOptions options;
  options.max_batch = 128;  // never fills from three rows
  options.max_queue_depth = 2;
  MakeBatcher(options);
  Session& session = AddSession();
  const std::vector<std::string> requests = {"repair 4 0 0 0 0.1 0.2", "repair 4 1 0 1 0.3 0.4",
                                             "repair 4 2 1 1 0.5 0.6"};
  for (const std::string& line : requests) Feed(session, line + "\n");
  std::vector<std::string> lines = TakeLines(session);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("err 4 2 UNAVAILABLE", 0), 0u) << lines[0];
  EXPECT_EQ(backpressure_.Value(), 1u);
  batcher_->Flush();
  lines = TakeLines(session);
  EXPECT_EQ(lines, (std::vector<std::string>{OfflineAnswer(*service_, requests[0]),
                                             OfflineAnswer(*service_, requests[1])}));
}

TEST_F(SessionTest, CheckpointFlushesPendingRowsBeforeTheHookAndTheAck) {
  MakeBatcher();
  size_t depth_at_hook = 99;
  env_.checkpoint = [&]() -> common::Result<uint64_t> {
    depth_at_hook = batcher_->queue_depth();
    return uint64_t{7};
  };
  Session& session = AddSession();
  const std::string row = "repair 2 5 1 0 -0.5 0.5";
  Feed(session, row + "\ncheckpoint\n");
  EXPECT_EQ(depth_at_hook, 0u);
  EXPECT_EQ(TakeLines(session),
            (std::vector<std::string>{OfflineAnswer(*service_, row), "ok checkpoint 7"}));
}

TEST_F(SessionTest, CheckpointWithoutAHookIsAFailedPrecondition) {
  MakeBatcher();
  Session& session = AddSession();
  Feed(session, "checkpoint\n");
  EXPECT_FALSE(session.closed());
  const std::vector<std::string> lines = TakeLines(session);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("err - - FAILED_PRECONDITION", 0), 0u) << lines[0];
}

TEST_F(SessionTest, QuitDeliversSubmittedRowsThenCloses) {
  MakeBatcher();
  Session& session = AddSession();
  const std::string row = "repair 3 0 0 1 0.25 0.25";
  Feed(session, row + "\nquit\nhealth\n");
  EXPECT_TRUE(session.closed());
  EXPECT_EQ(batcher_->queue_depth(), 0u);
  EXPECT_EQ(TakeLines(session), (std::vector<std::string>{OfflineAnswer(*service_, row)}));
}

TEST_F(SessionTest, EndOfInputAnswersAFinalUnterminatedLine) {
  MakeBatcher();
  Session& session = AddSession();
  const std::string row = "repair 3 1 1 0 1.5 -1.5";
  Feed(session, row);
  EXPECT_EQ(session.pending_output_size(), 0u);
  session.EndOfInput();
  EXPECT_TRUE(session.closed());
  EXPECT_EQ(TakeLines(session), (std::vector<std::string>{OfflineAnswer(*service_, row)}));
}

TEST_F(SessionTest, ResponsesRouteToTheStreamThatSentTheRow) {
  MakeBatcher();
  Session& a = AddSession();
  Session& b = AddSession();
  // Both streams use session 9; rows interleave in one shared batch.
  std::vector<std::string> want_a, want_b;
  for (int i = 0; i < 4; ++i) {
    const std::string from_a = "repair 9 " + std::to_string(2 * i) + " 0 1 0.1 0.2";
    const std::string from_b = "repair 9 " + std::to_string(2 * i + 1) + " 1 0 0.3 0.4";
    Feed(a, from_a + "\n");
    Feed(b, from_b + "\n");
    want_a.push_back(OfflineAnswer(*service_, from_a));
    want_b.push_back(OfflineAnswer(*service_, from_b));
  }
  batcher_->Flush();
  EXPECT_EQ(TakeLines(a), want_a);
  EXPECT_EQ(TakeLines(b), want_b);
}

TEST_F(SessionTest, ConsumeOutputKeepsTheUnwrittenSuffix) {
  MakeBatcher();
  Session& session = AddSession();
  Feed(session, "checkpoint\ncheckpoint\n");
  const std::string all(session.pending_output(), session.pending_output_size());
  ASSERT_GT(all.size(), 10u);
  session.ConsumeOutput(10);  // a short write
  EXPECT_EQ(std::string(session.pending_output(), session.pending_output_size()),
            all.substr(10));
  session.ConsumeOutput(all.size() - 10);
  EXPECT_EQ(session.pending_output_size(), 0u);
}

}  // namespace
}  // namespace otfair::serve
