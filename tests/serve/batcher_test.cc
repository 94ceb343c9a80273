#include "serve/batcher.h"

#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/designer.h"
#include "serve/repair_service.h"
#include "sim/gaussian_mixture.h"

namespace otfair::serve {
namespace {

std::unique_ptr<RepairService> MakeService(uint64_t seed, ServiceOptions options = {}) {
  common::Rng rng(seed);
  auto research =
      sim::SimulateGaussianMixture(600, sim::GaussianSimConfig::PaperDefault(), rng);
  EXPECT_TRUE(research.ok());
  auto plans = core::DesignDistributionalRepair(*research, {});
  EXPECT_TRUE(plans.ok());
  auto service = RepairService::Create(std::move(*plans), options);
  EXPECT_TRUE(service.ok()) << service.status();
  return std::move(*service);
}

RowRequest MakeRequest(uint64_t session, uint64_t row) {
  RowRequest request;
  request.session_id = session;
  request.row_index = row;
  request.u = static_cast<int>(row % 2);
  request.s = static_cast<int>((row / 2) % 2);
  request.features = {0.1 * static_cast<double>(row % 20) - 1.0, 0.5};
  return request;
}

/// Sink collecting every delivered (session, row), counting duplicates.
struct CollectingSink {
  std::set<std::pair<uint64_t, uint64_t>> seen;
  uint64_t responses = 0;
  uint64_t failures = 0;
  uint64_t duplicates = 0;

  Batcher::Sink AsSink() {
    return [this](const RowResponse& response) {
      ++responses;
      if (!response.status.ok()) ++failures;
      if (!seen.insert({response.session_id, response.row_index}).second) ++duplicates;
    };
  }
};

TEST(BatcherTest, CoalescesSingleRowsIntoBatches) {
  auto service = MakeService(1);
  CollectingSink sink;
  BatcherOptions options;
  options.max_batch = 64;
  Batcher batcher(service.get(), options, sink.AsSink());
  for (uint64_t i = 0; i < 1000; ++i)
    ASSERT_TRUE(batcher.Submit(MakeRequest(0, i)).ok());
  batcher.Flush();
  EXPECT_EQ(sink.responses, 1000u);
  EXPECT_EQ(sink.failures, 0u);
  EXPECT_EQ(sink.duplicates, 0u);
  const MetricsSnapshot metrics = service->metrics().Snapshot();
  EXPECT_EQ(metrics.rows_repaired, 1000u);
  // 1000 rows at max_batch 64: 15 full caller-run batches + the flush
  // residue — far fewer executions than rows.
  EXPECT_LE(metrics.batches, 17u);
  EXPECT_GE(metrics.batches, 16u);
}

TEST(BatcherTest, BackpressureRejectsWhenQueueFull) {
  auto service = MakeService(2);
  CollectingSink sink;
  BatcherOptions options;
  options.max_batch = 128;  // never fills from 4 rows -> queue backs up
  options.max_queue_depth = 4;
  Batcher batcher(service.get(), options, sink.AsSink());
  for (uint64_t i = 0; i < 4; ++i)
    ASSERT_TRUE(batcher.Submit(MakeRequest(0, i)).ok());
  RowRequest rejected = MakeRequest(0, 999);
  const common::Status status = batcher.Submit(std::move(rejected));
  EXPECT_EQ(status.code(), common::StatusCode::kUnavailable);
  // The request is handed back intact for a retry.
  EXPECT_EQ(rejected.features.size(), 2u);
  EXPECT_EQ(service->metrics().Snapshot().rows_rejected, 1u);
  batcher.Flush();
  EXPECT_TRUE(batcher.Submit(std::move(rejected)).ok());
  batcher.Flush();
  EXPECT_EQ(sink.failures, 0u);
  EXPECT_EQ(sink.responses, 5u);
}

TEST(BatcherTest, ZeroOptionsAreNormalized) {
  auto service = MakeService(3);
  BatcherOptions options;
  options.max_batch = 0;
  options.max_queue_depth = 0;
  Batcher batcher(service.get(), options, nullptr);
  EXPECT_EQ(batcher.options().max_batch, 1u);
  EXPECT_EQ(batcher.options().max_queue_depth, 1u);
}

TEST(BatcherTest, BackgroundFlushIsRejected) {
  auto service = MakeService(4);
  BatcherOptions options;
  options.background_flush = true;
  EXPECT_DEATH(Batcher(service.get(), options, nullptr), "background_flush");
}

TEST(BatcherTest, StreamIdTravelsToTheResponse) {
  auto service = MakeService(6);
  std::vector<uint64_t> streams;
  Batcher batcher(service.get(), {}, [&](const RowResponse& response) {
    streams.push_back(response.stream_id);
  });
  for (uint64_t i = 0; i < 3; ++i) {
    RowRequest request = MakeRequest(0, i);
    request.stream_id = 100 + i;
    ASSERT_TRUE(batcher.Submit(std::move(request)).ok());
  }
  batcher.Flush();
  EXPECT_EQ(streams, (std::vector<uint64_t>{100, 101, 102}));
}

TEST(BatcherTest, CloseDrainsEverythingAndRejectsAfter) {
  auto service = MakeService(5);
  CollectingSink sink;
  BatcherOptions options;
  options.max_batch = 256;
  Batcher batcher(service.get(), options, sink.AsSink());
  for (uint64_t i = 0; i < 10; ++i) ASSERT_TRUE(batcher.Submit(MakeRequest(1, i)).ok());
  batcher.Close();
  EXPECT_EQ(sink.responses, 10u);
  EXPECT_EQ(batcher.Submit(MakeRequest(1, 11)).code(), common::StatusCode::kUnavailable);
  batcher.Close();  // idempotent
  EXPECT_EQ(sink.responses, 10u);
}

TEST(BatcherTest, InvalidRowsComeBackWithErrorStatus) {
  auto service = MakeService(7);
  CollectingSink sink;
  BatcherOptions options;
  Batcher batcher(service.get(), options, sink.AsSink());
  RowRequest bad = MakeRequest(0, 0);
  bad.features.push_back(1.0);  // wrong dimensionality
  ASSERT_TRUE(batcher.Submit(std::move(bad)).ok());  // accepted: failure is per-row
  batcher.Flush();
  EXPECT_EQ(sink.responses, 1u);
  EXPECT_EQ(sink.failures, 1u);
  EXPECT_EQ(service->metrics().Snapshot().rows_invalid, 1u);
}

}  // namespace
}  // namespace otfair::serve
