#ifndef OTFAIR_SERVE_BATCHER_H_
#define OTFAIR_SERVE_BATCHER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "serve/repair_service.h"

namespace otfair::serve {

struct BatcherOptions {
  /// Rows coalesced into one RepairBatch call.
  size_t max_batch = 256;
  /// Pending-row bound; a Submit against a full batcher is rejected with
  /// UNAVAILABLE (explicit backpressure — the service never buffers
  /// unboundedly). May be smaller than max_batch, in which case batches
  /// fill only to this depth.
  size_t max_queue_depth = 4096;
  /// Must stay false: the batcher has no flusher thread, and its owner
  /// flushes partial batches itself. The field survives only so callers
  /// that still assign it (false) keep compiling.
  bool background_flush = false;
  /// Latency histogram sampling: every Nth accepted row is timestamped
  /// and recorded (1 = every row). Sampling keeps the hot path down to
  /// one clock read per N rows while the quantiles stay statistically
  /// faithful at serving rates. 0 disables latency recording.
  size_t latency_sample_every = 16;
};

/// Single-owner micro-batching front end of a `RepairService`.
///
/// One thread owns a batcher: it calls `Submit` with single rows, and the
/// batcher coalesces them into `max_batch`-row `RepairBatch` calls.
/// Execution is caller-runs: the Submit that fills a batch repairs it in
/// place, and the owner flushes partial batches with `Flush()` (a serving
/// loop does so after every read). Nothing here locks or spawns threads;
/// code that serves several threads gives each its own batcher over the
/// shared, thread-safe service.
///
/// Delivery contract: every accepted row is repaired and delivered to the
/// sink exactly once — including rows still pending at Close(). Responses
/// carry their (session, row, stream) identity. The sink runs on the
/// owner's thread inside Submit/Flush/Close and must not call back into
/// the batcher.
class Batcher {
 public:
  using Sink = std::function<void(const RowResponse&)>;

  /// `service` must outlive the batcher.
  Batcher(RepairService* service, const BatcherOptions& options, Sink sink);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Queues one row. Returns UNAVAILABLE when `max_queue_depth` rows are
  /// pending (backpressure) or the batcher is closed; on failure `request`
  /// is left intact so the caller may retry. When the submit fills a
  /// batch, it is repaired and delivered before Submit returns.
  common::Status Submit(RowRequest&& request);

  /// Repairs and delivers everything pending.
  void Flush();

  /// Rejects further submits and drains what remains. Idempotent; also
  /// run by the destructor.
  void Close();

  /// Pending rows (live gauge for metrics snapshots).
  size_t queue_depth() const { return pending_.size(); }

  const BatcherOptions& options() const { return options_; }

 private:
  RepairService* service_;
  BatcherOptions options_;
  Sink sink_;
  std::vector<RowRequest> pending_;
  /// Arrival times of the latency-sampled pending rows.
  std::vector<std::chrono::steady_clock::time_point> sampled_;
  std::vector<RowResponse> responses_;
  uint64_t submitted_ = 0;
  bool closed_ = false;
};

}  // namespace otfair::serve

#endif  // OTFAIR_SERVE_BATCHER_H_
