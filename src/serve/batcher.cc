#include "serve/batcher.h"

#include <utility>

#include "common/check.h"
#include "obs/trace.h"

namespace otfair::serve {

using common::Status;

Batcher::Batcher(RepairService* service, const BatcherOptions& options, Sink sink)
    : service_(service),
      options_([&] {
        BatcherOptions o = options;
        if (o.max_batch == 0) o.max_batch = 1;
        if (o.max_queue_depth == 0) o.max_queue_depth = 1;
        return o;
      }()),
      sink_(std::move(sink)) {
  OTFAIR_CHECK(!options_.background_flush) << "the batcher has no flusher thread";
}

Batcher::~Batcher() { Close(); }

Status Batcher::Submit(RowRequest&& request) {
  OTFAIR_TRACE_SPAN("admit");
  if (closed_) return Status::Unavailable("batcher is closed");
  if (pending_.size() >= options_.max_queue_depth) {
    service_->metrics().AddRejected(1);
    return Status::Unavailable("queue full (backpressure)");
  }
  if (options_.latency_sample_every > 0 &&
      submitted_++ % options_.latency_sample_every == 0)
    sampled_.push_back(std::chrono::steady_clock::now());
  pending_.push_back(std::move(request));
  // Caller-runs: the submitter that fills a batch executes it. This keeps
  // the hot path free of handoffs and makes backpressure natural — a
  // producer outrunning the service spends its own time repairing.
  if (pending_.size() >= options_.max_batch) Flush();
  return Status::Ok();
}

void Batcher::Flush() {
  if (pending_.empty()) return;
  OTFAIR_TRACE_SPAN("batch_flush");
  service_->RepairBatch(pending_.data(), pending_.size(), &responses_);
  // One completion stamp per batch: request latency = queue wait + batch
  // execution, recorded for every sampled row.
  if (!sampled_.empty()) {
    const auto now = std::chrono::steady_clock::now();
    for (const auto enqueue : sampled_)
      service_->metrics().RecordLatencyUs(
          std::chrono::duration<double, std::micro>(now - enqueue).count());
  }
  pending_.clear();
  sampled_.clear();
  if (sink_)
    for (const RowResponse& response : responses_) sink_(response);
}

void Batcher::Close() {
  closed_ = true;
  Flush();
}

}  // namespace otfair::serve
