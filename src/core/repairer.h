#ifndef OTFAIR_CORE_REPAIRER_H_
#define OTFAIR_CORE_REPAIRER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "common/rng.h"
#include "core/repair_plan.h"
#include "data/dataset.h"
#include "stats/sampling.h"

namespace otfair::core {

/// How a located archival value is pushed through the plan row.
enum class TransportMode {
  /// The paper's Algorithm 2: Bernoulli neighbour choice from tau (Eq. 14)
  /// followed by a multinomial draw from the normalized plan row (Eq. 15).
  /// Randomized mass splitting preserves the target distribution exactly.
  kStochastic,
  /// Deterministic ablation: the tau-weighted mix of the two neighbouring
  /// rows' conditional-mean targets (a barycentric-projection / Monge-style
  /// map). No sampling noise, but mass splitting is collapsed, so the
  /// repaired marginal is a smoothed version of the target.
  kConditionalMean,
};

/// Options for Algorithm 2.
struct RepairOptions {
  uint64_t seed = 0x07fa12u;
  TransportMode mode = TransportMode::kStochastic;
  /// Partial-repair strength lambda in [0, 1] (§VI future-work knob):
  /// x' = (1 - lambda) * x + lambda * T(x). 1 is the paper's full repair.
  double strength = 1.0;
  /// Worker threads for the batch RepairDataset* entry points. 0 means
  /// the process-wide default (`OTFAIR_THREADS`, else hardware
  /// concurrency); 1 forces the serial path; negative is rejected.
  /// Batch output is bit-identical across thread counts (see the row
  /// sub-stream note on RepairDataset).
  int threads = 0;
};

/// Statistics accumulated while repairing.
struct RepairStats {
  size_t values_repaired = 0;
  /// Archival values outside the research range (clamped to the grid edge);
  /// the paper's stationarity assumption expects this to be rare.
  size_t values_clamped = 0;
  /// Plan rows with (numerically) zero mass that fell back to the nearest
  /// massive row.
  size_t empty_row_fallbacks = 0;

  void Add(const RepairStats& other) {
    values_repaired += other.values_repaired;
    values_clamped += other.values_clamped;
    empty_row_fallbacks += other.empty_row_fallbacks;
  }
};

/// Algorithm 2: off-sample (archival) repair driven by the plans designed
/// on the research data.
///
/// Construction precomputes, per (u, s, k) channel and per grid row, an
/// alias table over the normalized plan row, so each repaired value costs
/// O(1) — independent of both the archive size n_A and (post-setup) n_Q.
/// That is what makes "torrents of archival data" feasible (§VI).
///
/// The repairer owns a copy of the plan set and its own RNG; repairs are
/// reproducible for a fixed seed and call sequence.
class OffSampleRepairer {
 public:
  /// Validates the plan set and builds sampling tables.
  static common::Result<OffSampleRepairer> Create(RepairPlanSet plans,
                                                  const RepairOptions& options = {});

  /// Repairs one labelled value of channel (u, s, k) — the streaming
  /// entry point, consuming the repairer's own RNG stream. CHECK-fails on
  /// out-of-range u/s/k (programmer error).
  double RepairValue(int u, int s, size_t k, double x);

  /// As above but drawing from an externally supplied generator. This is
  /// the batch path's primitive: row i of RepairDataset* is repaired with
  /// `common::Rng::ForStream(options.seed, i)`, channels in k order, so a
  /// caller can replay any subset of rows, in any order, and reproduce
  /// the batch output bit-for-bit. Not safe to call concurrently on one
  /// repairer (it updates the shared stats() counters); for parallel
  /// repair use the RepairDataset* batch entry points, which shard rows
  /// internally with per-row stats slots.
  double RepairValue(int u, int s, size_t k, double x, common::Rng& rng);

  /// Const, schedule-free streaming repair against caller-owned rng and
  /// stats slots — the serving layer's primitive. Unlike the non-const
  /// RepairValue overloads it touches no repairer state, so any number of
  /// threads may call it concurrently on one shared repairer; repairing
  /// row i of a dataset with `Rng::ForStream(seed, i)` (channels in k
  /// order) reproduces the RepairDataset batch output bit-for-bit.
  double RepairValueAt(int u, int s, size_t k, double x, common::Rng& rng,
                       RepairStats& stats) const {
    return RepairValueImpl(u, s, k, x, rng, stats);
  }

  /// Reusable locate-pass scratch for RepairSpan, so span calls allocate
  /// nothing after the first. One instance per calling thread.
  struct SpanScratch {
    std::vector<uint32_t> q;    // located lower grid row per record
    std::vector<double> tau;    // neighbour interpolation weight per record
  };

  /// Structure-of-arrays batch primitive: repairs `count` values of the
  /// single channel (u, s, k), reading xs[t] and writing out[t] (the
  /// spans may alias). rngs[t] is record t's generator and is advanced
  /// exactly as the scalar RepairValueAt would advance it for channel k,
  /// so calling RepairSpan for k = 0..dim-1 over per-row
  /// `Rng::ForStream(seed, row)` generators reproduces the row-by-row
  /// batch output bit-for-bit. Const and state-free like RepairValueAt:
  /// concurrent calls on one repairer are safe with distinct out/rngs/
  /// stats/scratch. The two-pass structure (locate all records, then
  /// sample with the alias row of record t+8 prefetched) is what the
  /// batch entry points use to hide table-lookup latency.
  void RepairSpan(int u, int s, size_t k, const double* xs, size_t count,
                  common::Rng* rngs, double* out, RepairStats& stats,
                  SpanScratch& scratch) const;

  /// The batch path every multi-row repair goes through (RepairDataset*
  /// and the serving layer's RepairBatch). Rows 0..count-1 are bucketed
  /// by their (u, s) label pair, gathered channel-major in chunks of up to
  /// 256 rows, repaired channel by channel through RepairSpan, and
  /// scattered back; chunks run on `threads` lanes (0: process default).
  /// `rows` exposes `int u(i)`, `int s(i)` (validated labels),
  /// `double x(i, k)`, `common::Rng rng(i)` (the row's generator) and
  /// `void set(i, k, y)`. Each row's output depends only on its inputs and
  /// generator, so it is bit-identical to RepairValueAt replayed row by
  /// row, whatever the chunk schedule. Const: safe to call concurrently.
  template <typename Rows>
  RepairStats RepairRows(const Rows& rows, size_t count, int threads) const;

  /// Soft-label streaming repair for probabilistic protected attributes
  /// (§VI / ref. [39]): draws s ~ Bernoulli(pr_s1) and repairs under the
  /// drawn class, so the marginal of the output is the posterior-weighted
  /// mixture of the two class repairs. Binary |S| = 2 plans only.
  double RepairValueSoft(int u, double pr_s1, size_t k, double x);

  /// Repairs every feature of every row, using the dataset's own (u, s)
  /// labels. Returns a repaired copy; the input is untouched.
  ///
  /// Batch determinism: row i draws from the decorrelated sub-stream
  /// `Rng::ForStream(options.seed, i)` rather than one shared sequential
  /// stream, so the output is a pure function of (plans, options.seed,
  /// dataset) — independent of row processing order and therefore
  /// bit-identical across `options.threads` settings.
  common::Result<data::Dataset> RepairDataset(const data::Dataset& dataset);

  /// As RepairDataset but with externally supplied s-labels (e.g. the
  /// s_hat|u estimates of core::LabelEstimator when archives are
  /// unlabelled).
  common::Result<data::Dataset> RepairDatasetWithLabels(const data::Dataset& dataset,
                                                        const std::vector<int>& s_labels);

  /// As RepairDataset but with per-row posteriors Pr[s = 1 | row] instead
  /// of hard labels.
  common::Result<data::Dataset> RepairDatasetSoft(const data::Dataset& dataset,
                                                  const std::vector<double>& pr_s1);

  const RepairStats& stats() const { return stats_; }
  const RepairPlanSet& plans() const { return plans_; }

 private:
  OffSampleRepairer(RepairPlanSet plans, const RepairOptions& options);

  /// Per-(u, s, k) sampling structures: a slot-major alias arena (one
  /// packed row per grid row, covering only that row's CSR support — the
  /// whole channel builds in O(nnz)), plus a conditional mean and the
  /// nearest massive row for empty rows. Arena slots carry the grid
  /// column payloads directly, so a draw needs no detour through the
  /// plan's column indices. The arena replaced a
  /// vector<optional<AliasTable>> (three heap vectors per grid row)
  /// whose pointer chasing cost ~22% of repair throughput at K = 4.
  struct ChannelTables {
    stats::AliasArena alias;               // slot-major, per grid row
    std::vector<double> conditional_mean;  // per grid row
    std::vector<uint32_t> fallback_row;    // per grid row
  };

  common::Status BuildTables();
  const ChannelTables& TablesFor(int u, int s, size_t k) const;

  /// The transport itself; pure given (rng, stats) slots, so batch rows
  /// can run concurrently with per-row rng/stats.
  double RepairValueImpl(int u, int s, size_t k, double x, common::Rng& rng,
                         RepairStats& stats) const;

  RepairPlanSet plans_;
  RepairOptions options_;
  common::Rng rng_;
  RepairStats stats_;
  std::vector<ChannelTables> tables_;  // index: (u * |S| + s) * dim + k
};

template <typename Rows>
RepairStats OffSampleRepairer::RepairRows(const Rows& rows, size_t count, int threads) const {
  const size_t s_levels = plans_.s_levels();
  const size_t dim = plans_.dim();
  std::vector<std::vector<uint32_t>> buckets(plans_.u_levels() * s_levels);
  for (size_t i = 0; i < count; ++i)
    buckets[static_cast<size_t>(rows.u(i)) * s_levels + static_cast<size_t>(rows.s(i))]
        .push_back(static_cast<uint32_t>(i));
  constexpr size_t kChunk = 256;
  struct Chunk {
    uint32_t bucket;
    uint32_t begin;
    uint32_t end;
  };
  std::vector<Chunk> chunks;
  for (size_t b = 0; b < buckets.size(); ++b) {
    for (size_t begin = 0; begin < buckets[b].size(); begin += kChunk) {
      const size_t end = std::min(begin + kChunk, buckets[b].size());
      chunks.push_back(Chunk{static_cast<uint32_t>(b), static_cast<uint32_t>(begin),
                             static_cast<uint32_t>(end)});
    }
  }
  std::vector<RepairStats> chunk_stats(chunks.size());
  common::parallel::ParallelFor(
      0, chunks.size(),
      [&](size_t ci) {
        const Chunk& c = chunks[ci];
        const uint32_t* ids = buckets[c.bucket].data() + c.begin;
        const int u = static_cast<int>(c.bucket / s_levels);
        const int s = static_cast<int>(c.bucket % s_levels);
        const size_t m = c.end - c.begin;
        // k-major gather: channel k's values for the whole chunk form one
        // contiguous span, repaired in place by RepairSpan.
        std::vector<double> buf(m * dim);
        std::vector<common::Rng> rngs;
        rngs.reserve(m);
        for (size_t t = 0; t < m; ++t) rngs.push_back(rows.rng(ids[t]));
        for (size_t k = 0; k < dim; ++k)
          for (size_t t = 0; t < m; ++t) buf[k * m + t] = rows.x(ids[t], k);
        SpanScratch scratch;
        for (size_t k = 0; k < dim; ++k)
          RepairSpan(u, s, k, buf.data() + k * m, m, rngs.data(), buf.data() + k * m,
                     chunk_stats[ci], scratch);
        for (size_t k = 0; k < dim; ++k)
          for (size_t t = 0; t < m; ++t) rows.set(ids[t], k, buf[k * m + t]);
      },
      static_cast<size_t>(threads));
  RepairStats total;
  for (const RepairStats& stats : chunk_stats) total.Add(stats);
  return total;
}

}  // namespace otfair::core

#endif  // OTFAIR_CORE_REPAIRER_H_
