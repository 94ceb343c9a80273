#include "core/marginals.h"

#include <algorithm>

#include "common/status.h"
#include "stats/kde.h"

namespace otfair::core {

using common::Result;
using common::Status;

Result<ot::DiscreteMeasure> InterpolateMarginal(const std::vector<double>& samples,
                                                const SupportGrid& grid,
                                                const MarginalOptions& options) {
  if (samples.empty()) return Status::InvalidArgument("empty channel sample");
  auto kde = options.bandwidth > 0.0
                 ? stats::GaussianKde::Fit(samples, options.bandwidth)
                 : stats::GaussianKde::FitSilverman(samples);
  if (!kde.ok()) return kde.status();
  // The grid resolves the kernel and spans every sample: bin, then convolve.
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  const bool binned =
      grid.step() <= kde->bandwidth() / 4.0 && *lo >= grid.lo() && *hi <= grid.hi();
  auto pmf = binned ? kde->BinnedPmfOnUniformGrid(grid.lo(), grid.hi(), grid.size())
                    : kde->PmfOnGrid(grid.points());
  if (!pmf.ok()) return pmf.status();
  return ot::DiscreteMeasure::Create(grid.points(), std::move(*pmf));
}

}  // namespace otfair::core
