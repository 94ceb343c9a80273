#ifndef OTFAIR_CORE_MARGINALS_H_
#define OTFAIR_CORE_MARGINALS_H_

#include <vector>

#include "common/result.h"
#include "core/support_grid.h"
#include "ot/measure.h"

namespace otfair::core {

/// Marginal-estimation options for Algorithm 1 line 8.
struct MarginalOptions {
  /// KDE bandwidth; 0 selects Silverman's rule (the paper's choice, Eq. 12).
  double bandwidth = 0.0;
};

/// Interpolates an empirical channel marginal onto the shared support Q via
/// Gaussian KDE (paper Eq. 11): `p_q ∝ sum_i K(zeta_q - x_i, h)`, returned
/// as a normalized discrete measure on the grid points.
///
/// Which estimator runs is decided from the inputs alone, with h the
/// bandwidth in use (explicit, else Silverman's):
///  - step <= h / 4 and every sample inside [lo, hi]: the linear-binned
///    KDE (`stats::GaussianKde::BinnedPmfOnUniformGrid`), O(n + n_Q^2)
///    multiply-adds and one `exp` per lag. Its L1 distance to the exact
///    pmf is (step^2 / 12) * integral |f''| to leading order, so it falls
///    with (step / h)^2: below 1e-4 at n_Q 512 on the paper's mixture
///    (step/h <= 0.085), at most ~7e-4 at step = h / 4 on smooth samples
///    of a few hundred or more, ~1.5e-3 on a lumpy 100-row group, and
///    at worst ~0.121 (step / h)^2 (7.6e-3 at the threshold: tight
///    clusters halfway between grid points). All of these sit far below
///    the KDE's own sampling error at these sample sizes. Design lands
///    here at large n_Q, because the grid spans the stratum's samples.
///  - otherwise the exact sum (`stats::GaussianKde::PmfOnGrid`), bit for
///    bit, one `exp` per sample per grid point. Coarse grids stay exact
///    because the binning error grows with (step / h)^2, and exact is
///    cheap there: its cost grows with n_Q. The golden fixtures' n_Q 32
///    sits at step/h 0.34-0.59; the paper's n_Q 30-50 is mostly exact (a
///    tight group can dip under h / 4 at n_Q 50). A sample outside the
///    grid takes this path too. Non-finite samples are rejected
///    (InvalidArgument) before either estimator runs.
common::Result<ot::DiscreteMeasure> InterpolateMarginal(const std::vector<double>& samples,
                                                        const SupportGrid& grid,
                                                        const MarginalOptions& options = {});

}  // namespace otfair::core

#endif  // OTFAIR_CORE_MARGINALS_H_
