#include <gtest/gtest.h>

#include <cmath>

#include "overlay/density.h"
#include "util/rng.h"

namespace concilium::overlay {
namespace {

util::OverlayGeometry geom32() { return util::OverlayGeometry{.digits = 32}; }

TEST(Equation1, MatchesDirectFormula) {
    const double n = 1131;
    for (int row = 0; row < 6; ++row) {
        const double direct =
            1.0 - std::pow(1.0 - std::pow(1.0 / 16.0, row + 1), n - 1);
        EXPECT_NEAR(slot_fill_probability(row, n, geom32()), direct, 1e-12)
            << "row " << row;
    }
}

TEST(Equation1, MonotoneInRowAndPopulation) {
    // Shallow rows saturate at exactly 1.0 in double precision for large N,
    // so monotonicity is weak there and strict once below saturation.
    for (int row = 0; row + 1 < 10; ++row) {
        const double shallow = slot_fill_probability(row, 10000, geom32());
        const double deep = slot_fill_probability(row + 1, 10000, geom32());
        EXPECT_GE(shallow, deep);
        if (shallow < 1.0) {
            EXPECT_GT(shallow, deep);
        }
    }
    for (const int row : {3, 4, 5}) {
        EXPECT_LT(slot_fill_probability(row, 1000, geom32()),
                  slot_fill_probability(row, 100000, geom32()));
    }
}

TEST(Equation1, EdgeCases) {
    EXPECT_EQ(slot_fill_probability(0, 1.0, geom32()), 0.0);  // alone
    EXPECT_NEAR(slot_fill_probability(0, 1e9, geom32()), 1.0, 1e-12);
    EXPECT_THROW(slot_fill_probability(-1, 100, geom32()), std::out_of_range);
    EXPECT_THROW(slot_fill_probability(32, 100, geom32()), std::out_of_range);
}

TEST(OccupancyModel, GridIsRowConstant) {
    const auto grid = fill_probability_grid(5000, geom32());
    ASSERT_EQ(grid.size(), 512u);
    for (int row = 0; row < 32; ++row) {
        for (int col = 1; col < 16; ++col) {
            EXPECT_EQ(grid[row * 16 + col], grid[row * 16]);
        }
    }
}

TEST(OccupancyModel, NormalApproximationMatchesMonteCarlo) {
    // Figure 1's claim: phi(mu_phi, sigma_phi) tracks simulated occupancy.
    util::Rng rng(77);
    for (const int n : {200, 1131, 5000}) {
        const auto model = occupancy_model(n, geom32());
        const auto mc = simulate_table_occupancy(n, geom32(), 300, rng);
        EXPECT_NEAR(mc.mean(), model.mean_count(),
                    0.15 * model.mean_count() + 1.0)
            << "N=" << n;
        EXPECT_NEAR(mc.stddev(), model.stddev_count(),
                    0.5 * model.stddev_count() + 0.5)
            << "N=" << n;
    }
}

TEST(OccupancyModel, MeanGrowsLogarithmically) {
    // Adding a factor of 16 in population fills roughly one more row.
    const double m1 = occupancy_model(1000, geom32()).mean_count();
    const double m2 = occupancy_model(16000, geom32()).mean_count();
    EXPECT_NEAR(m2 - m1, 16.0, 3.0);
}

TEST(DensityTest, RuntimeCheckSemantics) {
    // gamma * d_peer < d_local  ==> suspicious.
    EXPECT_TRUE(jump_table_too_sparse(0.12, 0.05, 1.5));
    EXPECT_FALSE(jump_table_too_sparse(0.12, 0.10, 1.5));
    EXPECT_FALSE(jump_table_too_sparse(0.12, 0.12, 1.5));
    EXPECT_THROW(jump_table_too_sparse(0.1, 0.1, 0.9),
                 std::invalid_argument);
}

TEST(DensityTest, LeafVariantUsesSpacing) {
    // Sparse leaf set == larger spacing.
    EXPECT_TRUE(leaf_set_too_sparse(0.001, 0.01, 2.0));
    EXPECT_FALSE(leaf_set_too_sparse(0.001, 0.0015, 2.0));
}

TEST(DensityErrors, FalsePositiveDecreasesWithGamma) {
    const double n = 5000;
    double prev = 1.0;
    for (const double gamma : {1.0, 1.2, 1.5, 2.0, 3.0}) {
        const double fp = density_false_positive(gamma, n, n, geom32());
        EXPECT_LE(fp, prev + 1e-9) << "gamma " << gamma;
        prev = fp;
    }
    // At gamma = 3 nearly no honest peer is flagged.
    EXPECT_LT(density_false_positive(3.0, n, n, geom32()), 0.01);
}

TEST(DensityErrors, FalseNegativeIncreasesWithGamma) {
    const double n = 5000;
    const double pool = 0.2 * n;
    double prev = 0.0;
    for (const double gamma : {1.0, 1.2, 1.5, 2.0, 3.0}) {
        const double fn = density_false_negative(gamma, n, pool, geom32());
        EXPECT_GE(fn, prev - 1e-9) << "gamma " << gamma;
        prev = fn;
    }
}

TEST(DensityErrors, LargerCollusionIsHarderToCatch) {
    // Figure 2(b): the false-negative rate grows with the colluding
    // fraction c, because an attacker controlling more nodes can fill more
    // slots legitimately.
    const double n = 5000;
    const double gamma = 1.5;
    double prev = 0.0;
    for (const double c : {0.05, 0.1, 0.2, 0.3}) {
        const double fn = density_false_negative(gamma, n, c * n, geom32());
        EXPECT_GT(fn, prev) << "c=" << c;
        prev = fn;
    }
}

TEST(DensityErrors, FalsePositiveIndependentOfCollusionWithoutSuppression) {
    // Figure 2(a): without suppression the FP rate does not depend on c.
    const double n = 5000;
    const double fp1 = density_false_positive(1.4, n, n, geom32());
    // c enters only through the attacker pool, which the FP integral never
    // consults.
    EXPECT_DOUBLE_EQ(fp1, density_false_positive(1.4, n, n, geom32()));
}

TEST(DensityErrors, SuppressionRaisesFalsePositives) {
    // Figure 3(a): when colluders suppress themselves from honest peers'
    // tables, honest tables look sparser and get flagged more.
    const double n = 5000;
    const double gamma = 1.4;
    const double fp_clean = density_false_positive(gamma, n, n, geom32());
    const double fp_suppressed =
        density_false_positive(gamma, n, 0.8 * n, geom32());
    EXPECT_GT(fp_suppressed, fp_clean);
}

TEST(DensityErrors, OptimalGammaBalancesErrors) {
    const double n = 5000;
    const auto best =
        optimal_gamma(n, n, 0.2 * n, geom32(), 1.0, 3.0, 81);
    EXPECT_GE(best.gamma, 1.0);
    EXPECT_LE(best.gamma, 3.0);
    // The optimum beats the extremes.
    const double at_lo = density_false_positive(1.0, n, n, geom32()) +
                         density_false_negative(1.0, n, 0.2 * n, geom32());
    const double at_hi = density_false_positive(3.0, n, n, geom32()) +
                         density_false_negative(3.0, n, 0.2 * n, geom32());
    EXPECT_LE(best.total_error(), at_lo + 1e-9);
    EXPECT_LE(best.total_error(), at_hi + 1e-9);
    EXPECT_THROW(optimal_gamma(n, n, n, geom32(), 2.0, 1.0, 10),
                 std::invalid_argument);
}

TEST(DensityErrors, PaperOperatingPointIsReasonable) {
    // Section 4.1: with c = 20% and no suppression, a well-chosen gamma
    // keeps FN near a few percent; with c = 30% both error rates are
    // noticeably worse.  Verify the ordering, not the exact numbers (the
    // paper does not publish its N).
    const double n = 10000;
    const auto at20 = optimal_gamma(n, n, 0.2 * n, geom32(), 1.0, 4.0, 121);
    const auto at30 = optimal_gamma(n, n, 0.3 * n, geom32(), 1.0, 4.0, 121);
    EXPECT_LT(at20.total_error(), at30.total_error());
    EXPECT_LT(at20.false_negative, 0.10);
    EXPECT_LT(at20.false_positive, 0.10);
}

TEST(MonteCarloOccupancy, ValidatesArguments) {
    util::Rng rng(1);
    EXPECT_THROW(simulate_table_occupancy(1, geom32(), 10, rng),
                 std::invalid_argument);
    EXPECT_THROW(simulate_table_occupancy(100, geom32(), 0, rng),
                 std::invalid_argument);
}

}  // namespace
}  // namespace concilium::overlay
