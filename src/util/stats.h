// Statistical primitives used throughout the Concilium evaluation:
// the normal approximation to the Poisson-binomial occupancy distribution
// (Section 3.1), binomial tail probabilities for accusation windows
// (Section 4.3), and general accumulators / histograms for the simulations.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace concilium::util {

/// Standard normal probability density.
double normal_pdf(double x);

/// Standard normal cumulative distribution Phi(x).
double normal_cdf(double x);

/// Cumulative distribution of N(mean, stddev^2) at x.  stddev == 0 yields a
/// step function at the mean.
double normal_cdf(double x, double mean, double stddev);

/// Inverse of the standard normal cdf (Acklam's rational approximation,
/// relative error < 1.2e-9).  p must lie in (0, 1).
double normal_quantile(double p);

/// log(n!) via lgamma.
double log_factorial(int n);

/// log of the binomial coefficient C(n, k).
double log_binomial_coefficient(int n, int k);

/// Binomial pmf Pr(X = k) for X ~ Binomial(n, p), computed in log space.
double binomial_pmf(int n, int k, double p);

/// Upper tail Pr(X >= k) for X ~ Binomial(n, p).
/// This is the false-positive form of Section 4.3: Pr(W >= m) with p_good.
double binomial_upper_tail(int n, int k, double p);

/// Lower tail Pr(X < k), i.e. Pr(X <= k-1).
/// This is the false-negative form of Section 4.3: Pr(W < m) with p_faulty.
double binomial_lower_tail_exclusive(int n, int k, double p);

/// Exact mean and variance of a Poisson-binomial distribution (a sum of
/// independent Bernoulli variables with heterogeneous success probabilities),
/// plus the paper's normal approximation to its cdf.
///
/// The paper expresses the moments through grid-normalised quantities
/// (Section 3.1): with S = l*v Bernoulli slots and fill probabilities p_ij,
///     mu      = (1/S) * sum p_ij            (mean occupancy fraction)
///     sigma^2 = (1/S) * sum (p_ij - mu)^2   (variance of the p grid)
///     mu_phi      = S * mu                  (mean slot count)
///     sigma_phi^2 = S*mu*(1-mu) - S*sigma^2 (exact PB variance)
/// The identity sum p(1-p) = S*mu*(1-mu) - S*sigma^2 makes sigma_phi^2 the
/// exact Poisson-binomial variance, so the normal approximation matches the
/// first two moments exactly.
class PoissonBinomialNormal {
  public:
    /// probs: the Bernoulli success probabilities (the p_ij grid, flattened).
    explicit PoissonBinomialNormal(std::span<const double> probs);

    [[nodiscard]] double mean_count() const noexcept { return mu_phi_; }
    [[nodiscard]] double stddev_count() const noexcept { return sigma_phi_; }
    [[nodiscard]] std::size_t slots() const noexcept { return slots_; }

    /// Mean occupancy fraction mu (paper notation).
    [[nodiscard]] double grid_mean() const noexcept { return grid_mean_; }
    /// Variance of the probability grid sigma^2 (paper notation).
    [[nodiscard]] double grid_variance() const noexcept { return grid_variance_; }

    /// Normal-approximate Pr(count <= x) (no continuity correction; callers
    /// that need Pr(count == d) use cdf(d + 0.5) - cdf(d - 0.5) per the
    /// paper's density-test equations).
    [[nodiscard]] double cdf(double x) const;

    /// Normal-approximate point mass Pr(count == d) via continuity
    /// correction, i.e. cdf(d + 1/2) - cdf(d - 1/2).
    [[nodiscard]] double pmf(int d) const;

  private:
    std::size_t slots_;
    double grid_mean_;
    double grid_variance_;
    double mu_phi_;
    double sigma_phi_;
};

/// Welford online accumulator for count / mean / variance / min / max.
class OnlineMoments {
  public:
    void add(double x) noexcept;
    void merge(const OnlineMoments& other) noexcept;

    [[nodiscard]] std::int64_t count() const noexcept { return count_; }
    [[nodiscard]] double mean() const noexcept { return mean_; }
    /// Population variance (zero when fewer than two samples).
    [[nodiscard]] double variance() const noexcept;
    [[nodiscard]] double stddev() const noexcept;
    [[nodiscard]] double min() const noexcept { return min_; }
    [[nodiscard]] double max() const noexcept { return max_; }

  private:
    std::int64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Fixed-bin histogram over [lo, hi].  Out-of-range samples clamp to the
/// edge bins; used to render the blame pdfs of Figure 5.
class Histogram {
  public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x) noexcept;

    /// Adds every count of `other` into this histogram.  The two must have
    /// identical geometry (range and bin count); merging per-worker
    /// histograms in trial order reproduces the sequential fill exactly.
    void merge(const Histogram& other);

    [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
    [[nodiscard]] std::int64_t total() const noexcept { return total_; }
    [[nodiscard]] std::int64_t count(std::size_t bin) const {
        return counts_.at(bin);
    }
    /// Center of bin i.
    [[nodiscard]] double bin_center(std::size_t bin) const;
    /// Empirical density for bin i (integrates to 1 over the range).
    [[nodiscard]] double density(std::size_t bin) const;
    /// Fraction of samples below x, linearly interpolating within the bin
    /// that straddles x.
    [[nodiscard]] double fraction_below(double x) const noexcept;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::int64_t> counts_;
    std::int64_t total_ = 0;
};

}  // namespace concilium::util
