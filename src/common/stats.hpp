// Streaming and batch statistics used by the experiment harness.
#pragma once

#include <cstddef>
#include <span>

namespace vnfr::common {

/// Numerically stable streaming mean/variance (Welford's algorithm).
class RunningStats {
  public:
    void add(double x);

    [[nodiscard]] std::size_t count() const { return n_; }
    [[nodiscard]] double mean() const;
    /// Unbiased sample variance; 0 for fewer than two samples.
    [[nodiscard]] double variance() const;
    [[nodiscard]] double stddev() const;
    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;
    [[nodiscard]] double sum() const { return sum_; }

    /// Half-width of the 95% confidence interval for the mean under a normal
    /// approximation (1.96 * s / sqrt(n)); 0 for fewer than two samples.
    [[nodiscard]] double ci95_halfwidth() const;

  private:
    std::size_t n_{0};
    double mean_{0};
    double m2_{0};
    double min_{0};
    double max_{0};
    double sum_{0};
};

/// Linear-interpolation percentile of `values` (copied and sorted), with
/// `q` in [0, 100]. Throws std::invalid_argument on empty input or bad q.
double percentile(std::span<const double> values, double q);

}  // namespace vnfr::common
