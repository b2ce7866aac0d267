#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace vnfr::common {

void RunningStats::add(double x) {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return n_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return n_ == 0 ? 0.0 : max_; }

double RunningStats::ci95_halfwidth() const {
    if (n_ < 2) return 0.0;
    return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

double percentile(std::span<const double> values, double q) {
    if (values.empty()) throw std::invalid_argument("percentile: empty input");
    if (q < 0.0 || q > 100.0) throw std::invalid_argument("percentile: q outside [0,100]");
    std::vector<double> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1) return sorted.front();
    const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace vnfr::common
