// Plumbing shared by the workloads: timing, percentiles, the result a
// workload fills in, and process-level probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

inline double micros_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Nearest-rank percentile, q in (0, 1]; 0 when there are no samples.
double percentile(std::vector<double> values, double q);

inline double median(std::vector<double> values) {
    return percentile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values);

struct RunOptions {
    std::uint64_t seed{0};
    double seconds{10};
    bool trace{false};
    /// On-disk directory (inside the checkout) for the storage self-check.
    std::string data_root;
    /// Worker threads for the batch workload: the hardware's, at most 4.
    std::size_t threads{1};
};

struct Metric {
    std::string name;
    double value{0};
    std::string unit;
};

struct RunResult {
    bool correct{true};
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    /// The contract metrics of an untraced run (BENCHMARK.json end_to_end).
    std::vector<Metric> end_to_end;
    /// The per-layer metrics of a traced run (BENCHMARK.json per_layer).
    std::vector<Metric> per_layer;
    /// The workload's figures under their own names, for the summary row.
    std::vector<Metric> summary;
    /// Lines printed before the result: checksums, storage, check failures.
    std::vector<std::string> notes;

    /// Records one output check; a failed one fails the run.
    void check(bool ok, const std::string& what);
    void e2e(std::string name, double value, std::string unit) {
        end_to_end.push_back({std::move(name), value, std::move(unit)});
    }
    void layer(std::string name, double value, std::string unit) {
        per_layer.push_back({std::move(name), value, std::move(unit)});
    }
    void report(std::string name, double value, std::string unit) {
        summary.push_back({std::move(name), value, std::move(unit)});
    }
};

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb();

/// Name of the filesystem holding `path` (ext4, tmpfs, ...).
std::string filesystem_type(const std::string& path);

}  // namespace perfbench
