// Synthetic request workload generation.
//
// The paper generates requests randomly with parameters shaped by the
// Google cluster data [19] and sweeps two ratios in Section VI:
//   H = pr_max / pr_min  — spread of request payment *rates*, where a
//       request's payment is pay_i = pr_i * d_i * c(f_i) * R_i,
//   K = rc_max / rc_min  — spread of cloudlet reliabilities (consumed by
//       the MEC builder, exposed here for symmetric sweep configuration).
//
// Since the original trace is not redistributable, the generator offers a
// uniform profile and a Google-cluster-like profile (Poisson arrivals,
// bounded-Pareto heavy-tailed durations); both are fully seeded.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "vnf/catalog.hpp"
#include "workload/request.hpp"

namespace vnfr::workload {

enum class ArrivalProcess {
    kUniform, ///< arrival slot uniform over the feasible range
    kPoisson, ///< slot-by-slot Poisson arrivals at a rate matching `count`
    /// Poisson arrivals with a sinusoidal day-shaped rate (quiet at the
    /// horizon edges, peak mid-horizon) — MEC user populations follow
    /// strong diurnal cycles. `diurnal_amplitude` sets the modulation.
    kDiurnal,
};

enum class DurationDistribution {
    kUniformInt,    ///< uniform integer in [duration_min, duration_max]
    kBoundedPareto, ///< heavy-tailed on [duration_min, duration_max]
};

struct GeneratorConfig {
    TimeSlot horizon{50};
    std::size_t count{200};

    ArrivalProcess arrivals{ArrivalProcess::kUniform};
    DurationDistribution durations{DurationDistribution::kUniformInt};

    TimeSlot duration_min{1};
    TimeSlot duration_max{10};
    double pareto_alpha{1.5};       ///< shape for kBoundedPareto
    double diurnal_amplitude{0.8};  ///< in [0, 1], for kDiurnal arrivals

    double requirement_min{0.90};
    double requirement_max{0.99};

    /// Payment-rate interval [pr_min, pr_max]; H = pr_max / pr_min.
    double payment_rate_min{1.0};
    double payment_rate_max{5.0};

    /// Apply `H` by fixing pr_max and setting pr_min = pr_max / H
    /// (the paper's sweep protocol for Fig. 2(a)).
    void set_payment_ratio(double h);
};

/// A Google-cluster-like preset: Poisson arrivals, bounded-Pareto durations.
GeneratorConfig google_cluster_like(TimeSlot horizon, std::size_t count);

/// Generates `config.count` requests sorted by arrival slot (FIFO ties by
/// id), every one satisfying fits_horizon(config.horizon). Ids follow draw
/// order; the ordering pass is a stable counting placement by arrival slot,
/// O(count + horizon) time and memory.
/// Throws std::invalid_argument on inconsistent configuration or an empty
/// catalog.
std::vector<Request> generate(const GeneratorConfig& config, const vnf::Catalog& catalog,
                              common::Rng& rng);

}  // namespace vnfr::workload
