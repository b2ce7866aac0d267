#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace vnfr::workload {

void GeneratorConfig::set_payment_ratio(double h) {
    if (!(h >= 1.0)) throw std::invalid_argument("set_payment_ratio: H must be >= 1");
    payment_rate_min = payment_rate_max / h;
}

GeneratorConfig google_cluster_like(TimeSlot horizon, std::size_t count) {
    GeneratorConfig cfg;
    cfg.horizon = horizon;
    cfg.count = count;
    cfg.arrivals = ArrivalProcess::kPoisson;
    cfg.durations = DurationDistribution::kBoundedPareto;
    cfg.duration_min = 1;
    cfg.duration_max = std::max<TimeSlot>(1, horizon / 4);
    cfg.pareto_alpha = 1.2;  // heavy tail: most tasks short, a few long
    return cfg;
}

namespace {

void validate(const GeneratorConfig& cfg, const vnf::Catalog& catalog) {
    if (catalog.empty()) throw std::invalid_argument("generate: empty VNF catalog");
    if (cfg.horizon <= 0) throw std::invalid_argument("generate: non-positive horizon");
    if (cfg.duration_min < 1 || cfg.duration_max < cfg.duration_min)
        throw std::invalid_argument("generate: bad duration range");
    if (cfg.duration_max > cfg.horizon)
        throw std::invalid_argument("generate: duration_max exceeds horizon");
    // The real-valued checks are written so that NaN fails them: every
    // comparison with NaN is false.
    if (!(cfg.requirement_min > 0.0) || !(cfg.requirement_max < 1.0) ||
        !(cfg.requirement_max >= cfg.requirement_min))
        throw std::invalid_argument("generate: bad requirement range");
    if (!(cfg.payment_rate_min > 0.0) || !(cfg.payment_rate_max >= cfg.payment_rate_min) ||
        !std::isfinite(cfg.payment_rate_max))
        throw std::invalid_argument("generate: bad payment-rate range");
    if (!(cfg.pareto_alpha > 0.0)) throw std::invalid_argument("generate: bad pareto_alpha");
    if (!(cfg.diurnal_amplitude >= 0.0) || !(cfg.diurnal_amplitude <= 1.0))
        throw std::invalid_argument("generate: diurnal_amplitude outside [0, 1]");
}

TimeSlot draw_duration(const GeneratorConfig& cfg, common::Rng& rng) {
    switch (cfg.durations) {
        case DurationDistribution::kUniformInt:
            return static_cast<TimeSlot>(rng.uniform_int(cfg.duration_min, cfg.duration_max));
        case DurationDistribution::kBoundedPareto: {
            const double raw = rng.bounded_pareto(cfg.pareto_alpha,
                                                  static_cast<double>(cfg.duration_min),
                                                  static_cast<double>(cfg.duration_max));
            return std::clamp<TimeSlot>(static_cast<TimeSlot>(std::lround(raw)),
                                        cfg.duration_min, cfg.duration_max);
        }
    }
    throw std::logic_error("generate: unknown duration distribution");
}

/// A Poisson(rate) count. Rng::poisson's inversion stops at a mean of
/// kPoissonPartMax, so a larger rate is split into ceil(rate / kPoissonPartMax)
/// equal parts whose counts are summed (a sum of independent Poisson counts
/// is Poisson in the summed mean). Up to the limit it is one Rng::poisson
/// call with the rate itself.
std::int64_t draw_poisson(double rate, common::Rng& rng) {
    constexpr double kPoissonPartMax = 700.0;
    if (rate <= kPoissonPartMax) return rng.poisson(rate);
    const double parts = std::ceil(rate / kPoissonPartMax);
    const double part = rate / parts;
    std::int64_t k = 0;
    for (auto p = static_cast<std::int64_t>(parts); p > 0; --p) k += rng.poisson(part);
    return k;
}

std::vector<TimeSlot> draw_arrivals(const GeneratorConfig& cfg, common::Rng& rng) {
    std::vector<TimeSlot> arrivals;
    arrivals.reserve(cfg.count);
    switch (cfg.arrivals) {
        case ArrivalProcess::kUniform:
            for (std::size_t i = 0; i < cfg.count; ++i) {
                arrivals.push_back(
                    static_cast<TimeSlot>(rng.uniform_int(0, cfg.horizon - 1)));
            }
            break;
        case ArrivalProcess::kPoisson:
        case ArrivalProcess::kDiurnal: {
            // Rate chosen so the expected total matches cfg.count; drained
            // or padded afterwards to hit the count exactly so sweeps over
            // "number of requests" stay exact.
            const double base_rate =
                static_cast<double>(cfg.count) / static_cast<double>(cfg.horizon);
            for (TimeSlot t = 0; t < cfg.horizon && arrivals.size() < cfg.count; ++t) {
                double rate = base_rate;
                if (cfg.arrivals == ArrivalProcess::kDiurnal) {
                    // Trough at the horizon edges, peak mid-horizon; the
                    // modulation averages to ~1 so the expected total stays
                    // near cfg.count.
                    const double phase = 2.0 * 3.14159265358979323846 *
                                         (static_cast<double>(t) + 0.5) /
                                         static_cast<double>(cfg.horizon);
                    rate *= 1.0 - cfg.diurnal_amplitude * std::cos(phase);
                }
                const std::int64_t k = rate > 0.0 ? draw_poisson(rate, rng) : 0;
                for (std::int64_t i = 0; i < k && arrivals.size() < cfg.count; ++i) {
                    arrivals.push_back(t);
                }
            }
            while (arrivals.size() < cfg.count) {
                arrivals.push_back(
                    static_cast<TimeSlot>(rng.uniform_int(0, cfg.horizon - 1)));
            }
            break;
        }
    }
    return arrivals;
}

}  // namespace

std::vector<Request> generate(const GeneratorConfig& cfg, const vnf::Catalog& catalog,
                              common::Rng& rng) {
    validate(cfg, catalog);
    auto arrivals = draw_arrivals(cfg, rng);

    std::vector<Request> drawn;
    drawn.reserve(cfg.count);
    for (std::size_t i = 0; i < cfg.count; ++i) {
        Request r;
        r.id = RequestId{static_cast<std::int64_t>(i)};
        r.vnf = VnfTypeId{rng.uniform_int(0, static_cast<std::int64_t>(catalog.size()) - 1)};
        r.requirement = rng.uniform(cfg.requirement_min, cfg.requirement_max);
        r.duration = draw_duration(cfg, rng);
        // Clamp the arrival so the request ends inside the horizon (the
        // paper only considers requests with a_i + d_i - 1 in T).
        r.arrival = std::min(arrivals[i], cfg.horizon - r.duration);
        const double pr = rng.uniform(cfg.payment_rate_min, cfg.payment_rate_max);
        r.payment = pr * static_cast<double>(r.duration) *
                    catalog.compute_units(r.vnf) * r.requirement;
        drawn.push_back(r);
    }

    // Stable counting placement by arrival slot: count each slot's
    // requests, turn the counts into each slot's first position, then copy
    // the requests in id order to their slot's next position. Ids follow
    // generation order, so this is the (arrival, id) order in
    // O(count + horizon).
    std::vector<std::size_t> next(static_cast<std::size_t>(cfg.horizon) + 1, 0);
    for (const Request& r : drawn) ++next[static_cast<std::size_t>(r.arrival) + 1];
    for (std::size_t s = 1; s < next.size(); ++s) next[s] += next[s - 1];
    std::vector<Request> out(drawn.size());
    for (const Request& r : drawn) out[next[static_cast<std::size_t>(r.arrival)]++] = r;
    return out;
}

}  // namespace vnfr::workload
