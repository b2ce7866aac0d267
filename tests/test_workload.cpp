#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/digest.hpp"
#include "common/rng.hpp"
#include "core/instance.hpp"
#include "sim/scenarios.hpp"
#include "vnf/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/request.hpp"
#include "workload/trace_io.hpp"

namespace vnfr::workload {
namespace {

vnf::Catalog test_catalog() {
    vnf::Catalog cat;
    cat.add("a", 1.0, 0.95);
    cat.add("b", 2.0, 0.9);
    cat.add("c", 3.0, 0.99);
    return cat;
}

/// The payment rate pr_i = pay_i / (d_i * c(f_i) * R_i) of Section VI.A.
double rate_of(const Request& r, const vnf::Catalog& catalog) {
    return r.payment /
           (static_cast<double>(r.duration) * catalog.compute_units(r.vnf) * r.requirement);
}

TEST(Request, WindowSemantics) {
    Request r;
    r.arrival = 3;
    r.duration = 2;
    EXPECT_EQ(r.end(), 5);
    EXPECT_FALSE(r.covers(2));
    EXPECT_TRUE(r.covers(3));
    EXPECT_TRUE(r.covers(4));
    EXPECT_FALSE(r.covers(5));
}

TEST(Request, FitsHorizon) {
    Request r;
    r.arrival = 3;
    r.duration = 2;
    EXPECT_TRUE(r.fits_horizon(5));
    EXPECT_FALSE(r.fits_horizon(4));
    r.arrival = -1;
    EXPECT_FALSE(r.fits_horizon(10));
}

TEST(Generator, ProducesRequestedCount) {
    GeneratorConfig cfg;
    cfg.count = 137;
    common::Rng rng(1);
    const auto requests = generate(cfg, test_catalog(), rng);
    EXPECT_EQ(requests.size(), 137u);
}

TEST(Generator, AllRequestsFitHorizon) {
    GeneratorConfig cfg;
    cfg.horizon = 20;
    cfg.count = 500;
    cfg.duration_max = 10;
    common::Rng rng(2);
    for (const Request& r : generate(cfg, test_catalog(), rng)) {
        EXPECT_TRUE(r.fits_horizon(cfg.horizon));
    }
}

TEST(Generator, SortedByArrival) {
    GeneratorConfig cfg;
    cfg.count = 300;
    common::Rng rng(3);
    const auto requests = generate(cfg, test_catalog(), rng);
    for (std::size_t i = 1; i < requests.size(); ++i) {
        EXPECT_LE(requests[i - 1].arrival, requests[i].arrival);
    }
}

TEST(Generator, FieldsWithinConfiguredRanges) {
    GeneratorConfig cfg;
    cfg.count = 400;
    cfg.duration_min = 2;
    cfg.duration_max = 7;
    cfg.requirement_min = 0.92;
    cfg.requirement_max = 0.97;
    cfg.payment_rate_min = 2.0;
    cfg.payment_rate_max = 4.0;
    common::Rng rng(4);
    const auto cat = test_catalog();
    for (const Request& r : generate(cfg, cat, rng)) {
        EXPECT_GE(r.duration, 2);
        EXPECT_LE(r.duration, 7);
        EXPECT_GE(r.requirement, 0.92);
        EXPECT_LE(r.requirement, 0.97);
        const double pr = rate_of(r, cat);
        EXPECT_GE(pr, 2.0 - 1e-9);
        EXPECT_LE(pr, 4.0 + 1e-9);
        EXPECT_LT(r.vnf.index(), cat.size());
    }
}

TEST(Generator, PaymentFollowsRateDefinition) {
    // pay_i = pr_i * d_i * c(f_i) * R_i (Section VI.A), so rate_of
    // must invert exactly.
    GeneratorConfig cfg;
    cfg.count = 50;
    cfg.payment_rate_min = 3.0;
    cfg.payment_rate_max = 3.0;  // degenerate: every rate is exactly 3
    common::Rng rng(5);
    const auto cat = test_catalog();
    for (const Request& r : generate(cfg, cat, rng)) {
        EXPECT_NEAR(rate_of(r, cat), 3.0, 1e-12);
    }
}

TEST(Generator, DeterministicBySeed) {
    GeneratorConfig cfg;
    cfg.count = 100;
    common::Rng a(77);
    common::Rng b(77);
    const auto cat = test_catalog();
    const auto r1 = generate(cfg, cat, a);
    const auto r2 = generate(cfg, cat, b);
    ASSERT_EQ(r1.size(), r2.size());
    for (std::size_t i = 0; i < r1.size(); ++i) {
        EXPECT_EQ(r1[i].arrival, r2[i].arrival);
        EXPECT_EQ(r1[i].duration, r2[i].duration);
        EXPECT_DOUBLE_EQ(r1[i].payment, r2[i].payment);
    }
}

TEST(Generator, SetPaymentRatioImplementsH) {
    GeneratorConfig cfg;
    cfg.payment_rate_max = 10.0;
    cfg.set_payment_ratio(5.0);
    EXPECT_DOUBLE_EQ(cfg.payment_rate_min, 2.0);
    EXPECT_THROW(cfg.set_payment_ratio(0.5), std::invalid_argument);
}

TEST(Generator, PoissonArrivalsHitExactCount) {
    GeneratorConfig cfg = google_cluster_like(40, 250);
    common::Rng rng(6);
    const auto requests = generate(cfg, test_catalog(), rng);
    EXPECT_EQ(requests.size(), 250u);
}

TEST(Generator, GoogleClusterLikeIsHeavyTailed) {
    GeneratorConfig cfg = google_cluster_like(100, 2000);
    common::Rng rng(7);
    const auto requests = generate(cfg, test_catalog(), rng);
    std::size_t short_jobs = 0;
    for (const Request& r : requests) {
        if (r.duration <= 3) ++short_jobs;
    }
    // Bounded Pareto with alpha=1.2 puts most mass at small durations.
    EXPECT_GT(short_jobs, requests.size() / 2);
}

TEST(Generator, DiurnalArrivalsHitExactCount) {
    GeneratorConfig cfg;
    cfg.horizon = 48;
    cfg.count = 400;
    cfg.arrivals = ArrivalProcess::kDiurnal;
    common::Rng rng(21);
    EXPECT_EQ(generate(cfg, test_catalog(), rng).size(), 400u);
}

TEST(Generator, DiurnalArrivalsPeakMidHorizon) {
    GeneratorConfig cfg;
    cfg.horizon = 48;
    cfg.count = 6000;
    cfg.duration_min = 1;
    cfg.duration_max = 1;  // keep arrivals unclamped
    cfg.arrivals = ArrivalProcess::kDiurnal;
    cfg.diurnal_amplitude = 0.9;
    common::Rng rng(22);
    const auto requests = generate(cfg, test_catalog(), rng);
    std::size_t edges = 0;   // first and last quarter of the horizon
    std::size_t middle = 0;  // middle half
    for (const Request& r : requests) {
        if (r.arrival < 12 || r.arrival >= 36) ++edges;
        else ++middle;
    }
    EXPECT_GT(middle, 2 * edges) << "diurnal load must concentrate mid-horizon";
}

TEST(Generator, DiurnalAmplitudeValidated) {
    GeneratorConfig cfg;
    cfg.arrivals = ArrivalProcess::kDiurnal;
    cfg.diurnal_amplitude = 1.5;
    common::Rng rng(23);
    EXPECT_THROW(generate(cfg, test_catalog(), rng), std::invalid_argument);
}

/// The generator as it was before its counting placement: the same draws,
/// ordered by a comparison sort on (arrival, id), with Rng::poisson called
/// on the whole slot rate. nullopt where that call rejects the rate.
std::optional<std::vector<Request>> sorted_oracle(const GeneratorConfig& cfg,
                                                  const vnf::Catalog& catalog,
                                                  common::Rng& rng) {
    std::vector<TimeSlot> arrivals;
    if (cfg.arrivals == ArrivalProcess::kUniform) {
        for (std::size_t i = 0; i < cfg.count; ++i) {
            arrivals.push_back(static_cast<TimeSlot>(rng.uniform_int(0, cfg.horizon - 1)));
        }
    } else {
        const double base_rate =
            static_cast<double>(cfg.count) / static_cast<double>(cfg.horizon);
        for (TimeSlot t = 0; t < cfg.horizon && arrivals.size() < cfg.count; ++t) {
            double rate = base_rate;
            if (cfg.arrivals == ArrivalProcess::kDiurnal) {
                const double phase = 2.0 * 3.14159265358979323846 *
                                     (static_cast<double>(t) + 0.5) /
                                     static_cast<double>(cfg.horizon);
                rate *= 1.0 - cfg.diurnal_amplitude * std::cos(phase);
            }
            int k = 0;
            try {
                k = rate > 0.0 ? rng.poisson(rate) : 0;
            } catch (const std::invalid_argument&) {
                return std::nullopt;
            }
            for (int i = 0; i < k && arrivals.size() < cfg.count; ++i) arrivals.push_back(t);
        }
        while (arrivals.size() < cfg.count) {
            arrivals.push_back(static_cast<TimeSlot>(rng.uniform_int(0, cfg.horizon - 1)));
        }
    }
    std::vector<Request> out;
    for (std::size_t i = 0; i < cfg.count; ++i) {
        Request r;
        r.id = RequestId{static_cast<std::int64_t>(i)};
        r.vnf = VnfTypeId{rng.uniform_int(0, static_cast<std::int64_t>(catalog.size()) - 1)};
        r.requirement = rng.uniform(cfg.requirement_min, cfg.requirement_max);
        if (cfg.durations == DurationDistribution::kUniformInt) {
            r.duration = static_cast<TimeSlot>(rng.uniform_int(cfg.duration_min, cfg.duration_max));
        } else {
            const double raw = rng.bounded_pareto(cfg.pareto_alpha,
                                                  static_cast<double>(cfg.duration_min),
                                                  static_cast<double>(cfg.duration_max));
            r.duration = std::clamp<TimeSlot>(static_cast<TimeSlot>(std::lround(raw)),
                                              cfg.duration_min, cfg.duration_max);
        }
        r.arrival = std::min(arrivals[i], cfg.horizon - r.duration);
        const double pr = rng.uniform(cfg.payment_rate_min, cfg.payment_rate_max);
        r.payment = pr * static_cast<double>(r.duration) * catalog.compute_units(r.vnf) *
                    r.requirement;
        out.push_back(r);
    }
    std::sort(out.begin(), out.end(), [](const Request& a, const Request& b) {
        if (a.arrival != b.arrival) return a.arrival < b.arrival;
        return a.id < b.id;
    });
    return out;
}

/// Every field of `a` and `b` is equal, doubles bit for bit.
void expect_same_requests(const std::vector<Request>& a, const std::vector<Request>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("position " + std::to_string(i));
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].vnf, b[i].vnf);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].requirement),
                  std::bit_cast<std::uint64_t>(b[i].requirement));
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].duration, b[i].duration);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].payment),
                  std::bit_cast<std::uint64_t>(b[i].payment));
        EXPECT_EQ(a[i].source, b[i].source);
    }
}

/// Strictly increasing in (arrival, id).
void expect_arrival_id_order(const std::vector<Request>& requests) {
    for (std::size_t i = 1; i < requests.size(); ++i) {
        const Request& a = requests[i - 1];
        const Request& b = requests[i];
        EXPECT_TRUE(a.arrival < b.arrival || (a.arrival == b.arrival && a.id < b.id))
            << "positions " << i - 1 << " and " << i;
    }
}

TEST(Generator, CountingPlacementMatchesSortedOracle) {
    const auto cat = test_catalog();
    std::size_t compared = 0;
    for (const ArrivalProcess arrivals :
         {ArrivalProcess::kUniform, ArrivalProcess::kPoisson, ArrivalProcess::kDiurnal}) {
        for (const DurationDistribution durations :
             {DurationDistribution::kUniformInt, DurationDistribution::kBoundedPareto}) {
            for (const TimeSlot horizon : {1, 24, 600}) {
                for (const std::size_t count : {0UL, 1UL, 400UL, 5000UL}) {
                    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
                        GeneratorConfig cfg;
                        cfg.arrivals = arrivals;
                        cfg.durations = durations;
                        cfg.horizon = horizon;
                        cfg.count = count;
                        cfg.duration_max = std::min<TimeSlot>(10, horizon);
                        SCOPED_TRACE(::testing::Message()
                                     << "arrivals " << static_cast<int>(arrivals)
                                     << " durations " << static_cast<int>(durations)
                                     << " horizon " << horizon << " count " << count
                                     << " seed " << seed);
                        common::Rng rng(seed);
                        common::Rng oracle_rng(seed);
                        const std::vector<Request> got = generate(cfg, cat, rng);
                        const auto want = sorted_oracle(cfg, cat, oracle_rng);
                        if (!want) {
                            // Past the sampler's limit: the oracle has no
                            // answer, the generator still must.
                            ASSERT_EQ(got.size(), count);
                            expect_arrival_id_order(got);
                            continue;
                        }
                        expect_same_requests(got, *want);
                        EXPECT_EQ(rng(), oracle_rng());
                        ++compared;
                    }
                }
            }
        }
    }
    EXPECT_GT(compared, 250u);
}

TEST(Generator, PaperEnvironmentRequestsPinned) {
    common::Rng rng(1);
    const core::Instance inst = core::make_instance(sim::paper_environment(800), rng);
    common::Fnv1a digest;
    for (const Request& r : inst.requests) {
        digest.mix(static_cast<std::uint64_t>(r.id.value));
        digest.mix(static_cast<std::uint64_t>(r.vnf.value));
        digest.mix(r.requirement);
        digest.mix(static_cast<std::uint64_t>(r.arrival));
        digest.mix(static_cast<std::uint64_t>(r.duration));
        digest.mix(r.payment);
        digest.mix(static_cast<std::uint64_t>(r.source.value));
    }
    EXPECT_EQ(digest.value(), 0x09b2f1f09a559a77ULL) << std::hex << digest.value();
}

TEST(Generator, PoissonArrivalsPastSamplerLimit) {
    // 20,000 requests over 24 slots: ~833 a slot, past Rng::poisson's
    // inversion limit of 700.
    common::Rng rng(1);
    const auto requests = generate(google_cluster_like(24, 20000), test_catalog(), rng);
    ASSERT_EQ(requests.size(), 20000u);
    expect_arrival_id_order(requests);
}

TEST(Generator, ValidationErrors) {
    common::Rng rng(1);
    const auto cat = test_catalog();
    GeneratorConfig cfg;
    cfg.horizon = 0;
    EXPECT_THROW(generate(cfg, cat, rng), std::invalid_argument);
    cfg = {};
    cfg.duration_max = 0;
    EXPECT_THROW(generate(cfg, cat, rng), std::invalid_argument);
    cfg = {};
    cfg.duration_max = cfg.horizon + 1;
    EXPECT_THROW(generate(cfg, cat, rng), std::invalid_argument);
    cfg = {};
    cfg.requirement_max = 1.0;
    EXPECT_THROW(generate(cfg, cat, rng), std::invalid_argument);
    cfg = {};
    cfg.payment_rate_min = 0.0;
    EXPECT_THROW(generate(cfg, cat, rng), std::invalid_argument);
    EXPECT_THROW(generate(GeneratorConfig{}, vnf::Catalog{}, rng), std::invalid_argument);
}

TEST(Generator, RejectsNanRequirementRange) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    common::Rng rng(1);
    const auto cat = test_catalog();
    GeneratorConfig cfg;
    cfg.requirement_min = nan;
    EXPECT_THROW(generate(cfg, cat, rng), std::invalid_argument);
    cfg = {};
    cfg.requirement_max = nan;
    EXPECT_THROW(generate(cfg, cat, rng), std::invalid_argument);
}

TEST(Generator, RejectsNanPaymentRateRange) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    common::Rng rng(1);
    const auto cat = test_catalog();
    GeneratorConfig cfg;
    cfg.payment_rate_min = nan;
    EXPECT_THROW(generate(cfg, cat, rng), std::invalid_argument);
    cfg = {};
    cfg.payment_rate_max = nan;
    EXPECT_THROW(generate(cfg, cat, rng), std::invalid_argument);
}

TEST(TraceIo, RoundTripsExactly) {
    GeneratorConfig cfg;
    cfg.count = 60;
    common::Rng rng(8);
    const auto original = generate(cfg, test_catalog(), rng);

    std::stringstream buffer;
    write_trace(buffer, original);
    const auto loaded = read_trace(buffer);

    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded[i].id, original[i].id);
        EXPECT_EQ(loaded[i].vnf, original[i].vnf);
        EXPECT_DOUBLE_EQ(loaded[i].requirement, original[i].requirement);
        EXPECT_EQ(loaded[i].arrival, original[i].arrival);
        EXPECT_EQ(loaded[i].duration, original[i].duration);
        EXPECT_DOUBLE_EQ(loaded[i].payment, original[i].payment);
        EXPECT_EQ(loaded[i].source, original[i].source);
    }
}

TEST(TraceIo, RejectsMissingHeader) {
    std::stringstream buffer("not,a,header\n");
    EXPECT_THROW(read_trace(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsWrongColumnCount) {
    std::stringstream buffer(
        "id,vnf,requirement,arrival,duration,payment,source\n1,2,0.9\n");
    EXPECT_THROW(read_trace(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsUnparsableNumbers) {
    std::stringstream buffer(
        "id,vnf,requirement,arrival,duration,payment,source\n1,0,zero.nine,0,1,5,-1\n");
    EXPECT_THROW(read_trace(buffer), std::runtime_error);
}

TEST(TraceIo, RejectsInvalidFieldValues) {
    std::stringstream bad_req(
        "id,vnf,requirement,arrival,duration,payment,source\n1,0,1.5,0,1,5,-1\n");
    EXPECT_THROW(read_trace(bad_req), std::runtime_error);
    std::stringstream bad_dur(
        "id,vnf,requirement,arrival,duration,payment,source\n1,0,0.9,0,0,5,-1\n");
    EXPECT_THROW(read_trace(bad_dur), std::runtime_error);
    std::stringstream bad_pay(
        "id,vnf,requirement,arrival,duration,payment,source\n1,0,0.9,0,1,-5,-1\n");
    EXPECT_THROW(read_trace(bad_pay), std::runtime_error);
}

TEST(TraceIo, SkipsBlankLines) {
    std::stringstream buffer(
        "id,vnf,requirement,arrival,duration,payment,source\n1,0,0.9,0,1,5,-1\n\n"
        "2,1,0.95,1,2,7,3\n");
    const auto loaded = read_trace(buffer);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_FALSE(loaded[0].source.valid());
    EXPECT_EQ(loaded[1].source, NodeId{3});
}

TEST(TraceIo, FileRoundTrip) {
    GeneratorConfig cfg;
    cfg.count = 10;
    common::Rng rng(9);
    const auto original = generate(cfg, test_catalog(), rng);
    const std::string path = ::testing::TempDir() + "/vnfr_trace_test.csv";
    write_trace_file(path, original);
    const auto loaded = read_trace_file(path);
    EXPECT_EQ(loaded.size(), original.size());
    EXPECT_THROW(read_trace_file("/nonexistent/dir/x.csv"), std::runtime_error);
}

}  // namespace
}  // namespace vnfr::workload
