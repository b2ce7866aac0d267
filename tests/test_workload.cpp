#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "common/rng.hpp"
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
