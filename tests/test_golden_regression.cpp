// Golden regression over the figure trends: tiny fixed-seed sweeps in the
// golden_environment, diffed against committed CSV baselines. Because the
// experiment engine is deterministic by construction (counter-based RNG
// streams, thread-count-invariant reduction), the values should reproduce
// to the last bit on one platform; the comparison still allows a small
// relative tolerance so a different libm/compiler does not turn an
// ulp-level difference in a transcendental into a red build.
//
// The recovery-study golden is exact instead: every RecoveryReport field of
// every (injector, RecoveryConfig, policy) row, doubles as IEEE-754 bit
// patterns, so a replay that skips a needed recovery visit or reorders a
// ledger operation names the row and the field it moved.
//
// Regenerate after an intentional behavior change with
//   VNFR_UPDATE_GOLDENS=1 ./build/tests/test_golden
// and commit the rewritten files under tests/golden/.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/hybrid_primal_dual.hpp"
#include "report/json.hpp"
#include "sim/experiment.hpp"
#include "sim/recovery_study.hpp"
#include "sim/scenarios.hpp"

#ifndef VNFR_GOLDEN_DIR
#error "VNFR_GOLDEN_DIR must point at tests/golden"
#endif

namespace vnfr::sim {
namespace {

/// Values are compared as |got - want| <= kRelTol * max(1, |want|).
constexpr double kRelTol = 1e-6;

struct GoldenRow {
    std::string param;      ///< sweep coordinate, e.g. "n=40" or "K=1.05"
    std::string algorithm;
    double revenue{0};
    double acceptance{0};
    double admitted{0};
    double availability{0};
};

std::string row_key(const GoldenRow& row) { return row.param + "/" + row.algorithm; }

std::vector<GoldenRow> run_sweep_point(const core::InstanceConfig& config,
                                       const std::string& param,
                                       std::uint64_t base_seed) {
    ExperimentConfig cfg;
    cfg.algorithms = {Algorithm::kOnsitePrimalDual, Algorithm::kOnsiteGreedy,
                      Algorithm::kOffsitePrimalDual, Algorithm::kOffsiteGreedy};
    cfg.seeds = 3;
    cfg.base_seed = base_seed;
    const ExperimentOutcome out = run_experiment(make_config_factory(config), cfg);

    std::vector<GoldenRow> rows;
    for (const AlgorithmOutcome& a : out.per_algorithm) {
        GoldenRow row;
        row.param = param;
        row.algorithm = std::string(algorithm_name(a.algorithm));
        row.revenue = a.revenue.mean();
        row.acceptance = a.acceptance.mean();
        row.admitted = a.admitted.mean();
        row.availability = a.availability.mean();
        rows.push_back(row);
    }
    return rows;
}

/// fig1a/fig1b trend, shrunk: revenue and acceptance versus request count.
std::vector<GoldenRow> fig1a_small_rows() {
    std::vector<GoldenRow> rows;
    for (const std::size_t n : {std::size_t{40}, std::size_t{80}}) {
        const auto point = run_sweep_point(golden_environment(n), "n=" + std::to_string(n),
                                           common::stream_seed(0x601d, n));
        rows.insert(rows.end(), point.begin(), point.end());
    }
    return rows;
}

/// fig2b trend, shrunk: the reliability-ratio sweep K = rc_max / rc_min.
std::vector<GoldenRow> fig2b_small_rows() {
    const double sweep[] = {1.001, 1.05};
    std::vector<GoldenRow> rows;
    for (std::size_t i = 0; i < std::size(sweep); ++i) {
        core::InstanceConfig config = golden_environment(60);
        config.set_reliability_ratio(sweep[i]);
        std::ostringstream param;
        param << "K=" << sweep[i];
        const auto point =
            run_sweep_point(config, param.str(), common::stream_seed(0x601d2b, i));
        rows.insert(rows.end(), point.begin(), point.end());
    }
    return rows;
}

void write_golden(const std::string& path, const std::vector<GoldenRow>& rows) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << "param,algorithm,revenue,acceptance,admitted,availability\n";
    out.precision(17);
    for (const GoldenRow& row : rows) {
        out << row.param << ',' << row.algorithm << ',' << row.revenue << ','
            << row.acceptance << ',' << row.admitted << ',' << row.availability << '\n';
    }
}

std::map<std::string, GoldenRow> load_golden(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in) << "missing golden file " << path
                    << " — regenerate with VNFR_UPDATE_GOLDENS=1";
    std::map<std::string, GoldenRow> rows;
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        std::istringstream fields(line);
        GoldenRow row;
        std::string cell;
        std::getline(fields, row.param, ',');
        std::getline(fields, row.algorithm, ',');
        std::getline(fields, cell, ',');
        row.revenue = std::stod(cell);
        std::getline(fields, cell, ',');
        row.acceptance = std::stod(cell);
        std::getline(fields, cell, ',');
        row.admitted = std::stod(cell);
        std::getline(fields, cell, ',');
        row.availability = std::stod(cell);
        rows[row_key(row)] = row;
    }
    return rows;
}

void expect_close(double got, double want, const std::string& what) {
    EXPECT_LE(std::abs(got - want), kRelTol * std::max(1.0, std::abs(want))) << what;
}

void check_against_golden(const std::string& name, const std::vector<GoldenRow>& rows) {
    const std::string path = std::string(VNFR_GOLDEN_DIR) + "/" + name;
    if (std::getenv("VNFR_UPDATE_GOLDENS") != nullptr) {
        write_golden(path, rows);
        GTEST_SKIP() << "regenerated " << path;
    }
    const std::map<std::string, GoldenRow> want = load_golden(path);
    ASSERT_EQ(rows.size(), want.size()) << "row count drifted for " << name;
    for (const GoldenRow& got : rows) {
        const auto it = want.find(row_key(got));
        ASSERT_NE(it, want.end()) << "unexpected row " << row_key(got) << " in " << name;
        expect_close(got.revenue, it->second.revenue, row_key(got) + " revenue");
        expect_close(got.acceptance, it->second.acceptance, row_key(got) + " acceptance");
        expect_close(got.admitted, it->second.admitted, row_key(got) + " admitted");
        expect_close(got.availability, it->second.availability,
                     row_key(got) + " availability");
    }
}

/// The recovery golden's columns: the row key, then every RecoveryReport
/// field in declaration order.
constexpr const char* kRecoveryHeader =
    "injector,config,policy,request_slots,served_slots,disrupted_slots,"
    "cloudlet_crashes,instance_crashes,transient_blips,rack_failures,instances_lost,"
    "local_respawns,remote_migrations,readmissions,failed_recoveries,local_failovers,"
    "remote_failovers,outages,recovered_outages,recovery_slots_total,shed_requests,"
    "shed_revenue,sla_requests,sla_violations,promised_availability_sum,"
    "delivered_availability_sum,capacity_violations";

std::string recovery_row(const std::string& key, const RecoveryReport& r) {
    std::ostringstream row;
    const auto bits = [](double v) { return report::hex_u64(std::bit_cast<std::uint64_t>(v)); };
    row << key << ',' << r.request_slots << ',' << r.served_slots << ','
        << r.disrupted_slots << ',' << r.cloudlet_crashes << ',' << r.instance_crashes << ','
        << r.transient_blips << ',' << r.rack_failures << ',' << r.instances_lost << ','
        << r.local_respawns << ',' << r.remote_migrations << ',' << r.readmissions << ','
        << r.failed_recoveries << ',' << r.local_failovers << ',' << r.remote_failovers
        << ',' << r.outages << ',' << r.recovered_outages << ',' << r.recovery_slots_total
        << ',' << r.shed_requests << ',' << bits(r.shed_revenue) << ',' << r.sla_requests
        << ',' << r.sla_violations << ',' << bits(r.promised_availability_sum) << ','
        << bits(r.delivered_availability_sum) << ',' << r.capacity_violations;
    return row.str();
}

/// Summed recovery reports of the paper environment (n = 800, the hybrid's
/// decisions) under both fault injectors, every policy, and RecoveryConfigs
/// that move each knob off its default: spin-up delay, backoff, retry
/// budget and shedding.
std::vector<std::string> recovery_config_rows() {
    common::Rng rng(0x90ec);
    const core::Instance inst = core::make_instance(paper_environment(800), rng);
    core::HybridPrimalDual scheduler(inst);
    const core::ScheduleResult result = core::run_online(inst, scheduler);

    struct Named {
        const char* name;
        RecoveryConfig config;
    };
    std::vector<Named> configs = {{"default", {}}};
    configs.push_back({"respawn_delay=0", {}});
    configs.back().config.respawn_delay_slots = 0;
    configs.push_back({"respawn_delay=3", {}});
    configs.back().config.respawn_delay_slots = 3;
    configs.push_back({"retry_backoff=3", {}});
    configs.back().config.retry_backoff_slots = 3;
    configs.push_back({"max_retries=0", {}});
    configs.back().config.max_retries = 0;
    configs.push_back({"max_retries=1", {}});
    configs.back().config.max_retries = 1;
    configs.push_back({"no_shedding", {}});
    configs.back().config.allow_shedding = false;

    struct Injector {
        const char* name;
        FaultScheduleFactory factory;
    };
    FaultInjectorConfig faults;
    faults.rack_failure_per_slot = 0.01;
    const Injector injectors[] = {
        {"independent+racks",
         [faults](const core::Instance& i, const std::vector<core::Decision>& d,
                  std::uint64_t seed) { return generate_fault_schedule(i, d, faults, seed); }},
        {"markov", markov_injector({})},
    };
    const RecoveryPolicy policies[] = {RecoveryPolicy::kNone, RecoveryPolicy::kLocalRespawn,
                                       RecoveryPolicy::kRemoteMigrate,
                                       RecoveryPolicy::kReadmit};

    std::vector<std::string> rows;
    for (const Injector& injector : injectors) {
        // A Markov schedule loses no replica (its outages keep state), so
        // no recovery fires and every config replays like the default.
        const std::size_t config_count =
            std::string(injector.name) == "markov" ? 1 : configs.size();
        for (std::size_t n = 0; n < config_count; ++n) {
            const Named& named = configs[n];
            for (const RecoveryPolicy policy : policies) {
                RecoveryStudyConfig cfg;
                cfg.recovery = named.config;
                cfg.recovery.policy = policy;
                cfg.replications = 8;
                cfg.master_seed = 0x90ec;
                cfg.injector = injector.factory;
                const RecoveryStudyOutcome out =
                    run_recovery_replications(inst, result.decisions, cfg);
                rows.push_back(recovery_row(std::string(injector.name) + ',' + named.name +
                                                ',' + to_string(policy),
                                            out.total));
            }
        }
    }
    return rows;
}

std::vector<std::string> split_csv(const std::string& line) {
    std::vector<std::string> cells;
    std::istringstream fields(line);
    std::string cell;
    while (std::getline(fields, cell, ',')) cells.push_back(cell);
    return cells;
}

TEST(GoldenRegression, Fig1aSmallTrendMatchesBaseline) {
    check_against_golden("fig1a_small.csv", fig1a_small_rows());
}

TEST(GoldenRegression, Fig2bSmallTrendMatchesBaseline) {
    check_against_golden("fig2b_small.csv", fig2b_small_rows());
}

TEST(GoldenRegression, RecoveryConfigsMatchBaselineBitForBit) {
    const std::vector<std::string> rows = recovery_config_rows();
    const std::string path = std::string(VNFR_GOLDEN_DIR) + "/recovery_configs.csv";
    if (std::getenv("VNFR_UPDATE_GOLDENS") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << kRecoveryHeader << '\n';
        for (const std::string& row : rows) out << row << '\n';
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — regenerate with VNFR_UPDATE_GOLDENS=1";
    std::string line;
    std::getline(in, line);
    ASSERT_EQ(line, kRecoveryHeader);
    const std::vector<std::string> columns = split_csv(kRecoveryHeader);
    std::vector<std::string> want;
    while (std::getline(in, line)) {
        if (!line.empty()) want.push_back(line);
    }
    ASSERT_EQ(rows.size(), want.size()) << "row count drifted";
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const std::vector<std::string> got_cells = split_csv(rows[r]);
        const std::vector<std::string> want_cells = split_csv(want[r]);
        ASSERT_EQ(got_cells.size(), columns.size()) << rows[r];
        ASSERT_EQ(want_cells.size(), columns.size()) << want[r];
        for (std::size_t c = 0; c < columns.size(); ++c) {
            EXPECT_EQ(got_cells[c], want_cells[c])
                << want_cells[0] << ',' << want_cells[1] << ',' << want_cells[2] << ": "
                << columns[c];
        }
    }
}

}  // namespace
}  // namespace vnfr::sim
