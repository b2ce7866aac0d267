// vnfrsim — command-line driver for the reliability-aware VNF scheduling
// suite. Synthesizes (or replays) a workload on a chosen topology, runs the
// selected online algorithms and optionally the offline bound, and prints a
// comparison table or CSV.
//
//   vnfrsim --topology geant --cloudlets 8 --requests 400 --seeds 5
//   vnfrsim --algorithms onsite-primal-dual,onsite-greedy --offline-bound
//   vnfrsim --profile google --inject-failures --csv
//   vnfrsim --write-trace trace.csv / --read-trace trace.csv
//
// Run with --help for the full flag list.
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "common/rng.hpp"
#include "core/instance.hpp"
#include "core/offline.hpp"
#include "net/topology_zoo.hpp"
#include "report/csv.hpp"
#include "report/json.hpp"
#include "report/table.hpp"
#include "serve/admission_controller.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/recovery_study.hpp"
#include "sim/simulator.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace vnfr;

struct Options {
    std::string topology{"geant"};
    std::size_t cloudlets{8};
    double capacity_lo{40}, capacity_hi{60};
    double cloudlet_rel_lo{0.95}, cloudlet_rel_hi{0.999};
    std::size_t requests{400};
    TimeSlot horizon{24};
    TimeSlot duration_lo{4}, duration_hi{16};
    double requirement_lo{0.90}, requirement_hi{0.97};
    double payment_rate_lo{1.0}, payment_rate_hi{5.0};
    std::string profile{"uniform"};
    std::vector<std::string> algorithms;
    std::uint64_t seed{42};
    std::size_t seeds{1};
    bool offline_bound{false};
    bool inject_failures{false};
    std::optional<sim::RecoveryPolicy> recovery;
    std::size_t fault_replications{3};
    bool csv{false};
    std::string write_trace;
    std::string read_trace;
    // --serve: stream the workload through the crash-safe admission
    // controller, persisting state under this directory.
    std::string serve_dir;
    std::size_t checkpoint_every{64};
    std::size_t queue_capacity{256};
    std::size_t group_commit{1};
};

[[noreturn]] void usage(int exit_code) {
    std::cout <<
        R"(vnfrsim - reliability-aware VNF scheduling simulator

Workload / network:
  --topology NAME           abilene | nsfnet | geant | att       [geant]
  --cloudlets M             number of cloudlets                  [8]
  --capacity LO:HI          cloudlet capacity range              [40:60]
  --cloudlet-reliability LO:HI                                   [0.95:0.999]
  --requests N              number of requests                   [400]
  --horizon T               time slots                           [24]
  --durations LO:HI         request duration range (slots)       [4:16]
  --requirements LO:HI      reliability requirement range        [0.90:0.97]
  --payment-rates LO:HI     payment-rate range (H = HI/LO)       [1:5]
  --profile P               uniform | google                     [uniform]
  --read-trace FILE         replay a CSV trace instead of generating
  --write-trace FILE        save the generated trace (first seed)

Execution:
  --algorithms A,B,...      onsite-primal-dual | onsite-primal-dual-pure |
                            onsite-greedy | offsite-primal-dual |
                            offsite-greedy | hybrid-primal-dual  [all]
  --seed S                  base seed                            [42]
  --seeds K                 independent repetitions              [1]
  --offline-bound           also compute the offline LP bound (both schemes)
  --inject-failures         per-slot failure injection, report availability
  --recovery POLICY         replay each schedule through the fault-injection
                            runtime: none | local-respawn | remote-migrate |
                            readmit; reports delivered availability, time to
                            recover and shed revenue
  --fault-replications K    Monte-Carlo fault schedules per seed      [3]

Serve mode (crash-safe admission controller):
  --serve DIR               stream requests through the durable admission
                            controller, persisting snapshots + WAL in DIR;
                            re-running against a non-empty DIR resumes from
                            the recovered state (already-decided requests
                            are skipped, never double-admitted). Requires a
                            single primal-dual algorithm (default
                            onsite-primal-dual). A run killed mid-stream
                            (kill -9) resumes the same way.
  --checkpoint-every N      WAL records between snapshots            [64]
  --queue-capacity N        admission queue bound; overflow sheds the
                            lowest-payment request                   [256]
  --group-commit N          WAL records per fdatasync in pump (group
                            commit; 1 = per-record durability)     [1]

Output:
  --csv                     machine-readable CSV instead of a table
  --help                    this text
)";
    std::exit(exit_code);
}

std::pair<double, double> parse_range(const std::string& value, const std::string& flag) {
    const auto colon = value.find(':');
    if (colon == std::string::npos) {
        throw std::invalid_argument(flag + " expects LO:HI, got '" + value + "'");
    }
    return {std::stod(value.substr(0, colon)), std::stod(value.substr(colon + 1))};
}

/// Parses an integer flag value: decimal digits only, no sign, no
/// trailing characters, and no larger than `max`.
std::uint64_t parse_count(const std::string& value, const std::string& flag,
                          std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
    std::uint64_t parsed = 0;
    const char* const end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
    if (ec != std::errc() || ptr != end) {
        throw std::invalid_argument(flag + " expects a non-negative integer, got '" +
                                    value + "'");
    }
    if (parsed > max) {
        throw std::invalid_argument(flag + " must be at most " + std::to_string(max) +
                                    ", got " + value);
    }
    return parsed;
}

Options parse_args(int argc, char** argv) {
    Options opt;
    const auto need_value = [&](int& i, const std::string& flag) -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(flag + " requires a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") usage(0);
        else if (flag == "--topology") opt.topology = need_value(i, flag);
        else if (flag == "--cloudlets") opt.cloudlets = parse_count(need_value(i, flag), flag);
        else if (flag == "--capacity")
            std::tie(opt.capacity_lo, opt.capacity_hi) = parse_range(need_value(i, flag), flag);
        else if (flag == "--cloudlet-reliability")
            std::tie(opt.cloudlet_rel_lo, opt.cloudlet_rel_hi) =
                parse_range(need_value(i, flag), flag);
        else if (flag == "--requests") opt.requests = parse_count(need_value(i, flag), flag);
        else if (flag == "--horizon")
            opt.horizon = static_cast<TimeSlot>(parse_count(
                need_value(i, flag), flag,
                static_cast<std::uint64_t>(std::numeric_limits<TimeSlot>::max())));
        else if (flag == "--durations") {
            const auto [lo, hi] = parse_range(need_value(i, flag), flag);
            opt.duration_lo = static_cast<TimeSlot>(lo);
            opt.duration_hi = static_cast<TimeSlot>(hi);
        } else if (flag == "--requirements")
            std::tie(opt.requirement_lo, opt.requirement_hi) =
                parse_range(need_value(i, flag), flag);
        else if (flag == "--payment-rates")
            std::tie(opt.payment_rate_lo, opt.payment_rate_hi) =
                parse_range(need_value(i, flag), flag);
        else if (flag == "--profile") opt.profile = need_value(i, flag);
        else if (flag == "--algorithms") {
            std::stringstream ss(need_value(i, flag));
            std::string name;
            while (std::getline(ss, name, ',')) {
                if (!name.empty()) opt.algorithms.push_back(name);
            }
        } else if (flag == "--seed") opt.seed = parse_count(need_value(i, flag), flag);
        else if (flag == "--seeds") opt.seeds = parse_count(need_value(i, flag), flag);
        else if (flag == "--offline-bound") opt.offline_bound = true;
        else if (flag == "--inject-failures") opt.inject_failures = true;
        else if (flag == "--recovery") {
            const std::string name = need_value(i, flag);
            if (name == "none") opt.recovery = sim::RecoveryPolicy::kNone;
            else if (name == "local-respawn") opt.recovery = sim::RecoveryPolicy::kLocalRespawn;
            else if (name == "remote-migrate") opt.recovery = sim::RecoveryPolicy::kRemoteMigrate;
            else if (name == "readmit") opt.recovery = sim::RecoveryPolicy::kReadmit;
            else throw std::invalid_argument("unknown recovery policy '" + name +
                                             "' (see --help)");
        } else if (flag == "--fault-replications")
            opt.fault_replications = parse_count(need_value(i, flag), flag);
        else if (flag == "--serve") opt.serve_dir = need_value(i, flag);
        else if (flag == "--checkpoint-every")
            opt.checkpoint_every = parse_count(need_value(i, flag), flag);
        else if (flag == "--queue-capacity")
            opt.queue_capacity = parse_count(need_value(i, flag), flag);
        else if (flag == "--group-commit")
            opt.group_commit = parse_count(need_value(i, flag), flag);
        else if (flag == "--csv") opt.csv = true;
        else if (flag == "--write-trace") opt.write_trace = need_value(i, flag);
        else if (flag == "--read-trace") opt.read_trace = need_value(i, flag);
        else throw std::invalid_argument("unknown flag '" + flag + "' (see --help)");
    }
    return opt;
}

const std::map<std::string, sim::Algorithm>& algorithm_registry() {
    static const std::map<std::string, sim::Algorithm> registry{
        {"onsite-primal-dual", sim::Algorithm::kOnsitePrimalDual},
        {"onsite-primal-dual-pure", sim::Algorithm::kOnsitePrimalDualPure},
        {"onsite-greedy", sim::Algorithm::kOnsiteGreedy},
        {"offsite-primal-dual", sim::Algorithm::kOffsitePrimalDual},
        {"offsite-greedy", sim::Algorithm::kOffsiteGreedy},
        {"hybrid-primal-dual", sim::Algorithm::kHybridPrimalDual},
    };
    return registry;
}

core::InstanceConfig to_instance_config(const Options& opt) {
    core::InstanceConfig cfg;
    cfg.topology = opt.topology;
    cfg.cloudlets.count = opt.cloudlets;
    cfg.cloudlets.capacity_min = opt.capacity_lo;
    cfg.cloudlets.capacity_max = opt.capacity_hi;
    cfg.cloudlets.reliability_min = opt.cloudlet_rel_lo;
    cfg.cloudlets.reliability_max = opt.cloudlet_rel_hi;
    if (opt.profile == "google") {
        cfg.workload = workload::google_cluster_like(opt.horizon, opt.requests);
    } else if (opt.profile == "uniform") {
        cfg.workload.horizon = opt.horizon;
        cfg.workload.count = opt.requests;
    } else {
        throw std::invalid_argument("unknown profile '" + opt.profile + "'");
    }
    cfg.workload.duration_min = opt.duration_lo;
    cfg.workload.duration_max = opt.duration_hi;
    cfg.workload.requirement_min = opt.requirement_lo;
    cfg.workload.requirement_max = opt.requirement_hi;
    cfg.workload.payment_rate_min = opt.payment_rate_lo;
    cfg.workload.payment_rate_max = opt.payment_rate_hi;
    return cfg;
}

struct AlgorithmAggregate {
    common::RunningStats revenue;
    common::RunningStats acceptance;
    common::RunningStats availability;
    common::RunningStats empirical;
    common::RunningStats access_hops;
    // --recovery: the schedule replayed through the fault-injection runtime.
    common::RunningStats recovery_delivered;
    common::RunningStats recovery_ttr;
    common::RunningStats recovery_shed;
    common::RunningStats recovery_sla_rate;
    bool recovery_unavailable{false};  ///< schedule not replayable (pure Alg. 1)
};

/// --serve: one pass of the workload through the durable admission
/// controller. Restarts (including after a kill) recover from the
/// snapshot + WAL in the directory; resubmitted covered requests are
/// skipped, so running this any number of times never double-admits.
int run_serve(const Options& opt) {
    std::string algorithm = "onsite-primal-dual";
    if (!opt.algorithms.empty()) {
        if (opt.algorithms.size() > 1) {
            throw std::invalid_argument("--serve takes exactly one algorithm");
        }
        algorithm = opt.algorithms.front();
    }
    core::Scheme scheme;
    if (algorithm == "onsite-primal-dual") {
        scheme = core::Scheme::kOnsite;
    } else if (algorithm == "offsite-primal-dual") {
        scheme = core::Scheme::kOffsite;
    } else {
        throw std::invalid_argument(
            "--serve supports onsite-primal-dual or offsite-primal-dual, not '" +
            algorithm + "'");
    }
    if (::mkdir(opt.serve_dir.c_str(), 0755) != 0 && errno != EEXIST) {
        throw std::invalid_argument("--serve: cannot create directory " + opt.serve_dir);
    }

    common::Rng rng(opt.seed);
    core::Instance instance = core::make_instance(to_instance_config(opt), rng);
    if (!opt.read_trace.empty()) {
        instance.requests = workload::read_trace_file(opt.read_trace);
        instance.validate();
    }

    serve::ServeConfig cfg;
    cfg.data_dir = opt.serve_dir;
    cfg.checkpoint_every = opt.checkpoint_every;
    cfg.queue_capacity = opt.queue_capacity;
    cfg.group_commit = opt.group_commit;
    serve::AdmissionController controller(instance, scheme, cfg);
    if (controller.resume_cursor() > 0 || controller.metrics().processed > 0) {
        const serve::RecoveryStats rec = controller.recovery_stats();
        std::cout << "resumed from " << opt.serve_dir << ": "
                  << controller.metrics().processed << " decided, "
                  << controller.metrics().shed << " shed; next uncovered seq "
                  << controller.resume_cursor() << "\n";
        std::cout << "recovery: snapshot=" << (rec.recovered_snapshot ? "yes" : "no")
                  << ", wal records replayed " << rec.wal_records_replayed;
        if (rec.torn_tail_bytes > 0) {
            std::cout << "; torn tail dropped: " << rec.torn_tail_bytes
                      << " byte(s) / " << rec.torn_tail_records
                      << " record(s) (crash mid-append, inspect with "
                         "tools/vnfr_waldump.py)";
        }
        std::cout << "\n";
    }

    for (std::size_t i = 0; i < instance.requests.size(); ++i) {
        controller.submit(i, instance.requests[i]);
        if ((i + 1) % opt.queue_capacity == 0) controller.drain();
    }
    controller.drain();
    controller.checkpoint();

    const serve::ServeMetrics& m = controller.metrics();
    report::Table table({"metric", "value"});
    table.add_row({"algorithm", algorithm});
    table.add_row({"requests", std::to_string(instance.requests.size())});
    table.add_row({"processed", std::to_string(m.processed)});
    table.add_row({"admitted", std::to_string(m.admitted)});
    table.add_row({"rejected", std::to_string(m.rejected)});
    table.add_row({"shed", std::to_string(m.shed)});
    table.add_row({"revenue", report::format_double(m.revenue, 2)});
    table.add_row({"shed revenue", report::format_double(m.shed_revenue, 2)});
    table.add_row({"state digest", report::hex_u64(controller.state_digest())});
    table.add_row({"wal generation", std::to_string(controller.wal_generation())});
    std::cout << table.to_text();
    return 0;
}

int run(const Options& opt) {
    if (!opt.serve_dir.empty()) return run_serve(opt);
    std::vector<sim::Algorithm> algorithms;
    if (opt.algorithms.empty()) {
        for (const auto& [name, a] : algorithm_registry()) {
            (void)name;
            algorithms.push_back(a);
        }
    } else {
        for (const std::string& name : opt.algorithms) {
            const auto it = algorithm_registry().find(name);
            if (it == algorithm_registry().end()) {
                throw std::invalid_argument("unknown algorithm '" + name + "' (see --help)");
            }
            algorithms.push_back(it->second);
        }
    }

    const core::InstanceConfig cfg = to_instance_config(opt);
    std::vector<AlgorithmAggregate> aggregates(algorithms.size());
    common::RunningStats onsite_bound;
    common::RunningStats offsite_bound;

    for (std::size_t k = 0; k < opt.seeds; ++k) {
        common::Rng rng(opt.seed + k);
        core::Instance instance = core::make_instance(cfg, rng);
        if (!opt.read_trace.empty()) {
            instance.requests = workload::read_trace_file(opt.read_trace);
            instance.validate();
        }
        if (k == 0 && !opt.write_trace.empty()) {
            workload::write_trace_file(opt.write_trace, instance.requests);
        }

        for (std::size_t ai = 0; ai < algorithms.size(); ++ai) {
            const auto scheduler = sim::make_scheduler(algorithms[ai], instance);
            sim::SimulatorConfig sim_cfg;
            sim_cfg.inject_failures = opt.inject_failures;
            sim_cfg.failure_seed = opt.seed + k;
            const sim::SimulationReport report = sim::simulate(instance, *scheduler, sim_cfg);
            const sim::PlacementStats stats =
                sim::placement_stats(instance, report.schedule.decisions);
            AlgorithmAggregate& agg = aggregates[ai];
            agg.revenue.add(report.schedule.revenue);
            agg.acceptance.add(static_cast<double>(report.schedule.admitted) /
                               static_cast<double>(instance.requests.size()));
            agg.availability.add(stats.mean_availability);
            if (opt.inject_failures) agg.empirical.add(report.empirical_availability());
            agg.access_hops.add(stats.mean_access_hops);
            if (opt.recovery) {
                sim::RecoveryStudyConfig recovery_cfg;
                recovery_cfg.recovery.policy = *opt.recovery;
                recovery_cfg.replications = opt.fault_replications;
                recovery_cfg.master_seed = common::stream_seed(opt.seed, 1000 + k);
                try {
                    const sim::RecoveryStudyOutcome outcome = sim::run_recovery_replications(
                        instance, report.schedule.decisions, recovery_cfg);
                    agg.recovery_delivered.add(outcome.total.availability());
                    agg.recovery_ttr.add(outcome.total.mean_time_to_recover());
                    agg.recovery_shed.add(outcome.total.shed_revenue);
                    agg.recovery_sla_rate.add(
                        outcome.total.sla_requests == 0
                            ? 0.0
                            : static_cast<double>(outcome.total.sla_violations) /
                                  static_cast<double>(outcome.total.sla_requests));
                } catch (const std::invalid_argument&) {
                    // Pure Algorithm 1 schedules can overbook capacity and
                    // are not replayable through the enforcing ledger.
                    agg.recovery_unavailable = true;
                }
            }
        }
        if (opt.offline_bound) {
            onsite_bound.add(
                core::solve_offline(instance, core::Scheme::kOnsite, {.run_ilp = false})
                    .lp_bound);
            offsite_bound.add(
                core::solve_offline(instance, core::Scheme::kOffsite, {.run_ilp = false})
                    .lp_bound);
        }
    }

    if (opt.csv) {
        report::CsvWriter writer(std::cout);
        std::vector<std::string> header{"algorithm",    "revenue",
                                        "revenue_ci95", "acceptance",
                                        "availability", "empirical_availability",
                                        "access_hops"};
        if (opt.recovery) {
            header.insert(header.end(),
                          {"recovery_availability", "recovery_ttr",
                           "recovery_shed_revenue", "recovery_sla_violation_rate"});
        }
        writer.write_header(header);
        for (std::size_t ai = 0; ai < algorithms.size(); ++ai) {
            const AlgorithmAggregate& agg = aggregates[ai];
            std::vector<std::string> row{
                std::string(sim::algorithm_name(algorithms[ai])),
                std::to_string(agg.revenue.mean()),
                std::to_string(agg.revenue.ci95_halfwidth()),
                std::to_string(agg.acceptance.mean()),
                std::to_string(agg.availability.mean()),
                std::to_string(agg.empirical.mean()),
                std::to_string(agg.access_hops.mean())};
            if (opt.recovery) {
                if (agg.recovery_unavailable) {
                    row.insert(row.end(), {"", "", "", ""});
                } else {
                    row.insert(row.end(),
                               {std::to_string(agg.recovery_delivered.mean()),
                                std::to_string(agg.recovery_ttr.mean()),
                                std::to_string(agg.recovery_shed.mean()),
                                std::to_string(agg.recovery_sla_rate.mean())});
                }
            }
            writer.write_row(row);
        }
        if (opt.offline_bound) {
            const std::size_t padding = header.size() - 3;
            std::vector<std::string> onsite_row{
                "offline-bound-onsite", std::to_string(onsite_bound.mean()),
                std::to_string(onsite_bound.ci95_halfwidth())};
            std::vector<std::string> offsite_row{
                "offline-bound-offsite", std::to_string(offsite_bound.mean()),
                std::to_string(offsite_bound.ci95_halfwidth())};
            onsite_row.resize(3 + padding);
            offsite_row.resize(3 + padding);
            writer.write_row(onsite_row);
            writer.write_row(offsite_row);
        }
        return 0;
    }

    std::cout << "vnfrsim: " << opt.topology << ", " << opt.cloudlets << " cloudlets, "
              << opt.requests << " requests x " << opt.seeds << " seed(s), horizon "
              << opt.horizon << "\n\n";
    report::Table table({"algorithm", "revenue", "acceptance", "availability",
                         opt.inject_failures ? "empirical avail" : "-", "access hops"});
    for (std::size_t ai = 0; ai < algorithms.size(); ++ai) {
        const AlgorithmAggregate& agg = aggregates[ai];
        table.add_row({std::string(sim::algorithm_name(algorithms[ai])),
                       report::format_mean_ci(agg.revenue.mean(),
                                              agg.revenue.ci95_halfwidth()),
                       report::format_double(agg.acceptance.mean(), 3),
                       report::format_double(agg.availability.mean(), 4),
                       opt.inject_failures ? report::format_double(agg.empirical.mean(), 4)
                                           : "-",
                       report::format_double(agg.access_hops.mean(), 2)});
    }
    if (opt.offline_bound) {
        table.add_row({"offline-bound (on-site)",
                       report::format_double(onsite_bound.mean(), 1), "-", "-", "-", "-"});
        table.add_row({"offline-bound (off-site)",
                       report::format_double(offsite_bound.mean(), 1), "-", "-", "-", "-"});
    }
    std::cout << table.to_text();

    if (opt.recovery) {
        std::cout << "\nrecovery (policy=" << sim::to_string(*opt.recovery) << ", "
                  << opt.fault_replications << " fault replication(s) per seed):\n\n";
        report::Table recovery_table({"algorithm", "delivered avail", "mean ttr",
                                      "shed revenue", "sla violation rate"});
        for (std::size_t ai = 0; ai < algorithms.size(); ++ai) {
            const AlgorithmAggregate& agg = aggregates[ai];
            if (agg.recovery_unavailable) {
                recovery_table.add_row({std::string(sim::algorithm_name(algorithms[ai])),
                                        "not replayable", "-", "-", "-"});
                continue;
            }
            recovery_table.add_row(
                {std::string(sim::algorithm_name(algorithms[ai])),
                 report::format_double(agg.recovery_delivered.mean(), 4),
                 report::format_double(agg.recovery_ttr.mean(), 2),
                 report::format_double(agg.recovery_shed.mean(), 1),
                 report::format_double(agg.recovery_sla_rate.mean(), 3)});
        }
        std::cout << recovery_table.to_text();
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "vnfrsim: " << e.what() << '\n';
        return 1;
    }
}
