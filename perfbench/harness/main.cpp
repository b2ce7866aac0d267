// vnfr_perfbench: runs one benchmark workload and prints its result.
//
//   vnfr_perfbench --workload <steady_admit|flash_crowd|paper_sweep>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  --data-root <dir>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics when
// --trace is 0, the per-layer metrics of the layers the workload enters
// when it is 1; run.py checks them against BENCHMARK.json. The line before
// it, starting "summary ", holds the workload's figures under their own
// names. The exit code is 1 when an output check failed and 2 on a usage
// error.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::RunResult;

struct Workload {
    const char* name;
    RunResult (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"steady_admit", perfbench::run_steady_admit},
    {"flash_crowd", perfbench::run_flash_crowd},
    {"paper_sweep", perfbench::run_paper_sweep},
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "vnfr_perfbench: " << why
              << "\nusage: vnfr_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --data-root <dir>\n";
    std::exit(2);
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string json_metrics(const std::vector<Metric>& metrics) {
    std::ostringstream out;
    out << std::setprecision(17) << '{';
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) out << ", ";
        out << json_string(metrics[i].name) << ": {\"value\": " << metrics[i].value
            << ", \"unit\": " << json_string(metrics[i].unit) << '}';
    }
    out << '}';
    return out.str();
}

}  // namespace

int main(int argc, char** argv) {
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (!key.starts_with("--") || i + 1 >= argc) usage("bad argument '" + key + "'");
        args[key.substr(2)] = argv[i + 1];
    }
    for (const char* required : {"workload", "seed", "seconds", "trace", "data-root"}) {
        if (!args.contains(required)) usage(std::string("missing --") + required);
    }
    const Workload* workload = nullptr;
    for (const Workload& w : kWorkloads) {
        if (args["workload"] == w.name) workload = &w;
    }
    if (workload == nullptr) usage("unknown workload '" + args["workload"] + "'");

    RunOptions options;
    try {
        options.seed = std::stoull(args["seed"]);
        options.seconds = std::stod(args["seconds"]);
        options.trace = std::stoi(args["trace"]) != 0;
    } catch (const std::exception&) {
        usage("numeric argument expected");
    }
    if (!(options.seconds > 0)) usage("--seconds must be > 0");
    options.threads = std::min(std::max(1U, std::thread::hardware_concurrency()), 4U);
    options.data_root = args["data-root"];
    std::filesystem::create_directories(options.data_root);

    RunResult result;
    try {
        result = workload->run(options);
    } catch (const std::exception& e) {
        result.check(false, std::string("workload threw: ") + e.what());
    }
    result.report("peak_rss_mb", perfbench::peak_rss_mb(), "MB");

    const std::vector<Metric>& metrics = options.trace ? result.per_layer : result.end_to_end;
    for (const std::string& note : result.notes) std::cout << note << '\n';
    std::cout << "summary {\"workload\": " << json_string(workload->name)
              << ", \"trace\": " << (options.trace ? 1 : 0)
              << ", \"metrics\": " << json_metrics(result.summary) << "}\n";
    std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
              << ", \"attempted\": " << std::max<std::uint64_t>(result.attempted, 1)
              << ", \"failed\": " << result.failed << ", \"metrics\": " << json_metrics(metrics)
              << "}" << std::endl;
    return result.correct ? 0 : 1;
}
