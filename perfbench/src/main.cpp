// xbarsec_perfbench: runs one benchmark workload against the xbarsec
// serving stack and prints its result as one JSON line.
//
//   xbarsec_perfbench --workload tenant-mix|open-stream|extract --seed N
//                    --seconds S --trace 0|1 [--out-dir DIR]
//
// The last line of standard output is {"correct", "attempted", "failed",
// "metrics"} with every metric the run measured; perfbench/run.py selects
// the ones BENCHMARK.json names. The full result, with provenance, is also
// written to DIR/<workload>-seed<N>-trace<T>.json.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    return out;
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string metrics_json(const Result& r) {
    std::ostringstream out;
    out << '{';
    bool first = true;
    for (const auto& [name, m] : r.metrics) {
        if (!first) out << ", ";
        first = false;
        out << '"' << json_escape(name) << "\": {\"value\": " << json_number(m.value)
            << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
    }
    out << '}';
    return out.str();
}

std::string result_line(const Result& r) {
    std::ostringstream out;
    out << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
        << ", \"failed\": " << r.failed << ", \"metrics\": " << metrics_json(r) << '}';
    return out.str();
}

std::string result_file(const Result& r, const Options& o) {
    std::ostringstream out;
    out << "{\n  \"workload\": \"" << json_escape(o.workload) << "\",\n  \"seed\": " << o.seed
        << ",\n  \"seconds\": " << json_number(o.seconds) << ",\n  \"trace\": " << (o.trace ? 1 : 0)
        << ",\n  \"correct\": " << (r.correct ? "true" : "false") << ",\n  \"attempted\": "
        << r.attempted << ",\n  \"failed\": " << r.failed << ",\n  \"info\": {";
    bool first = true;
    for (const auto& [k, v] : r.info) {
        out << (first ? "" : ", ") << '"' << json_escape(k) << "\": \"" << json_escape(v) << '"';
        first = false;
    }
    out << "},\n  \"check_failures\": [";
    for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
        out << (i ? ", " : "") << '"' << json_escape(r.check_failures[i]) << '"';
    }
    out << "],\n  \"metrics\": " << metrics_json(r) << "\n}\n";
    return out.str();
}

bool parse(int argc, char** argv, Options& o) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], value = argv[i + 1];
        if (key == "--workload") {
            o.workload = value;
        } else if (key == "--seed") {
            o.seed = std::stoull(value);
        } else if (key == "--seconds") {
            o.seconds = std::stod(value);
        } else if (key == "--trace") {
            o.trace = value == "1";
        } else if (key == "--out-dir") {
            o.out_dir = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    try {
        if (!parse(argc, argv, options)) {
            std::cerr << "usage: xbarsec_perfbench --workload tenant-mix|open-stream|extract "
                         "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n";
            return 2;
        }
    } catch (const std::exception& e) {
        std::cerr << "bad argument: " << e.what() << "\n";
        return 2;
    }

    Result result;
    result.note("nproc", std::to_string(std::thread::hardware_concurrency()));
    result.note("gemm_arm", active_gemm_arm());
    result.note("build_type", PERFBENCH_BUILD_TYPE);
    const double ref_before = host_ref_loop_s();
    try {
        if (options.workload == "tenant-mix") {
            run_tenant_mix(options, result);
        } else if (options.workload == "open-stream") {
            run_open_stream(options, result);
        } else if (options.workload == "extract") {
            run_extract(options, result);
        } else {
            std::cerr << "unknown workload '" << options.workload
                      << "' (tenant-mix, open-stream, extract)\n";
            return 2;
        }
    } catch (const std::exception& e) {
        std::cerr << "workload " << options.workload << " failed: " << e.what() << "\n";
        return 1;
    }
    const double ref_after = host_ref_loop_s();
    result.set("peak_rss_mb", peak_rss_mb(), "MiB");
    result.set("host.ref_loop_s", (ref_before + ref_after) / 2.0, "s");
    result.note("host_ref_loop_s", json_number(ref_before) + " before, " + json_number(ref_after) +
                                       " after");

    const std::string path = options.out_dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0") + ".json";
    std::ofstream(path) << result_file(result, options);
    for (const auto& [k, v] : result.info) std::cout << "# " << k << ": " << v << "\n";
    for (const std::string& f : result.check_failures) std::cout << "# CHECK FAILED: " << f << "\n";
    std::cout << result_line(result) << std::endl;
    return result.correct ? 0 : 1;
}
