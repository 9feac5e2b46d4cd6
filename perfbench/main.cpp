/**
 * @file
 * perfbench: smtflex's end-to-end benchmark. One run measures one
 * workload for --seconds and prints, as its last stdout line,
 *
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 *
 * with the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). The line before it carries the host context. Normally run
 * through perfbench/run.py, which builds this binary first; see
 * perfbench/README.md for the workloads and metrics.
 */

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "common.h"
#include "common/log.h"
#include "exec/thread_pool.h"

namespace perfbench {
namespace {

/** Every per-layer metric and its unit: a traced run prints all of them,
 * 0 where the workload does not exercise the layer (README.md lists where
 * each should move and where it should stay flat). */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"study.cache_load_s", "s"},
    {"study.cache_records", "count"},
    {"study.cache_stored", "count"},
    {"study.cache_flush_s", "s"},
    {"study.isolated_s", "s"},
    {"study.row_p50_s", "s"},
    {"study.row_max_s", "s"},
    {"sim.warmup_s", "s"},
    {"sim.run_s", "s"},
    {"sim.detailed_s", "s"},
    {"sim.runs", "count"},
    {"sim.cycles", "count"},
    {"sim.minstr_per_s", "Minstr/s"},
    {"sim.ff_frac", "ratio"},
    {"sim.warmup_frac.mcf", "ratio"},
    {"sim.warmup_frac.tonto", "ratio"},
    {"sim.warmup_frac.hmmer", "ratio"},
    {"sim.warmup_frac.libquantum", "ratio"},
    {"exec.cpu_util", "ratio"},
    {"serve.op_p50_ms.sweep", "ms"},
    {"serve.op_p50_ms.run", "ms"},
    {"serve.op_p50_ms.schedule", "ms"},
    {"serve.op_tail_ms.sweep", "ms"},
    {"serve.op_tail_ms.run", "ms"},
    {"serve.op_tail_ms.schedule", "ms"},
    {"serve.response_cache_hit_frac", "ratio"},
    {"serve.render_s", "s"},
    {"serve.queue_depth_max", "count"},
    {"serve.coalesced", "count"},
    {"serve.executed", "count"},
    {"serve.overloaded", "count"},
    {"dist.chunks_dispatched", "count"},
    {"dist.chunks_stolen", "count"},
    {"dist.rows_completed", "count"},
    {"dist.rows_duplicate", "count"},
    {"dist.rows_local", "count"},
    {"dist.records_pulled", "count"},
    {"dist.wasted_frac", "ratio"},
    {"ckpt.journal_appends", "count"},
    {"ckpt.saves", "count"},
    {"ckpt.save_bytes", "B"},
    {"ckpt.hits", "count"},
    {"online.decide_s", "s"},
    {"sched.samples_run", "count"},
    {"trace.overhead_wall_s", "s"},
    {"trace.overhead_p50_ms", "ms"},
    {"trace.span_coverage", "ratio"},
};

const std::vector<std::pair<std::string, std::string>> kEndToEndMetrics = {
    {"setup_s", "s"},          {"wall_s", "s"},
    {"throughput_rps", "req/s"}, {"req_p50_ms", "ms"},
    {"req_tail_ms", "ms"},     {"peak_rss_mb", "MiB"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 --root DIR --work DIR --out DIR\n"
                 "workloads: sweep_bench_cold sweep_het_cold fleet_cold\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    o.smtflex = PERFBENCH_SMTFLEX_BIN;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload")
            o.workload = value;
        else if (flag == "--seed")
            o.seed = std::stoull(value);
        else if (flag == "--seconds")
            o.seconds = std::stod(value);
        else if (flag == "--trace")
            o.trace = value == "1";
        else if (flag == "--root")
            o.root = value;
        else if (flag == "--work")
            o.work = value;
        else if (flag == "--out")
            o.outDir = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (o.workload.empty() || o.root.empty() || o.work.empty() ||
        o.outDir.empty() || !(o.seconds > 0))
        usage("missing arguments");
    cpu_set_t set;
    CPU_ZERO(&set);
    o.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
        ? static_cast<unsigned>(CPU_COUNT(&set))
        : 1;
    o.jobs = o.nproc;
    return o;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    out += smtflex::serve::Json::escape(s);
    out += '"';
    return out;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Best-effort identity of the code measured: the git commit when the
 * checkout is a repository, and always a digest of the sources built. */
std::pair<std::string, std::string>
sourceIdentity(const std::string &root)
{
    std::string sha = "unavailable";
    const std::string cmd =
        "git -C '" + root + "' rev-parse HEAD 2>/dev/null";
    if (FILE *p = ::popen(cmd.c_str(), "r")) {
        char buf[128] = {};
        if (std::fgets(buf, sizeof(buf), p)) {
            sha = buf;
            while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
                sha.pop_back();
        }
        ::pclose(p);
    }
    // FNV-1a over path + content of every source file, in path order.
    std::set<std::string> files;
    for (const char *dir : {"src", "tools", "perfbench"}) {
        std::error_code ec;
        for (std::filesystem::recursive_directory_iterator
                 it(root + "/" + dir, ec),
             end;
             !ec && it != end; it.increment(ec))
            if (it->is_regular_file(ec))
                files.insert(it->path().string());
    }
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&](const std::string &bytes) {
        for (const unsigned char c : bytes) {
            h ^= c;
            h *= 1099511628211ull;
        }
    };
    for (const auto &f : files) {
        mix(f.substr(root.size()));
        std::ifstream in(f, std::ios::binary);
        mix(std::string((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>()));
    }
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(h));
    return {sha, digest};
}

void
printContext(const Options &o, const Report &report)
{
    const auto [sha, digest] = sourceIdentity(o.root);
    std::ostringstream os;
    os << "{\"context\": {\"git_sha\": " << jsonString(sha)
       << ", \"source_digest\": " << jsonString(digest)
       << ", \"nproc\": " << o.nproc
       << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
       << ", \"smtflex_build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"smtflex_jobs\": " << o.jobs
       << ", \"workload\": " << jsonString(o.workload)
       << ", \"seed\": " << o.seed << ", \"seconds\": " << number(o.seconds)
       << ", \"trace\": " << (o.trace ? "true" : "false");
    for (const auto &[k, v] : report.context)
        os << ", " << jsonString(k) << ": " << jsonString(v);
    os << ", \"problems\": [";
    for (std::size_t i = 0; i < report.problems.size(); ++i)
        os << (i ? ", " : "") << jsonString(report.problems[i]);
    os << "]}}";
    std::cout << os.str() << "\n";
}

void
printResult(const Options &o, const Report &report)
{
    const auto &names = o.trace ? kLayerMetrics : kEndToEndMetrics;
    const auto &values = o.trace ? report.perLayer : report.endToEnd;
    std::ostringstream os;
    const bool correct = report.failed == 0 && report.invariantsHold;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, unit] : names) {
        const auto it = values.find(name);
        const double v = it == values.end() ? 0.0 : it->second.value;
        os << (first ? "" : ", ") << jsonString(name) << ": {\"value\": "
           << number(v) << ", \"unit\": " << jsonString(unit) << "}";
        first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

} // namespace

void
writeTrace(const Options &options, const Tracer &tracer,
           const Report &report)
{
    const auto spans = tracer.spans();
    const auto self = selfTimes(spans);
    // Self time summed per span name: where the traced time went.
    std::map<std::string, std::pair<double, std::uint64_t>> by_name;
    for (const Span &s : spans) {
        by_name[s.name].first += self.at(s.id);
        ++by_name[s.name].second;
    }
    std::filesystem::create_directories(options.outDir);
    const std::string path = options.outDir + "/trace-" + options.workload +
        "-seed" + std::to_string(options.seed) + ".json";
    std::ofstream out(path);
    out << "{\"workload\": " << jsonString(options.workload)
        << ", \"seed\": " << options.seed << ",\n \"self_time_s\": {";
    bool first = true;
    for (const auto &[name, v] : by_name) {
        out << (first ? "" : ", ") << jsonString(name) << ": {\"self_s\": "
            << number(v.first) << ", \"spans\": " << v.second << "}";
        first = false;
    }
    out << "},\n \"per_layer\": {";
    first = true;
    for (const auto &[name, m] : report.perLayer) {
        out << (first ? "" : ", ") << jsonString(name) << ": "
            << number(m.value);
        first = false;
    }
    out << "},\n \"spans\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"name\": " << jsonString(s.name)
            << ", \"request\": " << s.request
            << ", \"start\": " << number(s.start)
            << ", \"end\": " << number(s.end) << "}"
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << " ]}\n";
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options options = parseArgs(argc, argv);
    Report report;
    try {
        std::filesystem::create_directories(options.work);
        smtflex::exec::ThreadPool::configureGlobal(options.jobs);
        if (options.workload == "sweep_bench_cold")
            runSweepBenchCold(options, report);
        else if (options.workload == "sweep_het_cold")
            runSweepHetCold(options, report);
        else if (options.workload == "fleet_cold")
            runFleetCold(options, report);
        else
            usage(("unknown workload " + options.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     options.workload.c_str(), e.what());
        return 1;
    }
    printContext(options, report);
    printResult(options, report);
    return 0;
}
