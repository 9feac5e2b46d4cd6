/**
 * @file
 * The cold-sweep workloads: a StudyEngine over a fresh, empty cache file
 * answers sweep requests in process through serve::sweepText, the call
 * behind `smtflex sweep`, the server's `sweep` op and the coordinator's
 * render. Per-row and per-run costs are timed in a replay outside the
 * timed window, never by taking the sweep apart inside it.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <mutex>

#include "common.h"
#include "exec/experiment_runner.h"
#include "sched/scheduler.h"
#include "serve/commands.h"
#include "sim/chip_sim.h"
#include "trace/spec_profiles.h"
#include "trace/tracegen.h"
#include "workload/multiprogram.h"

namespace perfbench {

using smtflex::ChipConfig;
using smtflex::StudyEngine;
using smtflex::serve::SweepRequest;

namespace {

/** Benchmarks of sweep_bench_cold: warmup is 38%, 25%, 3% and ~0% of
 * their rows' simulation time, so libquantum is the in-workload control. */
const std::vector<std::string> kColdBenches = {"mcf", "tonto", "hmmer",
                                               "libquantum"};
const char *const kBenchDesign = "4B";

/** sweep_het_cold is the whole `--het --no-smt` sweep of 3B5s: rows 1..8,
 * ~3.8 s on 4 CPUs. With SMT on the sweep has 16 rows and takes ~24 s,
 * longer than one run. */
const char *const kHetDesign = "3B5s";

/** Nominal seconds of one pass, used to fix the pass count from
 * --seconds (a fixed count keeps the latency sample size, and with it
 * the tail percentile, the same on every commit). */
constexpr double kBenchPassSeconds = 4.2;
constexpr double kHetPassSeconds = 3.8;

/** Set-ups timed on top of the one of each pass. */
constexpr int kExtraSetups = 8;

/** One request of a pass: a sweep, and the label its outputs go under. */
struct Request
{
    std::string label;
    SweepRequest sweep;
};

/** Everything one cold pass measured. */
struct PassResult
{
    double load = 0.0;     ///< StudyEngine construction
    double isolated = 0.0; ///< its first offline() answer
    double wall = 0.0;
    double peakRss = 0.0;
    double cpuUtil = 0.0;
    double flush = 0.0;
    std::map<std::string, double> latencies; ///< per request, seconds
    std::vector<double> renders;   ///< traced: sweepText again, warm
    std::size_t stored = 0;
    double coverage = 0.0;
    /** Outputs to check: label -> produced text. */
    std::map<std::string, std::string> outputs;
};

ChipConfig
designOf(const SweepRequest &sweep)
{
    return smtflex::serve::buildDesign(sweep.design, sweep.noSmt,
                                       sweep.hasBw, sweep.bw, false);
}

/** The rows sweepText computes for @p sweep, in its order. */
std::vector<std::uint32_t>
rowsOf(StudyEngine &engine, const SweepRequest &sweep)
{
    const ChipConfig cfg = designOf(sweep);
    std::vector<std::uint32_t> rows;
    for (const std::uint32_t n : engine.sweepThreadCounts())
        if (n <= cfg.totalContexts())
            rows.push_back(n);
    return rows;
}

/** Records (on-disk form) behind every row of @p sweep. */
std::string
sweepRecords(StudyEngine &engine, const SweepRequest &sweep)
{
    const ChipConfig cfg = designOf(sweep);
    std::vector<std::string> keys;
    for (const std::uint32_t n : rowsOf(engine, sweep)) {
        const auto row =
            engine.sweepRowCacheKeys(cfg, sweep.bench, sweep.het, n);
        keys.insert(keys.end(), row.begin(), row.end());
    }
    return recordText(engine, keys);
}

/** What the requests must produce, rendered from the seed-cache copy. */
std::map<std::string, std::string>
expectedOutputs(StudyEngine &ref, const std::vector<Request> &requests)
{
    std::map<std::string, std::string> out;
    for (const auto &r : requests) {
        out[r.label] = smtflex::serve::sweepText(ref, r.sweep);
        out[r.label + " records"] = sweepRecords(ref, r.sweep);
    }
    out["isolated records"] = recordText(ref, ref.isolationCacheKeys());
    return out;
}

/**
 * Set-up: a StudyEngine over a fresh, empty cache file, ready once its
 * offline() (isolated IPC) table is built, the first thing every sweep
 * needs. Opening the empty file alone takes tens of microseconds, no
 * cost a user waits on.
 */
std::unique_ptr<StudyEngine>
freshEngine(const Options &options, const std::string &name, double &load,
            double &isolated)
{
    // A directory of its own: the cache's shard segments live beside it.
    const std::string dir = workPath(options, name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const double t0 = nowSeconds();
    auto engine = std::make_unique<StudyEngine>(studyOptions(dir + "/c.txt"));
    const double t1 = nowSeconds();
    engine->offline();
    load = t1 - t0;
    isolated = nowSeconds() - t1;
    return engine;
}

/** One pass: set-up, then every request through sweepText, then the
 * flush. wall is the makespan after set-up. */
PassResult
runPass(const Options &options, Tracer &tracer,
        const std::vector<Request> &requests, int index)
{
    PassResult pass;
    resetPeakRss();
    auto engine = freshEngine(options, "cold-" + std::to_string(index),
                              pass.load, pass.isolated);
    const double cpu0 = selfCpuSeconds();
    const double t0 = nowSeconds();
    const std::uint64_t span = tracer.begin("pass");
    std::uint64_t id = 0;
    for (const auto &r : requests) {
        Scope s(tracer, "serve.sweep", span, ++id);
        const double a = nowSeconds();
        pass.outputs[r.label] = smtflex::serve::sweepText(*engine, r.sweep);
        pass.latencies[r.label] = nowSeconds() - a;
    }
    {
        Scope s(tracer, "study.flush", span);
        const double a = nowSeconds();
        engine->resultCache().flush();
        pass.flush = nowSeconds() - a;
    }
    tracer.end(span);
    pass.wall = nowSeconds() - t0;
    pass.cpuUtil = (selfCpuSeconds() - cpu0) /
        (pass.wall * static_cast<double>(options.jobs));
    pass.peakRss = selfPeakRssMb();

    // Outside the window: what the pass stored, for the gate.
    pass.stored = engine->resultCache().size();
    for (const auto &r : requests)
        pass.outputs[r.label + " records"] = sweepRecords(*engine, r.sweep);
    pass.outputs["isolated records"] =
        recordText(*engine, engine->isolationCacheKeys());
    if (tracer.enabled()) {
        pass.coverage = childCoverage(tracer.spans(), span);
        for (const auto &r : requests) {
            const double a = nowSeconds();
            smtflex::serve::sweepText(*engine, r.sweep);
            pass.renders.push_back(nowSeconds() - a);
        }
    }
    return pass;
}

/** Run the passes of one phase, each with its own seeded request order. */
std::vector<PassResult>
runPhase(const Options &options, Tracer &tracer,
         const std::vector<Request> &requests, Rng &rng, double seconds,
         double nominal, int &index)
{
    const int passes =
        std::max(1, static_cast<int>(std::lround(seconds / nominal)));
    std::vector<PassResult> out;
    for (int p = 0; p < passes; ++p) {
        std::vector<Request> order = requests;
        seededShuffle(order, rng);
        out.push_back(runPass(options, tracer, order, index++));
    }
    return out;
}

/**
 * Medians of a phase. wall is the median pass makespan. A request's
 * latency is its median over the passes: the sweeps differ in cost by 3x,
 * so pooling them would put the percentiles on the seam between two
 * sweeps; the latency metrics summarise the distinct requests instead.
 */
struct PhaseSummary
{
    double wall = 0.0, p50 = 0.0;
    std::vector<double> latencies; ///< one per distinct request
};

PhaseSummary
summarise(const std::vector<PassResult> &passes)
{
    std::vector<double> walls;
    std::map<std::string, std::vector<double>> by_request;
    for (const auto &p : passes) {
        walls.push_back(p.wall);
        for (const auto &[label, seconds] : p.latencies)
            by_request[label].push_back(seconds);
    }
    PhaseSummary s;
    s.wall = median(walls);
    for (const auto &[label, samples] : by_request)
        s.latencies.push_back(median(samples));
    s.p50 = median(s.latencies) * 1e3;
    return s;
}

/** Totals of the sim-layer replay. */
struct SimTotals
{
    double warmup = 0.0, run = 0.0, cycles = 0.0, retired = 0.0,
           ffCycles = 0.0, coreCycles = 0.0;
    std::uint64_t runs = 0, cycleMismatches = 0;
    std::map<std::string, std::pair<double, double>> perBench; ///< warm, run
};

/**
 * Replay one multi-program run outside the timed window: the same specs
 * and offline placement StudyEngine uses, warmAllCaches timed on its own
 * chip and runMultiProgram (which warms again internally) on another.
 * The run's cycles must equal the cached record's.
 */
void
replayRun(StudyEngine &engine, const ChipConfig &cfg,
          const smtflex::MultiProgramWorkload &workload,
          const std::string &bench_label, Tracer &tracer,
          std::uint64_t parent, std::mutex &mutex, SimTotals &totals)
{
    using namespace smtflex;
    const ChipConfig chip_cfg = engine.configured(cfg);
    const auto &opts = engine.options();
    const auto specs = workload.specs(opts.budget, opts.warmup);
    const Placement placement =
        scheduleOffline(chip_cfg, specs, engine.offline());
    const double expected_cycles = engine.multiprogram(cfg, workload).cycles;

    std::vector<ChipSim::WarmSpec> warm;
    for (std::uint32_t i = 0; i < specs.size(); ++i)
        warm.push_back({specs[i].profile, AddressSpace::forThread(i),
                        placement.entries[i].core});
    double warm_s = 0.0;
    {
        ChipSim chip(chip_cfg);
        const double a = nowSeconds();
        chip.warmAllCaches(warm);
        const double b = nowSeconds();
        warm_s = b - a;
        tracer.record("sim.warmup", parent, 0, a, b);
    }
    ChipSim chip(chip_cfg);
    const double a = nowSeconds();
    const SimResult result = chip.runMultiProgram(specs, placement, opts.seed);
    const double b = nowSeconds();
    tracer.record("sim.run", parent, 0, a, b);

    double retired = 0.0;
    for (const auto &core : result.cores)
        retired += static_cast<double>(core.stats.retired);
    std::lock_guard<std::mutex> lock(mutex);
    totals.warmup += warm_s;
    totals.run += b - a;
    totals.cycles += static_cast<double>(result.cycles);
    totals.retired += retired;
    totals.ffCycles += static_cast<double>(chip.fastForwardedCycles());
    totals.coreCycles += static_cast<double>(result.cycles) *
        static_cast<double>(chip.numCores());
    ++totals.runs;
    if (static_cast<double>(result.cycles) != expected_cycles)
        ++totals.cycleMismatches;
    auto &[bw, br] = totals.perBench[bench_label];
    bw += warm_s;
    br += b - a;
}

/** The multi-program runs behind row @p n of @p sweep (what
 * sweepRowCacheKeys names). */
std::vector<smtflex::MultiProgramWorkload>
rowWorkloads(StudyEngine &engine, const SweepRequest &sweep, std::uint32_t n)
{
    if (!sweep.bench.empty())
        return {smtflex::homogeneousWorkload(sweep.bench, n)};
    if (sweep.het && n > 1)
        return smtflex::heterogeneousWorkloads(n, engine.options().hetMixes,
                                               engine.options().seed);
    std::vector<smtflex::MultiProgramWorkload> out;
    for (const auto &b : smtflex::specBenchmarkNames())
        out.push_back(smtflex::homogeneousWorkload(b, n));
    return out;
}

/**
 * The sim layer, replayed on the seed-cache copy: every run of every row.
 * Rows that fan out (het) replay over the pool like the sweep, so each
 * run sees the contention it saw in the timed window; single-run rows
 * replay serially.
 */
void
replaySim(StudyEngine &ref, const std::vector<Request> &requests,
          Tracer &tracer, Report &report)
{
    SimTotals totals;
    std::mutex mutex;
    const std::uint64_t root = tracer.begin("replay.sim");
    for (const auto &r : requests) {
        const ChipConfig cfg = designOf(r.sweep);
        const std::string label = r.sweep.bench.empty() ? r.label
                                                        : r.sweep.bench;
        for (const std::uint32_t n : rowsOf(ref, r.sweep)) {
            Scope row(tracer, "replay.row", root);
            smtflex::exec::ExperimentRunner runner;
            runner.mapItems(rowWorkloads(ref, r.sweep, n),
                            [&](const smtflex::MultiProgramWorkload &w) {
                                replayRun(ref, cfg, w, label, tracer,
                                          row.id(), mutex, totals);
                                return 0;
                            });
        }
    }
    tracer.end(root);

    const double detailed = totals.run - totals.warmup;
    report.layer("sim.warmup_s", totals.warmup, "s");
    report.layer("sim.run_s", totals.run, "s");
    report.layer("sim.detailed_s", detailed, "s");
    report.layer("sim.runs", static_cast<double>(totals.runs), "count");
    report.layer("sim.cycles", totals.cycles, "count");
    report.layer("sim.minstr_per_s",
                 detailed > 0 ? totals.retired / detailed / 1e6 : 0.0,
                 "Minstr/s");
    report.layer("sim.ff_frac",
                 totals.coreCycles > 0 ? totals.ffCycles / totals.coreCycles
                                       : 0.0,
                 "ratio");
    for (const auto &[label, wr] : totals.perBench)
        if (!requests.front().sweep.bench.empty())
            report.layer("sim.warmup_frac." + label,
                         wr.second > 0 ? wr.first / wr.second : 0.0, "ratio");
    report.invariant(totals.cycleMismatches == 0,
                     std::to_string(totals.cycleMismatches) +
                         " replayed runs disagree with their cached cycles");
}

/** The study layer per row, replayed on a fresh engine: each row through
 * the call sweepText makes for it. */
std::vector<double>
replayRows(const Options &options, const std::vector<Request> &requests,
           Tracer &tracer)
{
    double load = 0.0, isolated = 0.0;
    auto engine = freshEngine(options, "replay-rows", load, isolated);
    std::vector<double> rows;
    const std::uint64_t root = tracer.begin("replay.rows");
    for (const auto &r : requests) {
        const ChipConfig cfg = designOf(r.sweep);
        for (const std::uint32_t n : rowsOf(*engine, r.sweep)) {
            Scope s(tracer, "study.row", root);
            const double a = nowSeconds();
            if (!r.sweep.bench.empty())
                engine->homogeneousBenchmarkAt(cfg, r.sweep.bench, n);
            else if (r.sweep.het)
                engine->heterogeneousAt(cfg, n);
            else
                engine->homogeneousAt(cfg, n);
            rows.push_back(nowSeconds() - a);
        }
    }
    tracer.end(root);
    return rows;
}

/** Per-layer metrics of the traced phase's passes. */
void
layerMetrics(const std::vector<PassResult> &passes,
             const std::vector<double> &rows, Report &report)
{
    std::vector<double> load, isolated, flush, renders, util;
    double coverage = 1.0;
    for (const auto &p : passes) {
        load.push_back(p.load);
        isolated.push_back(p.isolated);
        flush.push_back(p.flush);
        util.push_back(p.cpuUtil);
        coverage = std::min(coverage, p.coverage);
        renders.insert(renders.end(), p.renders.begin(), p.renders.end());
    }
    report.layer("study.cache_load_s", median(load), "s");
    report.layer("study.cache_records", 0.0, "count");
    report.layer("study.cache_stored",
                 static_cast<double>(passes.front().stored), "count");
    report.layer("study.cache_flush_s", median(flush), "s");
    report.layer("study.isolated_s", median(isolated), "s");
    report.layer("study.row_p50_s", median(rows), "s");
    report.layer("study.row_max_s",
                 rows.empty() ? 0.0
                              : *std::max_element(rows.begin(), rows.end()),
                 "s");
    report.layer("serve.render_s", median(renders), "s");
    report.layer("exec.cpu_util", median(util), "ratio");
    report.layer("trace.span_coverage", coverage, "ratio");
    report.invariant(coverage >= 0.95,
                     "child spans cover only " + std::to_string(coverage) +
                         " of a pass");
}

/** What both cold-sweep workloads share. */
void
runColdSweep(const Options &options, Report &report,
             const std::vector<Request> &requests, double nominal)
{
    std::string labels;
    for (const auto &r : requests)
        labels += (labels.empty() ? "" : ",") + r.label;
    report.context["requests"] = labels;
    report.context["request"] =
        "one serve::sweepText call; latency = its median over the passes";

    std::vector<double> setups;
    for (int i = 0; i < kExtraSetups; ++i) {
        double load = 0.0, isolated = 0.0;
        freshEngine(options, "setup-" + std::to_string(i), load, isolated);
        setups.push_back(load + isolated);
    }

    Rng rng = makeRng(options.seed, 1);
    int index = 0;
    Tracer off(false);
    const double phase_seconds =
        options.trace ? options.seconds / 2.0 : options.seconds;
    const auto untraced = runPhase(options, off, requests, rng,
                                   phase_seconds, nominal, index);
    const PhaseSummary base = summarise(untraced);
    std::vector<double> rss;
    std::string walls;
    for (const auto &p : untraced) {
        setups.push_back(p.load + p.isolated);
        rss.push_back(p.peakRss);
        walls += (walls.empty() ? "" : ",") + std::to_string(p.wall);
    }
    const Tail tail = tailPercentile(base.latencies);
    report.e2e("setup_s", median(setups), "s");
    report.e2e("wall_s", base.wall, "s");
    report.e2e("throughput_rps",
               static_cast<double>(requests.size()) / base.wall, "req/s");
    report.e2e("req_p50_ms", base.p50, "ms");
    report.e2e("req_tail_ms", tail.value * 1e3, "ms");
    // Peak RSS per pass (the mark is reset before each), median: which
    // worker's malloc arena grows varies from pass to pass.
    report.e2e("peak_rss_mb", median(rss), "MiB");
    report.context["pass_wall_s"] = walls;
    report.context["req_tail_percentile"] = std::to_string(tail.percentile);
    report.context["req_tail_samples"] = std::to_string(tail.samples);
    report.context["req_tail_beyond"] = std::to_string(tail.beyond);

    Tracer tracer(options.trace);
    std::vector<PassResult> traced;
    if (options.trace) {
        traced = runPhase(options, tracer, requests, rng, phase_seconds,
                          nominal, index);
        const PhaseSummary t = summarise(traced);
        report.layer("trace.overhead_wall_s", t.wall - base.wall, "s");
        report.layer("trace.overhead_p50_ms", t.p50 - base.p50, "ms");
        layerMetrics(traced, replayRows(options, requests, tracer), report);
    }

    // Correctness: every output against the seed-cache rendering.
    SeedReference ref = SeedReference::open(options, "seed-ref.txt");
    const auto want = expectedOutputs(*ref.engine, requests);
    report.invariant(ref.entries() == ref.records,
                     "the seed cache could not answer the reference");
    std::vector<std::size_t> stored;
    const std::vector<PassResult> *phases[] = {&untraced, &traced};
    for (const auto *phase : phases) {
        for (const auto &pass : *phase) {
            stored.push_back(pass.stored);
            for (const auto &[label, text] : pass.outputs) {
                const auto it = want.find(label);
                const std::string diff = it == want.end()
                    ? "no reference"
                    : compareBytes(it->second, text);
                report.op(diff.empty() ? diff : label + ": " + diff);
            }
        }
    }
    report.invariant(std::all_of(stored.begin(), stored.end(),
                                 [&](std::size_t s) {
                                     return s == stored.front();
                                 }),
                     "records stored differ between passes");
    report.context["cache_stored"] = std::to_string(stored.front());

    if (options.trace) {
        replaySim(*ref.engine, requests, tracer, report);
        writeTrace(options, tracer, report);
    }
}

} // namespace

void
runSweepBenchCold(const Options &options, Report &report)
{
    std::vector<Request> requests;
    for (const auto &bench : kColdBenches) {
        Request r;
        r.label = bench;
        r.sweep.design = kBenchDesign;
        r.sweep.bench = bench;
        requests.push_back(r);
    }
    report.context["design"] = kBenchDesign;
    runColdSweep(options, report, requests, kBenchPassSeconds);
}

void
runSweepHetCold(const Options &options, Report &report)
{
    Request r;
    r.label = "het";
    r.sweep.design = kHetDesign;
    r.sweep.het = true;
    r.sweep.noSmt = true;
    report.context["design"] = std::string(kHetDesign) + " --het --no-smt";
    runColdSweep(options, report, {r}, kHetPassSeconds);
}

} // namespace perfbench
