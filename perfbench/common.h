/**
 * @file
 * What every workload of the benchmark shares: its options, the report it
 * fills, seeded draws, and access to the committed seed cache that serves
 * as the reference every output is checked against.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "serve/json.h"
#include "study/study_engine.h"

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string root;    ///< checkout root (holds smtflex_cache.txt)
    std::string work;    ///< scratch directory, removed by run.py
    std::string outDir;  ///< where the traced run writes its spans
    std::string smtflex; ///< the CLI binary for server processes
    unsigned nproc = 1;
    unsigned jobs = 1; ///< SMTFLEX_JOBS of the in-process engine
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports. */
struct Report
{
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Invariants beyond per-op output checks (counts that must repeat,
     * replayed cycles, span coverage). */
    bool invariantsHold = true;
    std::vector<std::string> problems; ///< first few failure descriptions
    /** Workload-specific context (thread/connection counts, percentiles
     * the tail metrics stand for). */
    std::map<std::string, std::string> context;

    void e2e(const std::string &name, double value, const std::string &unit)
    {
        endToEnd[name] = {value, unit};
    }
    void layer(const std::string &name, double value,
               const std::string &unit)
    {
        perLayer[name] = {value, unit};
    }
    /** Count one op; a non-empty @p problem fails it. */
    void op(const std::string &problem)
    {
        ++attempted;
        if (!problem.empty())
            fail(problem);
    }
    void fail(const std::string &problem)
    {
        ++failed;
        if (problems.size() < 8)
            problems.push_back(problem);
    }
    void invariant(bool holds, const std::string &what)
    {
        if (holds)
            return;
        invariantsHold = false;
        if (problems.size() < 8)
            problems.push_back("invariant: " + what);
    }
};

/** Deterministic generator of one run's inputs. */
using Rng = std::mt19937_64;

inline Rng
makeRng(std::uint64_t seed, std::uint64_t salt)
{
    std::seed_seq seq{seed, salt, std::uint64_t{0x5eedbe4c}};
    return Rng(seq);
}

/** Fisher-Yates with an explicit draw, so the order is the same on every
 * standard library. */
template <typename T>
void
seededShuffle(std::vector<T> &items, Rng &rng)
{
    for (std::size_t i = items.size(); i > 1; --i) {
        const std::size_t j = static_cast<std::size_t>(rng() % i);
        std::swap(items[i - 1], items[j]);
    }
}

/** Engine options of every in-process engine: the study defaults the
 * seed cache was computed with, never the caller's environment. */
smtflex::StudyOptions studyOptions(const std::string &cache_path);

/**
 * A private copy of the committed seed cache, opened as a StudyEngine.
 * Renderings from it are the reference outputs; a lookup that misses
 * would simulate and grow it, which callers check via entries().
 */
struct SeedReference
{
    std::unique_ptr<smtflex::StudyEngine> engine;
    double loadSeconds = 0.0;
    std::size_t records = 0;

    static SeedReference open(const Options &options,
                              const std::string &name);
    std::size_t entries() const { return engine->resultCache().size(); }
};

/** ResultCache record lines of @p keys (the byte-exact form on disk),
 * "<missing key>" for absent ones. */
std::string recordText(const smtflex::StudyEngine &engine,
                       const std::vector<std::string> &keys);

// ---- request documents (serve wire protocol) ----

smtflex::serve::Json sweepRequest(const std::string &design,
                                  const std::string &bench);
smtflex::serve::Json scheduleRequest(const std::string &design,
                                     const std::vector<std::string> &benches,
                                     const std::string &policy);
smtflex::serve::Json runRequest(const std::string &design,
                                const std::vector<std::string> &workload,
                                std::uint64_t budget, std::uint64_t warmup,
                                std::uint64_t seed);

/** Text the in-process engine renders for a request document. */
std::string renderLocally(smtflex::StudyEngine &engine,
                          const smtflex::serve::Json &request);

// ---- host measurements ----

/** Peak resident set (VmHWM) of this process, MiB. */
double selfPeakRssMb();
/** Restart this process's peak-RSS mark at its current RSS (best
 * effort: Linux /proc/self/clear_refs). */
void resetPeakRss();
/** User + system CPU seconds of this process so far. */
double selfCpuSeconds();
/** Copy a file (fatal on failure). */
void copyFile(const std::string &from, const std::string &to);

// ---- workloads ----

void runSweepBenchCold(const Options &options, Report &report);
void runSweepHetCold(const Options &options, Report &report);
void runFleetCold(const Options &options, Report &report);

/** Write the traced run's spans, self times and context to a JSON file. */
void writeTrace(const Options &options, const Tracer &tracer,
                const Report &report);

/** The sub-directory of the work directory for one pass/role. */
std::string workPath(const Options &options, const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
