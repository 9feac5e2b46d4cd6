/**
 * @file
 * The workload that goes through the wire protocol: fleet_cold, a
 * coordinator with two backends, all caches empty, durable-sweep journal
 * on. Every reply is checked byte for byte against the in-process
 * rendering of the same request over the seed cache.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>

#include "common.h"
#include "proc.h"
#include "serve/commands.h"
#include "workload/multiprogram.h"

namespace perfbench {

using smtflex::StudyEngine;
using smtflex::serve::Json;

namespace {

/** One request the client may send, with the reply it must get. */
struct PoolEntry
{
    Json request;
    std::string op;
    std::string expected;
};

/** One answered (or failed) request. */
struct Sample
{
    std::string op;
    double latency = 0.0; ///< seconds
    std::string problem;  ///< empty = correct reply
    bool repeat = false;  ///< the request was sent before in the pass
};

/** One request of the sequence: a pool index, and whether an earlier
 * request of the pass was the same. */
struct Slot
{
    std::size_t index = 0;
    bool repeat = false;
};

/** Empty when @p reply carries exactly @p expected as its output. */
std::string
checkReply(const Json &reply, const std::string &expected)
{
    if (!reply.has("ok") || !reply.at("ok").asBool())
        return "error reply: " +
            (reply.has("error") ? reply.at("error").asString()
                                : std::string("?"));
    if (!reply.has("output") || !reply.at("output").isString())
        return "reply without output";
    const std::string diff =
        compareBytes(expected, reply.at("output").asString());
    return diff.empty() ? diff : "output " + diff;
}

/** Per-op closed-loop timeout: a request slower than this fails. */
constexpr std::uint64_t kOpTimeoutMs = 60'000;

/**
 * Closed loop: connection c sends lists[c] in order, each request after
 * the previous reply. Returns every sample; a timeout, error reply or
 * mismatch is a failed sample (and the connection is re-established).
 */
std::vector<Sample>
closedLoopLists(std::uint16_t port, const std::vector<PoolEntry> &pool,
                const std::vector<std::vector<Slot>> &lists,
                Tracer &tracer, std::uint64_t parent)
{
    std::vector<std::vector<Sample>> per(lists.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < lists.size(); ++c) {
        threads.emplace_back([&, c] {
            std::unique_ptr<smtflex::serve::Client> client;
            std::uint64_t id = (c + 1) * 1'000'000;
            for (const Slot &slot : lists[c]) {
                const PoolEntry &entry = pool[slot.index];
                Json req = entry.request;
                req.set("id", Json::number(++id));
                Sample s;
                s.op = entry.op;
                s.repeat = slot.repeat;
                const double a = nowSeconds();
                try {
                    if (!client)
                        client = std::make_unique<smtflex::serve::Client>(
                            connectClient(port, kOpTimeoutMs));
                    s.problem = checkReply(client->call(req), entry.expected);
                } catch (const std::exception &e) {
                    s.problem = std::string("transport: ") + e.what();
                    client.reset();
                }
                const double b = nowSeconds();
                s.latency = b - a;
                tracer.record("serve." + entry.op, parent, id, a, b);
                per[c].push_back(std::move(s));
            }
        });
    }
    for (auto &t : threads)
        t.join();
    std::vector<Sample> all;
    for (auto &v : per)
        all.insert(all.end(), v.begin(), v.end());
    return all;
}

/** Polls `stats` of every port until stopped; keeps the deepest queue. */
class QueueMonitor
{
  public:
    explicit QueueMonitor(std::vector<std::uint16_t> ports)
        : thread_([this, ports] { loop(ports); })
    {
    }
    ~QueueMonitor()
    {
        stop_ = true;
        thread_.join();
    }
    QueueMonitor(const QueueMonitor &) = delete;
    QueueMonitor &operator=(const QueueMonitor &) = delete;

    double maxDepth() const { return maxDepth_.load(); }

  private:
    void loop(const std::vector<std::uint16_t> &ports)
    {
        try {
            std::vector<smtflex::serve::Client> clients;
            for (const auto port : ports)
                clients.push_back(connectClient(port, 10'000));
            while (!stop_) {
                for (auto &client : clients) {
                    const double depth = statsOf(client)["queue_depth"];
                    if (depth > maxDepth_.load())
                        maxDepth_ = depth;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            }
        } catch (const std::exception &) {
            // Monitoring is best effort; the ops themselves are checked.
        }
    }

    std::atomic<bool> stop_{false};
    std::atomic<double> maxDepth_{0.0};
    std::thread thread_;
};

/** Start `smtflex serve` (or coordinator) and wait for its port. */
std::unique_ptr<Child>
startServer(const Options &options, const std::string &name,
            std::vector<std::string> args, std::uint16_t &port)
{
    args.insert(args.begin(), options.smtflex);
    auto child =
        std::make_unique<Child>(args, workPath(options, name + ".log"));
    port = child->waitListening(30.0);
    return child;
}

std::vector<std::string>
serveArgs(const std::string &cache, unsigned jobs)
{
    return {"serve",  "--host", "127.0.0.1", "--port",
            "0",      "--jobs", std::to_string(jobs),
            "--queue", "256",   "--cache",  cache};
}

/** Per-op p50 and tail of @p samples into serve.op_* metrics. */
void
opMetrics(const std::vector<Sample> &samples, Report &report)
{
    std::map<std::string, std::vector<double>> by_op;
    for (const auto &s : samples)
        by_op[s.op].push_back(s.latency);
    for (const auto &[op, lat] : by_op) {
        report.layer("serve.op_p50_ms." + op, median(lat) * 1e3, "ms");
        const Tail tail = tailPercentile(lat);
        report.layer("serve.op_tail_ms." + op, tail.value * 1e3, "ms");
        report.context["op_tail_percentile." + op] =
            std::to_string(tail.percentile) + " of " +
            std::to_string(tail.samples);
    }
}

/** Count every sample as an op, a sample with a problem as a failed one. */
void
countSamples(const std::vector<Sample> &samples, Report &report)
{
    for (const auto &s : samples)
        report.op(s.problem.empty() ? s.problem : s.op + ": " + s.problem);
}

double
delta(const std::map<std::string, double> &before,
      const std::map<std::string, double> &after, const std::string &key)
{
    const auto a = after.find(key);
    const auto b = before.find(key);
    return (a == after.end() ? 0.0 : a->second) -
        (b == before.end() ? 0.0 : b->second);
}

std::string
joinComma(const std::vector<std::string> &items)
{
    std::string out;
    for (const auto &i : items)
        out += (out.empty() ? "" : ",") + i;
    return out;
}

constexpr double kFleetPassSeconds = 3.3;
constexpr int kFleetExtraSetups = 6;
/** Snapshot interval of the backends' checkpoint stores, cycles: long
 * enough that sweep rows save a handful of snapshots, short enough that
 * every run family member after the first can warm-start. */
const char *const kBackendCkptInterval = "100000";

/**
 * The fleet's requests: cold bench sweeps, online schedules and
 * prefix-sharing run families. The seed is the run families' simulation
 * seed; nothing else depends on it, so every seed costs the same and
 * the run-to-run queueing structure stays put.
 */
std::vector<PoolEntry>
fleetPool(StudyEngine &ref, std::uint64_t run_seed)
{
    std::vector<PoolEntry> pool;
    const auto add = [&](Json request, const std::string &op) {
        PoolEntry e;
        e.expected = renderLocally(ref, request);
        e.request = std::move(request);
        e.op = op;
        pool.push_back(std::move(e));
    };
    for (const char *bench : {"tonto", "hmmer", "libquantum"})
        add(sweepRequest("4B", bench), "sweep");
    for (const auto &names : std::vector<std::vector<std::string>>{
             {"blackscholes", "canneal", "streamcluster", "swaptions"},
             {"bodytrack", "dedup", "ferret", "raytrace"}})
        for (const char *policy : {"pairing", "measured"})
            add(scheduleRequest("4B", names, policy), "schedule");
    for (const auto &family : std::vector<std::vector<std::string>>{
             {"mcf", "milc"}, {"lbm", "hmmer"}})
        for (const std::uint64_t budget : {40'000, 80'000, 120'000})
            add(runRequest("4B", family, budget, 500, run_seed), "run");
    return pool;
}

/** A running fleet: two single-job backends and a coordinator. */
struct Fleet
{
    std::unique_ptr<Child> backends[2];
    std::unique_ptr<Child> coordinator;
    std::uint16_t ports[3] = {0, 0, 0}; ///< backend 0, backend 1, coord
    std::string dir;

    std::vector<Child *> children()
    {
        return {coordinator.get(), backends[0].get(), backends[1].get()};
    }
    double peakRssMb()
    {
        double sum = 0.0;
        for (Child *c : children())
            sum += c->peakRssMb();
        return sum;
    }
    double cpuSeconds()
    {
        double sum = 0.0;
        for (Child *c : children())
            sum += c->cpuSeconds();
        return sum;
    }
    bool stop()
    {
        bool clean = coordinator->stop();
        for (auto &b : backends)
            clean = b->stop() && clean;
        return clean;
    }
};

/** Start a fleet over empty caches under @p name; @p seconds receives
 * the set-up time (spawn to coordinator answering ping). */
Fleet
startFleet(const Options &options, const std::string &name, double &seconds)
{
    Fleet f;
    f.dir = workPath(options, name);
    std::filesystem::remove_all(f.dir);
    std::filesystem::create_directories(f.dir);
    const double a = nowSeconds();
    std::unique_ptr<Child> b[2];
    for (int i = 0; i < 2; ++i) {
        auto args = serveArgs(f.dir + "/b" + std::to_string(i) + ".txt", 1);
        args.push_back("--ckpt");
        args.push_back(f.dir + "/ck" + std::to_string(i) + ":" +
                       kBackendCkptInterval);
        args.insert(args.begin(), options.smtflex);
        b[i] = std::make_unique<Child>(
            args, f.dir + "/b" + std::to_string(i) + ".log");
    }
    for (int i = 0; i < 2; ++i) {
        f.ports[i] = b[i]->waitListening(30.0);
        f.backends[i] = std::move(b[i]);
    }
    std::vector<std::string> args = {
        "coordinator", "--host", "127.0.0.1", "--port", "0", "--jobs", "2",
        "--queue", "256", "--cache", f.dir + "/coordinator.txt", "--ckpt",
        f.dir + "/ck-coordinator"};
    for (int i = 0; i < 2; ++i) {
        args.push_back("--backend");
        args.push_back("127.0.0.1:" + std::to_string(f.ports[i]));
    }
    f.coordinator = startServer(options, name + "/coordinator", args,
                                f.ports[2]);
    waitPing(f.ports[2], 30.0);
    seconds = nowSeconds() - a;
    return f;
}

/** Sum of the metric readings of every fleet process. */
std::map<std::string, double>
fleetMetrics(Fleet &f)
{
    std::map<std::string, double> sum;
    for (const auto port : f.ports) {
        auto client = connectClient(port, 10'000);
        for (const auto &[k, v] : metricsOf(client))
            sum[k] += v;
    }
    return sum;
}

/** One pass's measurements. */
struct FleetPass
{
    double setup = 0.0, wall = 0.0, rss = 0.0, cpuUtil = 0.0,
           queueMax = 0.0;
    std::vector<Sample> samples;
    std::map<std::string, double> before, after;
    double stored = 0.0, simRuns = 0.0, simCycles = 0.0;
};

} // namespace

void
runFleetCold(const Options &options, Report &report)
{
    SeedReference ref = SeedReference::open(options, "seed-ref.txt");
    const std::vector<PoolEntry> pool = fleetPool(*ref.engine, options.seed);
    report.invariant(ref.entries() == ref.records,
                     "fleet reference not answerable from the seed cache");

    // A fixed sequence: every request once (cold), then the sweeps and
    // schedules again (response-cache hits, or coalesced while the first
    // copy still runs), dealt round-robin to the connections. Cold
    // requests stay the majority, so the median is a cold request.
    const unsigned conns = std::min(3u, std::max(1u, options.nproc - 1));
    std::vector<Slot> sequence;
    for (std::size_t i = 0; i < pool.size(); ++i)
        sequence.push_back({i, false});
    for (std::size_t i = 0; i < pool.size(); ++i)
        if (pool[i].op != "run")
            sequence.push_back({i, true});
    std::vector<std::vector<Slot>> lists(conns);
    for (std::size_t i = 0; i < sequence.size(); ++i)
        lists[i % conns].push_back(sequence[i]);
    const std::size_t sequence_length = sequence.size();
    report.context["client_connections"] = std::to_string(conns);
    report.context["fleet"] = "coordinator (2 jobs, --ckpt) + 2 backends "
                              "(1 job, --ckpt interval " +
        std::string(kBackendCkptInterval) + ")";
    report.context["requests_per_pass"] = std::to_string(sequence_length);
    report.context["run_seed"] = std::to_string(options.seed);

    // Sweep-row keys whose records must appear in the coordinator's cache.
    std::vector<std::string> row_keys;
    for (const auto &e : pool) {
        if (e.op != "sweep")
            continue;
        const auto req = smtflex::serve::parseRequest(e.request);
        const auto cfg = smtflex::serve::buildDesign(req.sweep.design, false,
                                                     false, 8.0, false);
        for (const std::uint32_t n : ref.engine->sweepThreadCounts()) {
            if (n > cfg.totalContexts())
                break;
            for (const auto &k : ref.engine->sweepRowCacheKeys(
                     cfg, req.sweep.bench, false, n))
                row_keys.push_back(k);
        }
    }

    std::vector<double> setups;
    for (int i = 0; i < kFleetExtraSetups; ++i) {
        double s = 0.0;
        Fleet f = startFleet(options, "fleet-setup-" + std::to_string(i), s);
        setups.push_back(s);
        report.invariant(f.stop(), "fleet did not drain cleanly");
    }

    Tracer off(false);
    Tracer tracer(options.trace);
    const auto run_pass = [&](Tracer &t, int index) {
        FleetPass p;
        Fleet f = startFleet(options, "fleet-" + std::to_string(index),
                             p.setup);
        p.before = fleetMetrics(f);
        const double cpu0 = f.cpuSeconds();
        const double a = nowSeconds();
        {
            // Queue polling is instrumentation: traced passes only.
            std::unique_ptr<QueueMonitor> monitor;
            if (t.enabled())
                monitor = std::make_unique<QueueMonitor>(
                    std::vector<std::uint16_t>{f.ports[0], f.ports[1],
                                               f.ports[2]});
            const std::uint64_t span = t.begin("pass");
            p.samples = closedLoopLists(f.ports[2], pool, lists, t, span);
            t.end(span);
            if (monitor)
                p.queueMax = monitor->maxDepth();
        }
        p.wall = nowSeconds() - a;
        p.cpuUtil = (f.cpuSeconds() - cpu0) / (p.wall * 4.0);
        p.after = fleetMetrics(f);
        {
            auto client = connectClient(f.ports[2], 10'000);
            p.stored = statsOf(client)["result_cache_entries"];
        }
        p.rss = f.peakRssMb();
        report.invariant(f.stop(), "fleet did not drain cleanly");
        // The model's output as stored: every sweep row's record in the
        // coordinator's cache, cycles summed (must repeat exactly).
        smtflex::ResultCache cache(f.dir + "/coordinator.txt");
        for (const auto &key : row_keys) {
            if (const auto hit = cache.lookup(key)) {
                ++p.simRuns;
                p.simCycles += hit->at(4);
            }
        }
        return p;
    };

    const double phase_seconds =
        options.trace ? options.seconds / 2 : options.seconds;
    const int passes = std::max(
        1, static_cast<int>(std::lround(phase_seconds / kFleetPassSeconds)));
    int index = 0;
    std::vector<FleetPass> base, traced;
    for (int i = 0; i < passes; ++i)
        base.push_back(run_pass(off, index++));
    if (options.trace)
        for (int i = 0; i < passes; ++i)
            traced.push_back(run_pass(tracer, index++));

    const auto summarise = [&](const std::vector<FleetPass> &ps) {
        std::vector<double> walls, lat, rss;
        double ok = 0.0;
        for (const auto &p : ps) {
            walls.push_back(p.wall);
            rss.push_back(p.rss);
            countSamples(p.samples, report);
            for (const auto &s : p.samples) {
                ok += s.problem.empty();
                lat.push_back(s.problem.empty() ? s.latency : p.wall);
            }
        }
        // Correct replies per pass over the median pass makespan.
        return std::make_tuple(median(walls), lat,
                               ok / static_cast<double>(ps.size()) /
                                   median(walls),
                               median(rss));
    };
    const auto [wall, lat, rps, rss] = summarise(base);
    for (const auto &p : base)
        setups.push_back(p.setup);
    const Tail tail = tailPercentile(lat);
    report.e2e("setup_s", median(setups), "s");
    report.e2e("wall_s", wall, "s");
    report.e2e("throughput_rps", rps, "req/s");
    report.e2e("req_p50_ms", median(lat) * 1e3, "ms");
    report.e2e("req_tail_ms", tail.value * 1e3, "ms");
    report.e2e("peak_rss_mb", rss, "MiB");
    report.context["req_tail_percentile"] = std::to_string(tail.percentile);
    report.context["req_tail_samples"] = std::to_string(tail.samples);
    std::vector<std::string> walls_text;
    for (const auto &p : base)
        walls_text.push_back(std::to_string(p.wall));
    report.context["pass_wall_s"] = joinComma(walls_text);

    // Counts that must repeat exactly from pass to pass.
    std::vector<const FleetPass *> all;
    for (const auto &p : base)
        all.push_back(&p);
    for (const auto &p : traced)
        all.push_back(&p);
    for (const FleetPass *p : all) {
        report.invariant(p->stored == all.front()->stored,
                         "coordinator records stored differ between passes");
        report.invariant(p->simCycles == all.front()->simCycles &&
                             p->simRuns == static_cast<double>(
                                               row_keys.size()),
                         "sweep records missing or cycles differ");
    }

    if (!options.trace)
        return;
    const auto [t_wall, t_lat, t_rps, t_rss] = summarise(traced);
    report.layer("trace.overhead_wall_s", t_wall - wall, "s");
    report.layer("trace.overhead_p50_ms",
                 (median(t_lat) - median(lat)) * 1e3, "ms");
    const FleetPass &p = traced.front();
    // Per-op latency of the cold requests only: a repeat is a response-
    // cache hit or coalesced (serve.response_cache_hit_frac and
    // serve.coalesced count those), and pooling both would put the
    // percentiles between two unrelated costs.
    std::vector<Sample> first;
    std::vector<double> queue, util;
    for (const auto &tp : traced) {
        for (const auto &s : tp.samples)
            if (!s.repeat)
                first.push_back(s);
        queue.push_back(tp.queueMax);
        util.push_back(tp.cpuUtil);
    }
    opMetrics(first, report);
    const auto d = [&](const std::string &key) {
        return delta(p.before, p.after, key);
    };
    report.layer("study.cache_stored", p.stored, "count");
    report.layer("sim.runs", p.simRuns, "count");
    report.layer("sim.cycles", p.simCycles, "count");
    report.layer("exec.cpu_util", median(util), "ratio");
    report.layer("serve.queue_depth_max",
                 *std::max_element(queue.begin(), queue.end()), "count");
    report.layer("serve.coalesced", d("serve.coalesced"), "count");
    report.layer("serve.executed", d("serve.executed"), "count");
    report.layer("serve.overloaded", d("serve.overloaded"), "count");
    const double responses = d("serve.responses");
    report.layer("serve.response_cache_hit_frac",
                 responses > 0 ? d("serve.cache_hits") / responses : 0.0,
                 "ratio");
    for (const char *k : {"chunks_dispatched", "chunks_stolen",
                          "rows_completed", "rows_duplicate", "rows_local",
                          "records_pulled"})
        report.layer(std::string("dist.") + k, d(std::string("dist.") + k),
                     "count");
    const double completed = d("dist.rows_completed");
    report.layer("dist.wasted_frac",
                 completed > 0 ? d("dist.rows_duplicate") / completed : 0.0,
                 "ratio");
    report.layer("ckpt.journal_appends", d("ckpt.journal_appends"),
                 "count");
    report.layer("ckpt.saves", d("ckpt.saves"), "count");
    report.layer("ckpt.save_bytes", d("ckpt.save_bytes"), "B");
    report.layer("ckpt.hits", d("ckpt.hits"), "count");
    report.layer("sched.samples_run", d("sched.samples_run"), "count");

    // The online layer's own cost: decidePlacement on the same inputs in
    // process, on a cold in-memory engine, outside the timed window.
    StudyEngine cold(studyOptions(""));
    std::vector<double> decide;
    const std::uint64_t root = tracer.begin("replay");
    for (const auto &e : pool) {
        if (e.op != "schedule")
            continue;
        const auto req = smtflex::serve::parseRequest(e.request);
        const auto cfg = smtflex::serve::buildDesign(
            req.schedule.design, false, false, 8.0, false);
        const double a = nowSeconds();
        cold.decidePlacement(cfg, smtflex::mixWorkload(req.schedule.benchmarks),
                             req.schedule.policy);
        const double b = nowSeconds();
        decide.push_back(b - a);
        tracer.record("online.decide", root, 0, a, b);
    }
    tracer.end(root);
    report.layer("online.decide_s", median(decide), "s");
    writeTrace(options, tracer, report);
}

} // namespace perfbench
