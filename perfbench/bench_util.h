/**
 * @file
 * The benchmark's own measurement rules, kept free of smtflex so the
 * self-tests (selftest.cpp) exercise exactly what the benchmark uses: the
 * tail-percentile rule, span recording and self time, and the byte-exact
 * correctness gate.
 */

#ifndef PERFBENCH_BENCH_UTIL_H
#define PERFBENCH_BENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds since a fixed process-wide origin (span timestamps). */
inline double
nowSeconds()
{
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

/** Median of @p values (mean of the two middle ones for an even count);
 * 0 for an empty set. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** A tail latency together with the percentile it stands for. */
struct Tail
{
    double percentile = 0.0; ///< 100 = the maximum (too few samples)
    double value = 0.0;
    std::size_t samples = 0; ///< sample count the rule was applied to
    std::size_t beyond = 0;  ///< samples strictly above the chosen rank
};

/**
 * The highest percentile of a fixed ladder that still has at least
 * @p min_beyond samples beyond it (nearest-rank definition). With too few
 * samples for even the median rung the maximum is reported as
 * percentile 100 with no samples beyond it, so a reader can tell.
 */
inline Tail
tailPercentile(std::vector<double> samples, std::size_t min_beyond = 10)
{
    static constexpr double kLadder[] = {99.99, 99.9, 99.0, 98.0, 95.0,
                                         90.0,  80.0, 75.0, 50.0};
    Tail tail;
    tail.samples = samples.size();
    if (samples.empty())
        return tail;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    for (const double p : kLadder) {
        // Nearest rank: the smallest sample with at least p% at or below.
        // (The epsilon keeps 99.9% of 10000 at rank 9990 despite the
        // binary representation of 0.999.)
        const auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
        const std::size_t index = rank == 0 ? 0 : rank - 1;
        const std::size_t beyond = n - 1 - index;
        if (beyond >= min_beyond) {
            tail.percentile = p;
            tail.value = samples[index];
            tail.beyond = beyond;
            return tail;
        }
    }
    tail.percentile = 100.0;
    tail.value = samples.back();
    return tail;
}

/** One timed call into a layer, recorded by the benchmark's own code. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::string name;
    std::uint64_t request = 0; ///< spans of one request share this id
    double start = 0.0;        ///< nowSeconds()
    double end = 0.0;
};

/**
 * In-memory span recorder. Disabled, begin()/end() do nothing and cost a
 * branch; the end-to-end numbers come from runs with it disabled.
 * Thread-safe: fleet_cold records from client threads and the het replay
 * from pool workers.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    std::uint64_t begin(const std::string &name, std::uint64_t parent = 0,
                        std::uint64_t request = 0)
    {
        if (!enabled_)
            return 0;
        const double t = nowSeconds();
        std::lock_guard<std::mutex> lock(mutex_);
        Span span;
        span.id = spans_.size() + 1;
        span.parent = parent;
        span.name = name;
        span.request = request;
        span.start = t;
        spans_.push_back(std::move(span));
        return spans_.back().id;
    }

    void end(std::uint64_t id)
    {
        if (!enabled_ || id == 0)
            return;
        const double t = nowSeconds();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.at(id - 1).end = t;
    }

    /** Record an already-measured interval. */
    std::uint64_t record(const std::string &name, std::uint64_t parent,
                         std::uint64_t request, double start, double end)
    {
        if (!enabled_)
            return 0;
        std::lock_guard<std::mutex> lock(mutex_);
        Span span;
        span.id = spans_.size() + 1;
        span.parent = parent;
        span.name = name;
        span.request = request;
        span.start = start;
        span.end = end;
        spans_.push_back(std::move(span));
        return spans_.back().id;
    }

    std::vector<Span> spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span: begin on construction, end on destruction. */
class Scope
{
  public:
    Scope(Tracer &tracer, const std::string &name, std::uint64_t parent = 0,
          std::uint64_t request = 0)
        : tracer_(tracer), id_(tracer.begin(name, parent, request))
    {
    }
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::uint64_t id_;
};

/** Length of the union of @p intervals clipped to [lo, hi]. */
inline double
coveredLength(std::vector<std::pair<double, double>> intervals, double lo,
              double hi)
{
    for (auto &iv : intervals) {
        iv.first = std::max(iv.first, lo);
        iv.second = std::min(iv.second, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double cursor = lo;
    for (const auto &[a, b] : intervals) {
        if (b <= a)
            continue;
        const double from = std::max(a, cursor);
        if (b > from) {
            covered += b - from;
            cursor = b;
        }
    }
    return covered;
}

/**
 * Self time per span id: its duration minus the part of it that its
 * child spans cover. Overlapping children (parallel work) count once.
 */
inline std::map<std::uint64_t, double>
selfTimes(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.start, s.end);
    std::map<std::uint64_t, double> self;
    for (const Span &s : spans) {
        const double duration = s.end - s.start;
        const auto it = children.find(s.id);
        self[s.id] = it == children.end()
            ? duration
            : duration - coveredLength(it->second, s.start, s.end);
    }
    return self;
}

/** Share of span @p id covered by its children (1 = fully accounted). */
inline double
childCoverage(const std::vector<Span> &spans, std::uint64_t id)
{
    for (const Span &s : spans) {
        if (s.id != id)
            continue;
        const double duration = s.end - s.start;
        if (duration <= 0.0)
            return 0.0;
        const auto self = selfTimes(spans);
        return 1.0 - self.at(id) / duration;
    }
    return 0.0;
}

/**
 * The correctness gate: @p actual must equal @p expected byte for byte.
 * @return empty when equal, else a one-line description of the first
 * difference.
 */
inline std::string
compareBytes(const std::string &expected, const std::string &actual)
{
    if (expected == actual)
        return std::string();
    const std::size_t n = std::min(expected.size(), actual.size());
    std::size_t at = 0;
    while (at < n && expected[at] == actual[at])
        ++at;
    return "differs at byte " + std::to_string(at) + " (expected " +
        std::to_string(expected.size()) + " bytes, got " +
        std::to_string(actual.size()) + ")";
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_UTIL_H
