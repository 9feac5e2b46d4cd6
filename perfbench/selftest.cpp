/**
 * @file
 * Self-tests of the benchmark's measurement rules (bench_util.h). Run via
 * `python3 perfbench/run.py --selftest`; exits non-zero on any failure.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL %s\n", what.c_str());
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

void
testTailPercentile()
{
    // 1000 samples: p99.9 leaves 1 beyond, p99 leaves 10 -> p99.
    Tail t = tailPercentile(oneTo(1000));
    check(t.percentile == 99.0 && t.value == 990 && t.beyond == 10 &&
              t.samples == 1000,
          "1000 samples pick p99 = 990 with 10 beyond");
    // 100 samples: p95 leaves 5, p90 leaves 10.
    t = tailPercentile(oneTo(100));
    check(t.percentile == 90.0 && t.value == 90 && t.beyond == 10,
          "100 samples pick p90");
    // 20 samples: only the median rung leaves 10 beyond.
    t = tailPercentile(oneTo(20));
    check(t.percentile == 50.0 && t.value == 10 && t.beyond == 10,
          "20 samples pick p50");
    // Too few for any rung: the maximum, flagged as percentile 100.
    t = tailPercentile(oneTo(12));
    check(t.percentile == 100.0 && t.value == 12 && t.beyond == 0,
          "12 samples report the maximum as p100");
    t = tailPercentile({});
    check(t.samples == 0 && t.value == 0.0, "no samples, no tail");
    // The rule is on the count beyond, so a larger sample moves the rung.
    check(tailPercentile(oneTo(10'000)).percentile == 99.9,
          "10000 samples pick p99.9");
}

void
testSelfTime()
{
    // parent [0,10]; children [1,4] and [3,6] overlap (parallel work
    // counts once), [8,12] runs past the parent's end (clipped);
    // grandchild [1,2] under the first child.
    std::vector<Span> spans = {
        {1, 0, "parent", 1, 0.0, 10.0}, {2, 1, "a", 1, 1.0, 4.0},
        {3, 1, "b", 1, 3.0, 6.0},       {4, 1, "c", 1, 8.0, 12.0},
        {5, 2, "a.child", 1, 1.0, 2.0},
    };
    const auto self = selfTimes(spans);
    check(near(self.at(1), 3.0), "parent self = 10 - (5 + 2) = 3");
    check(near(self.at(2), 2.0), "child a self = 3 - 1 = 2");
    check(near(self.at(3), 3.0), "leaf b self = its duration");
    check(near(self.at(4), 4.0), "leaf c self = its duration");
    check(near(childCoverage(spans, 1), 0.7), "children cover 70%");
    check(near(coveredLength({{0, 1}, {0.5, 2}, {5, 6}}, 0, 10), 3.0),
          "union of overlapping intervals");
}

void
testCorrectnessGate()
{
    const std::string expected =
        "threads         STP       ANTT   power(W)\n"
        "1             1.000       1.00       13.4\n"
        "2             1.273       1.57       19.0\n";
    check(compareBytes(expected, expected).empty(), "identical accepted");
    for (std::size_t i = 0; i < expected.size(); ++i) {
        std::string perturbed = expected;
        perturbed[i] = static_cast<char>(perturbed[i] ^ 0x01);
        const std::string why = compareBytes(expected, perturbed);
        check(!why.empty() &&
                  why.find("byte " + std::to_string(i)) != std::string::npos,
              "one-byte perturbation at " + std::to_string(i) + " rejected");
    }
    check(!compareBytes(expected, expected.substr(0, expected.size() - 1))
               .empty(),
          "truncated output rejected");
    check(!compareBytes(expected, expected + " ").empty(),
          "extended output rejected");
}

void
testTracerDisabled()
{
    Tracer off(false);
    {
        Scope s(off, "x");
        check(s.id() == 0, "disabled tracer hands out no ids");
    }
    check(off.spans().empty(), "disabled tracer records nothing");
    Tracer on(true);
    {
        Scope outer(on, "outer");
        Scope inner(on, "inner", outer.id(), 7);
    }
    const auto spans = on.spans();
    check(spans.size() == 2 && spans[1].parent == spans[0].id &&
              spans[1].request == 7 && spans[0].end >= spans[1].end,
          "enabled tracer records nested spans");
}

} // namespace

int
main()
{
    testTailPercentile();
    testSelfTime();
    testCorrectnessGate();
    testTracerDisabled();
    if (failures) {
        std::printf("%d self-test check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench self-tests passed\n");
    return 0;
}
