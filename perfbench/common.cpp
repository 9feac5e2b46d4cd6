#include "common.h"

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/log.h"
#include "serve/commands.h"
#include "serve/protocol.h"

namespace perfbench {

using smtflex::StudyEngine;
using smtflex::serve::Json;

smtflex::StudyOptions
studyOptions(const std::string &cache_path)
{
    smtflex::StudyOptions opts;
    opts.cachePath = cache_path;
    return opts;
}

std::string
workPath(const Options &options, const std::string &name)
{
    return options.work + "/" + name;
}

SeedReference
SeedReference::open(const Options &options, const std::string &name)
{
    const std::string copy = workPath(options, name);
    copyFile(options.root + "/smtflex_cache.txt", copy);
    SeedReference ref;
    const double t0 = nowSeconds();
    ref.engine = std::make_unique<StudyEngine>(studyOptions(copy));
    ref.loadSeconds = nowSeconds() - t0;
    ref.records = ref.engine->resultCache().size();
    if (ref.records == 0)
        smtflex::fatal("perfbench: seed cache ", copy, " holds no records");
    return ref;
}

std::string
recordText(const StudyEngine &engine, const std::vector<std::string> &keys)
{
    std::string out;
    for (const auto &key : keys) {
        if (const auto hit = engine.resultCache().lookup(key))
            out += smtflex::ResultCache::formatRecord(key, *hit);
        else
            out += "<missing " + key + ">\n";
    }
    return out;
}

Json
sweepRequest(const std::string &design, const std::string &bench)
{
    Json doc = Json::object();
    doc.set("op", Json::string("sweep"));
    doc.set("design", Json::string(design));
    doc.set("bench", Json::string(bench));
    return doc;
}

Json
scheduleRequest(const std::string &design,
                const std::vector<std::string> &benches,
                const std::string &policy)
{
    Json doc = Json::object();
    doc.set("op", Json::string("schedule"));
    doc.set("design", Json::string(design));
    Json list = Json::array();
    for (const auto &b : benches)
        list.push(Json::string(b));
    doc.set("benchmarks", std::move(list));
    doc.set("policy", Json::string(policy));
    return doc;
}

Json
runRequest(const std::string &design,
           const std::vector<std::string> &workload, std::uint64_t budget,
           std::uint64_t warmup, std::uint64_t seed)
{
    Json doc = Json::object();
    doc.set("op", Json::string("run"));
    doc.set("design", Json::string(design));
    Json list = Json::array();
    for (const auto &b : workload)
        list.push(Json::string(b));
    doc.set("workload", std::move(list));
    doc.set("budget", Json::number(budget));
    doc.set("warmup", Json::number(warmup));
    doc.set("seed", Json::number(seed));
    return doc;
}

std::string
renderLocally(StudyEngine &engine, const Json &request)
{
    namespace sv = smtflex::serve;
    const sv::Request req = sv::parseRequest(request);
    switch (req.op) {
      case sv::Op::kSweep:
        return sv::sweepText(engine, req.sweep);
      case sv::Op::kSchedule:
        return sv::scheduleText(engine, req.schedule);
      case sv::Op::kRun:
        return sv::runText(engine, req.run);
      default:
        smtflex::fatal("perfbench: no local rendering for op ",
                       sv::opName(req.op));
    }
}

double
selfPeakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0.0;
}

void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
selfCpuSeconds()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

void
copyFile(const std::string &from, const std::string &to)
{
    std::error_code ec;
    std::filesystem::copy_file(
        from, to, std::filesystem::copy_options::overwrite_existing, ec);
    if (ec)
        smtflex::fatal("perfbench: cannot copy ", from, " to ", to, ": ",
                       ec.message());
}

} // namespace perfbench
