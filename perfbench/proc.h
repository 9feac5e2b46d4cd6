/**
 * @file
 * Server processes the fleet workload starts (`smtflex serve`,
 * `smtflex coordinator`) and the client calls it makes to them.
 */

#ifndef PERFBENCH_PROC_H
#define PERFBENCH_PROC_H

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/json.h"

namespace perfbench {

/**
 * One child process. Its stdout is a pipe (the listening line is parsed
 * from it), stderr goes to @p log_path. The destructor stops it: SIGINT
 * (graceful drain), then SIGKILL after a grace period, and always waits.
 */
class Child
{
  public:
    Child(const std::vector<std::string> &argv, const std::string &log_path);
    ~Child();
    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    pid_t pid() const { return pid_; }

    /** Block until the child prints "listening on HOST:PORT"; returns the
     * port. fatal() when it exits first or @p timeout_s passes. */
    std::uint16_t waitListening(double timeout_s);

    /** Peak resident set (VmHWM), MiB; 0 once stopped. */
    double peakRssMb() const;
    /** User + system CPU seconds so far. */
    double cpuSeconds() const;

    /** Stop and reap (idempotent). @return whether it exited cleanly. */
    bool stop();

  private:
    pid_t pid_ = -1;
    int out_ = -1; ///< read end of the stdout pipe
    std::string buffered_;
    bool exitedCleanly_ = false;

    void drainOutput(double timeout_s);
};

/** A connected serve client with a bounded per-op timeout. */
smtflex::serve::Client connectClient(std::uint16_t port,
                                     std::uint64_t op_timeout_ms);

/** `ping` until it answers or @p timeout_s passes; fatal() then. */
void waitPing(std::uint16_t port, double timeout_s);

/** Numeric members of a `stats` reply (`stats` object). */
std::map<std::string, double> statsOf(smtflex::serve::Client &client);
/** Numeric members of a `metrics` reply (dotted registry paths). */
std::map<std::string, double> metricsOf(smtflex::serve::Client &client);

} // namespace perfbench

#endif // PERFBENCH_PROC_H
