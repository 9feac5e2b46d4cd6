#include "proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_util.h"
#include "common/log.h"

extern char **environ;

namespace perfbench {

using smtflex::fatal;
using smtflex::serve::Json;

namespace {

/** The parent environment without SMTFLEX_* knobs: server behaviour is
 * set by command-line flags only. */
std::vector<std::string>
childEnvironment()
{
    std::vector<std::string> env;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "SMTFLEX_", 8) != 0)
            env.emplace_back(*e);
    return env;
}

std::vector<char *>
cStrings(std::vector<std::string> &strings)
{
    std::vector<char *> out;
    for (auto &s : strings)
        out.push_back(s.data());
    out.push_back(nullptr);
    return out;
}

} // namespace

Child::Child(const std::vector<std::string> &argv,
             const std::string &log_path)
{
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0)
        fatal("perfbench: pipe: ", std::strerror(errno));
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                     log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<std::string> args = argv;
    std::vector<std::string> env = childEnvironment();
    auto c_args = cStrings(args);
    auto c_env = cStrings(env);
    const int rc = posix_spawn(&pid_, args[0].c_str(), &actions, nullptr,
                               c_args.data(), c_env.data());
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
        ::close(fds[0]);
        pid_ = -1;
        fatal("perfbench: cannot start ", args[0], ": ", std::strerror(rc));
    }
    out_ = fds[0];
}

Child::~Child() { stop(); }

std::uint16_t
Child::waitListening(double timeout_s)
{
    const double deadline = nowSeconds() + timeout_s;
    const std::string marker = "listening on ";
    for (;;) {
        const std::size_t at = buffered_.find(marker);
        if (at != std::string::npos) {
            const std::size_t eol = buffered_.find('\n', at);
            if (eol != std::string::npos) {
                const std::string line = buffered_.substr(at, eol - at);
                const std::size_t colon = line.rfind(':');
                return static_cast<std::uint16_t>(
                    std::stoul(line.substr(colon + 1)));
            }
        }
        const double left = deadline - nowSeconds();
        if (left <= 0)
            fatal("perfbench: pid ", pid_, " did not start listening");
        pollfd p{out_, POLLIN, 0};
        const int rc = ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
        if (rc < 0 && errno != EINTR)
            fatal("perfbench: poll: ", std::strerror(errno));
        if (rc <= 0)
            continue;
        char buf[4096];
        const ssize_t n = ::read(out_, buf, sizeof(buf));
        if (n == 0)
            fatal("perfbench: pid ", pid_, " exited before listening");
        if (n > 0)
            buffered_.append(buf, static_cast<std::size_t>(n));
    }
}

namespace {

/** Fields of /proc/<pid>/stat after the command name. */
std::vector<std::string>
statFields(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    const std::size_t close = all.rfind(')');
    std::vector<std::string> fields;
    if (close == std::string::npos)
        return fields;
    std::istringstream rest(all.substr(close + 2));
    std::string f;
    while (rest >> f)
        fields.push_back(f);
    return fields;
}

} // namespace

double
Child::peakRssMb() const
{
    if (pid_ < 0)
        return 0.0;
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0.0;
}

double
Child::cpuSeconds() const
{
    if (pid_ < 0)
        return 0.0;
    // Fields after "(comm) ": state is [0]; utime [11], stime [12].
    const auto fields = statFields(pid_);
    if (fields.size() < 13)
        return 0.0;
    const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
    return (std::stod(fields[11]) + std::stod(fields[12])) / ticks;
}

void
Child::drainOutput(double timeout_s)
{
    const double deadline = nowSeconds() + timeout_s;
    while (out_ >= 0 && nowSeconds() < deadline) {
        pollfd p{out_, POLLIN, 0};
        const int rc = ::poll(&p, 1, 50);
        if (rc <= 0)
            continue;
        char buf[4096];
        const ssize_t n = ::read(out_, buf, sizeof(buf));
        if (n <= 0)
            break;
    }
}

bool
Child::stop()
{
    if (pid_ < 0)
        return exitedCleanly_;
    ::kill(pid_, SIGINT);
    // Graceful drain: the server closes stdout on exit.
    drainOutput(10.0);
    int status = 0;
    pid_t done = 0;
    const double deadline = nowSeconds() + 10.0;
    while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           nowSeconds() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (done == 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
    }
    exitedCleanly_ = done != 0 && WIFEXITED(status) &&
        WEXITSTATUS(status) == 0;
    if (out_ >= 0)
        ::close(out_);
    out_ = -1;
    pid_ = -1;
    return exitedCleanly_;
}

smtflex::serve::Client
connectClient(std::uint16_t port, std::uint64_t op_timeout_ms)
{
    smtflex::serve::Client client;
    smtflex::serve::RetryPolicy policy;
    policy.opTimeoutMs = op_timeout_ms;
    policy.connectTimeoutMs = 5'000;
    client.setRetryPolicy(policy);
    client.connect("127.0.0.1", port);
    return client;
}

void
waitPing(std::uint16_t port, double timeout_s)
{
    const double deadline = nowSeconds() + timeout_s;
    Json ping = Json::object();
    ping.set("op", Json::string("ping"));
    for (;;) {
        try {
            auto client = connectClient(port, 5'000);
            const Json reply = client.call(ping);
            if (reply.has("ok") && reply.at("ok").asBool())
                return;
        } catch (const std::exception &) {
        }
        if (nowSeconds() > deadline)
            fatal("perfbench: port ", port, " never answered ping");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

namespace {

std::map<std::string, double>
numericMembers(const Json &object)
{
    std::map<std::string, double> out;
    for (const auto &[key, value] : object.members()) {
        if (value.isNumber())
            out[key] = value.asNumber();
        else if (value.isBool())
            out[key] = value.asBool() ? 1.0 : 0.0;
    }
    return out;
}

} // namespace

std::map<std::string, double>
statsOf(smtflex::serve::Client &client)
{
    Json req = Json::object();
    req.set("op", Json::string("stats"));
    return numericMembers(client.call(req).at("stats"));
}

std::map<std::string, double>
metricsOf(smtflex::serve::Client &client)
{
    Json req = Json::object();
    req.set("op", Json::string("metrics"));
    return numericMembers(client.call(req).at("metrics"));
}

} // namespace perfbench
