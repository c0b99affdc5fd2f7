#include "daemon.h"

#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include "trace.h"

namespace perfbench {

namespace {

/** How long readLine polls without blocking. */
constexpr double kSpinMs = 2.0;

} // namespace

Daemon::Daemon(const std::string &binary,
               const std::vector<std::string> &args)
{
    int to_child[2], from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0)
        return;
    if (pipe2(from_child, O_CLOEXEC) != 0) {
        close(to_child[0]);
        close(to_child[1]);
        return;
    }
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(binary.c_str()));
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);

    pid_ = fork();
    if (pid_ == 0) {
        // The parent may be pinned to one CPU (CpuRotation); the daemon
        // gets every CPU its cpuset allows.
        cpu_set_t all;
        CPU_ZERO(&all);
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            CPU_SET(cpu, &all);
        sched_setaffinity(0, sizeof(all), &all);
        dup2(to_child[0], STDIN_FILENO);
        dup2(from_child[1], STDOUT_FILENO);
        int devnull = open("/dev/null", O_WRONLY);
        if (devnull >= 0)
            dup2(devnull, STDERR_FILENO);
        execv(binary.c_str(), argv.data());
        _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    if (pid_ < 0) {
        close(to_child[1]);
        close(from_child[0]);
        return;
    }
    in_ = to_child[1];
    out_ = from_child[0];
    // A daemon that died must surface as a failed write, not a signal.
    std::signal(SIGPIPE, SIG_IGN);
}

Daemon::~Daemon()
{
    if (pid_ > 0)
        finish(5000);
    // finish() clears pid_ once the child is reaped; one still set has
    // hung and is killed.
    if (pid_ > 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
    }
    if (out_ >= 0)
        close(out_);
}

bool
Daemon::send(const std::string &line)
{
    if (in_ < 0)
        return false;
    std::string frame = line + "\n";
    std::size_t done = 0;
    while (done < frame.size()) {
        ssize_t n = write(in_, frame.data() + done, frame.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        done += static_cast<std::size_t>(n);
    }
    return true;
}

bool
Daemon::readLine(std::string *line, int timeout_ms)
{
    const double deadline = nowNs() + timeout_ms * 1e6;
    const double spin_until = nowNs() + kSpinMs * 1e6;
    while (true) {
        const std::size_t newline = buffer_.find('\n');
        if (newline != std::string::npos) {
            *line = buffer_.substr(0, newline);
            buffer_.erase(0, newline + 1);
            return true;
        }
        const double left_ms = (deadline - nowNs()) / 1e6;
        if (out_ < 0 || left_ms <= 0)
            return false;
        // Spin briefly before blocking: most replies arrive within
        // a millisecond, and waking a halted virtual CPU costs about as
        // much and varies far more.
        const bool spinning = nowNs() < spin_until;
        pollfd pfd{out_, POLLIN, 0};
        int ready =
            poll(&pfd, 1, spinning ? 0 : static_cast<int>(left_ms) + 1);
        if ((ready < 0 && errno == EINTR) || (ready == 0 && spinning))
            continue;
        if (ready <= 0)
            return false;
        char chunk[65536];
        ssize_t n = read(out_, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

void
Daemon::closeInput()
{
    if (in_ >= 0) {
        close(in_);
        in_ = -1;
    }
}

bool
Daemon::finish(int timeout_ms)
{
    if (pid_ <= 0)
        return false;
    closeInput();
    const double deadline = nowNs() + timeout_ms * 1e6;
    while (true) {
        int status = 0;
        pid_t done = waitpid(pid_, &status, WNOHANG);
        if (done == pid_) {
            pid_ = -1;
            return WIFEXITED(status) && WEXITSTATUS(status) == 0;
        }
        if (done < 0 || nowNs() > deadline)
            return false;
        // Drain replies so a daemon blocked on a full pipe can exit.
        std::string ignored;
        if (!readLine(&ignored, 5))
            usleep(1000);
    }
}

} // namespace perfbench
