/**
 * @file
 * A qaiccd child process driven over its stdin/stdout pipes.
 */
#ifndef PERFBENCH_DAEMON_H
#define PERFBENCH_DAEMON_H

#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

class Daemon
{
  public:
    /** Starts @p binary with @p args; stderr goes to /dev/null. */
    Daemon(const std::string &binary, const std::vector<std::string> &args);
    /** Closes stdin and reaps the child (killing it if it lingers). */
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool running() const { return pid_ > 0; }

    /** Writes one frame (a newline is appended). */
    bool send(const std::string &line);

    /**
     * Reads one reply line, waiting at most @p timeout_ms. False on
     * timeout, EOF or error.
     */
    bool readLine(std::string *line, int timeout_ms);

    /** Closes stdin: the daemon drains its queue and exits. */
    void closeInput();

    pid_t pid() const { return pid_; }

    /**
     * Closes stdin so the daemon drains and exits, then reaps it.
     * False when it did not exit cleanly within @p timeout_ms.
     */
    bool finish(int timeout_ms);

  private:
    pid_t pid_ = -1;
    int in_ = -1;
    int out_ = -1;
    std::string buffer_;
};

} // namespace perfbench

#endif // PERFBENCH_DAEMON_H
