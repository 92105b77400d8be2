#include "host.hpp"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <new>

extern char** environ;

namespace {

// Relaxed load-then-store instead of fetch_add: the benchmark runs the
// simulator on one thread, and a locked add on every allocation would tax
// the very path being counted.
std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void count_alloc(std::size_t n) {
  g_alloc_calls.store(g_alloc_calls.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  g_alloc_bytes.store(g_alloc_bytes.load(std::memory_order_relaxed) + n,
                      std::memory_order_relaxed);
}

}  // namespace

// The array and nothrow forms of the standard library forward here.
void* operator new(std::size_t n) {
  count_alloc(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace mdwf::bench {

AllocCount alloc_count() {
  return {g_alloc_calls.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries the parent's peak RSS
  // across exec into ru_maxrss, so a small run launched from a larger
  // process would report the launcher's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string self_exe() {
  char buf[PATH_MAX];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : std::string();
}

Captured spawn_capture(const std::vector<std::string>& argv,
                       bool with_stderr) {
  Captured out;
  int fds[2];
  if (pipe(fds) != 0) return out;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  if (with_stderr) {
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDERR_FILENO);
  }
  posix_spawn_file_actions_addclose(&actions, fds[1]);

  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawnp(&pid, args[0], &actions, nullptr, args.data(),
                              environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc == 0) {
    char buf[65536];
    for (;;) {
      const ssize_t n = read(fds[0], buf, sizeof(buf));
      if (n > 0) {
        out.output.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
  }
  close(fds[0]);
  if (rc != 0) return out;
  int status = 0;
  pid_t waited = 0;
  do {
    waited = waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  if (waited == pid && WIFEXITED(status)) out.exit_code = WEXITSTATUS(status);
  return out;
}

}  // namespace mdwf::bench
