#include "sampler.hpp"

#include <execinfo.h>
#include <link.h>
#include <ucontext.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <unordered_map>
#include <vector>

#include "host.hpp"

namespace mdwf::bench {
namespace {

constexpr int kDepth = 64;
// Addresses per addr2line invocation, far below the kernel's argv limit.
constexpr std::size_t kAddr2lineBatch = 8192;

std::atomic<PcSampler*> g_active{nullptr};

const void* interrupted_pc(const void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return reinterpret_cast<const void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<const void*>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return nullptr;
#endif
}

// Load bias and executable segments of the main program.
struct ExeImage {
  std::uintptr_t base = 0;
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> text;

  bool contains(std::uintptr_t a) const {
    for (const auto& [lo, hi] : text) {
      if (a >= lo && a < hi) return true;
    }
    return false;
  }
};

int find_exe(dl_phdr_info* info, std::size_t, void* data) {
  auto* exe = static_cast<ExeImage*>(data);
  exe->base = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X) != 0) {
      const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
      exe->text.emplace_back(lo, lo + ph.p_memsz);
    }
  }
  return 1;  // the main program is always listed first
}

// "<module>.<file stem>" of a location line under src/mdwf/, else "".
std::string mdwf_file(std::string_view location) {
  constexpr std::string_view kTree = "src/mdwf/";
  const std::size_t at = location.rfind(kTree);
  if (at == std::string_view::npos) return {};
  std::string_view rel = location.substr(at + kTree.size());
  const std::size_t slash = rel.find('/');
  if (slash == std::string_view::npos) return {};
  std::string_view file = rel.substr(slash + 1);
  file = file.substr(0, file.find_first_of(".:"));
  return std::string(rel.substr(0, slash)) + "." + std::string(file);
}

// addr2line -a -i -f output: per address a "0x..." line, then a function
// line and a location line per inlining level, innermost first.
void classify(const std::string& output,
              std::unordered_map<std::uintptr_t, std::string>& out) {
  std::size_t pos = 0;
  std::uintptr_t current = 0;
  bool have_address = false;
  bool decided = false;
  int line_in_group = 0;
  while (pos < output.size()) {
    std::size_t end = output.find('\n', pos);
    if (end == std::string::npos) end = output.size();
    const std::string_view line(output.data() + pos, end - pos);
    pos = end + 1;
    if (line.starts_with("0x")) {
      current = std::stoull(std::string(line), nullptr, 16);
      have_address = true;
      decided = false;
      line_in_group = 0;
      continue;
    }
    if (!have_address) continue;
    ++line_in_group;
    if (decided || line_in_group % 2 == 1) continue;  // function names
    std::string file = mdwf_file(line);
    if (!file.empty()) {
      out[current] = std::move(file);
      decided = true;
    }
  }
}

}  // namespace

PcSampler::PcSampler(std::size_t capacity, int hz)
    : capacity_(capacity),
      hz_(hz),
      frames_(new void*[capacity * kDepth]),
      first_(new std::uint8_t[capacity]),
      depth_(new std::uint8_t[capacity]) {
  // The first backtrace() loads the unwinder, which must not happen inside
  // the signal handler.
  void* warm[4];
  (void)backtrace(warm, 4);

  PcSampler* none = nullptr;
  if (!g_active.compare_exchange_strong(none, this)) {
    throw std::logic_error("only one PcSampler may exist at a time");
  }
  struct sigaction sa {};
  sa.sa_sigaction = &PcSampler::on_signal;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, &previous_);

  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = gettid();
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer_) != 0) {
    const int err = errno;
    sigaction(SIGPROF, &previous_, nullptr);
    g_active.store(nullptr);
    throw std::system_error(err, std::generic_category(), "timer_create");
  }
}

PcSampler::~PcSampler() {
  stop();
  timer_delete(timer_);
  // A signal raised by the timer is delivered before timer_settime returns
  // to user space, so none is pending once stop() has returned.
  sigaction(SIGPROF, &previous_, nullptr);
  g_active.store(nullptr);
}

void PcSampler::start() {
  itimerspec its{};
  its.it_interval.tv_nsec = 1'000'000'000L / hz_;
  its.it_value = its.it_interval;
  timer_settime(timer_, 0, &its, nullptr);
}

void PcSampler::stop() {
  const itimerspec off{};
  timer_settime(timer_, 0, &off, nullptr);
}

void PcSampler::on_signal(int, siginfo_t*, void* context) {
  PcSampler* s = g_active.load(std::memory_order_relaxed);
  if (s == nullptr) return;
  const std::size_t i = s->count_.load(std::memory_order_relaxed);
  if (i >= s->capacity_) return;
  const int saved_errno = errno;
  void** slot = &s->frames_[i * kDepth];
  int n = backtrace(slot, kDepth);
  // Skip the handler's own frames: the stack proper starts at the PC the
  // signal interrupted.
  const void* pc = interrupted_pc(context);
  int first = 0;
  while (first < n && slot[first] != pc) ++first;
  if (first == n) {
    // The unwinder did not cross the signal frame; keep the leaf alone.
    slot[0] = const_cast<void*>(pc);
    first = 0;
    n = pc != nullptr ? 1 : 0;
  }
  s->first_[i] = static_cast<std::uint8_t>(first);
  s->depth_[i] = static_cast<std::uint8_t>(n);
  s->count_.store(i + 1, std::memory_order_relaxed);
  errno = saved_errno;
}

PcSampler::Attribution PcSampler::attribute() const {
  ExeImage exe;
  dl_iterate_phdr(&find_exe, &exe);

  // Return addresses point after the call; look up the call itself.
  auto lookup = [&](std::size_t sample, int k) -> std::uintptr_t {
    const auto a =
        reinterpret_cast<std::uintptr_t>(frames_[sample * kDepth + k]);
    return k == first_[sample] ? a : a - 1;
  };
  const std::size_t n = samples();
  std::unordered_map<std::uintptr_t, std::string> file_of;
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = first_[i]; k < depth_[i]; ++k) {
      const std::uintptr_t a = lookup(i, k);
      if (exe.contains(a)) file_of.emplace(a - exe.base, std::string());
    }
  }

  std::vector<std::uintptr_t> pending;
  pending.reserve(file_of.size());
  for (const auto& [rel, file] : file_of) pending.push_back(rel);
  file_of.clear();
  const std::string exe_path = self_exe();
  for (std::size_t at = 0; at < pending.size(); at += kAddr2lineBatch) {
    std::vector<std::string> argv = {"addr2line", "-a", "-i", "-f",
                                     "-C",        "-e", exe_path};
    for (std::size_t j = at; j < pending.size() && j < at + kAddr2lineBatch;
         ++j) {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%zx",
                    static_cast<std::size_t>(pending[j]));
      argv.emplace_back(hex);
    }
    const Captured c = spawn_capture(argv, false);
    if (c.exit_code != 0) {
      throw std::runtime_error("addr2line failed (exit " +
                               std::to_string(c.exit_code) + ")");
    }
    classify(c.output, file_of);
  }

  Attribution out;
  out.samples = n;
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = first_[i]; k < depth_[i]; ++k) {
      const std::uintptr_t a = lookup(i, k);
      if (!exe.contains(a)) continue;
      const auto it = file_of.find(a - exe.base);
      if (it == file_of.end()) continue;
      const std::string& file = it->second;
      ++out.attributed;
      ++out.by_file[file];
      ++out.by_module[file.substr(0, file.find('.'))];
      break;
    }
  }
  return out;
}

}  // namespace mdwf::bench
