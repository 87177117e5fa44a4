#include "harness.h"

#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <new>
#include <stdexcept>

#include "simgpu/exec_engine.h"
#include "util/metrics_registry.h"

namespace e2e {
namespace {

constexpr std::size_t kMaxChunk = 512;
// Raw spans kept per phase for the Chrome trace (whole chunks only).
constexpr std::size_t kPhaseSpanCap = trace::kSpanCapacity;

struct Shared {
  std::uint64_t pool_threads = 0;
  OpRecord ops[kMaxChunk];
  trace::Buffer trace;
};

Shared* shared() {
  static Shared* region = [] {
    void* memory = mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (memory == MAP_FAILED) throw std::runtime_error("mmap failed");
    return new (memory) Shared;
  }();
  return region;
}

// Library counters read from the metrics registry around each op.
struct RegistryCounter {
  const char* name;
  Counter counter;
};
constexpr RegistryCounter kRegistryCounters[] = {
    {"simgpu.launch.parallel", kLaunchParallel},
    {"simgpu.launch.serial", kLaunchSerial},
    {"simgpu.fast.lowered_blocks", kFastLowered},
    {"simgpu.fast.straddle_blocks", kFastStraddle},
    {"simgpu.timing.memo_hit", kMemoHit},
    {"simgpu.timing.memo_miss", kMemoMiss},
};

void read_registry(double* out) {
  const auto& registry = extnc::metrics::Registry::instance();
  for (std::size_t i = 0; i < std::size(kRegistryCounters); ++i) {
    out[i] = registry.value(kRegistryCounters[i].name);
  }
}

pid_t fork_flushed() {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  return pid;
}

int wait_for(pid_t pid) {
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  return status;
}

void publish(const trace::Buffer& from, trace::Buffer& to) {
  std::copy(std::begin(from.stats), std::end(from.stats), std::begin(to.stats));
  std::copy(from.spans + to.spans_used, from.spans + from.spans_used,
            to.spans + to.spans_used);
  to.spans_used = from.spans_used;
}

[[noreturn]] void child_main(Workload& workload, const Config& config,
                             Shared* sh, std::uint64_t first,
                             std::size_t count, std::uint64_t deadline_ns,
                             bool traced) {
  // A chunk first runs its first op untimed: a fresh process pays page
  // faults and allocator growth on its first op, which would otherwise put
  // process start-up into the op latencies. The record is discarded.
  auto run_op = [&](std::uint64_t index, OpRecord& record) {
    if (static_cast<std::int64_t>(index) == config.crash_op) {
      std::raise(SIGSEGV);
    }
    workload.run_op(index, record);
  };
  if (count > 1) {
    OpRecord warm_up;
    try {
      run_op(first, warm_up);
    } catch (const std::exception&) {
      // The timed run of the same op records the failure.
    }
  }
  // Spans are recorded in a private buffer and published after each op, so
  // the shared buffer only ever holds ops that finished: a crashed op's
  // spans would count its layers' time without the op's own.
  std::unique_ptr<trace::Buffer> local;
  if (traced) {
    local = std::make_unique<trace::Buffer>();
    trace::bind(local.get());
  }
  double before[std::size(kRegistryCounters)];
  double after[std::size(kRegistryCounters)];
  for (std::size_t i = 0; i < count; ++i) {
    if (deadline_ns != 0 && trace::steady_ns() >= deadline_ns) break;
    OpRecord record;
    record.index = first + i;
    trace::set_op(record.index);
    read_registry(before);
    const std::uint64_t start = trace::steady_ns();
    try {
      trace::Span op(trace::kOp);
      run_op(record.index, record);
    } catch (const std::exception& error) {
      record.status = kFailed;
      std::snprintf(record.note, sizeof(record.note), "exception: %s",
                    error.what());
    }
    record.latency_ms = static_cast<double>(trace::steady_ns() - start) / 1e6;
    read_registry(after);
    for (std::size_t c = 0; c < std::size(kRegistryCounters); ++c) {
      record.c[kRegistryCounters[c].counter] += after[c] - before[c];
    }
    if (record.status == kNotRun) {
      record.status = kFailed;
      std::snprintf(record.note, sizeof(record.note), "op set no status");
    }
    // Publish the status last: an op whose record is incomplete when the
    // child dies reads as not run, i.e. as the crashed op.
    const std::uint32_t status = record.status;
    record.status = kNotRun;
    if (local) publish(*local, sh->trace);
    sh->ops[i] = record;
    std::atomic_signal_fence(std::memory_order_release);
    sh->ops[i].status = status;
  }
  std::fflush(stdout);
  _exit(0);
}

void merge_trace(Phase& phase, const trace::Buffer& buffer, pid_t pid) {
  for (int n = 0; n < trace::kNameCount; ++n) {
    phase.stats[n].calls += buffer.stats[n].calls;
    phase.stats[n].total_ns += buffer.stats[n].total_ns;
    phase.stats[n].self_ns += buffer.stats[n].self_ns;
  }
  if (phase.spans.size() + buffer.spans_used > kPhaseSpanCap) return;
  const auto base = static_cast<std::int32_t>(phase.spans.size());
  for (std::uint32_t i = 0; i < buffer.spans_used; ++i) {
    trace::SpanRecord record = buffer.spans[i];
    if (record.parent >= 0) record.parent += base;
    phase.spans.push_back(record);
    phase.span_pids.push_back(static_cast<int>(pid));
  }
}

}  // namespace

void Phase::add(OpRecord op, bool keyed) {
  ++attempted;
  for (int c = 0; c < kCounterCount; ++c) totals[c] += op.c[c];
  if (op.status == kOk && keyed) {
    const auto [first, inserted] = first_of_key.emplace(op.key, op);
    if (!inserted && first->second.fingerprint != op.fingerprint) {
      op.status = kFailed;
      std::snprintf(op.note, sizeof(op.note),
                    "repeat of input %llu did not reproduce its outputs",
                    static_cast<unsigned long long>(op.key));
      ++repeat_failures;
    } else if (!inserted &&
               first->second.model_fingerprint != op.model_fingerprint) {
      ++model_drift;
    }
  }
  if (op.status != kOk) {
    if (op.crashed) {
      ++crashed;
    } else {
      ++check_failures;
    }
    if (failures.size() < 8) {
      failures.push_back("failed op " + std::to_string(op.index) + ": " +
                         op.note);
    }
    return;
  }
  ++completed;
  for (int c = 0; c < kCounterCount; ++c) completed_totals[c] += op.c[c];
  latencies_ms.push_back(op.latency_ms);
  if (!keyed) modeled_ms.push_back(op.c[kModeledMs]);
}

Phase run_phase(Workload& workload, const Config& config, double seconds,
                std::uint64_t first_index, std::uint64_t max_ops,
                bool traced) {
  Shared* sh = shared();
  Phase phase;
  const std::uint64_t start_ns = trace::steady_ns();
  const std::uint64_t deadline_ns =
      max_ops != 0 ? 0
                   : start_ns + static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t end =
      max_ops != 0 ? first_index + max_ops : UINT64_MAX;
  std::uint64_t next = first_index;
  std::uint64_t last_end_ns = start_ns;
  while (next < end) {
    if (deadline_ns != 0 && trace::steady_ns() >= deadline_ns) break;
    const std::size_t count = static_cast<std::size_t>(std::min<std::uint64_t>(
        std::min(workload.chunk(), kMaxChunk), end - next));
    for (std::size_t i = 0; i < count; ++i) sh->ops[i] = OpRecord{};
    if (traced) {
      for (trace::Stat& stat : sh->trace.stats) stat = trace::Stat{};
      sh->trace.spans_used = 0;
    }
    const pid_t pid = fork_flushed();
    if (pid == 0) {
      child_main(workload, config, sh, next, count, deadline_ns, traced);
    }
    const int status = wait_for(pid);
    last_end_ns = trace::steady_ns();
    std::size_t done = 0;
    while (done < count && sh->ops[done].status != kNotRun) {
      phase.add(sh->ops[done], workload.keyed());
      ++done;
    }
    if (traced) merge_trace(phase, sh->trace, pid);
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!clean && done < count) {
      OpRecord crashed;
      crashed.index = next + done;
      crashed.status = kFailed;
      crashed.crashed = 1;
      if (WIFSIGNALED(status)) {
        std::snprintf(crashed.note, sizeof(crashed.note),
                      "child killed by signal %d (%s)", WTERMSIG(status),
                      strsignal(WTERMSIG(status)));
      } else {
        std::snprintf(crashed.note, sizeof(crashed.note),
                      "child exited with status %d", WEXITSTATUS(status));
      }
      phase.add(crashed, workload.keyed());
      next += done + 1;
    } else {
      next += done;
      if (done < count) break;  // the child stopped at the deadline
    }
  }
  phase.elapsed_s = static_cast<double>(last_end_ns - start_ns) / 1e9;
  return phase;
}

void run_in_child(const std::function<void()>& fn) {
  const pid_t pid = fork_flushed();
  if (pid == 0) {
    try {
      fn();
    } catch (const std::exception& error) {
      std::fprintf(stderr, "warm-up failed: %s\n", error.what());
      _exit(1);
    }
    _exit(0);
  }
  const int status = wait_for(pid);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "warm-up child did not finish cleanly (status %d)\n",
                 status);
  }
}

std::size_t probe_engine_pool() {
  Shared* sh = shared();
  sh->pool_threads = 0;
  const pid_t pid = fork_flushed();
  if (pid == 0) {
    sh->pool_threads = extnc::simgpu::engine_pool().num_threads();
    _exit(0);
  }
  wait_for(pid);
  return static_cast<std::size_t>(sh->pool_threads);
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

}  // namespace e2e
