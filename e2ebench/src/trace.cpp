#include "trace.h"

#include <chrono>
#include <cstring>
#include <thread>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace e2e::trace {
namespace {

struct Frame {
  std::uint16_t name = 0;
  std::int32_t index = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t child_ns = 0;
};

constexpr int kMaxDepth = 32;

Buffer* g_buffer = nullptr;
std::uint64_t g_op = 0;
thread_local bool t_bound = false;
thread_local Frame t_stack[kMaxDepth];
thread_local int t_depth = 0;

constexpr const char* kNames[kNameCount] = {
    "bench.op",           "wire.serialize",    "wire.parse",
    "wire.release",       "coding.encode",     "coding.decode",
    "coding.verify",      "coding.recode",     "coding.recoder_add",
    "coding.release",     "coding.digest",     "coding.setup",
    "net.transmit",       "net.setup",         "serve.construct",
    "serve.run",          "gpu.encode_segment", "gpu.verify_decode",
    "gpu.preprocess",     "gpu.encode.loop",   "gpu.encode.tb0",
    "gpu.encode.tb1",     "gpu.encode.tb2",    "gpu.encode.tb3",
    "gpu.encode.tb4",     "gpu.encode.tb5",    "gpu.multiseg",
};

constexpr const char* kLayers[] = {"bench", "wire", "coding", "net", "serve",
                                   "gpu"};

#if defined(__x86_64__)
struct TscClock {
  double ns_per_tick = 0;
  std::uint64_t tsc0 = 0;
  std::uint64_t ns0 = 0;

  TscClock() {
    tsc0 = __rdtsc();
    ns0 = steady_ns();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t tsc1 = __rdtsc();
    const std::uint64_t ns1 = steady_ns();
    ns_per_tick = static_cast<double>(ns1 - ns0) /
                  static_cast<double>(tsc1 - tsc0);
  }
};

const TscClock& tsc_clock() {
  static const TscClock clock;
  return clock;
}
#endif

}  // namespace

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t now_ns() {
#if defined(__x86_64__)
  const TscClock& clock = tsc_clock();
  return clock.ns0 + static_cast<std::uint64_t>(
                         static_cast<double>(__rdtsc() - clock.tsc0) *
                         clock.ns_per_tick);
#else
  return steady_ns();
#endif
}

const char* name_of(Name name) { return kNames[name]; }

const char* layer_of(Name name) {
  const char* full = kNames[name];
  for (const char* layer : kLayers) {
    const std::size_t len = std::strlen(layer);
    if (std::strncmp(full, layer, len) == 0 && full[len] == '.') return layer;
  }
  return "bench";
}

void bind(Buffer* buffer) {
  g_buffer = buffer;
  t_bound = buffer != nullptr;
  t_depth = 0;
}

bool enabled() { return g_buffer != nullptr && t_bound; }

void set_op(std::uint64_t op) { g_op = op; }

void Span::open(Name name) {
  if (t_depth >= kMaxDepth) return;
  Frame& frame = t_stack[t_depth++];
  frame.name = name;
  frame.child_ns = 0;
  frame.index = g_buffer->spans_used < kSpanCapacity
                    ? static_cast<std::int32_t>(g_buffer->spans_used++)
                    : -1;
  active_ = true;
  frame.start_ns = now_ns();
}

void Span::rename(Name name) {
  if (active_) t_stack[t_depth - 1].name = name;
}

void Span::close() {
  const std::uint64_t end = now_ns();
  const Frame& frame = t_stack[--t_depth];
  const std::uint64_t duration = end - frame.start_ns;
  Stat& stat = g_buffer->stats[frame.name];
  ++stat.calls;
  stat.total_ns += duration;
  stat.self_ns += duration - (frame.child_ns < duration ? frame.child_ns
                                                        : duration);
  std::int32_t parent = -1;
  if (t_depth > 0) {
    t_stack[t_depth - 1].child_ns += duration;
    parent = t_stack[t_depth - 1].index;
  }
  if (frame.index >= 0) {
    SpanRecord& record = g_buffer->spans[frame.index];
    record.start_ns = frame.start_ns;
    record.end_ns = end;
    record.op = g_op;
    record.parent = parent;
    record.name = frame.name;
  }
}

}  // namespace e2e::trace
