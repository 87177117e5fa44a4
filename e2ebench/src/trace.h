// Span recorder for the traced runs.
//
// The benchmark times every call it makes into a layer from outside: a
// Span opened around the call records name, start, end, op id and the
// enclosing span. Per-name totals (calls, wall time, self time = duration
// minus the time covered by child spans) are accumulated online, so the
// per-layer table covers every op of the run; raw spans are kept only up to
// a fixed capacity, for the Chrome-trace file.
//
// Storage lives in memory the harness maps shared between the parent and
// its per-chunk child processes, so spans recorded by a child survive the
// child (and its crash). Only the thread that called bind() records; spans
// opened on other threads are ignored.
#pragma once
#include <chrono>
#include <cstdint>

namespace e2e::trace {

enum Name : std::uint16_t {
  kOp,  // one benchmark op; its self time is the unattributed share
  kWireSerialize,
  kWireParse,
  kWireRelease,  // freeing received frames once consumed
  kCodingEncode,
  kCodingDecode,     // VerifyingDecoder::add that does not complete
  kCodingVerify,     // the completing VerifyingDecoder::add
  kCodingRecode,
  kCodingRecoderAdd,
  kCodingRelease,  // freeing a coded block once sent
  kCodingDigest,
  kCodingSetup,  // per-op manifest parse, decoder/recoder build and teardown
  kNetTransmit,
  kNetSetup,  // FaultyChannel construction
  kServeConstruct,
  kServeRun,
  kGpuEncodeSegment,  // FleetScheduler::encode_segment, inside serve.run
  kGpuVerifyDecode,   // FleetScheduler::verify_decode, inside serve.run
  kGpuPreprocess,     // GpuEncoder construction (segment preprocessing)
  kGpuEncodeLoop,
  kGpuEncodeTb0,
  kGpuEncodeTb1,
  kGpuEncodeTb2,
  kGpuEncodeTb3,
  kGpuEncodeTb4,
  kGpuEncodeTb5,
  kGpuMultiseg,
  kNameCount,
};

// Dotted span name ("wire.serialize", "gpu.encode.tb5", ...).
const char* name_of(Name name);
// Layer a span belongs to: the text before the first dot ("bench" for kOp).
const char* layer_of(Name name);

struct Stat {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

struct SpanRecord {
  std::uint64_t start_ns = 0;  // steady clock
  std::uint64_t end_ns = 0;
  std::uint64_t op = 0;
  std::int32_t parent = -1;  // index within the same buffer, -1 for none
  std::uint16_t name = 0;
  std::uint16_t pad = 0;
};

inline constexpr std::uint32_t kSpanCapacity = 1 << 16;

// Recording target: one Stat per name plus a bounded span buffer.
struct Buffer {
  Stat stats[kNameCount];
  std::uint32_t spans_used = 0;
  SpanRecord spans[kSpanCapacity];
};

// Start recording into `buffer` on the calling thread (nullptr stops
// recording everywhere).
void bind(Buffer* buffer);
bool enabled();
// Op id stamped on spans opened from now on.
void set_op(std::uint64_t op);

// std::chrono::steady_clock in nanoseconds: op latencies, phase lengths.
std::uint64_t steady_ns();

// The span clock: nanoseconds on a monotonic clock shared by all processes
// of a run (forked children inherit its calibration). On
// x86-64 this reads the time-stamp counter, scaled by a rate measured once
// at start-up against std::chrono::steady_clock: spans are opened around
// sub-microsecond calls, and the counter costs half of a clock_gettime.
std::uint64_t now_ns();

class Span {
 public:
  explicit Span(Name name) {
    if (enabled()) open(name);
  }
  ~Span() {
    if (active_) close();
  }
  // Give the span its final name before it closes (for calls whose kind is
  // only known from their result, such as a completing decoder add).
  void rename(Name name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(Name name);
  void close();
  bool active_ = false;
};

}  // namespace e2e::trace
