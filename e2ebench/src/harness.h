// Closed-loop harness: one driving thread, ops run in child processes.
//
// The parent sets a workload up (several times; the median is set-up time),
// then forks one child per chunk of ops and waits for it before forking the
// next, so exactly one op is in flight at a time. A child writes one
// OpRecord per finished op into memory shared with the parent; a child that
// dies mid-chunk loses only the op it was running, which the parent counts
// as attempted and failed before continuing with the next op in a fresh
// child. A child of several ops runs its first op once untimed before
// timing any. The parent itself never runs library code that starts
// threads, so forking it is safe.
#pragma once
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace e2e {

// Per-op quantities a workload reports; the parent sums them over ops.
enum Counter : int {
  kGoodBytes,      // verified useful bytes delivered by the op
  kShare,          // completed fraction of the op's sessions (1 by default)
  kModeledMs,      // modeled session time of the op
  kFrames,         // frames offered to channels
  kWireBytes,      // bytes serialized plus bytes parsed
  kRejected,       // frames parse_view refused
  kLost,
  kCorrupted,
  kTruncated,
  kDuplicated,
  kReordered,
  kDecoderAdds,    // blocks handed to a VerifyingDecoder
  kInnovative,     // ...of which raised its rank
  kQuarantined,
  kServeCompleted,
  kServeDegraded,
  kServeShed,
  kServeFailed,
  kServeHedges,
  kServeRedispatches,
  kServeStale,
  kServeLadder,
  kServeJournal,
  kServeSegmentP99Ms,
  kRetries,
  kCpuFallbacks,
  kLaunchParallel,
  kLaunchSerial,
  kFastLowered,
  kFastStraddle,
  kMemoHit,
  kMemoMiss,
  kModeledMbLoop,  // ...through kModeledMbTb5, in scheme order
  kModeledMbTb0,
  kModeledMbTb1,
  kModeledMbTb2,
  kModeledMbTb3,
  kModeledMbTb4,
  kModeledMbTb5,
  kModeledMbMultiseg,
  kCounterCount,
};

enum OpStatus : std::uint32_t { kNotRun = 0, kOk = 1, kFailed = 2 };

struct OpRecord {
  std::uint32_t status = kNotRun;
  std::uint32_t crashed = 0;
  std::uint64_t index = 0;
  // Ops with equal key run identical inputs; their fingerprints must match
  // (a mismatch fails the op). Model fingerprints cover modeled figures the
  // workload does not check; mismatches there are only counted.
  std::uint64_t key = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t model_fingerprint = 0;
  double latency_ms = 0;
  double c[kCounterCount] = {};
  char note[96] = {};
};

struct Config {
  std::uint64_t seed = 1;
  bool small = false;           // test-size inputs, fixed op count
  std::int64_t crash_op = -1;   // test only: this op index crashes its child
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  // Ops per child process.
  virtual std::size_t chunk() const = 0;
  // Parent side; must not start threads. Called several times.
  virtual void setup(const Config& config) = 0;
  // Child side: run op `index`, check its output, fill `record` (status
  // kOk or kFailed with a note). Exceptions count as failed checks.
  virtual void run_op(std::uint64_t index, OpRecord& record) = 0;
  // Keyed workloads cycle through a fixed set of inputs (OpRecord::key):
  // repeats must agree, and modeled figures are taken once per key.
  virtual bool keyed() const { return false; }
  // Bytes SegmentDigest::compute hashed in the last setup().
  virtual double digested_bytes() const { return 0; }
};

std::unique_ptr<Workload> make_stream();
std::unique_ptr<Workload> make_relay();
std::unique_ptr<Workload> make_fleet();
std::unique_ptr<Workload> make_figures();

// Result of one closed-loop phase, aggregated as ops finish: the parent
// keeps a latency per op and nothing else per op, so its memory does not
// grow with the op count.
struct Phase {
  double elapsed_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;         // ran and passed their checks
  std::uint64_t crashed = 0;
  std::uint64_t check_failures = 0;    // ran to the end, failed a check
  std::uint64_t repeat_failures = 0;   // ...of which: a keyed repeat differed
  std::uint64_t model_drift = 0;       // keyed repeats whose model differed
  double totals[kCounterCount] = {};            // over every op that ran
  double completed_totals[kCounterCount] = {};  // over completed ops
  std::vector<double> latencies_ms;  // completed ops, in op order
  std::vector<double> modeled_ms;    // completed ops of unkeyed workloads
  std::map<std::uint64_t, OpRecord> first_of_key;  // first completed op
  std::vector<std::string> failures;  // notes of the first failed ops
  trace::Stat stats[trace::kNameCount] = {};
  std::vector<trace::SpanRecord> spans;  // parents re-indexed into `spans`
  std::vector<int> span_pids;

  // Accounts one finished op. A completed op of a keyed workload whose
  // fingerprint differs from the first completed op of its key is failed.
  void add(OpRecord op, bool keyed);
};

// Runs ops starting at `first_index` until `seconds` elapse (or exactly
// `max_ops` ops when nonzero), recording spans when `traced`.
Phase run_phase(Workload& workload, const Config& config, double seconds,
                std::uint64_t first_index, std::uint64_t max_ops, bool traced);

// Runs `fn` in a child process and waits for it (set-up warm-ups). A
// warm-up that fails is reported on stderr; the timed ops check again.
void run_in_child(const std::function<void()>& fn);

// Engine pool size as the library resolves it, probed in a child process.
std::size_t probe_engine_pool();

// Peak resident set of this process and of its largest waited-for child.
double peak_rss_mb();

// Linear-interpolated quantile (q in [0,1]) of unsorted values; 0 if empty.
double quantile(std::vector<double> values, double q);

}  // namespace e2e
