// Fleet scheduler: N simulated devices serving coded segments.
//
// Each device slot owns the full PR 3 supervision stack — a FaultInjector
// scripted from the fleet's fault plan (per-device seed), a
// ResilientLauncher (watchdog, bounded retry, circuit breaker with
// half-open probing on the service clock, bit-exact CPU fallback), and a
// supervised encoder bound to the fleet's reference content. Sessions are
// SHARDED: a session is pinned to one device and its segments run there
// serially (busy_until models the device queue); the service re-shards
// only when the device dies.
//
// Work is deterministic per (job seed): coefficients are drawn from an Rng
// seeded by the caller, so a hedge replica or a post-kill re-dispatch on a
// DIFFERENT device produces byte-identical output — that is what makes
// hedging and failover safe to deduplicate.
//
// Time is modeled, not measured: encode work executes eagerly (the
// simulator is functional), and the returned service_s charges the
// device's modeled bandwidth for each attempt, the watchdog budget for
// each hang, the supervisor's backoff, and the CPU codec's modeled
// bandwidth (cpu::XeonModel) when the op degraded — so retries and
// fallbacks are visible as latency, exactly like on real hardware.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "coding/batch.h"
#include "coding/encoder.h"
#include "coding/segment.h"
#include "gpu/encode_scheme.h"
#include "gpu/resilient_launcher.h"
#include "serve/session.h"
#include "simgpu/device_spec.h"
#include "simgpu/fault_injector.h"
#include "util/thread_pool.h"

namespace extnc::serve {

// Ramped restore: a healed device (scripted restore, or a breaker reclosed
// by a successful half-open probe) does not snap back to its full dispatch
// share — it re-warms through stages, taking share[stage] of the dispatch
// opportunities it is offered, advancing a stage after `advance_after`
// consecutive verified GPU segments and collapsing back to the first stage
// on any failure (CPU fallback or device loss). The retry-storm guard:
// a device that heals flaky never soaks up the whole queue.
struct RestoreRampConfig {
  bool enabled = true;
  // Dispatch share per stage; the last stage should be 1.0 (full share).
  // After the last stage the ramp completes and stops gating.
  std::array<double, 4> shares = {0.125, 0.25, 0.5, 1.0};
  // Consecutive clean GPU segments to advance one stage.
  int advance_after = 4;
};

inline constexpr int kRampStages = 4;

struct FleetConfig {
  coding::Params params{.n = 16, .k = 256};
  std::vector<simgpu::DeviceSpec> devices;  // one slot per entry
  // Fault plan applied to every device (each with its own injector and a
  // per-device seed, so probabilistic faults differ across the fleet).
  simgpu::FaultPlan faults;
  gpu::SupervisorConfig supervisor;
  gpu::EncodeScheme scheme = gpu::EncodeScheme::kTable5;
  std::size_t threads = 2;
  // Modeled per-dispatch overhead (driver + PCIe round trip). Applied
  // uniformly across service modes: kBatched no longer gets a modeled
  // discount — simulator launches are genuinely fast now, so the ladder
  // level stands on real behavior instead of a fictional multiplier.
  double dispatch_overhead_s = 2e-4;
  std::uint64_t content_seed = 0x5e55e;
  RestoreRampConfig restore_ramp;
};

// What serving one segment cost and produced.
struct SegmentResult {
  gpu::OperationReport report;  // zeroed attempts for the forced-CPU mode
  double service_s = 0;         // modeled seconds of device/codec time
  bool gpu_path = false;
  // Every payload matches the reference encoder. Each served row is
  // checked once: GPU rows by the supervisor (verify_sample is max), a
  // supervised CPU fallback's rows by encode_segment's audit; forced-CPU
  // rows are the reference's own output.
  bool bit_exact = true;
  // CRC32C over the batch's payloads in block order — a pure function of
  // (job seed, blocks), so replicas and post-crash re-dispatches agree.
  // The journal persists it per delivered segment.
  std::uint32_t payload_crc = 0;
};

enum class DecodeCheck { kBitExact, kRankShort, kMismatch };

struct DeviceHealth {
  std::size_t index = 0;
  bool alive = true;
  bool breaker_open = false;
  std::uint64_t epoch = 0;
  // Restore-ramp stage: kRampStages means not ramping (full share).
  int ramp_stage = kRampStages;
  double busy_until_s = 0;
  std::uint64_t segments = 0;
  std::uint64_t gpu_segments = 0;
  std::uint64_t cpu_segments = 0;  // fallback + forced CPU codec
  gpu::SupervisorTotals totals;
  simgpu::FaultCounters faults;
};

class FleetScheduler {
 public:
  // `clock` is the service's simulated wall clock; it drives the circuit
  // breakers' half-open cool-downs.
  FleetScheduler(FleetConfig config, std::function<double()> clock);
  ~FleetScheduler();

  FleetScheduler(const FleetScheduler&) = delete;
  FleetScheduler& operator=(const FleetScheduler&) = delete;

  const FleetConfig& config() const { return config_; }
  std::size_t size() const { return slots_.size(); }

  // --- dispatch ----------------------------------------------------------
  // Encode `blocks` coded blocks of the reference segment on device
  // `device`, coefficients drawn deterministically from `seed`. The batch
  // (for decode verification / delivery) is written to *out when non-null.
  SegmentResult encode_segment(std::size_t device, std::uint64_t seed,
                               std::size_t blocks, ServiceMode mode,
                               coding::CodedBatch* out = nullptr);

  // Full decode verification of a served batch against the reference
  // content (collect blocks, invert, compare bytes).
  DecodeCheck verify_decode(const coding::CodedBatch& batch) const;

  // --- health ------------------------------------------------------------
  // Scripted device death: trips the breaker, bumps the epoch (results
  // produced by the previous incarnation are stale) and stops dispatch.
  void kill(std::size_t device);
  // Device returns to service (breaker reset, injector restored). Enters
  // the restore ramp when ramping is enabled.
  void restore(std::size_t device);

  // --- ramped restore ----------------------------------------------------
  // One ramp-stage change observed on a device (begin, advance, collapse,
  // completion). `stage == kRampStages` marks ramp completion.
  struct RampEvent {
    double at = 0;
    std::size_t device = 0;
    int stage = 0;
  };

  // Put a device at the bottom of the restore ramp (restore() and a
  // breaker reclosed by a successful half-open probe both call this).
  void begin_ramp(std::size_t device);
  // Ask the ramp whether this device may take one dispatch opportunity.
  // Always true for a device not ramping; a ramping device is granted
  // share[stage] of the opportunities it is offered. Deterministic.
  bool ramp_offer(std::size_t device);
  // Current stage; kRampStages when not ramping (full share).
  int ramp_stage(std::size_t device) const;
  std::uint64_t ramp_collapses() const { return ramp_collapses_; }
  const std::vector<RampEvent>& ramp_events() const { return ramp_events_; }

  bool alive(std::size_t device) const;
  std::size_t alive_count() const;
  // True when every device is alive with a closed breaker (the healthy /
  // faulted phase split in reports).
  bool all_healthy() const;
  std::uint64_t epoch(std::size_t device) const;

  // Least-loaded (earliest busy_until) alive device, optionally excluding
  // one; nullopt when no device qualifies.
  std::optional<std::size_t> pick_device(
      std::optional<std::size_t> exclude = std::nullopt) const;

  double busy_until(std::size_t device) const;
  void set_busy_until(std::size_t device, double until_s);

  DeviceHealth health(std::size_t device) const;
  std::vector<DeviceHealth> fleet_health() const;

  // --- modeled timings ---------------------------------------------------
  // One clean GPU attempt / CPU codec pass for `blocks` coded blocks.
  // Mode-independent: batched dispatch used to carry a modeled overhead
  // discount, but the simulator's fast path made launches genuinely cheap,
  // so every mode is charged the same honest dispatch overhead.
  double gpu_segment_s(std::size_t device, std::size_t blocks) const;
  double cpu_segment_s(std::size_t blocks) const;
  // Clean full-density GPU segment time averaged across the fleet — the
  // service's nominal unit for deadlines, hedging and offered load.
  double nominal_segment_s(std::size_t blocks) const;

  gpu::ResilientLauncher& supervisor(std::size_t device);
  simgpu::FaultInjector& injector(std::size_t device);
  const coding::Segment& content() const { return content_; }

  // Record fault events of every device's supervisor on this profiler
  // (each under its own device spec).
  void set_trace(simgpu::Profiler* profiler);

 private:
  struct Slot;

  void note_ramp_outcome(std::size_t device, bool clean_gpu);
  void record_ramp_stage(std::size_t device, int stage);

  FleetConfig config_;
  std::function<double()> clock_;
  coding::Segment content_;
  coding::Encoder reference_;
  ThreadPool pool_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<RampEvent> ramp_events_;
  std::uint64_t ramp_collapses_ = 0;
  double cpu_mb_per_s_ = 0;
};

}  // namespace extnc::serve
