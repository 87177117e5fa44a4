// Fleet coding service: a long-running session-serving loop over the
// discrete-event simulator.
//
// CodingService ties the pieces together: Poisson session arrivals (with
// a scripted offered-load timeline) flow through the bounded
// AdmissionQueue, the DegradationLadder maps queue pressure to a
// ServiceMode at every dispatch, and the FleetScheduler shards each
// admitted session onto a device where its segments are encoded under PR
// 3 supervision. On top of the per-device resilience the service adds the
// fleet-level behaviors:
//
//   deadline-aware dispatch — a session past its deadline is shed at the
//     next dispatch point instead of burning device time;
//   hedged re-dispatch — a dispatch whose modeled service time marks it a
//     straggler (> hedge_factor x nominal) is replicated on the
//     least-loaded other device; the earlier completion wins and the
//     bytes are identical by construction (per-job seeds);
//   epoch-guarded failover — a scripted device kill bumps the device's
//     epoch; in-flight completions from the old incarnation are detected
//     as stale and the segment re-dispatches (same seed, same bytes) on a
//     surviving device;
//   crash recovery — every externally-visible state change is appended to
//     a CRC-framed Journal; a process killed mid-run (scripted `crash@t`)
//     is rebuilt by recover(): terminal sessions keep their states,
//     in-flight sessions re-enter the queue, and the deterministic
//     arrival/jobs seeds make the recovered run's deliveries
//     byte-identical to an uncrashed one's;
//   ramped restore — a healed device re-warms through the FleetScheduler
//     ramp instead of instantly absorbing its full dispatch share;
//   tenant fairness — sessions carry {tenant, priority}; admission is
//     priority-ordered with weighted-fair per-tenant occupancy, and the
//     ladder degrades best-effort traffic before interactive.
//
// Every arrived session ends in exactly one terminal state; the report
// carries the full accounting plus streaming latency histograms split
// into healthy and faulted fleet phases.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/event_sim.h"
#include "serve/admission.h"
#include "serve/degradation.h"
#include "serve/fleet.h"
#include "serve/journal.h"
#include "serve/session.h"
#include "util/histogram.h"

namespace extnc::serve {

// One scripted change of the offered-load multiplier.
struct LoadPhase {
  double at = 0;
  double multiplier = 1.0;
};

// One scripted device kill or restore.
struct FleetEvent {
  double at = 0;
  std::size_t device = 0;
  bool kill = true;
};

// One scripted tenant burst: from `at` on, the named tenant's arrival
// weight is multiplied (its fair ADMISSION share is not — that is the
// point: the burst must not shed other tenants' traffic).
struct TenantBurst {
  double at = 0;
  std::string tenant;
  double multiplier = 1.0;
};

// The scripted scenario a service run plays: device kills/restores, an
// offered-load timeline, service-process crashes/recoveries and tenant
// bursts (the FaultPlan-style grammar for fleets).
struct FleetPlan {
  std::vector<FleetEvent> events;
  std::vector<LoadPhase> load;
  std::vector<double> crashes;   // service process dies at t
  std::vector<double> recovers;  // and is recovered from the journal at t
  std::vector<TenantBurst> bursts;

  bool any() const {
    return !events.empty() || !load.empty() || !crashes.empty() ||
           !recovers.empty() || !bursts.empty();
  }

  // Comma-separated tokens (timestamps must be non-decreasing across the
  // whole spec — a plan is a timeline, not a bag of events):
  //   kill@<t>:<device>          device dies at sim time t
  //   restore@<t>:<device>       device returns at sim time t
  //   load@<t>:<multiplier>      offered-load multiplier becomes m at t
  //   crash@<t>                  the service process dies at t
  //   recover@<t>                ...and is recovered from its journal at t
  //   tenantburst@<t>:<name>:<m> tenant's arrival weight multiplied by m
  // Example: "kill@20:1,load@30:2.0,restore@45:1".
  // Returns nullopt (no partial state) on any malformed token; when
  // `error` is non-null it receives a description of the first problem.
  static std::optional<FleetPlan> parse(std::string_view spec,
                                        std::string* error = nullptr);

  // Semantic validation against a fleet of `devices` devices: rejects
  // out-of-range device ids, duplicate events for the same device and
  // time, kills of dead devices / restores of alive ones, and
  // crash/recover sequences that do not alternate. Returns a description
  // of the first problem, or nullopt when the plan is sound.
  std::optional<std::string> validate(std::size_t devices) const;
};

// One tenant of the service: its share weight (drives BOTH the arrival
// mix and the admission queue's weighted-fair occupancy) and the priority
// class its sessions run at.
struct TenantSpec {
  std::string name = "default";
  double weight = 1.0;
  Priority priority = Priority::kStandard;
};

struct ServiceConfig {
  FleetConfig fleet;  // params, device specs, fault plan, supervisor
  std::size_t segments_per_session = 4;
  // Generation density: full service emits n + blocks_extra coded blocks
  // per segment; thinned service emits n + blocks_extra_thinned.
  std::size_t blocks_extra = 4;
  std::size_t blocks_extra_thinned = 1;

  // Fraction of the fleet's nominal capacity offered as load (before the
  // plan's load multipliers).
  double offered_load = 0.7;
  // Arrival window in sim seconds (service then drains the backlog).
  double duration_s = 30.0;
  // Session deadline = arrival + deadline_factor * nominal session time.
  double deadline_factor = 25.0;
  // Hedge a dispatch whose service time exceeds hedge_factor * nominal
  // segment time.
  double hedge_factor = 4.0;

  AdmissionConfig admission;
  LadderConfig ladder;
  FleetPlan plan;
  // Empty means one "default" tenant at standard priority.
  std::vector<TenantSpec> tenants;

  // Auto-scale the supervisor's time constants to the workload: watchdog
  // budget, initial backoff and breaker cool-down become these multiples
  // of the nominal segment time (a 1-second default watchdog is absurd
  // when a segment takes 200 microseconds). Set false to use
  // fleet.supervisor verbatim.
  bool auto_tune_supervisor = true;
  double watchdog_factor = 20.0;
  double backoff_factor_of_nominal = 1.0;
  double cooldown_factor = 200.0;

  std::uint64_t seed = 1;
  // Decode-verify every served segment against the reference content.
  bool verify_decode = true;
};

// Per-tenant slice of the accounting.
struct TenantReport {
  std::string name;
  std::uint64_t arrivals = 0;
  std::uint64_t completed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
};

struct ServiceReport {
  // Volume.
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  // Terminal states (completed + degraded + shed + failed == arrivals).
  std::uint64_t completed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  // Shed breakdown.
  std::uint64_t shed_rejected = 0;  // admission tail drop / over hard cap
  std::uint64_t shed_evicted = 0;   // oldest-waiter eviction
  std::uint64_t shed_deadline = 0;  // deadline passed before/mid service
  // Fleet-level resilience events.
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t stale_completions = 0;
  std::uint64_t redispatches = 0;
  // Work and verification.
  std::uint64_t segments_served = 0;
  // Must be 0: served segments (primaries and hedge replicas) whose rows
  // differ from the reference, plus replicas whose payload CRC differs
  // from their primary's.
  std::uint64_t bitexact_failures = 0;
  std::uint64_t decode_mismatches = 0;   // must be 0
  std::uint64_t rank_short_segments = 0;  // possible under thinned density
  // Degradation.
  std::uint64_t ladder_transitions = 0;
  std::array<std::uint64_t, kServiceModes> mode_dispatches = {};
  std::array<std::uint64_t, kPriorities> dispatches_by_class = {};
  // Crash recovery.
  bool crashed = false;     // this run ended at a scripted crash point
  bool recovered = false;   // this run started from a journal
  std::uint64_t recoveries = 0;  // recover() generations behind this report
  double crash_at_s = 0;
  double recovered_at_s = 0;
  std::size_t journal_records = 0;
  std::size_t journal_dropped_bytes = 0;  // torn tail discarded on recovery
  // Ramped restore: every stage change, in time order.
  std::vector<FleetScheduler::RampEvent> ramp_events;
  std::uint64_t ramp_collapses = 0;
  // Tenants (one entry per configured tenant, config order).
  std::vector<TenantReport> tenants;
  // CRC32C folded over every full-fidelity (kCompleted) session's
  // delivered payload CRCs in (session, segment) order — byte-identical
  // deliveries across a crash/recover boundary fold to the same digest.
  std::uint32_t delivered_digest = 0;
  // Latency (sim seconds). Segment latency = dispatch -> completion;
  // session latency = arrival -> finish (completed/degraded only).
  StreamingHistogram segment_latency_s;
  StreamingHistogram session_latency_s;
  StreamingHistogram segment_latency_healthy_s;
  StreamingHistogram segment_latency_faulted_s;
  // Context.
  double nominal_segment_s = 0;
  double nominal_session_s = 0;
  double offered_rate_hz = 0;
  double sim_end_s = 0;
  std::vector<DeviceHealth> devices;

  std::uint64_t terminal_total() const {
    return completed + degraded + shed + failed;
  }
  // The invariant the overload tests pin: every arrival accounted for in
  // exactly one terminal state. (A crashed partial report is exempt until
  // recovery completes the run.)
  bool accounting_exact() const { return terminal_total() == arrivals; }
};

class CodingService {
 public:
  explicit CodingService(ServiceConfig config,
                         simgpu::Profiler* profiler = nullptr);
  ~CodingService();

  CodingService(const CodingService&) = delete;
  CodingService& operator=(const CodingService&) = delete;

  const ServiceConfig& config() const { return config_; }
  FleetScheduler& fleet() { return *fleet_; }

  // Play the scenario (one call per service object). If the plan crashes
  // the process mid-run, the returned report is PARTIAL (crashed == true,
  // accounting not closed) and journal_bytes() holds everything a
  // recover() needs; otherwise the report is final and exact.
  ServiceReport run();

  // The serialized journal as of now — what a crashed process leaves on
  // disk. Stable across run()/crash; parseable by Journal::parse.
  const std::vector<std::uint8_t>& journal_bytes() const;
  // Fingerprint binding this config to its journals.
  std::uint64_t config_fingerprint() const { return fingerprint_; }

  // Sessions in id order (tests: cross-run delivery comparison).
  const std::vector<Session>& sessions() const { return sessions_; }

  // Rebuild a service from a crashed run's journal. The journal's intact
  // prefix is replayed (torn tail dropped): terminal sessions keep their
  // states, admitted in-flight sessions re-enter the queue in admission
  // order, the degradation ladder resumes at its journaled rung, plan
  // events with at <= the recovery time are applied to the fleet, and the
  // deterministic arrival sequence is fast-forwarded so post-recovery
  // arrivals are the exact ones the lost process would have seen.
  // `recover_at_s` defaults to the last journaled event time. Returns
  // nullptr when the journal is unusable (bad header or a fingerprint
  // from a different config).
  static std::unique_ptr<CodingService> recover(
      ServiceConfig config, std::span<const std::uint8_t> journal,
      std::optional<double> recover_at_s = std::nullopt,
      simgpu::Profiler* profiler = nullptr);

 private:
  void journal_append(const JournalRecord& record);
  void restore_from(const JournalImage& image,
                    std::optional<double> recover_at_s);
  void schedule_plan();
  void on_arrival(std::uint64_t index, double nominal_at);
  void schedule_next_arrival();
  void pump();
  void dispatch_segment(std::uint64_t id);
  void on_segment_done(std::uint64_t id, std::size_t segment,
                       std::size_t device, std::uint64_t epoch,
                       double dispatched_s, std::uint32_t payload_crc,
                       bool degraded_mode, bool rank_short_seg);
  void finish(Session& session, SessionState state,
              ShedReason reason = ShedReason::kNone);
  // finish() at an explicit time — recovery closes torn-tail sessions
  // before the simulator starts, when sim_.now() is not meaningful yet.
  void finish_at(Session& session, SessionState state, ShedReason reason,
                 double at);
  void apply_terminal_counters(const Session& session, SessionState state,
                               ShedReason reason, bool live);
  void finalize_report();
  double load_multiplier_at(double t) const;
  double tenant_weight_at(std::uint16_t tenant, double t) const;
  double arrival_rate_at(double t) const;
  std::uint16_t draw_tenant(std::uint64_t index, double nominal_at) const;
  double unit_draw(std::uint64_t index, std::uint64_t salt) const;
  std::uint64_t job_seed(std::uint64_t session, std::size_t segment) const;
  std::size_t blocks_for(ServiceMode mode) const;
  const TenantSpec& tenant_spec(std::uint16_t tenant) const {
    return tenants_[tenant];
  }

  // A tenant burst with its name resolved to a tenant index.
  struct ResolvedBurst {
    double at = 0;
    std::uint16_t tenant = 0;
    double multiplier = 1.0;
  };

  ServiceConfig config_;
  simgpu::Profiler* profiler_;
  net::EventSim sim_;
  std::unique_ptr<FleetScheduler> fleet_;
  std::vector<TenantSpec> tenants_;  // resolved (non-empty) tenant table
  std::vector<ResolvedBurst> bursts_;
  AdmissionQueue queue_;
  DegradationLadder ladder_;
  std::uint64_t fingerprint_ = 0;
  std::unique_ptr<Journal> journal_;
  std::vector<Session> sessions_;
  std::vector<std::size_t> device_load_;  // sessions assigned per device
  ServiceReport report_;
  double base_rate_hz_ = 0;
  double base_weight_sum_ = 0;
  double hedge_threshold_s_ = 0;
  // Deterministic arrival regeneration: arrivals are indexed draws on a
  // NOMINAL timeline (a pure function of seed and plan), so a recovered
  // process reproduces the exact arrival sequence of the lost one.
  std::uint64_t next_arrival_index_ = 0;
  double next_arrival_nominal_s_ = 0;
  int last_journaled_rung_ = 0;
  double start_time_ = 0;   // 0, or the recovery point
  bool recovered_ = false;
  bool crashed_ = false;
  bool ran_ = false;
};

// Run the scenario end to end, playing every scripted crash/recover pair
// in-process: run() until the crash, recover() from the journal bytes,
// continue — exactly what the process-level `--journal`/`--recover` CLI
// flow does across real processes. The returned report is the final
// generation's (its counters span the whole timeline via the journal);
// ramp events are concatenated across generations.
ServiceReport run_with_recovery(const ServiceConfig& config,
                                simgpu::Profiler* profiler = nullptr);

}  // namespace extnc::serve
