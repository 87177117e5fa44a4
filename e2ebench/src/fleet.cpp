// fleet: serve::CodingService on three simulated devices (GTX 280 and
// 8800 GT alternating) with its journal, below the healthy knee of
// offered load. Every scenario kills one device a quarter of the way in
// and restores it at the half. One op is one scenario: service
// construction plus run(). Ops cycle through a fixed set of scenario
// seeds, so a repeated scenario must reproduce its delivered digest and
// session accounting exactly.
//
// The devices encode with the loop-based kernel, a service setting
// (FleetConfig::scheme). At the default table scheme (TB-5) the fast path
// builds its profiles lazily inside parallel launches, a data race that
// crashes scenarios; the figures workload runs every table scheme.
#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "gpu/encode_scheme.h"
#include "pipeline.h"
#include "serve/service.h"
#include "simgpu/device_spec.h"

namespace e2e {
namespace {

using namespace extnc;

constexpr double kOfferedLoad = 0.5;
// Distinct scenarios a run cycles through.
constexpr std::size_t kScenarios = 64;

std::uint64_t fold(std::uint64_t hash, std::uint64_t value) {
  hash ^= value + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
  return hash;
}

class Fleet final : public Workload {
 public:
  const char* name() const override { return "fleet"; }
  std::size_t chunk() const override { return 1; }
  bool keyed() const override { return true; }

  void setup(const Config& config) override {
    configs_.clear();
    const std::size_t scenarios = config.small ? 2 : kScenarios;
    const double duration = config.small ? 0.01 : 0.05;
    for (std::size_t key = 0; key < scenarios; ++key) {
      configs_.push_back(scenario(config.seed, key, duration));
    }
    // Warm-up: one untimed scenario, isolated like the timed ones. It is the
    // same scenario for every seed, so set-up time does not vary with it.
    const serve::ServiceConfig warm_up = scenario(0, 0, duration);
    run_in_child([&] {
      OpRecord record;
      run_scenario(warm_up, record);
    });
  }

  void run_op(std::uint64_t index, OpRecord& record) override {
    record.key = index % configs_.size();
    run_scenario(configs_[record.key], record);
  }

 private:
  // Scenario `key` of a run seeded `seed`: its arrivals and content, and
  // which device it kills and restores.
  static serve::ServiceConfig scenario(std::uint64_t seed, std::size_t key,
                                       double duration) {
    serve::ServiceConfig service;
    for (std::size_t d = 0; d < 3; ++d) {
      service.fleet.devices.push_back(d % 2 == 0 ? simgpu::gtx280()
                                                 : simgpu::geforce_8800gt());
    }
    service.fleet.scheme = gpu::EncodeScheme::kLoopBased;
    service.offered_load = kOfferedLoad;
    service.duration_s = duration;
    service.seed = op_seed(seed, key);
    service.fleet.content_seed = op_seed(service.seed, 1);
    const std::size_t victim = key % 3;
    service.plan.events.push_back(
        serve::FleetEvent{.at = duration / 4, .device = victim});
    service.plan.events.push_back(
        serve::FleetEvent{.at = duration / 2, .device = victim, .kill = false});
    return service;
  }

  void run_scenario(const serve::ServiceConfig& config, OpRecord& record) {
    std::unique_ptr<serve::CodingService> service = [&] {
      trace::Span span(trace::kServeConstruct);
      return std::make_unique<serve::CodingService>(config);
    }();
    const serve::ServiceReport report = [&] {
      trace::Span span(trace::kServeRun);
      return service->run();
    }();

    std::vector<double> session_ms;
    for (const serve::Session& session : service->sessions()) {
      if (session.state == serve::SessionState::kCompleted ||
          session.state == serve::SessionState::kDegraded) {
        session_ms.push_back((session.finished_s - session.arrival_s) * 1e3);
      }
    }
    record.c[kModeledMs] = quantile(session_ms, 0.99);
    record.c[kServeSegmentP99Ms] =
        report.segment_latency_s.count() > 0
            ? report.segment_latency_s.quantile(0.99) * 1e3
            : 0;
    record.c[kServeCompleted] = static_cast<double>(report.completed);
    record.c[kServeDegraded] = static_cast<double>(report.degraded);
    record.c[kServeShed] = static_cast<double>(report.shed);
    record.c[kServeFailed] = static_cast<double>(report.failed);
    record.c[kServeHedges] = static_cast<double>(report.hedges);
    record.c[kServeRedispatches] = static_cast<double>(report.redispatches);
    record.c[kServeStale] = static_cast<double>(report.stale_completions);
    record.c[kServeLadder] = static_cast<double>(report.ladder_transitions);
    record.c[kServeJournal] = static_cast<double>(report.journal_records);
    for (const serve::DeviceHealth& device : report.devices) {
      record.c[kRetries] += static_cast<double>(device.totals.retries);
      record.c[kCpuFallbacks] += static_cast<double>(device.totals.fallbacks);
    }
    const coding::Params& params = config.fleet.params;
    record.c[kGoodBytes] = static_cast<double>(report.completed) *
                           static_cast<double>(config.segments_per_session) *
                           static_cast<double>(params.segment_bytes());
    record.c[kShare] =
        report.arrivals == 0 ? 0
                             : static_cast<double>(report.completed) /
                                   static_cast<double>(report.arrivals);

    std::uint64_t fingerprint = report.delivered_digest;
    for (std::uint64_t value :
         {report.arrivals, report.completed, report.degraded, report.shed,
          report.failed, report.hedges, report.redispatches}) {
      fingerprint = fold(fingerprint, value);
    }
    record.fingerprint = fingerprint;
    std::memcpy(&record.model_fingerprint, &record.c[kModeledMs],
                sizeof(record.model_fingerprint));

    const char* problem = nullptr;
    if (report.crashed || !report.accounting_exact()) {
      problem = "session accounting not exact";
    } else if (report.bitexact_failures != 0) {
      problem = "GPU output differs from the reference encoder";
    } else if (report.decode_mismatches != 0) {
      problem = "decoded segment differs from the source";
    } else if (report.arrivals == 0) {
      problem = "no sessions arrived";
    }
    if (problem != nullptr) {
      record.status = kFailed;
      std::snprintf(record.note, sizeof(record.note), "%s", problem);
      return;
    }
    record.status = kOk;
  }

  std::vector<serve::ServiceConfig> configs_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet() { return std::make_unique<Fleet>(); }

}  // namespace e2e
