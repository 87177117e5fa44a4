// Fleet serving capacity: sessions served and p99 segment latency as a
// function of offered load, with the fleet healthy and with a scripted
// mid-run device kill (1 of N) plus doubled load — the BENCH_fleet.json
// robustness curves — plus one restore scenario (kill then heal the same
// device) recording the healed device's restore-ramp stage curve, which
// must climb monotonically to completion (the BENCH ramp row).
//
// Usage:
//   fleet [--devices N] [--quick] [--json] [--csv] [--min-sessions N]
//
// Each sweep point plays the same Poisson session workload through the
// CodingService (admission queue, degradation ladder, hedged dispatch,
// epoch-guarded failover) and records the terminal-state accounting and
// the healthy/faulted-phase latency quantiles. --min-sessions exits
// non-zero if the lightest healthy run completes fewer sessions (CI
// smoke floor). Any accounting mismatch or bit-exactness failure exits
// non-zero unconditionally: the bench doubles as a soak.
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/service.h"
#include "simgpu/exec_engine.h"
#include "util/table_printer.h"

namespace extnc::bench {
namespace {

enum class Scenario { kHealthy, kFaulted, kRestore };

const char* scenario_name(Scenario scenario) {
  switch (scenario) {
    case Scenario::kHealthy: return "healthy";
    case Scenario::kFaulted: return "faulted";
    case Scenario::kRestore: return "restore";
  }
  return "?";
}

struct SweepPoint {
  double load = 0;
  Scenario scenario = Scenario::kHealthy;
  serve::ServiceReport report;
};

serve::ServiceConfig make_config(std::size_t devices, double load,
                                 Scenario scenario, bool quick) {
  serve::ServiceConfig config;
  config.fleet.params = {.n = 16, .k = 256};
  for (std::size_t i = 0; i < devices; ++i) {
    config.fleet.devices.push_back(i % 2 == 0 ? simgpu::gtx280()
                                              : simgpu::geforce_8800gt());
  }
  config.offered_load = load;
  config.duration_s = quick ? 0.04 : 0.15;
  config.admission.capacity = 16;
  config.admission.policy = serve::ShedPolicy::kDegrade;
  config.seed = 42;
  if (scenario == Scenario::kFaulted) {
    const double mid = config.duration_s / 2;
    config.plan.events.push_back(
        serve::FleetEvent{.at = mid, .device = 1, .kill = true});
    config.plan.load.push_back(
        serve::LoadPhase{.at = mid, .multiplier = 2.0});
    // A light probabilistic fault background on the surviving devices.
    config.fleet.faults.p_bit_flip = 0.01;
    config.fleet.faults.p_hang = 0.002;
    config.fleet.faults.seed = 42;
  } else if (scenario == Scenario::kRestore) {
    // Kill device 1 early, heal it mid-run, and leave the fleet faultless
    // so the healed device's ramp climbs cleanly — the BENCH curve is the
    // re-warm schedule itself, not fault noise.
    config.plan.events.push_back(serve::FleetEvent{
        .at = config.duration_s / 4, .device = 1, .kill = true});
    config.plan.events.push_back(serve::FleetEvent{
        .at = config.duration_s / 2, .device = 1, .kill = false});
    config.fleet.restore_ramp.advance_after = quick ? 2 : 4;
  }
  return config;
}

// The healed device's stage curve must be a monotone climb ending at full
// share (no collapses: the restore scenario runs faultless).
bool ramp_curve_is_monotone(const serve::ServiceReport& report) {
  if (report.ramp_events.empty() || report.ramp_collapses != 0) return false;
  int last = -1;
  for (const auto& event : report.ramp_events) {
    if (event.stage <= last) return false;
    last = event.stage;
  }
  return last == serve::kRampStages;
}

// JSON fragment for a quantile: "null" when the histogram has no samples
// (a healthy run has an empty faulted-phase histogram, and printing 0.0
// there poisons downstream trend tooling with a fake zero-latency tail).
std::string quantile_json(const StreamingHistogram& histogram, double q) {
  const std::optional<double> value = histogram.quantile_if_any(q);
  if (!value.has_value()) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9f", *value);
  return buffer;
}

// Table cell for a quantile in milliseconds; "-" when empty.
std::string quantile_ms_cell(const StreamingHistogram& histogram, double q) {
  const std::optional<double> value = histogram.quantile_if_any(q);
  if (!value.has_value()) return "-";
  return std::to_string(*value * 1e3);
}

void print_json(const std::vector<SweepPoint>& points, std::size_t devices,
                bool quick) {
  auto u = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
  std::printf("{\n");
  std::printf("  \"bench\": \"fleet\",\n");
  std::printf("  \"devices\": %zu,\n", devices);
  std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
  // Both the detected cores and the pool size actually used: the engine
  // pool honors EXTNC_SIMGPU_THREADS, so the two can differ and BENCH
  // baselines need to be honest about which environment produced them.
  std::printf("  \"host_cores\": %u,\n", std::thread::hardware_concurrency());
  std::printf("  \"pool_threads\": %zu,\n",
              simgpu::engine_pool().num_threads());
  std::printf("  \"runs\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& point = points[i];
    const serve::ServiceReport& r = point.report;
    std::printf("    {\"offered_load\": %.2f, \"scenario\": \"%s\", "
                "\"arrivals\": %llu, \"sessions_served\": %llu, "
                "\"completed\": %llu, \"degraded\": %llu, \"shed\": %llu, "
                "\"failed\": %llu, \"hedges\": %llu, "
                "\"stale_completions\": %llu, "
                "\"p99_segment_s\": %s, \"p99_segment_healthy_s\": %s, "
                "\"p99_segment_faulted_s\": %s, "
                "\"p50_segment_s\": %s",
                point.load, scenario_name(point.scenario), u(r.arrivals),
                u(r.completed + r.degraded), u(r.completed), u(r.degraded),
                u(r.shed), u(r.failed), u(r.hedges), u(r.stale_completions),
                quantile_json(r.segment_latency_s, 0.99).c_str(),
                quantile_json(r.segment_latency_healthy_s, 0.99).c_str(),
                quantile_json(r.segment_latency_faulted_s, 0.99).c_str(),
                quantile_json(r.segment_latency_s, 0.5).c_str());
    if (point.scenario == Scenario::kRestore) {
      std::printf(", \"ramp_collapses\": %llu, \"ramp_curve\": [",
                  u(r.ramp_collapses));
      for (std::size_t j = 0; j < r.ramp_events.size(); ++j) {
        const auto& e = r.ramp_events[j];
        std::printf("{\"at_s\": %.6f, \"stage\": %d}%s", e.at, e.stage,
                    j + 1 < r.ramp_events.size() ? ", " : "");
      }
      std::printf("]");
    }
    std::printf("}%s\n", i + 1 < points.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

int run(int argc, char** argv) {
  check_flags(argc, argv, {"--devices", "--min-sessions"},
              {"--quick", "--json", "--csv"});
  const bool quick = has_flag(argc, argv, "--quick");
  const bool json = has_flag(argc, argv, "--json");
  const bool csv = has_flag(argc, argv, "--csv");
  const std::string devices_arg = flag_value(argc, argv, "--devices");
  const std::size_t devices =
      devices_arg.empty() ? 3 : static_cast<std::size_t>(
                                    std::atoll(devices_arg.c_str()));
  if (devices < 2) die("--devices must be >= 2 (the faulted sweep kills 1)");
  const std::string min_arg = flag_value(argc, argv, "--min-sessions");
  const std::uint64_t min_sessions =
      min_arg.empty() ? 0 : static_cast<std::uint64_t>(
                                std::atoll(min_arg.c_str()));

  const std::vector<double> loads =
      quick ? std::vector<double>{0.5, 1.0, 1.5}
            : std::vector<double>{0.3, 0.6, 0.9, 1.2, 1.5};

  std::vector<SweepPoint> runs;
  for (const Scenario scenario : {Scenario::kHealthy, Scenario::kFaulted}) {
    for (const double load : loads) {
      SweepPoint point;
      point.load = load;
      point.scenario = scenario;
      runs.push_back(std::move(point));
    }
  }
  // One restore row: the re-warm schedule at a representative load.
  SweepPoint restore;
  restore.load = 0.9;
  restore.scenario = Scenario::kRestore;
  runs.push_back(std::move(restore));

  std::vector<SweepPoint> points;
  for (SweepPoint& point : runs) {
    serve::CodingService service(
        make_config(devices, point.load, point.scenario, quick));
    point.report = service.run();
    if (!point.report.accounting_exact() ||
        point.report.bitexact_failures != 0 ||
        point.report.decode_mismatches != 0) {
      std::fprintf(stderr,
                   "error: load %.2f %s: accounting or bit-exactness "
                   "violated\n",
                   point.load, scenario_name(point.scenario));
      return 1;
    }
    if (point.scenario == Scenario::kRestore &&
        !ramp_curve_is_monotone(point.report)) {
      std::fprintf(stderr,
                   "error: restore scenario ramp curve is not a monotone "
                   "climb to full share\n");
      return 1;
    }
    points.push_back(std::move(point));
  }

  if (json) {
    print_json(points, devices, quick);
  } else {
    TablePrinter table({"load", "scenario", "arrivals", "served", "shed",
                        "failed", "p99 seg ms", "p99 faulted ms",
                        "ramp stages"});
    for (const SweepPoint& point : points) {
      const serve::ServiceReport& r = point.report;
      table.add_row({std::to_string(point.load),
                     scenario_name(point.scenario),
                     std::to_string(r.arrivals),
                     std::to_string(r.completed + r.degraded),
                     std::to_string(r.shed), std::to_string(r.failed),
                     quantile_ms_cell(r.segment_latency_s, 0.99),
                     quantile_ms_cell(r.segment_latency_faulted_s, 0.99),
                     point.scenario == Scenario::kRestore
                         ? std::to_string(r.ramp_events.size())
                         : "-"});
    }
    print_table(table, csv);
  }

  if (min_sessions > 0) {
    const serve::ServiceReport& lightest = points.front().report;
    const std::uint64_t served = lightest.completed + lightest.degraded;
    if (served < min_sessions) {
      std::fprintf(stderr,
                   "error: lightest healthy load served %llu sessions, "
                   "floor is %llu\n",
                   static_cast<unsigned long long>(served),
                   static_cast<unsigned long long>(min_sessions));
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace extnc::bench

int main(int argc, char** argv) { return extnc::bench::run(argc, argv); }
