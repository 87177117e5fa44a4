// e2ebench: end-to-end benchmark of the extnc library on four closed-loop
// workloads (stream, relay, fleet, figures).
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--small] [--ops <n>] [--crash-op <i>] [--out <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced for half the time each and prints the per-layer
// metrics, writing the spans as a Chrome trace into --out. --small shrinks
// every input for tests, --ops runs exactly that many ops per phase instead
// of running for --seconds, and --crash-op makes op <i> crash its child
// (tests of the crash isolation). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gf256/region.h"
#include "harness.h"
#include "trace.h"

namespace e2e {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::uint64_t ops = 0;
  Config config;
  std::string out = ".bench_build/e2ebench-traces";
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "stream|relay|fleet|figures --seed N --seconds S --trace 0|1 "
               "[--small] [--ops N] [--crash-op I] [--out DIR]\n",
               problem.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  std::uint64_t value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) {
    usage(flag + " expects a whole number, got '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      args.config.small = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(flag, value));
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::uint64_t trace = parse_u64(flag, value);
      if (trace > 1) usage("--trace expects 0 or 1");
      args.traced = trace == 1;
    } else if (flag == "--ops") {
      args.ops = parse_u64(flag, value);
    } else if (flag == "--crash-op") {
      args.config.crash_op = static_cast<std::int64_t>(parse_u64(flag, value));
    } else if (flag == "--out") {
      args.out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!have_seconds && args.ops == 0) usage("--seconds or --ops is required");
  if (have_seconds && args.seconds <= 0) usage("--seconds must be positive");
  args.config.seed = args.seed;
  return args;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "stream") return make_stream();
  if (name == "relay") return make_relay();
  if (name == "fleet") return make_fleet();
  if (name == "figures") return make_figures();
  usage("unknown workload '" + name + "'");
}

std::string number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

double goodput(const Phase& phase) {
  return phase.elapsed_s > 0
             ? phase.completed_totals[kGoodBytes] / 1e6 / phase.elapsed_s
             : 0;
}

// A modeled figure of a keyed workload: the mean over the distinct inputs
// run, each counted once in key order, so it repeats exactly for a seed; 0
// for unkeyed workloads.
double modeled(const Phase& phase, Counter counter) {
  double sum = 0;
  for (const auto& [key, op] : phase.first_of_key) sum += op.c[counter];
  return phase.first_of_key.empty()
             ? 0
             : sum / static_cast<double>(phase.first_of_key.size());
}

double ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

// Ops per window op_tail_ms is taken over.
constexpr std::size_t kTailWindowOps = 200;
// Ops beyond the percentile taken in each window: p95 of 200.
constexpr std::size_t kTailOpsBeyond = 10;

// op_tail_ms: the completed ops are cut into windows of kTailWindowOps
// consecutive ops (a remainder shorter than a window is left out); in each
// window take the highest latency percentile with kTailOpsBeyond of the
// window's ops beyond it, p95; report the median over the windows. A run
// shorter than one window reports the highest percentile of all its ops
// with that many beyond it. A shared host stalls ops in bursts of a few
// seconds, and a whole-run percentile takes them in: over ten stream runs
// a whole-run p95 spread by 27% (a whole-run p99 by 28% over five), while
// the median over windows passes over a burst that lifts a few windows.
double windowed_tail(const std::vector<double>& latencies, std::string& note) {
  const std::size_t ops = latencies.size();
  const std::size_t windows = ops / kTailWindowOps;
  char text[160];
  if (windows == 0) {
    if (ops <= kTailOpsBeyond) {
      std::snprintf(text, sizeof(text), "max of %zu ops, too few for a tail",
                    ops);
      note = text;
      return ops == 0 ? 0
                      : *std::max_element(latencies.begin(), latencies.end());
    }
    const double q = 1.0 - static_cast<double>(kTailOpsBeyond) /
                               static_cast<double>(ops);
    std::snprintf(text, sizeof(text), "p%.2f of %zu ops, %zu beyond",
                  100.0 * q, ops, kTailOpsBeyond);
    note = text;
    return quantile(latencies, q);
  }
  std::vector<double> tails;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> window(latencies.begin() + w * kTailWindowOps,
                               latencies.begin() + (w + 1) * kTailWindowOps);
    std::sort(window.begin(), window.end());
    tails.push_back(window[kTailWindowOps - kTailOpsBeyond - 1]);
  }
  std::snprintf(text, sizeof(text),
                "p95 of each window of %zu ops, %zu beyond; median of %zu "
                "windows, %zu ops",
                kTailWindowOps, kTailOpsBeyond, windows, ops);
  note = text;
  return quantile(tails, 0.5);
}

// The q-quantile of values that take a few distinct levels (whole frame
// counts), read from the mid-distribution function: each level stands at
// the middle of its step of the empirical distribution, linear in between.
// A plain quantile of relay's tens of thousands of ops lands on the same
// frame count for every seed; this one moves with the share of ops at
// each count.
double mid_quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto count = static_cast<double>(values.size());
  double below = 0;  // share of the values under the current level
  double last_level = values.front();
  double last_mid = 0;
  for (std::size_t i = 0; i < values.size();) {
    std::size_t end = i;
    while (end < values.size() && values[end] == values[i]) ++end;
    const double share = static_cast<double>(end - i) / count;
    const double mid = below + share / 2;
    if (mid >= q) {
      if (i == 0) return values[i];
      return last_level +
             (values[i] - last_level) * (q - last_mid) / (mid - last_mid);
    }
    last_level = values[i];
    last_mid = mid;
    below += share;
    i = end;
  }
  return values.back();
}

// modeled_session_p99_ms. Unkeyed workloads model one session per op: the
// p99 over the ops. Keyed workloads model a p99 per input (fleet: over a
// scenario's sessions): the mean over the inputs. Across ten seeds the mean
// of 64 fleet scenarios spread by 8%, their median by 20% (the scenarios'
// p99s cluster at a few values) and a p99 of the pooled sessions by 17%.
double modeled_session_p99(const Workload& workload, const Phase& phase) {
  return workload.keyed() ? modeled(phase, kModeledMs)
                          : mid_quantile(phase.modeled_ms, 0.99);
}

std::vector<Metric> end_to_end(const Workload& workload, const Phase& phase,
                               double setup_s, std::string& tail_note) {
  const std::vector<double>& latencies = phase.latencies_ms;
  const double tail = windowed_tail(latencies, tail_note);
  const auto completed = static_cast<double>(phase.completed);
  return {
      {"goodput_mb_per_s", "MB/s", goodput(phase)},
      {"units_per_s", "1/s", ratio(completed, phase.elapsed_s)},
      {"op_p50_ms", "ms", quantile(latencies, 0.5)},
      {"op_tail_ms", "ms", tail},
      {"completed_share", "share",
       ratio(phase.completed_totals[kShare],
             static_cast<double>(phase.attempted))},
      {"setup_s", "s", setup_s},
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"modeled_session_p99_ms", "ms", modeled_session_p99(workload, phase)},
  };
}

std::vector<Metric> per_layer(const Workload& workload, const Phase& traced,
                              const Phase& untraced,
                              const trace::Stat& digest) {
  const trace::Stat* st = traced.stats;
  auto mean = [&](trace::Name name, double scale) {
    return ratio(static_cast<double>(st[name].total_ns) / scale,
                 static_cast<double>(st[name].calls));
  };
  auto us = [&](trace::Name name) { return mean(name, 1e3); };
  auto ms = [&](trace::Name name) { return mean(name, 1e6); };
  auto total = [&](Counter counter) { return traced.totals[counter]; };
  auto model = [&](Counter counter) { return modeled(traced, counter); };
  const double op_ns = static_cast<double>(st[trace::kOp].total_ns);
  const double wire_ns =
      static_cast<double>(st[trace::kWireSerialize].total_ns +
                          st[trace::kWireParse].total_ns);

  std::vector<Metric> metrics = {
      {"wire.serialize_us", "us", us(trace::kWireSerialize)},
      {"wire.parse_us", "us", us(trace::kWireParse)},
      {"wire.frame_mb_per_s", "MB/s",
       ratio(total(kWireBytes) / 1e6, wire_ns / 1e9)},
      {"wire.rejected", "count", total(kRejected)},
      {"coding.encode_us", "us", us(trace::kCodingEncode)},
      {"coding.decode_us", "us", us(trace::kCodingDecode)},
      {"coding.verify_ms", "ms", ms(trace::kCodingVerify)},
      {"coding.innovative_share", "share",
       ratio(total(kInnovative), total(kDecoderAdds))},
      {"coding.quarantined", "count", total(kQuarantined)},
      {"coding.recode_us", "us", us(trace::kCodingRecode)},
      {"coding.recoder_add_us", "us", us(trace::kCodingRecoderAdd)},
      {"coding.digest_mb_per_s", "MB/s",
       ratio(workload.digested_bytes() / 1e6,
             static_cast<double>(digest.total_ns) / 1e9)},
      {"net.transmit_us", "us", us(trace::kNetTransmit)},
      {"net.frames_per_unit", "count",
       ratio(total(kFrames), static_cast<double>(traced.attempted))},
      {"net.lost", "count", total(kLost)},
      {"net.corrupted", "count", total(kCorrupted)},
      {"net.truncated", "count", total(kTruncated)},
      {"net.duplicated", "count", total(kDuplicated)},
      {"net.reordered", "count", total(kReordered)},
  };
  auto self_share = [&](const char* layer) {
    double self_ns = 0;
    for (int n = 0; n < trace::kNameCount; ++n) {
      if (std::strcmp(trace::layer_of(static_cast<trace::Name>(n)), layer) ==
          0) {
        self_ns += static_cast<double>(st[n].self_ns);
      }
    }
    return Metric{std::string(layer) + ".self_share", "share",
                  ratio(self_ns, op_ns)};
  };
  for (const char* layer : {"wire", "coding", "net"}) {
    metrics.push_back(self_share(layer));
  }
  metrics.push_back(
      {"bench.unattributed_share", "share",
       ratio(static_cast<double>(st[trace::kOp].self_ns), op_ns)});
  metrics.push_back(
      {"trace.overhead", "ratio", ratio(goodput(traced), goodput(untraced))});

  // The service and simulator layers, run only by fleet and figures; every
  // workload prints every metric, zero where the layer does not run.
  const std::vector<Metric> simulated = {
      self_share("serve"),
      self_share("gpu"),
      {"serve.construct_ms", "ms", ms(trace::kServeConstruct)},
      {"serve.run_ms", "ms", ms(trace::kServeRun)},
      {"serve.completed", "count", total(kServeCompleted)},
      {"serve.degraded", "count", total(kServeDegraded)},
      {"serve.shed", "count", total(kServeShed)},
      {"serve.failed", "count", total(kServeFailed)},
      {"serve.hedges", "count", total(kServeHedges)},
      {"serve.redispatches", "count", total(kServeRedispatches)},
      {"serve.stale_completions", "count", total(kServeStale)},
      {"serve.ladder_transitions", "count", total(kServeLadder)},
      {"serve.journal_records", "count", total(kServeJournal)},
      {"serve.segment_p99_ms", "ms", model(kServeSegmentP99Ms)},
      {"serve.model_repeat_mismatches", "count",
       static_cast<double>(untraced.model_drift + traced.model_drift)},
      {"gpu.encode_segment_us", "us", us(trace::kGpuEncodeSegment)},
      {"gpu.verify_decode_us", "us", us(trace::kGpuVerifyDecode)},
      {"gpu.resilient.retries", "count", total(kRetries)},
      {"gpu.resilient.cpu_fallbacks", "count", total(kCpuFallbacks)},
      {"gpu.preprocess_ms", "ms", ms(trace::kGpuPreprocess)},
  };
  metrics.insert(metrics.end(), simulated.begin(), simulated.end());
  static constexpr const char* kSchemes[] = {"loop", "tb0", "tb1", "tb2",
                                             "tb3",  "tb4", "tb5"};
  for (int s = 0; s < 7; ++s) {
    const auto span = static_cast<trace::Name>(trace::kGpuEncodeLoop + s);
    metrics.push_back(
        {std::string("gpu.encode_ms.") + kSchemes[s], "ms", ms(span)});
  }
  metrics.push_back({"gpu.multiseg_ms", "ms", ms(trace::kGpuMultiseg)});
  metrics.push_back(
      {"simgpu.launch.parallel", "count", total(kLaunchParallel)});
  metrics.push_back({"simgpu.launch.serial", "count", total(kLaunchSerial)});
  metrics.push_back(
      {"simgpu.fast.lowered_blocks", "count", total(kFastLowered)});
  metrics.push_back(
      {"simgpu.fast.straddle_blocks", "count", total(kFastStraddle)});
  metrics.push_back(
      {"simgpu.timing.memo_hit_share", "share",
       ratio(total(kMemoHit), total(kMemoHit) + total(kMemoMiss))});
  for (int s = 0; s < 7; ++s) {
    const auto rate = static_cast<Counter>(kModeledMbLoop + s);
    metrics.push_back({std::string("simgpu.modeled_mb_per_s.") + kSchemes[s],
                       "MB/s", model(rate)});
  }
  metrics.push_back({"simgpu.modeled_mb_per_s.multiseg", "MB/s",
                     model(kModeledMbMultiseg)});
  metrics.push_back({"simgpu.crashed_ops", "count",
                     static_cast<double>(traced.crashed)});
  return metrics;
}

void print_layer_table(const Phase& traced) {
  const trace::Stat* st = traced.stats;
  const double op_ns = static_cast<double>(st[trace::kOp].total_ns);
  std::printf("\nper-layer (traced phase, %llu ops, %.3f s)\n",
              static_cast<unsigned long long>(traced.attempted),
              traced.elapsed_s);
  std::printf("  %-20s %10s %14s %12s\n", "span", "calls", "mean_us/call",
              "self_share");
  for (int n = 0; n < trace::kNameCount; ++n) {
    if (st[n].calls == 0) continue;
    std::printf("  %-20s %10llu %14.3f %12.4f\n",
                trace::name_of(static_cast<trace::Name>(n)),
                static_cast<unsigned long long>(st[n].calls),
                static_cast<double>(st[n].total_ns) / 1e3 /
                    static_cast<double>(st[n].calls),
                ratio(static_cast<double>(st[n].self_ns), op_ns));
  }
}

bool write_chrome_trace(const std::string& path, const Phase& phase,
                        const std::string& workload, std::uint64_t seed) {
  std::ofstream out(path);
  if (!out) return false;
  std::uint64_t origin = UINT64_MAX;
  for (const trace::SpanRecord& span : phase.spans) {
    if (span.end_ns != 0) origin = std::min(origin, span.start_ns);
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < phase.spans.size(); ++i) {
    const trace::SpanRecord& span = phase.spans[i];
    if (span.end_ns == 0) continue;  // opened by a child that then died
    const auto name = static_cast<trace::Name>(span.name);
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << trace::name_of(name)
        << "\",\"cat\":\"" << trace::layer_of(name)
        << "\",\"ph\":\"X\",\"ts\":"
        << number(static_cast<double>(span.start_ns - origin) / 1e3)
        << ",\"dur\":"
        << number(static_cast<double>(span.end_ns - span.start_ns) / 1e3)
        << ",\"pid\":" << phase.span_pids[i] << ",\"tid\":1,\"args\":{\"op\":"
        << span.op << ",\"id\":" << i << ",\"parent\":" << span.parent
        << "}}";
    first = false;
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\""
      << workload << "\",\"seed\":" << seed << "}}\n";
  return static_cast<bool>(out);
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args.workload);
  trace::now_ns();  // calibrate the span clock before anything is timed
  std::printf("e2ebench workload=%s seed=%llu seconds=%s trace=%d%s\n",
              workload->name(), static_cast<unsigned long long>(args.seed),
              number(args.seconds).c_str(), args.traced ? 1 : 0,
              args.config.small ? " small" : "");
  std::printf("host: cores=%u engine_pool=%zu gf256=%s\n",
              std::thread::hardware_concurrency(), probe_engine_pool(),
              extnc::gf256::ops().name);

  // Set-up runs several times; the median is setup_s and the last one's
  // state is what the ops use. A traced run records the digest calls of
  // the last set-up for coding.digest_mb_per_s.
  const int setups = args.config.small ? 2 : 9;
  std::vector<double> setup_times;
  auto digest_trace = std::make_unique<trace::Buffer>();
  for (int i = 0; i < setups; ++i) {
    const bool record = args.traced && i + 1 == setups;
    if (record) trace::bind(digest_trace.get());
    const std::uint64_t start = trace::steady_ns();
    workload->setup(args.config);
    setup_times.push_back(static_cast<double>(trace::steady_ns() - start) /
                          1e9);
    if (record) trace::bind(nullptr);
  }
  const double setup_s = quantile(setup_times, 0.5);

  const double phase_seconds = args.traced ? args.seconds / 2 : args.seconds;
  Phase untraced =
      run_phase(*workload, args.config, phase_seconds, 0, args.ops, false);
  Phase traced;
  if (args.traced) {
    traced =
        run_phase(*workload, args.config, phase_seconds, 0, args.ops, true);
  }
  const Phase& reported = args.traced ? traced : untraced;
  for (const Phase* phase : {&untraced, &traced}) {
    for (const std::string& failure : phase->failures) {
      std::printf("%s\n", failure.c_str());
    }
  }
  const std::uint64_t check_failures =
      untraced.check_failures + traced.check_failures;
  const std::uint64_t failed = reported.attempted - reported.completed;
  auto u = [](std::uint64_t value) {
    return static_cast<unsigned long long>(value);
  };
  const auto [fastest, slowest] =
      std::minmax_element(setup_times.begin(), setup_times.end());
  std::printf("setup: %d runs, median %.4f s (min %.4f, max %.4f)\n", setups,
              setup_s, *fastest, *slowest);
  std::printf(
      "ops: attempted=%llu completed=%llu failed=%llu crashed=%llu "
      "elapsed=%.3f s; repeats failed=%llu model drift=%llu\n",
      u(reported.attempted), u(reported.completed), u(failed),
      u(reported.crashed), reported.elapsed_s,
      u(untraced.repeat_failures + traced.repeat_failures),
      u(untraced.model_drift + traced.model_drift));

  std::string tail_note;
  std::vector<Metric> metrics;
  if (!args.traced) {
    metrics = end_to_end(*workload, untraced, setup_s, tail_note);
  } else {
    print_layer_table(traced);
    metrics = per_layer(*workload, traced, untraced,
                        digest_trace->stats[trace::kCodingDigest]);
    std::error_code error;
    std::filesystem::create_directories(args.out, error);
    const std::string path = args.out + "/" + workload->name() + "-seed" +
                             std::to_string(args.seed) + ".trace.json";
    if (write_chrome_trace(path, traced, workload->name(), args.seed)) {
      std::printf("chrome trace: %s (%zu spans)\n", path.c_str(),
                  traced.spans.size());
    } else {
      std::printf("chrome trace: could not write %s\n", path.c_str());
    }
  }
  std::printf("\n");
  for (const Metric& metric : metrics) {
    std::printf("  %-36s %14s %s%s%s\n", metric.name.c_str(),
                number(metric.value).c_str(), metric.unit.c_str(),
                metric.name == "op_tail_ms" ? "  (" : "",
                metric.name == "op_tail_ms" ? (tail_note + ")").c_str() : "");
  }

  std::string json = "{\"correct\": ";
  json += check_failures == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(reported.attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  return e2e::run(e2e::parse_args(argc, argv));
}
