// Host wall-clock throughput of the simgpu executor itself: how fast the
// simulator runs, not how fast the simulated device would be. This is the
// regression harness for the execution engines — the same workloads
// (fig4a-style encodes, fig9-style multi-segment decode) run under the
// interpreted serial engine, the interpreted parallel engine, and the
// warp-batched fast path (the default configuration: fast path on, engine
// auto). The JSON report records seconds, simulated-payload throughput,
// the parallel/serial speedup, and the fast/serial speedup.
//
// Usage:
//   simspeed [--engine serial|parallel|fast|both|all]
//            [--device gtx280|8800gt] [--quick] [--json] [--csv]
//            [--min-speedup X] [--min-fast-speedup X]
//            [--min-table-fast-speedup X]
//
// --min-speedup X exits non-zero if any workload's parallel engine is
// slower than X times the serial engine (CI smoke: X < 1 tolerates
// few-core runners, still catching pathological slowdowns). Requires the
// serial and parallel dimensions. --min-fast-speedup X is the same floor
// for the fast path against the interpreted serial engine; the fast path
// is single-host-thread SIMD, so this floor holds on any runner.
// --min-table-fast-speedup X applies that floor to the encode/tb*
// workloads only — the table schemes lean on the cached access-pattern
// profile (gpu/gpu_encoder.h TableFastProfile), so this is the regression
// gate for profile-based accounting staying ahead of byte walking.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "coding/progressive_decoder.h"
#include "gpu/gpu_encoder.h"
#include "gpu/gpu_multiseg_decoder.h"
#include "simgpu/exec_engine.h"
#include "util/rng.h"
#include "util/table_printer.h"

namespace extnc::bench {
namespace {

using coding::CodedBatch;
using coding::Params;
using coding::Segment;
using gpu::EncodeScheme;
using simgpu::ExecEngine;

struct Workload {
  std::string name;
  // Runs the workload once; returns simulated payload bytes processed.
  std::function<std::size_t()> run;
};

struct Measurement {
  double seconds = 0;
  double mb_per_s = 0;
};

// Timed runs continue past `repeats` until they add up to this floor. The
// fast-path workloads take 0.4-8 ms a run, where the best of 2-3 runs
// swung up to 2x between identical invocations. Host slowdowns last
// longer than 50 ms (back-to-back 50 ms windows of tb4 gave 0.66 and
// 0.99 ms), so the floor spans several of them.
constexpr double kMinMeasureSeconds = 0.5;

// Best run of at least `repeats` runs and at least kMinMeasureSeconds.
Measurement measure(const Workload& workload, int repeats) {
  // One untimed warm-up run (first-touch allocation, texture-cache fill).
  (void)workload.run();
  double best_s = 0;
  double total_s = 0;
  std::size_t bytes = 0;
  for (int r = 0; r < repeats || total_s < kMinMeasureSeconds; ++r) {
    const auto start = std::chrono::steady_clock::now();
    bytes = workload.run();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (r == 0 || elapsed.count() < best_s) best_s = elapsed.count();
    total_s += elapsed.count();
  }
  Measurement m;
  m.seconds = best_s;
  m.mb_per_s = static_cast<double>(bytes) / (1024.0 * 1024.0) / best_s;
  return m;
}

std::vector<Workload> build_workloads(const simgpu::DeviceSpec& spec,
                                      bool quick) {
  const std::size_t k = quick ? 1024 : 4096;
  const std::size_t n = quick ? 16 : 32;
  const std::size_t batch = quick ? 16 : 64;
  const std::size_t segments = quick ? 3 : 6;

  std::vector<Workload> workloads;

  // fig4a-style encodes: the loop-based kernel and every table scheme
  // (tb0-tb5 all ride the cached-profile fast path; each has a distinct
  // lookup structure, so each gets its own regression row).
  for (const auto& [label, scheme] :
       {std::pair<const char*, EncodeScheme>{"encode/loop",
                                             EncodeScheme::kLoopBased},
        std::pair<const char*, EncodeScheme>{"encode/tb0",
                                             EncodeScheme::kTable0},
        std::pair<const char*, EncodeScheme>{"encode/tb1",
                                             EncodeScheme::kTable1},
        std::pair<const char*, EncodeScheme>{"encode/tb2",
                                             EncodeScheme::kTable2},
        std::pair<const char*, EncodeScheme>{"encode/tb3",
                                             EncodeScheme::kTable3},
        std::pair<const char*, EncodeScheme>{"encode/tb4",
                                             EncodeScheme::kTable4},
        std::pair<const char*, EncodeScheme>{"encode/tb5",
                                             EncodeScheme::kTable5}}) {
    workloads.push_back(
        {label, [&spec, label = std::string(label), scheme, n, k, batch] {
           Rng rng(7);
           const Segment segment =
               Segment::random(Params{.n = n, .k = k}, rng);
           gpu::GpuEncoder encoder(spec, segment, scheme);
           const CodedBatch out = encoder.encode_batch(batch, rng);
           return out.count() * k;
         }});
  }

  // fig9-style multi-segment decode (stage 1 inversions + stage 2 matrix
  // product).
  workloads.push_back(
      {"decode/multiseg", [&spec, n, k, segments] {
         Rng rng(11);
         const Params params{.n = n, .k = k};
         std::vector<CodedBatch> batches;
         batches.reserve(segments);
         for (std::size_t s = 0; s < segments; ++s) {
           batches.push_back(
               coding::independent_batch(Segment::random(params, rng), rng));
         }
         gpu::GpuMultiSegmentDecoder decoder(spec, params);
         const auto decoded = decoder.decode_all(batches);
         return decoded.size() * n * k;
       }});
  return workloads;
}

struct Row {
  std::string workload;
  Measurement serial;
  Measurement parallel;
  Measurement fast;
  bool has_serial = false;
  bool has_parallel = false;
  bool has_fast = false;

  double speedup() const {
    return (has_serial && has_parallel && parallel.seconds > 0)
               ? serial.seconds / parallel.seconds
               : 0;
  }
  double fast_speedup() const {
    return (has_serial && has_fast && fast.seconds > 0)
               ? serial.seconds / fast.seconds
               : 0;
  }
};

void print_json(const std::vector<Row>& rows, const std::string& device,
                bool quick) {
  std::printf("{\n");
  std::printf("  \"bench\": \"simspeed\",\n");
  std::printf("  \"device\": \"%s\",\n", device.c_str());
  std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
  std::printf("  \"host_cores\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"pool_threads\": %zu,\n",
              simgpu::engine_pool().num_threads());
  std::printf("  \"workloads\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::printf("    {\"name\": \"%s\"", row.workload.c_str());
    if (row.has_serial) {
      std::printf(", \"serial_s\": %.6f, \"serial_mb_per_s\": %.2f",
                  row.serial.seconds, row.serial.mb_per_s);
    }
    if (row.has_parallel) {
      std::printf(", \"parallel_s\": %.6f, \"parallel_mb_per_s\": %.2f",
                  row.parallel.seconds, row.parallel.mb_per_s);
    }
    if (row.has_fast) {
      std::printf(", \"fast_s\": %.6f, \"fast_mb_per_s\": %.2f",
                  row.fast.seconds, row.fast.mb_per_s);
    }
    if (row.has_serial && row.has_parallel) {
      std::printf(", \"speedup\": %.3f", row.speedup());
    }
    if (row.has_serial && row.has_fast) {
      std::printf(", \"fast_speedup\": %.3f", row.fast_speedup());
    }
    std::printf("}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
}

int run(int argc, char** argv) {
  check_flags(argc, argv,
              {"--engine", "--device", "--min-speedup", "--min-fast-speedup",
               "--min-table-fast-speedup"},
              {"--quick", "--json", "--csv"});
  const std::string engine_arg = flag_value(argc, argv, "--engine");
  const std::string device_arg = flag_value(argc, argv, "--device");
  const std::string min_speedup_arg =
      flag_value(argc, argv, "--min-speedup");
  const std::string min_fast_arg =
      flag_value(argc, argv, "--min-fast-speedup");
  const std::string min_table_fast_arg =
      flag_value(argc, argv, "--min-table-fast-speedup");
  const bool quick = has_flag(argc, argv, "--quick");
  const bool json = has_flag(argc, argv, "--json");
  const bool csv = has_flag(argc, argv, "--csv");

  const std::string engine_mode = engine_arg.empty() ? "all" : engine_arg;
  const bool run_serial = engine_mode == "all" || engine_mode == "both" ||
                          engine_mode == "serial";
  const bool run_parallel = engine_mode == "all" || engine_mode == "both" ||
                            engine_mode == "parallel";
  const bool run_fast = engine_mode == "all" || engine_mode == "fast";
  if (!run_serial && !run_parallel && !run_fast) {
    die("unknown --engine '" + engine_mode +
        "' (expected serial, parallel, fast, both or all)");
  }
  double min_speedup = 0;
  if (!min_speedup_arg.empty()) {
    if (!run_serial || !run_parallel) {
      die("--min-speedup requires the serial and parallel dimensions");
    }
    min_speedup = std::atof(min_speedup_arg.c_str());
    if (min_speedup <= 0) die("--min-speedup must be a positive number");
  }
  double min_fast_speedup = 0;
  if (!min_fast_arg.empty()) {
    if (!run_serial || !run_fast) {
      die("--min-fast-speedup requires the serial and fast dimensions");
    }
    min_fast_speedup = std::atof(min_fast_arg.c_str());
    if (min_fast_speedup <= 0) {
      die("--min-fast-speedup must be a positive number");
    }
  }
  double min_table_fast_speedup = 0;
  if (!min_table_fast_arg.empty()) {
    if (!run_serial || !run_fast) {
      die("--min-table-fast-speedup requires the serial and fast "
          "dimensions");
    }
    min_table_fast_speedup = std::atof(min_table_fast_arg.c_str());
    if (min_table_fast_speedup <= 0) {
      die("--min-table-fast-speedup must be a positive number");
    }
  }
  const std::string device = device_arg.empty() ? "gtx280" : device_arg;
  const simgpu::DeviceSpec& spec = device_by_name(device);
  const int repeats = quick ? 2 : 3;

  const bool fast_saved = simgpu::fast_path_enabled();
  std::vector<Row> rows;
  for (const Workload& workload : build_workloads(spec, quick)) {
    Row row;
    row.workload = workload.name;
    // The serial and parallel dimensions measure the interpreted engines —
    // the historical baselines — so the fast path is pinned off for them.
    if (run_serial) {
      simgpu::set_fast_path_enabled(false);
      simgpu::set_default_engine(ExecEngine::kSerial);
      row.serial = measure(workload, repeats);
      row.has_serial = true;
    }
    if (run_parallel) {
      simgpu::set_fast_path_enabled(false);
      simgpu::set_default_engine(ExecEngine::kParallel);
      row.parallel = measure(workload, repeats);
      row.has_parallel = true;
    }
    // The fast dimension is the shipping default: fast path on, engine
    // auto (which keeps small launches serial).
    if (run_fast) {
      simgpu::set_fast_path_enabled(true);
      simgpu::set_default_engine(ExecEngine::kAuto);
      row.fast = measure(workload, repeats);
      row.has_fast = true;
    }
    simgpu::set_default_engine(ExecEngine::kAuto);
    simgpu::set_fast_path_enabled(fast_saved);
    rows.push_back(row);
  }

  if (json) {
    print_json(rows, device, quick);
  } else {
    TablePrinter table({"workload", "serial s", "parallel s", "fast s",
                        "speedup", "fast speedup", "fast MB/s"});
    for (const Row& row : rows) {
      table.add_row(
          {row.workload,
           row.has_serial ? std::to_string(row.serial.seconds) : "-",
           row.has_parallel ? std::to_string(row.parallel.seconds) : "-",
           row.has_fast ? std::to_string(row.fast.seconds) : "-",
           row.speedup() > 0 ? std::to_string(row.speedup()) : "-",
           row.fast_speedup() > 0 ? std::to_string(row.fast_speedup()) : "-",
           row.has_fast ? std::to_string(row.fast.mb_per_s) : "-"});
    }
    print_table(table, csv);
  }

  if (min_speedup > 0) {
    for (const Row& row : rows) {
      if (row.speedup() < min_speedup) {
        std::fprintf(stderr,
                     "error: %s: parallel/serial speedup %.3f below "
                     "--min-speedup %.3f (pool=%zu threads)\n",
                     row.workload.c_str(), row.speedup(), min_speedup,
                     simgpu::engine_pool().num_threads());
        return 1;
      }
    }
  }
  if (min_table_fast_speedup > 0) {
    for (const Row& row : rows) {
      if (row.workload.rfind("encode/tb", 0) != 0) continue;
      if (row.fast_speedup() < min_table_fast_speedup) {
        std::fprintf(stderr,
                     "error: %s: fast/serial speedup %.3f below "
                     "--min-table-fast-speedup %.3f\n",
                     row.workload.c_str(), row.fast_speedup(),
                     min_table_fast_speedup);
        return 1;
      }
    }
  }
  if (min_fast_speedup > 0) {
    for (const Row& row : rows) {
      if (row.fast_speedup() < min_fast_speedup) {
        std::fprintf(stderr,
                     "error: %s: fast/serial speedup %.3f below "
                     "--min-fast-speedup %.3f\n",
                     row.workload.c_str(), row.fast_speedup(),
                     min_fast_speedup);
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace extnc::bench

int main(int argc, char** argv) { return extnc::bench::run(argc, argv); }
