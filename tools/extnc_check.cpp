// extnc_check — verify every shipped kernel: the static pre-launch audit,
// then the checked dynamic sweep, on every selected device.
//
//   extnc_check [--device gtx280|8800gt|all] [--n N] [--k K] [--blocks B]
//               [--class uniform|stride64|sparse] [--zero-every N]
//               [--verbose]
//
// Static section: derives the access model of each kernel (the seven
// encode schemes, both preprocess kernels, the multi-segment inverter and
// the recoder) from DeviceSpec + geometry alone — no kernel runs — and
// audits geometry, shared/global footprints and barrier structure, with
// advisory bank-conflict / uncoalesced lints. --class and --zero-every
// pick the payload class the models are built for.
//
// Dynamic section: runs all encode schemes, both decoders (every Sec. 5.4
// option combination the device supports), the recoder and the hybrid
// encoder under a collect-mode simgpu::Checker, once on the serial and
// once on the parallel engine; the two engines' reports must be
// bit-identical.
//
// One line per kernel in each section. Exit 1 if either check reports an
// error finding or the engines disagree; advisory lints are printed (all
// of them with --verbose) but never fail the gate. Usage errors exit 2.
//
//   extnc_check --seed-bug race|rw-race|oob-shared|oob-global|misaligned|
//                          divergence|stale|oob-tail|divergent-barrier|
//                          conflict-regression
//
// Negative controls: runs one deliberately broken kernel (or kernel model,
// for the last three) instead, prints "seeded '<bug>' caught" and exits 1
// when the check flags it on every selected device; "MISSED" and exit 0
// mean the check lost its teeth.
//
//   extnc_check --overhead
//
// Times a tb5 encode workload unchecked vs checked and exits 1 if the
// checked run exceeds kMaxSlowdown times the unchecked one (the checker
// audits every byte of every shared access but measures ~2x in practice —
// see DESIGN.md "Kernel verification").
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "gpu/gpu_encoder.h"
#include "gpu/kernel_check.h"
#include "simgpu/checker.h"
#include "simgpu/device_spec.h"
#include "simgpu/exec_engine.h"
#include "util/cli_flags.h"
#include "util/rng.h"

namespace {

using namespace extnc;
using gpu::AuditCase;
using gpu::AuditFinding;
using gpu::AuditReport;
using gpu::KernelCheckOptions;
using simgpu::DeviceSpec;

constexpr double kMaxSlowdown = 8.0;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "extnc_check: %s\n", message.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------- static --

void print_audit_case(const AuditCase& c, bool verbose) {
  const simgpu::KernelMetrics totals = c.model.totals();
  std::size_t errors = 0;
  std::size_t advisories = 0;
  for (const AuditFinding& f : c.findings) {
    if (f.advisory) {
      ++advisories;
    } else {
      ++errors;
    }
  }
  std::printf(
      "  %-28s %-5s %4zux%-3zu deg<=%-2llu tx<=%-2llu "
      "(%llu shared, %llu tx, %llu tex, %zu errors, %zu advisories)\n",
      c.kernel.c_str(), errors == 0 ? "clean" : "DIRTY", c.model.blocks,
      c.model.threads_per_block,
      static_cast<unsigned long long>(c.model.max_conflict_degree()),
      static_cast<unsigned long long>(c.model.max_group_transactions()),
      static_cast<unsigned long long>(totals.shared_accesses),
      static_cast<unsigned long long>(totals.global_transactions),
      static_cast<unsigned long long>(totals.texture_fetches), errors,
      advisories);
  for (const AuditFinding& f : c.findings) {
    if (!f.advisory || verbose) {
      std::printf("    [%s%s] %s\n", gpu::audit_kind_name(f.kind),
                  f.advisory ? " advisory" : "", f.detail.c_str());
    }
  }
  if (!verbose) return;
  for (const simgpu::SegmentModel& seg : c.model.segments) {
    std::printf(
        "    segment %-16s width %-4zu deg<=%-2llu "
        "(%llu events, %llu cycles)\n",
        seg.name.c_str(), seg.step_width,
        static_cast<unsigned long long>(seg.max_conflict_degree()),
        static_cast<unsigned long long>(seg.counters.shared_access_events),
        static_cast<unsigned long long>(
            seg.counters.shared_serialized_cycles));
  }
  for (const simgpu::FootprintRegion& region : c.model.footprint) {
    std::printf("    footprint %-18s %s %zu / %zu bytes\n",
                region.name.c_str(), region.written ? "writes" : "reads",
                region.bytes_needed, region.bytes_registered);
  }
}

bool run_static(const DeviceSpec& spec, const KernelCheckOptions& options,
                bool verbose) {
  const AuditReport report = gpu::run_kernel_audit(spec, options);
  std::printf("extnc_check: static audit, %zu kernel models on %s (n=%zu, "
              "k=%zu, batch=%zu)\n",
              report.cases.size(), spec.name, options.params.n,
              options.params.k, options.batch_blocks);
  for (const AuditCase& c : report.cases) print_audit_case(c, verbose);
  std::printf("extnc_check: static audit %s on %s (%zu errors, %zu "
              "advisories)\n",
              report.clean() ? "clean" : "FAILED", spec.name,
              report.error_count, report.advisory_count);
  return report.clean();
}

// --------------------------------------------------------------- dynamic --

bool run_dynamic(const DeviceSpec& spec, const KernelCheckOptions& options,
                 bool verbose) {
  const auto serial =
      gpu::run_kernel_checks(spec, simgpu::ExecEngine::kSerial, options);
  const auto parallel =
      gpu::run_kernel_checks(spec, simgpu::ExecEngine::kParallel, options);

  bool clean = true;
  bool identical = true;
  std::printf("extnc_check: dynamic sweep, %zu kernel cases on %s (n=%zu, "
              "k=%zu, batch=%zu)\n",
              serial.size(), spec.name, options.params.n, options.params.k,
              options.batch_blocks);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const gpu::KernelCheckCase& c = serial[i];
    const unsigned long long errors = c.report.errors();
    std::printf("  %-28s %s  (%llu errors, %llu advisories, %llu launches)\n",
                c.name.c_str(), errors == 0 ? "clean" : "DIRTY", errors,
                static_cast<unsigned long long>(c.report.advisories()),
                static_cast<unsigned long long>(c.report.checked_launches));
    if (errors != 0 || (verbose && c.report.advisories() != 0)) {
      std::printf("%s\n", c.report.to_string().c_str());
    }
    clean = clean && errors == 0;
    if (!(c.report == parallel[i].report)) {
      std::printf("  %-28s ENGINE MISMATCH: serial and parallel reports "
                  "differ\n",
                  c.name.c_str());
      identical = false;
    }
  }
  std::printf("extnc_check: dynamic sweep %s on %s, serial and parallel "
              "reports %s\n",
              clean ? "clean" : "FAILED", spec.name,
              identical ? "identical" : "DIFFER");
  return clean && identical;
}

// ------------------------------------------------------------ seeded bugs --

// True when the check flags `bug` on `spec`. Every dynamic bug is an error
// finding; the static conflict regression surfaces as an advisory.
bool seeded_caught(const DeviceSpec& spec, const KernelCheckOptions& options,
                   const gpu::SeedBugInfo& info) {
  if (info.is_static) {
    const AuditReport report = gpu::run_seeded_audit(spec, options, info.bug);
    for (const AuditCase& c : report.cases) print_audit_case(c, true);
    return report.error_count > 0 || report.advisory_count > 0;
  }
  const simgpu::CheckReport report = gpu::run_seeded_check(spec, info.bug);
  std::printf("%s\n", report.to_string().c_str());
  return report.errors() > 0;
}

int run_seed_bug(const std::vector<const DeviceSpec*>& specs,
                 const KernelCheckOptions& options, const std::string& name) {
  const auto bug = gpu::parse_seed_bug(name);
  if (!bug.has_value()) {
    std::string expected;
    for (const gpu::SeedBugInfo& info : gpu::kSeedBugs) {
      expected += expected.empty() ? "" : ", ";
      expected += info.name;
    }
    die("unknown --seed-bug '" + name + "' (expected one of " + expected +
        ")");
  }
  const gpu::SeedBugInfo& info = gpu::seed_bug_info(*bug);
  bool caught = true;
  for (const DeviceSpec* spec : specs) {
    const bool here = seeded_caught(*spec, options, info);
    std::printf("extnc_check: seeded '%s' %s on %s\n", info.name,
                here ? "flagged" : "not flagged", spec->name);
    caught = caught && here;
  }
  std::printf("extnc_check: seeded '%s' %s\n", info.name,
              caught ? "caught" : "MISSED");
  return caught ? 1 : 0;
}

// -------------------------------------------------------------- overhead --

double time_encode(const DeviceSpec& spec, simgpu::Checker* checker) {
  Rng rng(7);
  const coding::Params params{.n = 64, .k = 1024};
  const coding::Segment segment = coding::Segment::random(params, rng);
  gpu::GpuEncoder encoder(spec, segment, gpu::EncodeScheme::kTable5,
                          /*profiler=*/nullptr, "overhead",
                          /*injector=*/nullptr, checker);
  const auto start = std::chrono::steady_clock::now();
  encoder.encode_batch(64, rng);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

bool run_overhead(const DeviceSpec& spec) {
  // Measure instrumentation cost against the interpreted engine: checked
  // launches always interpret, so letting the unchecked baseline take the
  // warp-batched fast path would fold the fast-path speedup into the
  // reported "overhead" and blow the budget for the wrong reason.
  const bool fast_saved = simgpu::fast_path_enabled();
  simgpu::set_fast_path_enabled(false);
  // Warm up tables/allocator, then take the best of three per variant so
  // the guard is robust to scheduler noise on loaded CI hosts.
  (void)time_encode(spec, nullptr);
  double unchecked = 1e9;
  double checked = 1e9;
  simgpu::CheckConfig config;
  config.mode = simgpu::CheckConfig::Mode::kCollect;
  for (int i = 0; i < 3; ++i) {
    unchecked = std::min(unchecked, time_encode(spec, nullptr));
    simgpu::Checker checker(config);
    checked = std::min(checked, time_encode(spec, &checker));
  }
  simgpu::set_fast_path_enabled(fast_saved);
  const double slowdown = checked / unchecked;
  std::printf("extnc_check: overhead tb5 encode on %s: unchecked %.3f ms, "
              "checked %.3f ms, slowdown %.1fx (budget %.1fx)\n",
              spec.name, unchecked * 1e3, checked * 1e3, slowdown,
              kMaxSlowdown);
  if (slowdown > kMaxSlowdown) {
    std::fprintf(stderr,
                 "extnc_check: checker overhead %.1fx exceeds the %.1fx "
                 "budget on %s\n",
                 slowdown, kMaxSlowdown, spec.name);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto flags = CliFlags::parse(
      argc, argv, 1,
      {{"--device", CliFlag::Kind::kText},
       {"--n", CliFlag::Kind::kSize},
       {"--k", CliFlag::Kind::kSize},
       {"--blocks", CliFlag::Kind::kSize},
       {"--class", CliFlag::Kind::kText},
       {"--zero-every", CliFlag::Kind::kSize},
       {"--seed-bug", CliFlag::Kind::kText},
       {"--overhead", CliFlag::Kind::kBool},
       {"--verbose", CliFlag::Kind::kBool}},
      &error);
  if (!flags) die(error);

  KernelCheckOptions options;
  options.params.n = flags->size("--n", options.params.n);
  options.params.k = flags->size("--k", options.params.k);
  options.batch_blocks = flags->size("--blocks", options.batch_blocks);
  options.assume.coeff_zero_every = flags->size("--zero-every", 0);
  const std::string cls = flags->text("--class", "uniform");
  if (cls == "uniform") {
    options.assume.payload_class = gpu::PayloadClass::kUniform;
  } else if (cls == "stride64") {
    options.assume.payload_class = gpu::PayloadClass::kStride64;
  } else if (cls == "sparse") {
    options.assume.payload_class = gpu::PayloadClass::kSparse;
  } else {
    die("unknown payload class '" + cls +
        "' (expected uniform, stride64 or sparse)");
  }
  if (options.params.n % 4 != 0 || options.params.k % 4 != 0) {
    die("--n and --k must be multiples of 4 (GPU kernels use 32-bit words)");
  }

  const std::string device = flags->text("--device", "all");
  std::vector<const DeviceSpec*> specs;
  if (device == "all") {
    specs = {&simgpu::gtx280(), &simgpu::geforce_8800gt()};
  } else if (device == "gtx280") {
    specs = {&simgpu::gtx280()};
  } else if (device == "8800gt") {
    specs = {&simgpu::geforce_8800gt()};
  } else {
    die("unknown device '" + device + "' (expected gtx280, 8800gt or all)");
  }

  if (flags->has("--seed-bug")) {
    return run_seed_bug(specs, options, flags->text("--seed-bug"));
  }
  bool ok = true;
  if (flags->has("--overhead")) {
    for (const DeviceSpec* spec : specs) ok = run_overhead(*spec) && ok;
    return ok ? 0 : 1;
  }
  // The audit runs no kernels, so it goes first for every device.
  const bool verbose = flags->has("--verbose");
  for (const DeviceSpec* spec : specs) {
    ok = run_static(*spec, options, verbose) && ok;
  }
  for (const DeviceSpec* spec : specs) {
    ok = run_dynamic(*spec, options, verbose) && ok;
  }
  std::printf("extnc_check: %s\n", ok ? "all checks clean" : "FAILED");
  return ok ? 0 : 1;
}
