// Kernel verification: the static pre-launch audit and the dynamic
// sanitizer sweep over every shipped kernel, plus their seeded-bug
// negative controls. The extnc_check CLI and the clean-suite tests are
// thin wrappers over this module.
//
// Static audit (run_kernel_audit): derives each kernel's access model
// (gpu/kernel_audit.h) from DeviceSpec + geometry alone — no kernel runs —
// and checks geometry, shared/global footprints (OOB-freedom) and barrier
// structure against the kernel's declared LaunchShape, with advisory
// bank-conflict / uncoalesced lints. The models see every group class, so
// the lints are a static superset of the dynamic Checker's advisories.
//
// Dynamic sweep (run_kernel_checks): drives each GPU code path the library
// ships — all seven encode schemes, the single-segment decoder in each
// Sec. 5.4 option combination, the multi-segment decoder, the recoder, and
// the hybrid encoder's GPU half — under a collect-mode simgpu::Checker
// with every device buffer registered, on a caller-chosen exec engine. One
// fresh checker per case, so each report attributes to exactly one kernel
// family. "Zero error findings on every case" is the gate, and "identical
// reports from the serial and parallel engines" is the engine-invariance
// check.
//
// Both checks read their advisory-lint thresholds from one place,
// simgpu::CheckConfig's defaults.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coding/params.h"
#include "gpu/kernel_audit.h"
#include "simgpu/checker.h"
#include "simgpu/device_spec.h"
#include "simgpu/exec_engine.h"
#include "simgpu/static_model.h"

namespace extnc::gpu {

struct KernelCheckOptions {
  // Small enough to sweep in well under a second, large enough that every
  // kernel takes its strided/multi-block paths; both dimensions must be
  // multiples of 4 (GPU kernels operate on words).
  coding::Params params{.n = 16, .k = 256};
  std::size_t batch_blocks = 16;  // coded blocks per encode batch
  ModelAssumptions assume;        // static models only
};

// ------------------------------------------------------------------------
// Static pre-launch audit.

enum class AuditKind {
  kGeometry,           // launch shape vs device limits (error)
  kSharedFootprint,    // scratchpad bytes vs shared_mem_per_sm (error)
  kGlobalFootprint,    // modeled extent vs registered buffer size (error)
  kBarrierDivergence,  // step width outside the declared LaunchShape (error)
  kBankConflictLint,   // max serialization degree >= threshold (advisory)
  kUncoalescedLint,    // max half-warp transactions >= threshold (advisory)
};

const char* audit_kind_name(AuditKind kind);

struct AuditFinding {
  AuditKind kind;
  bool advisory = false;
  std::string kernel;
  std::string detail;
};

struct AuditCase {
  std::string kernel;
  simgpu::StaticKernelModel model;
  std::vector<AuditFinding> findings;
};

struct AuditReport {
  std::vector<AuditCase> cases;
  std::size_t error_count = 0;     // non-advisory findings
  std::size_t advisory_count = 0;  // lints

  bool clean() const { return error_count == 0; }
};

// Audit every shipped kernel's model against `spec`: the seven encode
// schemes, both preprocess kernels, the inverter and the recoder. Emits
// simgpu.audit.* metrics (cases, errors, advisories) via the process
// metrics registry.
AuditReport run_kernel_audit(const simgpu::DeviceSpec& spec,
                             const KernelCheckOptions& options);

// ------------------------------------------------------------------------
// Dynamic sanitizer sweep.

struct KernelCheckCase {
  std::string name;  // e.g. "encode/tb5", "decode/single+atomic+cache"
  simgpu::CheckReport report;
};

// Runs every case on `engine` (kSerial / kParallel / kAuto pinned for the
// sweep's duration) and returns the per-case reports, in a fixed order.
std::vector<KernelCheckCase> run_kernel_checks(
    const simgpu::DeviceSpec& spec, simgpu::ExecEngine engine,
    const KernelCheckOptions& options = {});

// ------------------------------------------------------------------------
// Seeded-bug negative controls: one deliberately broken kernel (dynamic)
// or kernel model (static) each, which the matching check must catch. A
// clean report here means the check lost its teeth.

enum class SeedBug {
  // Dynamic: a tiny synthetic kernel run under a collect-mode Checker.
  kRace,        // every lane writes shared byte 0 in one segment
  kRwRace,      // lane 0 writes a byte later lanes read in the same segment
  kOobShared,   // shared loads past shared_mem_per_sm
  kOobGlobal,   // global loads past a registered 16-byte buffer
  kMisaligned,  // 32-bit shared stores at 2 mod 4
  kDivergence,  // a partial step the launch shape never declared
  kStale,       // shared reads of bytes no lane wrote this launch
  // Static: the audit re-run with one mis-modeled kernel.
  // The encode store step modeled without its tail guard: the last block
  // writes the strided range rounded up to a full thread count, past the
  // registered output buffer.
  kOobTail,
  // The inverter's pivot scan modeled at width 2 ("scan lane plus its
  // neighbor"), which is outside the kernel's declared LaunchShape {1}.
  kDivergentBarrier,
  // The tb5 table load modeled lane-blocked instead of lane-interleaved:
  // each lane sweeps a contiguous 16-word chunk, so a half-warp's stores
  // stride 16 words apart — 16 distinct words in one bank, degree 16.
  kConflictRegression,
};

struct SeedBugInfo {
  SeedBug bug;
  const char* name;  // the CLI spelling
  bool is_static;    // caught by the audit (else by the Checker)
};

// The one table of seeded bugs: extnc_check's --seed-bug parsing and its
// usage message both read it (tools/CMakeLists.txt gates every name).
inline constexpr std::array<SeedBugInfo, 10> kSeedBugs{{
    {SeedBug::kRace, "race", false},
    {SeedBug::kRwRace, "rw-race", false},
    {SeedBug::kOobShared, "oob-shared", false},
    {SeedBug::kOobGlobal, "oob-global", false},
    {SeedBug::kMisaligned, "misaligned", false},
    {SeedBug::kDivergence, "divergence", false},
    {SeedBug::kStale, "stale", false},
    {SeedBug::kOobTail, "oob-tail", true},
    {SeedBug::kDivergentBarrier, "divergent-barrier", true},
    {SeedBug::kConflictRegression, "conflict-regression", true},
}};

const SeedBugInfo& seed_bug_info(SeedBug bug);
std::optional<SeedBug> parse_seed_bug(std::string_view name);

// Static seeded bugs: the audit report with the defect present. The
// footprint and barrier bugs surface as errors, the conflict regression as
// a bank-conflict advisory at full degree.
AuditReport run_seeded_audit(const simgpu::DeviceSpec& spec,
                             const KernelCheckOptions& options, SeedBug bug);

// Dynamic seeded bugs: the collect-mode Checker's report for the broken
// kernel; every one of them is an error finding.
simgpu::CheckReport run_seeded_check(const simgpu::DeviceSpec& spec,
                                     SeedBug bug);

}  // namespace extnc::gpu
