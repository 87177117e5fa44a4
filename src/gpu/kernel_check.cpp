#include "gpu/kernel_check.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "coding/block_decoder.h"
#include "coding/encoder.h"
#include "gpu/gpu_decoder.h"
#include "gpu/gpu_encoder.h"
#include "gpu/gpu_multiseg_decoder.h"
#include "gpu/gpu_recoder.h"
#include "gpu/hybrid_encoder.h"
#include "simgpu/executor.h"
#include "util/assert.h"
#include "util/metrics_registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace extnc::gpu {

using simgpu::SegmentModel;
using simgpu::StaticKernelModel;

// ------------------------------------------------------------------------
// Static pre-launch audit.

const char* audit_kind_name(AuditKind kind) {
  switch (kind) {
    case AuditKind::kGeometry: return "geometry";
    case AuditKind::kSharedFootprint: return "shared-footprint";
    case AuditKind::kGlobalFootprint: return "global-footprint";
    case AuditKind::kBarrierDivergence: return "barrier-divergence";
    case AuditKind::kBankConflictLint: return "bank-conflict-lint";
    case AuditKind::kUncoalescedLint: return "uncoalesced-lint";
  }
  return "?";
}

namespace {

void audit_model(const simgpu::DeviceSpec& spec,
                 const StaticKernelModel& model,
                 const std::vector<std::size_t>& declared_partial,
                 std::vector<AuditFinding>& findings) {
  const simgpu::CheckConfig lints;  // the dynamic Checker's thresholds
  auto add = [&](AuditKind kind, bool advisory, std::string detail) {
    findings.push_back(
        {kind, advisory, model.kernel, std::move(detail)});
  };
  std::ostringstream os;
  if (model.blocks < 1 || model.threads_per_block < 1 ||
      model.threads_per_block >
          static_cast<std::size_t>(spec.max_threads_per_block)) {
    os << model.blocks << " blocks x " << model.threads_per_block
       << " threads vs max " << spec.max_threads_per_block;
    add(AuditKind::kGeometry, false, os.str());
  }
  if (model.shared_bytes > spec.shared_mem_per_sm) {
    os.str("");
    os << model.shared_bytes << " shared bytes vs " << spec.shared_mem_per_sm
       << " per SM";
    add(AuditKind::kSharedFootprint, false, os.str());
  }
  for (const simgpu::FootprintRegion& region : model.footprint) {
    if (region.bytes_needed > region.bytes_registered) {
      os.str("");
      os << region.name << (region.written ? " written" : " read") << " to "
         << region.bytes_needed << " bytes, registered "
         << region.bytes_registered;
      add(AuditKind::kGlobalFootprint, false, os.str());
    }
  }
  for (const SegmentModel& seg : model.segments) {
    const bool full = seg.step_width == model.threads_per_block;
    const bool declared =
        std::find(declared_partial.begin(), declared_partial.end(),
                  seg.step_width) != declared_partial.end();
    if (!full && !declared) {
      os.str("");
      os << "segment '" << seg.name << "' steps " << seg.step_width
         << " lanes, declared shape allows full steps";
      for (const std::size_t c : declared_partial) os << " or " << c;
      add(AuditKind::kBarrierDivergence, false, os.str());
    }
    if (seg.max_conflict_degree() >= lints.bank_conflict_threshold) {
      os.str("");
      os << "segment '" << seg.name << "' worst bank serialization degree "
         << seg.max_conflict_degree();
      add(AuditKind::kBankConflictLint, true, os.str());
    }
    if (seg.max_group_transactions >= lints.uncoalesced_threshold) {
      os.str("");
      os << "segment '" << seg.name << "' worst half-warp spans "
         << seg.max_group_transactions << " transactions";
      add(AuditKind::kUncoalescedLint, true, os.str());
    }
  }
}

// Audits `model` (partial steps of the `declared` widths allowed) and
// appends it as one case.
void push_case(const simgpu::DeviceSpec& spec, StaticKernelModel model,
               const std::vector<std::size_t>& declared,
               std::vector<AuditCase>& cases) {
  AuditCase c;
  c.kernel = model.kernel;
  c.model = std::move(model);
  audit_model(spec, c.model, declared, c.findings);
  cases.push_back(std::move(c));
}

AuditReport finish_report(std::vector<AuditCase> cases) {
  AuditReport report;
  report.cases = std::move(cases);
  for (const AuditCase& c : report.cases) {
    metrics::count("simgpu.audit.cases");
    for (const AuditFinding& f : c.findings) {
      if (f.advisory) {
        ++report.advisory_count;
        metrics::count("simgpu.audit.advisories");
      } else {
        ++report.error_count;
        metrics::count("simgpu.audit.errors");
      }
    }
  }
  return report;
}

}  // namespace

AuditReport run_kernel_audit(const simgpu::DeviceSpec& spec,
                             const KernelCheckOptions& options) {
  const coding::Params& p = options.params;
  std::vector<AuditCase> cases;
  for (const EncodeScheme scheme :
       {EncodeScheme::kLoopBased, EncodeScheme::kTable0, EncodeScheme::kTable1,
        EncodeScheme::kTable2, EncodeScheme::kTable3, EncodeScheme::kTable4,
        EncodeScheme::kTable5}) {
    push_case(spec,
              encode_kernel_model(spec, scheme, p, options.batch_blocks,
                                  options.assume),
              {}, cases);
  }
  push_case(spec, preprocess_segment_model(spec, p), {}, cases);
  push_case(spec, preprocess_coefficients_model(spec, p, options.batch_blocks),
            {}, cases);
  push_case(spec,
            invert_kernel_model(spec, p, options.batch_blocks,
                                synthesize_invertible_matrix(p.n)),
            {1}, cases);
  push_case(spec,
            recode_kernel_model(spec, EncodeScheme::kTable5, p, p.n,
                                options.batch_blocks, options.assume),
            {}, cases);
  return finish_report(std::move(cases));
}

// ------------------------------------------------------------------------
// Dynamic sanitizer sweep.

namespace {

using simgpu::Checker;
using simgpu::CheckConfig;

// Pin the process-default engine for the sweep so every kAuto launch
// resolves the same way, restoring the previous default on exit.
class EngineGuard {
 public:
  explicit EngineGuard(simgpu::ExecEngine engine)
      : saved_(simgpu::default_engine()) {
    simgpu::set_default_engine(engine);
  }
  ~EngineGuard() { simgpu::set_default_engine(saved_); }
  EngineGuard(const EngineGuard&) = delete;
  EngineGuard& operator=(const EngineGuard&) = delete;

 private:
  simgpu::ExecEngine saved_;
};

// Seed of the dynamic sweep's segments and coefficients.
constexpr std::uint64_t kSweepSeed = 1;

// Collect mode: sweep everything, throw never. Advisory lints stay on at
// CheckConfig's thresholds (they never dirty a report).
Checker make_checker() {
  CheckConfig config;
  config.mode = CheckConfig::Mode::kCollect;
  return Checker(config);
}

// n linearly independent coded blocks of `segment` (decoders require
// independence by construction for a deterministic sweep).
coding::CodedBatch independent_batch(const coding::Segment& segment,
                                     Rng& rng) {
  const coding::Params& params = segment.params();
  const coding::Encoder encoder(segment);
  coding::BlockDecoder probe(params);
  coding::CodedBatch batch(params, params.n);
  std::size_t stored = 0;
  while (stored < params.n) {
    coding::CodedBlock block = encoder.encode(rng);
    if (!probe.add(block)) continue;
    std::copy(block.coefficients().begin(), block.coefficients().end(),
              batch.coefficients(stored).begin());
    std::copy(block.payload().begin(), block.payload().end(),
              batch.payload(stored).begin());
    ++stored;
  }
  return batch;
}

KernelCheckCase check_encode(const simgpu::DeviceSpec& spec,
                             const KernelCheckOptions& options,
                             EncodeScheme scheme) {
  Checker checker = make_checker();
  Rng rng(kSweepSeed);
  const coding::Segment segment =
      coding::Segment::random(options.params, rng);
  GpuEncoder encoder(spec, segment, scheme, /*profiler=*/nullptr, "encode",
                     /*injector=*/nullptr, &checker);
  encoder.encode_batch(options.batch_blocks, rng);
  return {std::string("encode/") + scheme_label(scheme), checker.report()};
}

KernelCheckCase check_decode_single(const simgpu::DeviceSpec& spec,
                                    const KernelCheckOptions& options,
                                    DecodeOptions decode_options,
                                    std::string name) {
  Checker checker = make_checker();
  Rng rng(kSweepSeed);
  const coding::Segment segment =
      coding::Segment::random(options.params, rng);
  const coding::CodedBatch batch = independent_batch(segment, rng);
  GpuSingleSegmentDecoder decoder(spec, options.params, decode_options);
  decoder.attach_checker(&checker);
  for (std::size_t j = 0; j < batch.count() && !decoder.is_complete(); ++j) {
    decoder.add(batch.coefficients(j), batch.payload(j));
  }
  EXTNC_CHECK(decoder.is_complete());
  return {std::move(name), checker.report()};
}

KernelCheckCase check_decode_multiseg(const simgpu::DeviceSpec& spec,
                                      const KernelCheckOptions& options) {
  Checker checker = make_checker();
  Rng rng(kSweepSeed);
  std::vector<coding::CodedBatch> batches;
  for (int s = 0; s < 2; ++s) {
    batches.push_back(independent_batch(
        coding::Segment::random(options.params, rng), rng));
  }
  GpuMultiSegmentDecoder decoder(spec, options.params);
  decoder.launcher().set_checker(&checker);
  decoder.decode_all(batches);
  return {"decode/multiseg", checker.report()};
}

KernelCheckCase check_recode(const simgpu::DeviceSpec& spec,
                             const KernelCheckOptions& options) {
  Checker checker = make_checker();
  Rng rng(kSweepSeed);
  const coding::Segment segment =
      coding::Segment::random(options.params, rng);
  const coding::CodedBatch received = independent_batch(segment, rng);
  gpu_recode(spec, received, options.batch_blocks, rng,
             EncodeScheme::kTable5, /*profiler=*/nullptr, &checker);
  return {"recode", checker.report()};
}

KernelCheckCase check_hybrid(const simgpu::DeviceSpec& spec,
                             const KernelCheckOptions& options) {
  Checker checker = make_checker();
  Rng rng(kSweepSeed);
  const coding::Segment segment =
      coding::Segment::random(options.params, rng);
  ThreadPool pool(2);
  HybridEncoder hybrid(spec, segment, pool);
  hybrid.attach_checker(&checker);
  hybrid.encode_batch(options.batch_blocks, rng);
  return {"hybrid", checker.report()};
}

}  // namespace

std::vector<KernelCheckCase> run_kernel_checks(
    const simgpu::DeviceSpec& spec, simgpu::ExecEngine engine,
    const KernelCheckOptions& options) {
  EXTNC_CHECK(options.params.n % 4 == 0);
  EXTNC_CHECK(options.params.k % 4 == 0);
  EngineGuard guard(engine);

  std::vector<KernelCheckCase> cases;
  for (EncodeScheme scheme :
       {EncodeScheme::kLoopBased, EncodeScheme::kTable0, EncodeScheme::kTable1,
        EncodeScheme::kTable2, EncodeScheme::kTable3, EncodeScheme::kTable4,
        EncodeScheme::kTable5}) {
    cases.push_back(check_encode(spec, options, scheme));
  }
  cases.push_back(check_decode_single(spec, options, DecodeOptions{},
                                      "decode/single"));
  cases.push_back(check_decode_single(
      spec, options, DecodeOptions{.cache_coefficients = true},
      "decode/single+cache"));
  if (spec.has_shared_atomics) {
    cases.push_back(check_decode_single(
        spec, options, DecodeOptions{.use_atomic_min = true},
        "decode/single+atomic"));
    cases.push_back(check_decode_single(
        spec, options,
        DecodeOptions{.use_atomic_min = true, .cache_coefficients = true},
        "decode/single+atomic+cache"));
  }
  cases.push_back(check_decode_multiseg(spec, options));
  cases.push_back(check_recode(spec, options));
  cases.push_back(check_hybrid(spec, options));
  return cases;
}

// ------------------------------------------------------------------------
// Seeded bugs.

const SeedBugInfo& seed_bug_info(SeedBug bug) {
  for (const SeedBugInfo& info : kSeedBugs) {
    if (info.bug == bug) return info;
  }
  EXTNC_CHECK(false);
  return kSeedBugs.front();
}

std::optional<SeedBug> parse_seed_bug(std::string_view name) {
  for (const SeedBugInfo& info : kSeedBugs) {
    if (name == info.name) return info.bug;
  }
  return std::nullopt;
}

AuditReport run_seeded_audit(const simgpu::DeviceSpec& spec,
                             const KernelCheckOptions& options, SeedBug bug) {
  EXTNC_CHECK(seed_bug_info(bug).is_static);
  const coding::Params& p = options.params;
  StaticKernelModel model;
  std::vector<std::size_t> declared;
  if (bug == SeedBug::kOobTail) {
    // Pick a batch size whose word count is not a thread multiple so the
    // dropped tail guard actually reaches past the buffer.
    std::size_t count = options.batch_blocks;
    while ((count * (p.k / 4)) % 256 == 0) ++count;
    model = encode_kernel_model(spec, EncodeScheme::kTable3, p, count,
                                options.assume);
    // Without the guard, every block's last strided pass stores a full
    // thread count of words.
    const EncodeGeometry g =
        encode_geometry(spec, EncodeScheme::kTable3, p, count);
    ByteExtent out;
    for (std::size_t b = 0; b < g.blocks; ++b) {
      for (std::size_t base = b * g.threads; base < g.total_words;
           base += g.blocks * g.threads) {
        for (std::size_t w = g.total_words; w < base + g.threads; ++w) {
          out.touch((w / g.wpb) * p.k + (w % g.wpb) * 4, 4);
        }
      }
    }
    for (simgpu::FootprintRegion& region : model.footprint) {
      if (region.name == "batch.payloads") {
        region.bytes_needed = std::max(region.bytes_needed, out.end);
      }
    }
  } else if (bug == SeedBug::kDivergentBarrier) {
    model = invert_kernel_model(spec, p, options.batch_blocks,
                                synthesize_invertible_matrix(p.n));
    for (SegmentModel& seg : model.segments) {
      if (seg.step_width == 1) seg.step_width = 2;
    }
    declared = {1};
  } else {
    model = encode_kernel_model(spec, EncodeScheme::kTable5, p,
                                options.batch_blocks, options.assume);
    // The model's first segment is the cooperative table load.
    model.segments.front() = table_load_segment(
        spec, EncodeScheme::kTable5, model.threads_per_block, model.blocks,
        0, 0, nullptr, nullptr, /*lane_blocked=*/true);
  }
  std::vector<AuditCase> cases;
  push_case(spec, std::move(model), declared, cases);
  return finish_report(std::move(cases));
}

simgpu::CheckReport run_seeded_check(const simgpu::DeviceSpec& spec,
                                     SeedBug bug) {
  EXTNC_CHECK(!seed_bug_info(bug).is_static);
  using simgpu::BlockCtx;
  using simgpu::ThreadCtx;
  Checker checker = make_checker();
  simgpu::Launcher launcher(spec);
  launcher.set_checker(&checker);
  launcher.set_launch_label(std::string("seeded/") + seed_bug_info(bug).name);
  const simgpu::LaunchConfig launch{.blocks = 1, .threads_per_block = 16};

  std::vector<std::uint8_t> small(16);
  Checker::ScopedWatch watch(&checker, small.data(), small.size(), "small");

  switch (bug) {
    case SeedBug::kRace:
      launcher.launch(launch, [](BlockCtx& block) {
        block.step([](ThreadCtx& thread) {
          thread.sstore_u8(0, static_cast<std::uint8_t>(thread.lane()));
        });
      });
      break;
    case SeedBug::kRwRace:
      launcher.launch(launch, [](BlockCtx& block) {
        block.step([](ThreadCtx& thread) {
          if (thread.lane() == 0) {
            thread.sstore_u8(0, 1);
          } else {
            (void)thread.sload_u8(0);
          }
        });
      });
      break;
    case SeedBug::kOobShared:
      launcher.launch(launch, [&](BlockCtx& block) {
        block.step([&](ThreadCtx& thread) {
          (void)thread.sload_u8(spec.shared_mem_per_sm + thread.lane());
        });
      });
      break;
    case SeedBug::kOobGlobal:
      launcher.launch(launch, [&](BlockCtx& block) {
        block.step([&](ThreadCtx& thread) {
          (void)thread.gload_u8(small.data() + small.size() + thread.lane());
        });
      });
      break;
    case SeedBug::kMisaligned:
      launcher.launch(launch, [](BlockCtx& block) {
        block.step([](ThreadCtx& thread) {
          thread.sstore_u32(2 + thread.lane() * 8, 0);
        });
      });
      break;
    case SeedBug::kDivergence:
      launcher.launch(launch, [](BlockCtx& block) {
        block.step_partial(3, [](ThreadCtx& thread) {
          thread.sstore_u32(thread.lane() * 4, 1);
        });
      });
      break;
    case SeedBug::kStale:
      // In-bounds shared reads, 128 bytes past anything written.
      launcher.launch(launch, [](BlockCtx& block) {
        block.step([](ThreadCtx& thread) {
          (void)thread.sload_u8(128 + thread.lane());
        });
      });
      break;
    default:
      break;
  }
  return checker.report();
}

}  // namespace extnc::gpu
