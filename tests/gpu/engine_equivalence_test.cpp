// Engine and fast-path equivalence across every shipped kernel: the
// interpreted serial engine is the oracle, and both the warp-batched fast
// path and the parallel engine must reproduce its observable state
// bit-for-bit — output bytes, KernelMetrics (deci-op ALU counts included),
// modeled clocks, and serialized Chrome traces — in healthy runs and under
// injected faults. Internal launches all use kAuto, so the engines are
// pinned process-wide via set_default_engine, and the fast path via
// set_fast_path_enabled.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "coding/progressive_decoder.h"
#include "gpu/gpu_decoder.h"
#include "gpu/gpu_encoder.h"
#include "gpu/gpu_multiseg_decoder.h"
#include "gpu/gpu_recoder.h"
#include "gpu/hybrid_encoder.h"
#include "simgpu/exec_engine.h"
#include "simgpu/fault_injector.h"
#include "simgpu/profiler.h"
#include "simgpu/trace_export.h"
#include "util/metrics_registry.h"

namespace extnc::gpu {
namespace {

using coding::CodedBatch;
using coding::Params;
using coding::Segment;
using coding::independent_batch;
using simgpu::ExecEngine;
using simgpu::KernelMetrics;

// Pin the process default engine for one scope; restores on exit.
class ScopedEngine {
 public:
  explicit ScopedEngine(ExecEngine engine)
      : saved_(simgpu::default_engine()) {
    simgpu::set_default_engine(engine);
  }
  ~ScopedEngine() { simgpu::set_default_engine(saved_); }

 private:
  ExecEngine saved_;
};

// Pin the process-wide fast-path toggle for one scope; restores on exit.
class ScopedFastPath {
 public:
  explicit ScopedFastPath(bool enabled)
      : saved_(simgpu::fast_path_enabled()) {
    simgpu::set_fast_path_enabled(enabled);
  }
  ~ScopedFastPath() { simgpu::set_fast_path_enabled(saved_); }

 private:
  bool saved_;
};

void expect_metrics_identical(const KernelMetrics& serial,
                              const KernelMetrics& parallel,
                              const std::string& what) {
  EXPECT_EQ(serial.alu_deciops, parallel.alu_deciops) << what;  // bitwise
  EXPECT_EQ(serial.global_load_bytes, parallel.global_load_bytes) << what;
  EXPECT_EQ(serial.global_store_bytes, parallel.global_store_bytes) << what;
  EXPECT_EQ(serial.global_transactions, parallel.global_transactions) << what;
  EXPECT_EQ(serial.shared_accesses, parallel.shared_accesses) << what;
  EXPECT_EQ(serial.shared_access_events, parallel.shared_access_events)
      << what;
  EXPECT_EQ(serial.shared_serialized_cycles,
            parallel.shared_serialized_cycles)
      << what;
  EXPECT_EQ(serial.texture_fetches, parallel.texture_fetches) << what;
  EXPECT_EQ(serial.texture_misses, parallel.texture_misses) << what;
  EXPECT_EQ(serial.atomic_ops, parallel.atomic_ops) << what;
  EXPECT_EQ(serial.barriers, parallel.barriers) << what;
  EXPECT_EQ(serial.kernel_launches, parallel.kernel_launches) << what;
  EXPECT_EQ(serial.blocks, parallel.blocks) << what;
  EXPECT_EQ(serial.threads_per_block, parallel.threads_per_block) << what;
}

void expect_batches_identical(const CodedBatch& serial,
                              const CodedBatch& parallel,
                              const std::string& what) {
  ASSERT_EQ(serial.count(), parallel.count()) << what;
  for (std::size_t j = 0; j < serial.count(); ++j) {
    ASSERT_TRUE(std::equal(serial.coefficients(j).begin(),
                           serial.coefficients(j).end(),
                           parallel.coefficients(j).begin()))
        << what << " coefficients " << j;
    ASSERT_TRUE(std::equal(serial.payload(j).begin(),
                           serial.payload(j).end(),
                           parallel.payload(j).begin()))
        << what << " payload " << j;
  }
}

// One observable run of an operation under a pinned engine: everything a
// caller could compare afterwards.
struct RunResult {
  std::vector<CodedBatch> batches;
  std::vector<Segment> segments;
  KernelMetrics metrics;
  KernelMetrics metrics2;  // second metrics stream (multiseg stage2)
  std::string trace;
  std::string note;  // free-form observable state (e.g. fault counters)
  double elapsed_s = 0;
};

void expect_runs_identical(const RunResult& serial, const RunResult& parallel,
                           const std::string& what) {
  ASSERT_EQ(serial.batches.size(), parallel.batches.size()) << what;
  for (std::size_t i = 0; i < serial.batches.size(); ++i) {
    expect_batches_identical(serial.batches[i], parallel.batches[i],
                             what + " batch " + std::to_string(i));
  }
  ASSERT_EQ(serial.segments.size(), parallel.segments.size()) << what;
  for (std::size_t i = 0; i < serial.segments.size(); ++i) {
    EXPECT_EQ(serial.segments[i], parallel.segments[i])
        << what << " segment " << i;
  }
  expect_metrics_identical(serial.metrics, parallel.metrics, what);
  expect_metrics_identical(serial.metrics2, parallel.metrics2,
                           what + " (stage2)");
  EXPECT_EQ(serial.trace, parallel.trace) << what;
  EXPECT_EQ(serial.note, parallel.note) << what;
  EXPECT_EQ(serial.elapsed_s, parallel.elapsed_s) << what;
}

// Run `op` once per execution config with identical inputs and compare:
// the fully interpreted serial run is the oracle, the fast-path serial run
// must match it bit-for-bit, and the fast-path parallel run must match in
// turn.
void compare_engines(const std::function<RunResult(ExecEngine)>& op,
                     const std::string& what) {
  RunResult interpreted, fast_serial, fast_parallel;
  {
    ScopedFastPath slow(false);
    ScopedEngine pin(ExecEngine::kSerial);
    interpreted = op(ExecEngine::kSerial);
  }
  {
    ScopedFastPath fast(true);
    ScopedEngine pin(ExecEngine::kSerial);
    fast_serial = op(ExecEngine::kSerial);
  }
  {
    ScopedFastPath fast(true);
    ScopedEngine pin(ExecEngine::kParallel);
    fast_parallel = op(ExecEngine::kParallel);
  }
  expect_runs_identical(interpreted, fast_serial,
                        what + " [interpreted vs fast-serial]");
  expect_runs_identical(fast_serial, fast_parallel,
                        what + " [fast-serial vs fast-parallel]");
}

TEST(EngineEquivalence, EncoderAllSchemes) {
  constexpr EncodeScheme kAllSchemes[] = {
      EncodeScheme::kLoopBased, EncodeScheme::kTable0, EncodeScheme::kTable1,
      EncodeScheme::kTable2,    EncodeScheme::kTable3, EncodeScheme::kTable4,
      EncodeScheme::kTable5,
  };
  Rng seed_rng(11);
  const Params params{.n = 24, .k = 256};
  const Segment segment = Segment::random(params, seed_rng);
  for (EncodeScheme scheme : kAllSchemes) {
    compare_engines(
        [&](ExecEngine) {
          Rng rng(101);  // same coefficient draws under both engines
          simgpu::Profiler profiler;
          GpuEncoder encoder(simgpu::gtx280(), segment, scheme);
          encoder.attach_profiler(&profiler, "equiv");
          RunResult result;
          result.batches.push_back(encoder.encode_batch(40, rng));
          result.metrics = encoder.encode_metrics();
          result.metrics2 = encoder.preprocess_metrics();
          result.trace = simgpu::to_chrome_trace(profiler);
          result.elapsed_s = encoder.launcher().elapsed_seconds();
          return result;
        },
        std::string("encoder/") + scheme_name(scheme));
  }
}

TEST(EngineEquivalence, SingleSegmentDecoderAllOptionVariants) {
  Rng seed_rng(12);
  const Params params{.n = 16, .k = 128};
  const Segment segment = Segment::random(params, seed_rng);
  const CodedBatch batch = independent_batch(segment, seed_rng);
  const DecodeOptions variants[] = {
      {},
      {.use_atomic_min = true},
      {.cache_coefficients = true},
      {.use_atomic_min = true, .cache_coefficients = true},
  };
  for (const DecodeOptions& options : variants) {
    compare_engines(
        [&](ExecEngine) {
          simgpu::Profiler profiler;
          GpuSingleSegmentDecoder decoder(simgpu::gtx280(), params, options);
          decoder.attach_profiler(&profiler);
          for (std::size_t j = 0; j < batch.count(); ++j) {
            decoder.add(batch.coefficients(j), batch.payload(j));
          }
          RunResult result;
          EXPECT_TRUE(decoder.is_complete());
          result.segments.push_back(decoder.decoded_segment());
          result.metrics = decoder.metrics();
          result.trace = simgpu::to_chrome_trace(profiler);
          return result;
        },
        std::string("decoder/atomic=") +
            (options.use_atomic_min ? "1" : "0") + "/cache=" +
            (options.cache_coefficients ? "1" : "0"));
  }
}

TEST(EngineEquivalence, MultiSegmentDecoder) {
  Rng seed_rng(13);
  const Params params{.n = 12, .k = 128};
  std::vector<Segment> segments;
  std::vector<CodedBatch> batches;
  for (int s = 0; s < 4; ++s) {
    segments.push_back(Segment::random(params, seed_rng));
    batches.push_back(independent_batch(segments.back(), seed_rng));
  }
  compare_engines(
      [&](ExecEngine) {
        simgpu::Profiler profiler;
        GpuMultiSegmentDecoder decoder(simgpu::gtx280(), params);
        decoder.attach_profiler(&profiler);
        RunResult result;
        result.segments = decoder.decode_all(batches);
        result.metrics = decoder.stage1_metrics();
        result.metrics2 = decoder.stage2_metrics();
        result.trace = simgpu::to_chrome_trace(profiler);
        result.elapsed_s = decoder.launcher().elapsed_seconds();
        return result;
      },
      "multiseg");
  // And the decode is actually correct, not just self-consistent.
  ScopedEngine pin(ExecEngine::kParallel);
  GpuMultiSegmentDecoder decoder(simgpu::gtx280(), params);
  const auto decoded = decoder.decode_all(batches);
  for (std::size_t s = 0; s < segments.size(); ++s) {
    EXPECT_EQ(decoded[s], segments[s]) << s;
  }
}

TEST(EngineEquivalence, Recoder) {
  Rng seed_rng(14);
  const Params params{.n = 16, .k = 128};
  const Segment segment = Segment::random(params, seed_rng);
  const CodedBatch received = independent_batch(segment, seed_rng);
  compare_engines(
      [&](ExecEngine) {
        Rng rng(202);
        simgpu::Profiler profiler;
        RunResult result;
        result.batches.push_back(gpu_recode(simgpu::gtx280(), received, 24,
                                            rng, EncodeScheme::kTable5,
                                            &profiler));
        result.trace = simgpu::to_chrome_trace(profiler);
        return result;
      },
      "recoder");
}

// Unaligned geometries: words-per-block is not a half-warp multiple and
// the batch leaves a ragged tail block, so the shared access walker (rather
// than the aligned profile path) carries the fast-path accounting for every
// scheme.
TEST(EngineEquivalence, EncoderUnalignedGeometries) {
  constexpr EncodeScheme kAllSchemes[] = {
      EncodeScheme::kLoopBased, EncodeScheme::kTable0, EncodeScheme::kTable1,
      EncodeScheme::kTable2,    EncodeScheme::kTable3, EncodeScheme::kTable4,
      EncodeScheme::kTable5,
  };
  Rng seed_rng(19);
  const Params params{.n = 12, .k = 200};  // 50 words/block straddles halves
  const Segment segment = Segment::random(params, seed_rng);
  for (EncodeScheme scheme : kAllSchemes) {
    compare_engines(
        [&](ExecEngine) {
          Rng rng(606);
          GpuEncoder encoder(simgpu::gtx280(), segment, scheme);
          RunResult result;
          // Two batches: the second launch meets the state the first left
          // behind (tb4's warm texture caches) on the walker path.
          result.batches.push_back(encoder.encode_batch(7, rng));
          result.batches.push_back(encoder.encode_batch(5, rng));
          result.metrics = encoder.encode_metrics();
          result.metrics2 = encoder.preprocess_metrics();
          result.elapsed_s = encoder.launcher().elapsed_seconds();
          return result;
        },
        std::string("unaligned-encoder/") + scheme_name(scheme));
  }
}

// Set one environment variable for a scope; restores on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// Race regression: the fast path's per-encoder accounting state must be
// complete before a launch's blocks reach the worker pool. Every round uses
// a fresh encoder, so its first launch is the one that would build any
// lazily-built state from several pool threads at once; each round must
// still reproduce the interpreted serial run bit for bit.
TEST(EngineEquivalence, TableSchemesFastParallelFreshEncoders) {
  // Sizes the worker pool when this process creates it (as ctest's
  // one-test-per-process runs do).
  ScopedEnv threads("EXTNC_SIMGPU_THREADS", "4");
  if (simgpu::engine_pool().num_threads() < 2) {
    GTEST_SKIP() << "worker pool already created with one thread";
  }
  constexpr EncodeScheme kTableSchemes[] = {
      EncodeScheme::kTable0, EncodeScheme::kTable1, EncodeScheme::kTable2,
      EncodeScheme::kTable3, EncodeScheme::kTable4, EncodeScheme::kTable5,
  };
  Rng seed_rng(20);
  const Params params{.n = 16, .k = 1024};  // 32 blocks fill all 30 SMs
  const Segment segment = Segment::random(params, seed_rng);
  auto run = [&](EncodeScheme scheme) {
    Rng rng(707);
    GpuEncoder encoder(simgpu::gtx280(), segment, scheme);
    RunResult result;
    result.batches.push_back(encoder.encode_batch(32, rng));
    result.metrics = encoder.encode_metrics();
    result.metrics2 = encoder.preprocess_metrics();
    result.elapsed_s = encoder.launcher().elapsed_seconds();
    return result;
  };
  for (EncodeScheme scheme : kTableSchemes) {
    RunResult interpreted;
    {
      ScopedFastPath slow(false);
      ScopedEngine pin(ExecEngine::kSerial);
      interpreted = run(scheme);
    }
    ScopedFastPath fast(true);
    ScopedEngine pin(ExecEngine::kParallel);
    metrics::Registry::instance().reset();
    for (int round = 0; round < 20; ++round) {
      expect_runs_identical(interpreted, run(scheme),
                            std::string("fresh-encoder/") +
                                scheme_name(scheme) + " round " +
                                std::to_string(round));
    }
    EXPECT_GT(metrics::Registry::instance().value("simgpu.launch.parallel"),
              0.0)
        << scheme_name(scheme);
  }
}

TEST(EngineEquivalence, HybridEncoder) {
  Rng seed_rng(15);
  const Params params{.n = 32, .k = 256};
  const Segment segment = Segment::random(params, seed_rng);
  compare_engines(
      [&](ExecEngine) {
        Rng rng(303);
        ThreadPool pool(2);
        simgpu::Profiler profiler;
        HybridEncoder hybrid(simgpu::gtx280(), segment, pool,
                             EncodeScheme::kTable5, 0.5);
        hybrid.attach_profiler(&profiler);
        RunResult result;
        result.batches.push_back(hybrid.encode_batch(32, rng));
        result.trace = simgpu::to_chrome_trace(profiler);
        return result;
      },
      "hybrid");
}

// Faults are keyed to the launch index, never to blocks or host threads, so
// an injected run must also be engine-invariant: same faulted launches,
// same damaged bytes, same counters, same stalled clocks.
TEST(EngineEquivalence, EncoderUnderFaultPlan) {
  Rng seed_rng(16);
  const Params params{.n = 24, .k = 256};
  const Segment segment = Segment::random(params, seed_rng);
  for (const char* spec : {"flip@2,flip@5", "hang@3", "hang@1,flip@4"}) {
    compare_engines(
        [&](ExecEngine) {
          Rng rng(404);
          const auto plan = simgpu::FaultPlan::parse(spec, 99);
          EXPECT_TRUE(plan.has_value());
          simgpu::FaultInjector injector(*plan);
          GpuEncoder encoder(simgpu::gtx280(), segment,
                             EncodeScheme::kTable5, nullptr, "encode",
                             &injector);
          RunResult result;
          // Several batches so the scripted fault indices actually fire;
          // damaged payload bytes must match across engines.
          for (int round = 0; round < 4; ++round) {
            result.batches.push_back(encoder.encode_batch(24, rng));
          }
          result.metrics = encoder.encode_metrics();
          result.elapsed_s = encoder.launcher().elapsed_seconds();
          result.note = "launches=" +
                        std::to_string(injector.counters().launches) +
                        " faults=" +
                        std::to_string(injector.counters().faults());
          EXPECT_GT(injector.counters().faults(), 0u);
          return result;
        },
        std::string("faulted-encoder/") + spec);
  }
}

// The equivalence tests above would pass vacuously if the bulk lowerings
// never engaged (fast-path blocks that fail their gates fall back to the
// interpreted lambda body). Pin the fast path on and check the engagement
// counter actually moves for the encoder schemes and the multi-segment
// inverter.
TEST(EngineEquivalence, FastPathLoweringsEngage) {
  ScopedFastPath fast(true);
  ScopedEngine pin(ExecEngine::kSerial);
  Rng seed_rng(18);
  const Params params{.n = 16, .k = 256};
  const Segment segment = Segment::random(params, seed_rng);

  metrics::Registry::instance().reset();
  {
    Rng rng(505);
    GpuEncoder encoder(simgpu::gtx280(), segment, EncodeScheme::kTable5);
    encoder.encode_batch(8, rng);
  }
  const double encoder_lowered =
      metrics::Registry::instance().value("simgpu.fast.lowered_blocks");
  EXPECT_GT(encoder_lowered, 0.0);

  {
    std::vector<CodedBatch> batches;
    batches.push_back(independent_batch(segment, seed_rng));
    GpuMultiSegmentDecoder decoder(simgpu::gtx280(), params);
    decoder.decode_all(batches);
  }
  EXPECT_GT(metrics::Registry::instance().value("simgpu.fast.lowered_blocks"),
            encoder_lowered);

  // The recoder's aggregate pseudo-segment (n + k bytes per row) is not a
  // half-warp multiple here, so it must land on the walker path
  // specifically, not fall back to interpreted stepping.
  metrics::Registry::instance().reset();
  {
    Rng rng(507);
    const CodedBatch received = independent_batch(segment, seed_rng);
    gpu_recode(simgpu::gtx280(), received, 8, rng, EncodeScheme::kTable5);
  }
  EXPECT_GT(
      metrics::Registry::instance().value("simgpu.fast.straddle_blocks"),
      0.0);

  // And with the toggle off, the same work stays interpreted.
  metrics::Registry::instance().reset();
  {
    ScopedFastPath slow(false);
    Rng rng(505);
    GpuEncoder encoder(simgpu::gtx280(), segment, EncodeScheme::kTable5);
    encoder.encode_batch(8, rng);
  }
  EXPECT_EQ(metrics::Registry::instance().value("simgpu.fast.lowered_blocks"),
            0.0);
}

TEST(EngineEquivalence, MultiSegmentDecoderUnderFaultPlan) {
  Rng seed_rng(17);
  const Params params{.n = 8, .k = 64};
  std::vector<CodedBatch> batches;
  for (int s = 0; s < 3; ++s) {
    batches.push_back(
        independent_batch(Segment::random(params, seed_rng), seed_rng));
  }
  compare_engines(
      [&](ExecEngine) {
        const auto plan = simgpu::FaultPlan::parse("hang@2", 7);
        EXPECT_TRUE(plan.has_value());
        simgpu::FaultInjector injector(*plan);
        GpuMultiSegmentDecoder decoder(simgpu::gtx280(), params);
        decoder.launcher().set_fault_injector(&injector);
        RunResult result;
        result.segments = decoder.decode_all(batches);
        result.metrics = decoder.stage1_metrics();
        result.metrics2 = decoder.stage2_metrics();
        result.elapsed_s = decoder.launcher().elapsed_seconds();
        result.note = "launches=" +
                      std::to_string(injector.counters().launches) +
                      " hangs=" + std::to_string(injector.counters().hangs);
        return result;
      },
      "faulted-multiseg");
}

}  // namespace
}  // namespace extnc::gpu
