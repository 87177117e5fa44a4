// Verification contract for the static kernel models: every model's
// totals() must equal, bit for bit, the KernelMetrics the interpreted
// engine produces for a run over inputs synthesized from the same payload
// class — across schemes, devices, geometries (aligned and straddling) and
// class variants. The audit over these models (the KernelAudit suite) is
// tested with the rest of gpu/kernel_check in kernel_check_test.cpp.
#include "gpu/kernel_audit.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "coding/batch.h"
#include "coding/segment.h"
#include "gf256/matrix.h"
#include "gpu/gpu_encoder.h"
#include "gpu/gpu_multiseg_decoder.h"
#include "simgpu/exec_engine.h"
#include "simgpu/profiler.h"
#include "simgpu/static_model.h"

namespace extnc::gpu {
namespace {

using coding::CodedBatch;
using coding::Params;
using coding::Segment;
using simgpu::KernelMetrics;

// The models describe the *interpreted* engine; pin the fast path off so a
// fast-path bug cannot mask a model bug (their equivalence is enforced
// separately by engine_equivalence_test).
class ScopedInterpreted {
 public:
  ScopedInterpreted()
      : saved_fast_(simgpu::fast_path_enabled()),
        saved_engine_(simgpu::default_engine()) {
    simgpu::set_fast_path_enabled(false);
    simgpu::set_default_engine(simgpu::ExecEngine::kSerial);
  }
  ~ScopedInterpreted() {
    simgpu::set_fast_path_enabled(saved_fast_);
    simgpu::set_default_engine(saved_engine_);
  }

 private:
  bool saved_fast_;
  simgpu::ExecEngine saved_engine_;
};

void expect_metrics_equal(const KernelMetrics& model,
                          const KernelMetrics& dynamic,
                          const std::string& what) {
  EXPECT_EQ(model.alu_deciops, dynamic.alu_deciops) << what;
  EXPECT_EQ(model.global_load_bytes, dynamic.global_load_bytes) << what;
  EXPECT_EQ(model.global_store_bytes, dynamic.global_store_bytes) << what;
  EXPECT_EQ(model.global_transactions, dynamic.global_transactions) << what;
  EXPECT_EQ(model.shared_accesses, dynamic.shared_accesses) << what;
  EXPECT_EQ(model.shared_access_events, dynamic.shared_access_events) << what;
  EXPECT_EQ(model.shared_serialized_cycles, dynamic.shared_serialized_cycles)
      << what;
  EXPECT_EQ(model.texture_fetches, dynamic.texture_fetches) << what;
  EXPECT_EQ(model.texture_misses, dynamic.texture_misses) << what;
  EXPECT_EQ(model.atomic_ops, dynamic.atomic_ops) << what;
  EXPECT_EQ(model.barriers, dynamic.barriers) << what;
  EXPECT_EQ(model.kernel_launches, dynamic.kernel_launches) << what;
  EXPECT_EQ(model.blocks, dynamic.blocks) << what;
  EXPECT_EQ(model.threads_per_block, dynamic.threads_per_block) << what;
}

constexpr EncodeScheme kAllSchemes[] = {
    EncodeScheme::kLoopBased, EncodeScheme::kTable0, EncodeScheme::kTable1,
    EncodeScheme::kTable2,    EncodeScheme::kTable3, EncodeScheme::kTable4,
    EncodeScheme::kTable5,
};

// Run one interpreted encode over class-synthesized inputs on a fresh
// encoder (fresh launcher = cold texture caches, the tb4 assumption) and
// return the encode launch's metrics.
KernelMetrics interpreted_encode_metrics(const simgpu::DeviceSpec& spec,
                                         EncodeScheme scheme,
                                         const Params& params,
                                         std::size_t count,
                                         const ModelAssumptions& assume) {
  ScopedInterpreted pin;
  const Segment segment = synthesize_segment(scheme, params, assume);
  CodedBatch batch = synthesize_batch(scheme, params, count, assume);
  GpuEncoder encoder(spec, segment, scheme);
  encoder.encode_into(batch);
  return encoder.encode_metrics();
}

void check_encode_model(const simgpu::DeviceSpec& spec, EncodeScheme scheme,
                        const Params& params, std::size_t count,
                        const ModelAssumptions& assume,
                        const std::string& what) {
  const simgpu::StaticKernelModel model =
      encode_kernel_model(spec, scheme, params, count, assume);
  expect_metrics_equal(
      model.totals(),
      interpreted_encode_metrics(spec, scheme, params, count, assume), what);
}

TEST(KernelAuditModel, EncodeAllSchemesAllClasses) {
  const Params params{.n = 16, .k = 256};
  for (EncodeScheme scheme : kAllSchemes) {
    for (PayloadClass cls :
         {PayloadClass::kUniform, PayloadClass::kStride64,
          PayloadClass::kSparse}) {
      ModelAssumptions assume;
      assume.payload_class = cls;
      check_encode_model(simgpu::gtx280(), scheme, params, 16, assume,
                         std::string(scheme_name(scheme)) + "/class=" +
                             std::to_string(static_cast<int>(cls)));
    }
  }
}

TEST(KernelAuditModel, EncodeZeroCoefficientRows) {
  const Params params{.n = 16, .k = 256};
  for (EncodeScheme scheme : kAllSchemes) {
    ModelAssumptions assume;
    assume.payload_class = PayloadClass::kSparse;
    assume.coeff_zero_every = 3;
    check_encode_model(simgpu::gtx280(), scheme, params, 16, assume,
                       std::string(scheme_name(scheme)) + "/zero-rows");
  }
}

// Straddling geometry: 50 words per coded block is not a half-warp
// multiple and 7 blocks leave a ragged thread tail, so every group the
// model walks crosses coded-block boundaries exactly like the kernel's.
TEST(KernelAuditModel, EncodeStraddlingGeometry) {
  const Params params{.n = 12, .k = 200};
  for (EncodeScheme scheme : kAllSchemes) {
    for (PayloadClass cls :
         {PayloadClass::kUniform, PayloadClass::kStride64}) {
      ModelAssumptions assume;
      assume.payload_class = cls;
      check_encode_model(simgpu::gtx280(), scheme, params, 7, assume,
                         std::string(scheme_name(scheme)) + "/straddle");
    }
  }
}

TEST(KernelAuditModel, EncodeSecondDevice) {
  const Params params{.n = 16, .k = 256};
  for (EncodeScheme scheme :
       {EncodeScheme::kLoopBased, EncodeScheme::kTable0, EncodeScheme::kTable4,
        EncodeScheme::kTable5}) {
    ModelAssumptions assume;
    assume.payload_class = PayloadClass::kStride64;
    check_encode_model(simgpu::geforce_8800gt(), scheme, params, 16, assume,
                       std::string(scheme_name(scheme)) + "/8800gt");
  }
}

TEST(KernelAuditModel, PreprocessKernels) {
  ScopedInterpreted pin;
  const Params params{.n = 16, .k = 256};
  const ModelAssumptions assume;
  const Segment segment =
      synthesize_segment(EncodeScheme::kTable5, params, assume);
  CodedBatch batch =
      synthesize_batch(EncodeScheme::kTable5, params, 16, assume);
  simgpu::Profiler profiler;
  GpuEncoder encoder(simgpu::gtx280(), segment, EncodeScheme::kTable5,
                     &profiler);
  encoder.encode_into(batch);
  const KernelMetrics* segment_launch = nullptr;
  const KernelMetrics* coeff_launch = nullptr;
  for (const simgpu::LaunchProfile& launch : profiler.launches()) {
    if (launch.label == "encode/tb5/preprocess_segment") {
      segment_launch = &launch.metrics;
    }
    if (launch.label == "encode/tb5/preprocess_coeffs") {
      coeff_launch = &launch.metrics;
    }
  }
  ASSERT_NE(segment_launch, nullptr);
  ASSERT_NE(coeff_launch, nullptr);
  expect_metrics_equal(
      preprocess_segment_model(simgpu::gtx280(), params).totals(),
      *segment_launch, "preprocess_segment");
  expect_metrics_equal(
      preprocess_coefficients_model(simgpu::gtx280(), params, 16).totals(),
      *coeff_launch, "preprocess_coeffs");
}

// A random invertible matrix whose leading entries are zeroed where that
// keeps it invertible, so the elimination has to swap rows (the Vandermonde
// matrix never does: its leading column has no zero).
std::vector<std::uint8_t> pivoting_invertible_matrix(std::size_t n,
                                                     std::uint64_t seed) {
  Rng rng(seed);
  while (true) {
    gf256::Matrix m = gf256::Matrix::random_dense(n, n, rng);
    for (std::size_t r = 0; r < n; r += 3) m.set(r, r, 0);
    if (m.rank() == n) return {m.data(), m.data() + n * n};
  }
}

TEST(KernelAuditModel, MultiSegmentInverter) {
  ScopedInterpreted pin;
  const Params params{.n = 16, .k = 128};
  for (const auto& [label, matrix] :
       {std::pair{"vandermonde", synthesize_invertible_matrix(params.n)},
        std::pair{"pivoting", pivoting_invertible_matrix(params.n, 31)}}) {
    // Three batches holding the same coefficient matrix; the payload bytes
    // are irrelevant to stage 1 (pure coefficient work).
    std::vector<CodedBatch> batches;
    for (int s = 0; s < 3; ++s) {
      CodedBatch batch(params, params.n);
      for (std::size_t r = 0; r < params.n; ++r) {
        std::copy(matrix.begin() + r * params.n,
                  matrix.begin() + (r + 1) * params.n,
                  batch.coefficients(r).begin());
        std::fill(batch.payload(r).begin(), batch.payload(r).end(),
                  static_cast<std::uint8_t>(r + 1));
      }
      batches.push_back(std::move(batch));
    }
    GpuMultiSegmentDecoder decoder(simgpu::gtx280(), params);
    decoder.decode_all(batches);
    expect_metrics_equal(
        invert_kernel_model(simgpu::gtx280(), params, 3, matrix).totals(),
        decoder.stage1_metrics(), std::string("invert/") + label);
  }
}

// The recode model is the encode model over the aggregate pseudo-segment
// geometry ((n + k)-byte rows). Verify it against an actual encoder run at
// that geometry — exactly the launch gpu_recode performs.
TEST(KernelAuditModel, RecoderAggregateGeometry) {
  const Params params{.n = 16, .k = 256};
  const std::size_t received = 16;
  const std::size_t produced = 24;
  const Params aggregate{.n = received, .k = params.n + params.k};
  ModelAssumptions assume;
  assume.payload_class = PayloadClass::kStride64;
  const simgpu::StaticKernelModel model = recode_kernel_model(
      simgpu::gtx280(), EncodeScheme::kTable5, params, received, produced,
      assume);
  expect_metrics_equal(model.totals(),
                       interpreted_encode_metrics(
                           simgpu::gtx280(), EncodeScheme::kTable5, aggregate,
                           produced, assume),
                       "recode");
}

TEST(KernelAuditClasses, PayloadAndCoefficientClassBytes) {
  ModelAssumptions assume;
  EXPECT_EQ(payload_class_byte(PayloadClass::kUniform, assume, 5), 0x35);
  EXPECT_EQ(payload_class_byte(PayloadClass::kStride64, assume, 0), 1);
  EXPECT_EQ(payload_class_byte(PayloadClass::kStride64, assume, 4), 1 + 64);
  EXPECT_EQ(payload_class_byte(PayloadClass::kSparse, assume, 0), -1);
  EXPECT_EQ(payload_class_byte(PayloadClass::kSparse, assume, 1), 0x35);
  EXPECT_EQ(coeff_class_byte(assume, 3), 0x1d);
  assume.coeff_zero_every = 3;
  EXPECT_EQ(coeff_class_byte(assume, 2), -1);
  EXPECT_EQ(coeff_class_byte(assume, 3), 0x1d);
}

}  // namespace
}  // namespace extnc::gpu
