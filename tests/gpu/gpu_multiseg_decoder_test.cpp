#include "gpu/gpu_multiseg_decoder.h"

#include <gtest/gtest.h>

#include "coding/progressive_decoder.h"

namespace extnc::gpu {
namespace {

using coding::CodedBatch;
using coding::Params;
using coding::Segment;
using coding::independent_batch;

TEST(GpuMultiSegmentDecoder, DecodesThreeSegments) {
  Rng rng(1);
  const Params params{.n = 12, .k = 128};
  std::vector<Segment> segments;
  std::vector<CodedBatch> batches;
  for (int s = 0; s < 3; ++s) {
    segments.push_back(Segment::random(params, rng));
    batches.push_back(independent_batch(segments.back(), rng));
  }
  GpuMultiSegmentDecoder decoder(simgpu::gtx280(), params);
  const auto decoded = decoder.decode_all(batches);
  ASSERT_EQ(decoded.size(), 3u);
  for (int s = 0; s < 3; ++s) EXPECT_EQ(decoded[s], segments[s]) << s;
}

TEST(GpuMultiSegmentDecoder, DecodesSixSegments) {
  Rng rng(2);
  const Params params{.n = 8, .k = 64};
  std::vector<Segment> segments;
  std::vector<CodedBatch> batches;
  for (int s = 0; s < 6; ++s) {
    segments.push_back(Segment::random(params, rng));
    batches.push_back(independent_batch(segments.back(), rng));
  }
  GpuMultiSegmentDecoder decoder(simgpu::gtx280(), params);
  const auto decoded = decoder.decode_all(batches);
  for (int s = 0; s < 6; ++s) EXPECT_EQ(decoded[s], segments[s]) << s;
}

TEST(GpuMultiSegmentDecoder, EmptyInputYieldsEmptyOutput) {
  GpuMultiSegmentDecoder decoder(simgpu::gtx280(), {.n = 8, .k = 64});
  EXPECT_TRUE(decoder.decode_all({}).empty());
}

TEST(GpuMultiSegmentDecoder, StageMetricsBothPopulated) {
  Rng rng(3);
  const Params params{.n = 8, .k = 128};
  std::vector<CodedBatch> batches;
  batches.push_back(independent_batch(Segment::random(params, rng), rng));
  GpuMultiSegmentDecoder decoder(simgpu::gtx280(), params);
  (void)decoder.decode_all(batches);
  EXPECT_GT(decoder.stage1_metrics().alu_ops(), 0.0);
  EXPECT_GT(decoder.stage2_metrics().alu_ops(), 0.0);
  // Stage 2 is the table-based multiply: it uses shared memory tables.
  EXPECT_GT(decoder.stage2_metrics().shared_accesses, 0u);
}

TEST(GpuMultiSegmentDecoderDeathTest, RequiresExactlyNBlocks) {
  const Params params{.n = 8, .k = 64};
  GpuMultiSegmentDecoder decoder(simgpu::gtx280(), params);
  std::vector<CodedBatch> batches;
  batches.emplace_back(params, params.n - 1);
  EXPECT_DEATH((void)decoder.decode_all(batches), "EXTNC_CHECK");
}

class MultiSegSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(MultiSegSweep, RoundTrip) {
  const auto [n, segments] = GetParam();
  Rng rng(900 + n + segments);
  const Params params{.n = n, .k = 64};
  std::vector<Segment> originals;
  std::vector<CodedBatch> batches;
  for (std::size_t s = 0; s < segments; ++s) {
    originals.push_back(Segment::random(params, rng));
    batches.push_back(independent_batch(originals.back(), rng));
  }
  GpuMultiSegmentDecoder decoder(simgpu::gtx280(), params);
  const auto decoded = decoder.decode_all(batches);
  for (std::size_t s = 0; s < segments; ++s) {
    EXPECT_EQ(decoded[s], originals[s]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MultiSegSweep,
                         ::testing::Combine(::testing::Values(4u, 16u),
                                            ::testing::Values(1u, 2u, 5u)));

}  // namespace
}  // namespace extnc::gpu
