#include "cpu/multi_segment_decoder.h"

#include <gtest/gtest.h>

#include "coding/progressive_decoder.h"

namespace extnc::cpu {
namespace {

using coding::CodedBatch;
using coding::Params;
using coding::Segment;
using coding::independent_batch;

// Builds a batch of exactly n independent coded blocks for a segment.
TEST(MultiSegmentDecoder, DecodesAllSegments) {
  Rng rng(1);
  const Params params{.n = 12, .k = 96};
  ThreadPool pool(4);
  std::vector<Segment> segments;
  std::vector<CodedBatch> batches;
  for (int s = 0; s < 6; ++s) {
    segments.push_back(Segment::random(params, rng));
    batches.push_back(independent_batch(segments.back(), rng));
  }
  MultiSegmentDecoder decoder(params, pool);
  const std::vector<Segment> decoded = decoder.decode_all(batches);
  ASSERT_EQ(decoded.size(), segments.size());
  for (std::size_t s = 0; s < segments.size(); ++s) {
    EXPECT_EQ(decoded[s], segments[s]) << "segment " << s;
  }
}

TEST(MultiSegmentDecoder, MoreSegmentsThanThreads) {
  Rng rng(2);
  const Params params{.n = 6, .k = 24};
  ThreadPool pool(2);
  std::vector<Segment> segments;
  std::vector<CodedBatch> batches;
  for (int s = 0; s < 9; ++s) {
    segments.push_back(Segment::random(params, rng));
    batches.push_back(independent_batch(segments.back(), rng));
  }
  MultiSegmentDecoder decoder(params, pool);
  const auto decoded = decoder.decode_all(batches);
  for (std::size_t s = 0; s < segments.size(); ++s) {
    EXPECT_EQ(decoded[s], segments[s]);
  }
}

TEST(MultiSegmentDecoder, EmptyInputYieldsEmptyOutput) {
  ThreadPool pool(2);
  MultiSegmentDecoder decoder({.n = 4, .k = 8}, pool);
  EXPECT_TRUE(decoder.decode_all({}).empty());
}

TEST(MultiSegmentDecoderDeathTest, WrongBlockCountAborts) {
  Rng rng(3);
  const Params params{.n = 4, .k = 8};
  ThreadPool pool(2);
  MultiSegmentDecoder decoder(params, pool);
  std::vector<CodedBatch> batches;
  batches.emplace_back(params, params.n - 1);  // short one block
  EXPECT_DEATH((void)decoder.decode_all(batches), "EXTNC_CHECK");
}

}  // namespace
}  // namespace extnc::cpu
