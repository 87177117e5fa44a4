#include "pipeline.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "net/streaming.h"

namespace e2e {

using extnc::coding::SegmentDigest;
using extnc::coding::VerifyingDecoder;

namespace {

// Random content eight bytes per draw. Segment::random draws once per
// byte: with it set-up took twice as long, and its median ranged three
// times as wide over back-to-back runs on a shared host.
extnc::coding::Segment random_segment(extnc::coding::Params params,
                                      extnc::Rng& rng) {
  extnc::coding::Segment segment(params);
  std::span<std::uint8_t> bytes = segment.bytes();
  for (std::size_t i = 0; i < bytes.size(); i += sizeof(std::uint64_t)) {
    const std::uint64_t word = rng.next();
    std::memcpy(bytes.data() + i, &word,
                std::min(sizeof(word), bytes.size() - i));
  }
  return segment;
}

}  // namespace

void Window::build(extnc::coding::Params params, std::size_t generations,
                   std::uint64_t seed) {
  extnc::Rng rng(seed);
  segments.clear();
  manifests.clear();
  digested_bytes = 0;
  segments.reserve(generations);
  manifests.reserve(generations);
  for (std::size_t g = 0; g < generations; ++g) {
    segments.push_back(random_segment(params, rng));
    const SegmentDigest digest = [&] {
      trace::Span span(trace::kCodingDigest);
      return SegmentDigest::compute(segments.back(),
                                    static_cast<std::uint32_t>(g));
    }();
    manifests.push_back(digest.serialize());
    digested_bytes += static_cast<double>(params.segment_bytes());
  }
}

double modeled_frame_ms(extnc::coding::Params params) {
  const double bits = static_cast<double>(extnc::coding::wire_size(params)) * 8;
  return bits / (extnc::net::StreamConfig{}.nic_gbps * 1e9) * 1e3;
}

SegmentDigest parse_manifest(std::span<const std::uint8_t> bytes) {
  std::optional<SegmentDigest> manifest = SegmentDigest::parse(bytes);
  if (!manifest) throw std::runtime_error("manifest did not parse");
  return std::move(*manifest);
}

void decoder_add(VerifyingDecoder& decoder,
                 const extnc::coding::CodedBlockView& block,
                 OpRecord& record) {
  if (decoder.is_verified()) return;
  const std::size_t rank = decoder.rank();
  trace::Span span(trace::kCodingDecode);
  const VerifyingDecoder::Result result = decoder.add(block);
  if (result == VerifyingDecoder::Result::kVerified ||
      result == VerifyingDecoder::Result::kPollutionEjected) {
    span.rename(trace::kCodingVerify);
  }
  record.c[kDecoderAdds] += 1;
  if (decoder.rank() > rank || result == VerifyingDecoder::Result::kVerified) {
    record.c[kInnovative] += 1;
  }
}

void count_faults(const extnc::net::FaultyChannel& channel,
                  OpRecord& record) {
  const extnc::net::ChannelStats& stats = channel.stats();
  record.c[kLost] += static_cast<double>(stats.lost);
  record.c[kCorrupted] += static_cast<double>(stats.corrupted);
  record.c[kTruncated] += static_cast<double>(stats.truncated);
  record.c[kDuplicated] += static_cast<double>(stats.duplicated);
  record.c[kReordered] += static_cast<double>(stats.reordered);
}

void check_delivery(const VerifyingDecoder& decoder,
                    const extnc::coding::Segment& source, OpRecord& record) {
  record.c[kQuarantined] += static_cast<double>(decoder.blocks_quarantined());
  if (!decoder.is_verified()) {
    record.status = kFailed;
    std::snprintf(record.note, sizeof(record.note),
                  "rank short: rank %zu of %zu", decoder.rank(),
                  source.params().n);
    return;
  }
  const auto decoded = decoder.decoded_segment().bytes();
  const auto expected = source.bytes();
  if (decoded.size() != expected.size() ||
      std::memcmp(decoded.data(), expected.data(), expected.size()) != 0) {
    record.status = kFailed;
    std::snprintf(record.note, sizeof(record.note),
                  "delivered bytes differ from the source");
    return;
  }
  record.c[kGoodBytes] += static_cast<double>(expected.size());
  record.c[kShare] = 1;
  record.status = kOk;
}

}  // namespace e2e
