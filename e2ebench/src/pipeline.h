// The host delivery path shared by the stream and relay workloads:
// Encoder/Recoder -> serialize -> FaultyChannel -> parse_view ->
// Recoder/VerifyingDecoder, with a span around every library call.
#pragma once
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "coding/coded_block.h"
#include "coding/segment.h"
#include "coding/segment_digest.h"
#include "coding/verifying_decoder.h"
#include "coding/wire.h"
#include "harness.h"
#include "net/faulty_channel.h"
#include "util/rng.h"

namespace e2e {

// Independent per-op stream from the run seed.
inline std::uint64_t op_seed(std::uint64_t seed, std::uint64_t index) {
  extnc::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + index);
  mix.next();
  return mix.next();
}

// Modeled time, in ms, of one frame of `params` on the sender's gigabit
// interface (net::StreamConfig::nic_gbps, the paper's streaming server),
// for modeled_session_p99_ms.
double modeled_frame_ms(extnc::coding::Params params);

// A sender's window: generations with their serialized digest manifests.
struct Window {
  std::vector<extnc::coding::Segment> segments;
  std::vector<std::vector<std::uint8_t>> manifests;
  double digested_bytes = 0;

  void build(extnc::coding::Params params, std::size_t generations,
             std::uint64_t seed);
};

// A serialized manifest parsed the way a receiver does; throws if the
// bytes do not parse.
extnc::coding::SegmentDigest parse_manifest(
    std::span<const std::uint8_t> bytes);

// Hands every frame that survives the channel and parses cleanly to
// `accept(view)`; counts what parse_view refused.
template <class Accept>
void deliver(std::vector<std::vector<std::uint8_t>> arrivals,
             std::uint32_t generation, OpRecord& record, Accept&& accept) {
  for (const auto& frame : arrivals) {
    extnc::coding::ParseViewResult parsed = [&] {
      trace::Span span(trace::kWireParse);
      return extnc::coding::parse_view(frame);
    }();
    record.c[kWireBytes] += static_cast<double>(frame.size());
    if (!parsed.ok()) {
      record.c[kRejected] += 1;
      continue;
    }
    if (parsed.packet().generation != generation) {
      throw std::runtime_error("frame for a foreign generation");
    }
    accept(parsed.packet().block);
  }
  trace::Span span(trace::kWireRelease);
  const auto consumed = std::move(arrivals);
}

// Serializes one block, offers it to the channel and delivers what arrives;
// the block is freed afterwards.
template <class Accept>
void send(std::uint32_t generation, extnc::coding::CodedBlock&& block,
          extnc::net::FaultyChannel& channel, OpRecord& record,
          Accept&& accept) {
  std::vector<std::uint8_t> frame = [&] {
    trace::Span span(trace::kWireSerialize);
    return extnc::coding::serialize(generation, block);
  }();
  record.c[kWireBytes] += static_cast<double>(frame.size());
  record.c[kFrames] += 1;
  std::vector<std::vector<std::uint8_t>> arrivals = [&] {
    trace::Span span(trace::kNetTransmit);
    return channel.transmit(std::move(frame));
  }();
  deliver(std::move(arrivals), generation, record, accept);
  trace::Span span(trace::kCodingRelease);
  const auto sent = std::move(block);
}

// VerifyingDecoder::add with innovative-block accounting; the span is
// coding.verify when the add completes the generation, else coding.decode.
void decoder_add(extnc::coding::VerifyingDecoder& decoder,
                 const extnc::coding::CodedBlockView& block,
                 OpRecord& record);

// Adds the channel's fault counters to the record.
void count_faults(const extnc::net::FaultyChannel& channel, OpRecord& record);

// Final check of a stream or relay op: verified, and byte-equal to the
// source. Sets the record's status, good bytes and quarantine count.
void check_delivery(const extnc::coding::VerifyingDecoder& decoder,
                    const extnc::coding::Segment& source, OpRecord& record);

}  // namespace e2e
