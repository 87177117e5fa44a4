// Failure-injection tests: what the system does when blocks are corrupted,
// truncated, replayed or mismatched. The raw coding core has no integrity
// protection — a corrupted coded block decodes to silently wrong data —
// and the first tests document that boundary precisely. The defense lives
// one layer up and is exercised here end to end: the XNC2 wire CRC rejects
// damaged packets at the first honest hop, and the VerifyingDecoder checks
// every completed decode against the encoder's SegmentDigest manifest,
// isolating and ejecting pollution that arrives post-parse.
#include <gtest/gtest.h>

#include "coding/encoder.h"
#include "coding/progressive_decoder.h"
#include "coding/recoder.h"
#include "coding/segment_digest.h"
#include "coding/verifying_decoder.h"
#include "coding/wire.h"
#include "net/line_network.h"
#include "util/rng.h"

namespace extnc::coding {
namespace {

TEST(FailureInjection, CorruptedPayloadDecodesToWrongData) {
  // A flipped payload byte is indistinguishable from valid coded data to
  // the raw decoder: decode "succeeds" but the output differs. This is the
  // boundary the integrity layer (wire CRC + SegmentDigest) exists for.
  Rng rng(1);
  const Params params{.n = 8, .k = 32};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment);
  ProgressiveDecoder decoder(params);
  for (std::size_t i = 0; i < params.n; ++i) {
    CodedBlock block = encoder.encode(rng);
    if (i == 3) block.payload()[7] ^= 0x01;
    decoder.add(block);
  }
  ASSERT_TRUE(decoder.is_complete());
  EXPECT_FALSE(decoder.decoded_segment() == segment);
}

TEST(FailureInjection, CorruptedCoefficientDecodesToWrongData) {
  Rng rng(2);
  const Params params{.n = 8, .k = 32};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment);
  ProgressiveDecoder decoder(params);
  for (std::size_t i = 0; i < params.n; ++i) {
    CodedBlock block = encoder.encode(rng);
    if (i == 5) block.coefficients()[2] ^= 0x40;
    decoder.add(block);
  }
  ASSERT_TRUE(decoder.is_complete());
  EXPECT_FALSE(decoder.decoded_segment() == segment);
}

TEST(FailureInjection, CorruptionThroughRelayPollutesDownstream) {
  // Recoding spreads a corrupted block into every output — the known
  // pollution-attack surface of network coding, and the reason relays
  // must CRC-check packets *before* recoding them (see the line-network
  // tests below for the defended path).
  Rng rng(3);
  const Params params{.n = 6, .k = 16};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment);
  Recoder relay(params);
  for (std::size_t i = 0; i < params.n; ++i) {
    CodedBlock block = encoder.encode(rng);
    if (i == 0) block.payload()[0] ^= 0xff;
    relay.add(block);
  }
  ProgressiveDecoder sink(params);
  while (!sink.is_complete()) sink.add(relay.recode(rng));
  EXPECT_FALSE(sink.decoded_segment() == segment);
}

TEST(FailureInjection, ReplayedBlocksNeverAdvanceRank) {
  Rng rng(4);
  const Params params{.n = 8, .k = 16};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment);
  ProgressiveDecoder decoder(params);
  const CodedBlock block = encoder.encode(rng);
  decoder.add(block);
  for (int replay = 0; replay < 50; ++replay) {
    EXPECT_EQ(decoder.add(block),
              ProgressiveDecoder::Result::kLinearlyDependent);
  }
  EXPECT_EQ(decoder.rank(), 1u);
}

TEST(FailureInjection, AllZeroBlockIsAlwaysDependent) {
  const Params params{.n = 4, .k = 8};
  ProgressiveDecoder decoder(params);
  CodedBlock zero(params);
  EXPECT_EQ(decoder.add(zero), ProgressiveDecoder::Result::kLinearlyDependent);
  EXPECT_EQ(decoder.rank(), 0u);
}

TEST(FailureInjection, AdversarialLowRankStreamNeverCompletes) {
  // A malicious sender that only ever spans 3 dimensions can stall a
  // decoder forever but never corrupt it.
  Rng rng(5);
  const Params params{.n = 8, .k = 16};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment);
  Recoder adversary(params);
  for (int i = 0; i < 3; ++i) adversary.add(encoder.encode(rng));
  ProgressiveDecoder decoder(params);
  for (int i = 0; i < 200; ++i) decoder.add(adversary.recode(rng));
  EXPECT_EQ(decoder.rank(), 3u);
  EXPECT_FALSE(decoder.is_complete());
}

TEST(FailureInjection, BitflipAnywhereInV2PacketIsRejectedNotDecoded) {
  // Under the default XNC2 format the CRC trailer covers the entire frame
  // including the generation id, so no single bit flip — header,
  // coefficients, payload or trailer — survives parsing.
  Rng rng(6);
  const Params params{.n = 4, .k = 16};
  const Segment segment = Segment::random(params, rng);
  const auto bytes = serialize(0, Encoder(segment).encode(rng));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto copy = bytes;
    copy[i] ^= 0x10;
    EXPECT_FALSE(parse(copy).ok()) << "byte " << i;
  }
}

TEST(FailureInjection, LegacyV1GenerationBitflipStillParses) {
  // The v1 gap the CRC closes, kept as documentation: without a trailer, a
  // flipped generation-id byte (not integrity-relevant to the block
  // itself) parses fine, and payload flips decode to wrong data.
  Rng rng(6);
  const Params params{.n = 4, .k = 16};
  const Segment segment = Segment::random(params, rng);
  const auto bytes = serialize(0, Encoder(segment).encode(rng), WireFormat::kV1);
  for (std::size_t i = 0; i < kWireHeaderBytes; ++i) {
    auto copy = bytes;
    copy[i] ^= 0x10;
    const auto result = parse(copy);
    if (i >= 4 && i < 8) {
      EXPECT_TRUE(result.ok()) << i;  // generation id changed only
    } else {
      EXPECT_FALSE(result.ok()) << "header byte " << i;
    }
  }
}

TEST(FailureInjection, CorruptedPacketIsRejectedWithBadChecksum) {
  // Acceptance (a): a corrupted wire packet is rejected at parse with
  // kBadChecksum — it never reaches a decoder or a recoder.
  Rng rng(10);
  const Params params{.n = 8, .k = 32};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment);
  for (int trial = 0; trial < 50; ++trial) {
    auto bytes = serialize(7, encoder.encode(rng));
    // Anything past the magic/shape fields: coefficients, payload, CRC.
    const std::size_t lo = kWireHeaderBytes;
    const std::size_t byte = lo + rng.next_below(bytes.size() - lo);
    bytes[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    const auto result = parse(bytes);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error(), ParseError::kBadChecksum);
  }
}

TEST(FailureInjection, VerifyingDecoderEjectsPostParsePollution) {
  // Acceptance (b): pollution injected *after* the wire layer (a lying
  // relay, post-parse memory corruption) is identified by the digest
  // check, ejected into quarantine, and the decode still completes with
  // the correct content.
  Rng rng(11);
  const Params params{.n = 8, .k = 32};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment);
  VerifyingDecoder sink(SegmentDigest::compute(segment));

  CodedBlock polluted = encoder.encode(rng);
  polluted.payload()[3] ^= 0xa5;
  sink.add(polluted);
  VerifyingDecoder::Result last = VerifyingDecoder::Result::kAccepted;
  while (!sink.is_verified()) last = sink.add(encoder.encode(rng));

  EXPECT_EQ(last, VerifyingDecoder::Result::kPollutionEjected);
  EXPECT_GE(sink.verification_failures(), 1u);
  ASSERT_EQ(sink.blocks_quarantined(), 1u);
  EXPECT_EQ(sink.quarantined()[0], polluted);
  EXPECT_EQ(sink.decoded_segment(), segment);
}

TEST(FailureInjection, LineNetworkHasZeroSilentCorruptionAcross100Seeds) {
  // Acceptance (c): a multi-hop line network with per-link fault injection
  // (corruption, truncation, duplication, reordering on top of erasures)
  // delivers a digest-verified segment in every one of 100 seeded trials —
  // zero silent corruption — while the per-link ChannelStats account for
  // every packet and every injected fault.
  net::LineNetworkConfig config;
  config.params = {.n = 8, .k = 32};
  config.hops = 3;
  config.loss_probability = 0.1;
  config.faults = {.corrupt = 0.15, .truncate = 0.05, .duplicate = 0.05,
                   .reorder = 0.05};

  std::size_t total_damaged = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    config.seed = seed;
    const net::LineNetworkResult result = net::run_line_network(config);
    ASSERT_TRUE(result.completed) << "seed " << seed;
    EXPECT_TRUE(result.digest_verified) << "seed " << seed;
    EXPECT_TRUE(result.decoded_correctly) << "seed " << seed;

    ASSERT_EQ(result.link_stats.size(), config.hops);
    std::size_t damaged = 0;
    for (std::size_t link = 0; link < result.link_stats.size(); ++link) {
      const net::ChannelStats& s = result.link_stats[link];
      // Exclusive per-packet faults partition `sent` exactly; after the
      // drain nothing is left in flight.
      EXPECT_EQ(s.delivered, s.sent - s.lost + s.duplicated)
          << "seed " << seed << " link " << link;
      EXPECT_EQ(s.faults(), s.lost + s.corrupted + s.truncated +
                                s.duplicated + s.reordered);
      damaged += s.damaged();
    }
    // Every damaged (corrupted/truncated) arrival is rejected by the wire
    // layer at the receiving node — no more, no less.
    EXPECT_EQ(result.packets_rejected, damaged) << "seed " << seed;
    total_damaged += damaged;
  }
  // The sweep must actually have exercised the fault path.
  EXPECT_GT(total_damaged, 100u);
}

TEST(FailureInjection, ProgressiveDecoderCollectsOnlyIndependentRows) {
  // Even when an adversary interleaves duplicates and stale blocks, the
  // decoder only ever stores independent rows: every replay is discarded
  // as dependent, the RREF basis stays intact, and the decode is exact.
  Rng rng(7);
  const Params params{.n = 8, .k = 16};
  const Segment segment = Segment::random(params, rng);
  const Encoder encoder(segment);
  ProgressiveDecoder decoder(params);
  std::vector<CodedBlock> history;
  std::size_t replays = 0;
  while (!decoder.is_complete()) {
    if (!history.empty() && rng.next_double() < 0.5) {
      const std::size_t rank = decoder.rank();
      EXPECT_EQ(decoder.add(history[rng.next_below(history.size())]),
                ProgressiveDecoder::Result::kLinearlyDependent);
      EXPECT_EQ(decoder.rank(), rank);
      ++replays;
    } else {
      CodedBlock block = encoder.encode(rng);
      decoder.add(block);
      history.push_back(std::move(block));
    }
    ASSERT_TRUE(decoder.check_rref_invariant());
  }
  EXPECT_GT(replays, 0u);
  EXPECT_EQ(decoder.blocks_seen(), history.size() + replays);
  EXPECT_EQ(decoder.decoded_segment(), segment);
}

TEST(FailureInjection, MismatchedParamsBlocksAreFatalByContract) {
  // In-process APIs treat shape mismatches as programming errors (aborts);
  // only the wire layer tolerates them. Both behaviours verified.
  Rng rng(8);
  const Params a{.n = 4, .k = 16};
  const Params b{.n = 8, .k = 16};
  const Segment segment = Segment::random(b, rng);
  const CodedBlock wrong = Encoder(segment).encode(rng);
  ProgressiveDecoder decoder(a);
  EXPECT_DEATH(decoder.add(wrong), "EXTNC_CHECK");
}

}  // namespace
}  // namespace extnc::coding
