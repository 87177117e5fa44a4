// stream: the paper's streaming-server shape. A sender holds a window of
// 512 KB segments (n = 128, k = 4 KB) with their digest manifests and
// serves them round-robin to successive receivers, each over its own lossy
// channel with rare bit flips. One op is one segment delivered, verified
// against its manifest and byte-checked against the source.
#include <memory>
#include <optional>

#include "coding/encoder.h"
#include "pipeline.h"

namespace e2e {
namespace {

using namespace extnc;

constexpr net::FaultSpec kChannel{.loss = 0.02, .corrupt = 0.002};

class Stream final : public Workload {
 public:
  const char* name() const override { return "stream"; }
  std::size_t chunk() const override { return 24; }
  double digested_bytes() const override { return window_.digested_bytes; }

  void setup(const Config& config) override {
    seed_ = config.seed;
    params_ = config.small ? coding::Params{.n = 32, .k = 1024}
                           : coding::Params{.n = 128, .k = 4096};
    // 32 x 512 KB = 16 MB of content.
    window_.build(params_, config.small ? 4 : 32, op_seed(seed_, ~0ULL));
  }

  void run_op(std::uint64_t index, OpRecord& record) override {
    const std::size_t slot = index % window_.segments.size();
    const auto generation = static_cast<std::uint32_t>(slot);
    const coding::Segment& source = window_.segments[slot];
    Rng rng(op_seed(seed_, index));
    std::optional<net::FaultyChannel> channel;
    {
      trace::Span span(trace::kNetSetup);
      channel.emplace(kChannel, rng.next());
    }
    std::optional<coding::VerifyingDecoder> decoder;
    {
      trace::Span span(trace::kCodingSetup);
      decoder.emplace(parse_manifest(window_.manifests[slot]));
    }
    const coding::Encoder encoder(source);
    auto accept = [&](const coding::CodedBlockView& block) {
      decoder_add(*decoder, block, record);
    };
    const std::size_t frame_limit = 4 * params_.n;
    std::size_t frames = 0;
    while (!decoder->is_verified() && frames < frame_limit) {
      coding::CodedBlock block = [&] {
        trace::Span span(trace::kCodingEncode);
        return encoder.encode(rng);
      }();
      send(generation, std::move(block), *channel, record, accept);
      ++frames;
    }
    deliver(channel->flush(), generation, record, accept);
    count_faults(*channel, record);
    // Modeled session: the frames sent, back to back on the sender's link.
    record.c[kModeledMs] =
        static_cast<double>(frames) * modeled_frame_ms(params_);
    check_delivery(*decoder, source, record);
    trace::Span span(trace::kCodingSetup);
    decoder.reset();
  }

 private:
  std::uint64_t seed_ = 0;
  coding::Params params_;
  Window window_;
};

}  // namespace

std::unique_ptr<Workload> make_stream() { return std::make_unique<Stream>(); }

}  // namespace e2e
