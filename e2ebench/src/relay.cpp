// relay: small generations (n = 32, k = 256) cross three faulty links with
// a recoding relay after the first two. Every tick the source emits one
// coded block and each relay that holds anything emits one recoded block,
// so the three links run pipelined. One op is one generation verified and
// byte-checked at the sink.
#include <memory>
#include <optional>

#include "coding/encoder.h"
#include "coding/recoder.h"
#include "pipeline.h"

namespace e2e {
namespace {

using namespace extnc;

constexpr net::FaultSpec kLink{
    .loss = 0.10, .corrupt = 0.01, .duplicate = 0.01, .reorder = 0.01};

class Relay final : public Workload {
 public:
  const char* name() const override { return "relay"; }
  std::size_t chunk() const override { return 256; }
  double digested_bytes() const override { return window_.digested_bytes; }

  void setup(const Config& config) override {
    seed_ = config.seed;
    params_ = coding::Params{.n = 32, .k = 256};
    // 2048 x 8 KB = 16 MB of content.
    window_.build(params_, config.small ? 64 : 2048, op_seed(seed_, ~0ULL));
  }

  void run_op(std::uint64_t index, OpRecord& record) override {
    const std::size_t slot = index % window_.segments.size();
    const auto generation = static_cast<std::uint32_t>(slot);
    const coding::Segment& source = window_.segments[slot];
    Rng rng(op_seed(seed_, index));
    std::vector<net::FaultyChannel> links;
    {
      trace::Span span(trace::kNetSetup);
      links.reserve(3);
      for (int i = 0; i < 3; ++i) links.emplace_back(kLink, rng.next());
    }
    std::vector<coding::Recoder> relays;
    std::optional<coding::VerifyingDecoder> sink;
    {
      trace::Span span(trace::kCodingSetup);
      relays.assign(2, coding::Recoder(params_));
      sink.emplace(parse_manifest(window_.manifests[slot]));
    }
    const coding::Encoder encoder(source);

    auto to_relay = [&](coding::Recoder& relay) {
      return [&relay](const coding::CodedBlockView& block) {
        trace::Span span(trace::kCodingRecoderAdd);
        relay.add(block);
      };
    };
    auto to_sink = [&](const coding::CodedBlockView& block) {
      decoder_add(*sink, block, record);
    };
    auto recode = [&](const coding::Recoder& relay) {
      trace::Span span(trace::kCodingRecode);
      return relay.recode(rng);
    };

    const std::size_t tick_limit = 20 * params_.n;
    std::size_t ticks = 0;
    while (!sink->is_verified() && ticks < tick_limit) {
      ++ticks;
      coding::CodedBlock block = [&] {
        trace::Span span(trace::kCodingEncode);
        return encoder.encode(rng);
      }();
      send(generation, std::move(block), links[0], record, to_relay(relays[0]));
      if (relays[0].buffered() > 0) {
        send(generation, recode(relays[0]), links[1], record,
             to_relay(relays[1]));
      }
      if (relays[1].buffered() > 0) {
        send(generation, recode(relays[1]), links[2], record, to_sink);
      }
    }
    deliver(links[2].flush(), generation, record, to_sink);
    for (const auto& link : links) count_faults(link, record);
    // Modeled session: the links run pipelined at the sender's rate, one
    // frame time per tick plus one per link to fill the pipeline.
    record.c[kModeledMs] =
        static_cast<double>(ticks + links.size()) * modeled_frame_ms(params_);
    check_delivery(*sink, source, record);
    trace::Span span(trace::kCodingSetup);
    sink.reset();
    relays.clear();
  }

 private:
  std::uint64_t seed_ = 0;
  coding::Params params_;
  Window window_;
};

}  // namespace

std::unique_ptr<Workload> make_relay() { return std::make_unique<Relay>(); }

}  // namespace e2e
