// figures: one point of the paper's Figs. 7 and 9 on the simulated GTX 280
// per op — all seven encode schemes (loop, TB-0..TB-5) on one segment and a
// three-segment GpuMultiSegmentDecoder decode, at the shipped engine
// settings. Every encoded batch is compared with coding::Encoder on the
// same coefficients and every decoded segment with its source. Ops cycle
// through a fixed set of points; the modeled rates of a repeated point must
// repeat exactly.
#include <cstring>
#include <memory>
#include <vector>

#include "coding/batch.h"
#include "coding/encoder.h"
#include "gf256/matrix.h"
#include "gpu/encode_scheme.h"
#include "gpu/gpu_encoder.h"
#include "gpu/gpu_multiseg_decoder.h"
#include "pipeline.h"
#include "simgpu/device_spec.h"
#include "simgpu/timing.h"

namespace e2e {
namespace {

using namespace extnc;

constexpr gpu::EncodeScheme kSchemes[] = {
    gpu::EncodeScheme::kLoopBased, gpu::EncodeScheme::kTable0,
    gpu::EncodeScheme::kTable1,    gpu::EncodeScheme::kTable2,
    gpu::EncodeScheme::kTable3,    gpu::EncodeScheme::kTable4,
    gpu::EncodeScheme::kTable5,
};
constexpr std::size_t kDecodeSegments = 3;

struct Point {
  coding::Segment segment;
  coding::CodedBatch expected;  // coding::Encoder on the same coefficients
  std::vector<coding::Segment> sources;  // multi-segment decode inputs
  std::vector<coding::CodedBatch> batches;
};

// A batch of `count` coded blocks of `segment` with the given coefficient
// rows, encoded by the reference host encoder.
coding::CodedBatch reference_batch(const coding::Segment& segment,
                                   std::size_t count, Rng& rng,
                                   bool invertible) {
  const coding::Params& params = segment.params();
  coding::CodedBatch batch(params, count);
  const coding::Encoder encoder(segment);
  if (invertible) {
    const gf256::Matrix matrix =
        gf256::Matrix::random_invertible(params.n, rng);
    for (std::size_t j = 0; j < count; ++j) {
      const auto row = matrix.row(j);
      std::copy(row.begin(), row.end(), batch.coefficients(j).begin());
    }
  } else {
    for (std::size_t j = 0; j < count; ++j) {
      encoder.draw_coefficients(rng, batch.coefficients(j));
    }
  }
  for (std::size_t j = 0; j < count; ++j) {
    encoder.encode_with_coefficients(batch.coefficients(j), batch.payload(j));
  }
  return batch;
}

double seconds_of(const simgpu::KernelMetrics& metrics) {
  return simgpu::estimate_time(simgpu::gtx280(), metrics).total_s;
}

class Figures final : public Workload {
 public:
  const char* name() const override { return "figures"; }
  std::size_t chunk() const override { return 1; }
  bool keyed() const override { return true; }

  void setup(const Config& config) override {
    params_ = config.small ? coding::Params{.n = 16, .k = 256}
                           : coding::Params{.n = 32, .k = 1024};
    coded_ = params_.n;
    points_.clear();
    Rng rng(op_seed(config.seed, ~0ULL));
    const std::size_t points = config.small ? 2 : 16;
    for (std::size_t p = 0; p < points; ++p) {
      Point point;
      point.segment = coding::Segment::random(params_, rng);
      point.expected = reference_batch(point.segment, coded_, rng, false);
      for (std::size_t s = 0; s < kDecodeSegments; ++s) {
        point.sources.push_back(coding::Segment::random(params_, rng));
        point.batches.push_back(
            reference_batch(point.sources.back(), params_.n, rng, true));
      }
      points_.push_back(std::move(point));
    }
    // Warm-up: one untimed point, isolated like the timed ones.
    run_in_child([this] {
      OpRecord record;
      run_op(0, record);
    });
  }

  void run_op(std::uint64_t index, OpRecord& record) override {
    record.key = index % points_.size();
    const Point& point = points_[record.key];
    const simgpu::DeviceSpec& device = simgpu::gtx280();
    std::uint64_t fingerprint = 0;
    auto fold_rate = [&](double rate) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &rate, sizeof(bits));
      fingerprint = fingerprint * 0x100000001b3ULL ^ bits;
    };
    const char* problem = nullptr;
    double modeled_s = 0;

    for (std::size_t s = 0; s < std::size(kSchemes); ++s) {
      std::unique_ptr<gpu::GpuEncoder> encoder = [&] {
        trace::Span span(trace::kGpuPreprocess);
        return std::make_unique<gpu::GpuEncoder>(device, point.segment,
                                                 kSchemes[s]);
      }();
      coding::CodedBatch batch(params_, coded_);
      std::memcpy(batch.coefficients_data(), point.expected.coefficients_data(),
                  coded_ * params_.n);
      {
        trace::Span span(static_cast<trace::Name>(trace::kGpuEncodeLoop + s));
        encoder->encode_into(batch);
      }
      if (std::memcmp(batch.payloads_data(), point.expected.payloads_data(),
                      batch.payload_bytes()) != 0) {
        problem = "GPU encode differs from coding::Encoder";
      }
      const double encode_s = seconds_of(encoder->encode_metrics());
      const double rate =
          static_cast<double>(batch.payload_bytes()) / encode_s / 1e6;
      record.c[kModeledMbLoop + s] = rate;
      fold_rate(rate);
      modeled_s += encode_s + seconds_of(encoder->preprocess_metrics());
      record.c[kGoodBytes] += static_cast<double>(batch.payload_bytes());
    }

    gpu::GpuMultiSegmentDecoder decoder(device, params_);
    const std::vector<coding::Segment> decoded = [&] {
      trace::Span span(trace::kGpuMultiseg);
      return decoder.decode_all(point.batches);
    }();
    if (decoded.size() != point.sources.size()) {
      problem = "multi-segment decode returned the wrong segment count";
    } else {
      for (std::size_t s = 0; s < decoded.size(); ++s) {
        if (!(decoded[s] == point.sources[s])) {
          problem = "decoded segment differs from its source";
        }
      }
    }
    const double decode_s = seconds_of(decoder.stage1_metrics()) +
                            seconds_of(decoder.stage2_metrics());
    const double decoded_bytes =
        static_cast<double>(kDecodeSegments * params_.segment_bytes());
    record.c[kModeledMbMultiseg] = decoded_bytes / decode_s / 1e6;
    fold_rate(record.c[kModeledMbMultiseg]);
    modeled_s += decode_s;
    record.c[kGoodBytes] += decoded_bytes;
    record.c[kModeledMs] = modeled_s * 1e3;
    record.fingerprint = fingerprint;

    if (problem != nullptr) {
      record.status = kFailed;
      std::snprintf(record.note, sizeof(record.note), "%s", problem);
      return;
    }
    record.c[kShare] = 1;
    record.status = kOk;
  }

 private:
  coding::Params params_;
  std::size_t coded_ = 0;
  std::vector<Point> points_;
};

}  // namespace

std::unique_ptr<Workload> make_figures() {
  return std::make_unique<Figures>();
}

}  // namespace e2e
