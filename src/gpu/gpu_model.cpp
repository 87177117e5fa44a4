#include "gpu/gpu_model.h"

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include "gf256/matrix.h"
#include "gpu/gpu_encoder.h"
#include "gpu/kernel_audit.h"
#include "gpu/kernel_cost.h"
#include "util/rng.h"

namespace extnc::gpu {

using simgpu::KernelMetrics;

namespace {

constexpr double kMb = 1024.0 * 1024.0;
// Average loop iterations of a loop-based multiply with a uniform nonzero
// coefficient (Sec. 4.3's "average 7 iterations"):
// sum_{c=1}^{255} bit_length(c) / 255 = 1786 / 255 ~= 7.0.
constexpr double kAvgLoopIterations = 1786.0 / 255.0;

// Calibration workload: small, since per-word costs are k-independent.
constexpr std::size_t kCalibrationK = 512;
constexpr std::size_t kCalibrationBlocks = 96;
constexpr std::uint64_t kModelSeed = 0x5eed;

// One memo, per (device, kernel, n), for the costly inputs of the models:
// each scheme's calibration run, the stage-1 inverter walk (seconds at
// n = 512, independent of k) and the two preprocessing walks (their kernel
// key also names the k or coded-block count the walk depends on). Keyed
// on the spec's value, so a reused or reallocated DeviceSpec never reads
// another device's costs.
struct MemoEntry {
  simgpu::DeviceSpec spec;
  std::string kernel;
  std::size_t n;
  KernelMetrics metrics;
};

template <typename Compute>
KernelMetrics memoized(const simgpu::DeviceSpec& spec,
                       const std::string& kernel, std::size_t n,
                       Compute compute) {
  static std::vector<MemoEntry> memo;
  static std::mutex mutex;
  auto find = [&] {
    return std::find_if(memo.begin(), memo.end(), [&](const MemoEntry& e) {
      return e.spec == spec && e.kernel == kernel && e.n == n;
    });
  };
  {
    std::lock_guard lock(mutex);
    if (auto it = find(); it != memo.end()) return it->metrics;
  }
  const KernelMetrics metrics = compute();
  std::lock_guard lock(mutex);
  if (find() == memo.end()) memo.push_back({spec, kernel, n, metrics});
  return metrics;
}

// The encode kernel's metrics over kCalibrationBlocks blocks of
// kCalibrationK bytes at this n.
KernelMetrics calibrate_encode(const simgpu::DeviceSpec& spec,
                               EncodeScheme scheme, std::size_t n) {
  return memoized(spec, scheme_label(scheme), n, [&] {
    Rng rng(kModelSeed);
    const coding::Params params{.n = n, .k = kCalibrationK};
    const coding::Segment segment = coding::Segment::random(params, rng);
    GpuEncoder encoder(spec, segment, scheme);
    encoder.reset_metrics();
    (void)encoder.encode_batch(kCalibrationBlocks, rng);
    return encoder.encode_metrics();
  });
}

// The encode launch for `coded_blocks` blocks: the calibration's per-word
// costs scaled to the target words, with the target's launch geometry.
KernelMetrics scaled_encode_metrics(const simgpu::DeviceSpec& spec,
                                    EncodeScheme scheme,
                                    const coding::Params& params,
                                    std::size_t coded_blocks) {
  const KernelMetrics cal = calibrate_encode(spec, scheme, params.n);
  const double cal_words =
      static_cast<double>(kCalibrationBlocks) * kCalibrationK / 4.0;
  const double words = static_cast<double>(coded_blocks) * params.k / 4.0;
  auto scale = [&](std::uint64_t count) {
    return static_cast<std::uint64_t>(static_cast<double>(count) / cal_words *
                                      words);
  };

  KernelMetrics m;
  m.set_alu_ops(cal.alu_ops() / cal_words * words);
  m.global_load_bytes = scale(cal.global_load_bytes);
  m.global_store_bytes = scale(cal.global_store_bytes);
  m.global_transactions = scale(cal.global_transactions);
  m.shared_accesses = scale(cal.shared_accesses);
  m.shared_access_events = scale(cal.shared_access_events);
  m.shared_serialized_cycles = scale(cal.shared_serialized_cycles);
  m.texture_fetches = scale(cal.texture_fetches);
  m.texture_misses = scale(cal.texture_misses);
  m.kernel_launches = 1;
  m.threads_per_block = 256;
  m.blocks = static_cast<std::size_t>(words) / 256 + 1;
  if (scheme != EncodeScheme::kLoopBased) {
    m.blocks = std::min<std::size_t>(spec.num_sms, m.blocks);
  }
  return m;
}

// Encoding `coded_blocks` blocks of one segment: the log-domain
// preprocessing launches when requested (and the scheme has them), then
// the encode launch, merged in that order so the geometry is the encode's.
KernelMetrics encode_workload_metrics(const simgpu::DeviceSpec& spec,
                                      EncodeScheme scheme,
                                      const coding::Params& params,
                                      std::size_t coded_blocks,
                                      bool include_preprocessing) {
  KernelMetrics m;
  if (include_preprocessing && scheme_is_preprocessed(scheme)) {
    const std::string segment_key =
        "preprocess_segment/k" + std::to_string(params.k);
    m.merge(memoized(spec, segment_key, params.n, [&] {
      return preprocess_segment_model(spec, params).totals();
    }));
    const std::string coefficients_key =
        "preprocess_coefficients/blocks" + std::to_string(coded_blocks);
    m.merge(memoized(spec, coefficients_key, params.n, [&] {
      return preprocess_coefficients_model(spec, params, coded_blocks)
          .totals();
    }));
  }
  m.merge(scaled_encode_metrics(spec, scheme, params, coded_blocks));
  return m;
}

}  // namespace

BandwidthEstimate model_encode_bandwidth(const simgpu::DeviceSpec& spec,
                                         EncodeScheme scheme,
                                         const coding::Params& params,
                                         const EncodeModelOptions& options) {
  const KernelMetrics m =
      encode_workload_metrics(spec, scheme, params, options.coded_blocks,
                              options.include_preprocessing);
  BandwidthEstimate estimate;
  estimate.time = simgpu::estimate_time(spec, m);
  const double payload_bytes =
      static_cast<double>(options.coded_blocks) * params.k;
  estimate.mb_per_s = payload_bytes / kMb / estimate.time.total_s;
  if (options.profiler != nullptr) {
    options.profiler->record_launch(
        spec, std::string("model/encode/") + scheme_label(scheme), m);
  }
  return estimate;
}

// ---------------------------------------------------------------- decode

KernelMetrics analytic_single_segment_decode_metrics(
    const simgpu::DeviceSpec& spec, const coding::Params& params,
    const DecodeOptions& options) {
  const double n = static_cast<double>(params.n);
  const double k = static_cast<double>(params.k);
  const double blocks = std::max(
      1.0, std::min<double>(spec.num_sms, k / 4.0));
  const double slice_words = k / 4.0 / blocks;
  const double coeff_words = n / 4.0;
  const double row_words_total =
      blocks * coeff_words + k / 4.0;  // replicated C + sliced payload

  // Over a full decode: per arrival r (rank before insert) there are
  // r forward eliminations, 1 normalize, r back-eliminations and 1 row
  // store: sum over n arrivals ~= n^2 + 2n row operations.
  const double row_ops = n * n + 2.0 * n;
  const double per_word_alu =
      kDecodeCost.per_word + kDecodeCost.per_iteration * kAvgLoopIterations +
      3.0;  // 2 loads + 1 store issue slots
  KernelMetrics m;
  m.set_alu_ops(row_ops * row_words_total * per_word_alu);
  // Pivot searches: n launches, each scanning the n-byte coefficient row
  // in every block.
  const double reduce = options.use_atomic_min
                            ? kDecodeCost.pivot_reduce_atomic
                            : kDecodeCost.pivot_reduce_per_thread;
  m.add_alu_ops(n * blocks *
                (n * kDecodeCost.pivot_search_per_byte + coeff_words * reduce));
  const double row_bytes_touched = row_ops * row_words_total * 4.0;
  m.global_load_bytes = static_cast<std::uint64_t>(2.0 * row_bytes_touched);
  m.global_store_bytes = static_cast<std::uint64_t>(row_bytes_touched);
  double transactions = 3.0 * row_bytes_touched / 64.0;
  if (options.cache_coefficients) {
    // The coefficient side of every row operation (stored-row read,
    // scratch read-modify-write) moves from global to shared memory.
    const double coeff_bytes = 3.0 * row_ops * blocks * coeff_words * 4.0;
    m.global_load_bytes -= static_cast<std::uint64_t>(coeff_bytes * 2 / 3);
    m.global_store_bytes -= static_cast<std::uint64_t>(coeff_bytes / 3);
    transactions -= coeff_bytes / 64.0;
    m.shared_accesses += static_cast<std::uint64_t>(coeff_bytes / 4.0);
    m.shared_access_events += static_cast<std::uint64_t>(coeff_bytes / 4.0 /
                                                         spec.half_warp);
    m.shared_serialized_cycles = m.shared_access_events;  // coalesced rows
    // Staging: each launch stages the rows it will touch (one coalesced
    // pass over ~rank rows).
    m.global_load_bytes +=
        static_cast<std::uint64_t>(n * n / 2.0 * n * blocks);
    transactions += n * n / 2.0 * n * blocks / 64.0;
  }
  m.global_transactions = static_cast<std::uint64_t>(transactions);
  m.atomic_ops = options.use_atomic_min
                     ? static_cast<std::uint64_t>(n * blocks * coeff_words)
                     : 0;
  m.kernel_launches = static_cast<std::uint64_t>(n);
  // Per arrival of rank r: r forward row ops, pivot search, normalize,
  // r back-eliminations and the row store are each one barrier-fenced
  // step; summed over the decode that is ~n^2 + 2n steps per block.
  // Caching the coefficient matrix in shared memory (Sec. 5.4.3) shortens
  // each step's dependency chain — the factor read no longer waits on a
  // global round-trip — modeled as a 20% cut of the per-step latency. The
  // atomicMin pivot reduction (Sec. 5.4.2) removes most of the serial
  // min-reduction from the pivot-search step, one of ~2.5 steps per
  // arrival.
  double steps = (n * n + 2.0 * n);
  if (options.cache_coefficients) steps *= 0.80;
  if (options.use_atomic_min) steps -= 0.4 * n;
  m.barriers = static_cast<std::uint64_t>(steps * blocks);
  m.blocks = static_cast<std::size_t>(blocks);
  m.threads_per_block = static_cast<std::size_t>(std::min(
      512.0, std::max(1.0, coeff_words + slice_words)));
  return m;
}

BandwidthEstimate model_single_segment_decode(const simgpu::DeviceSpec& spec,
                                              const coding::Params& params,
                                              const DecodeOptions& options,
                                              simgpu::Profiler* profiler) {
  const KernelMetrics m =
      analytic_single_segment_decode_metrics(spec, params, options);
  BandwidthEstimate estimate;
  estimate.time = simgpu::estimate_time(spec, m);
  estimate.mb_per_s = static_cast<double>(params.segment_bytes()) / kMb /
                      estimate.time.total_s;
  if (profiler != nullptr) {
    profiler->record_launch(spec, "model/decode/single", m);
  }
  return estimate;
}

std::vector<std::uint8_t> multi_segment_model_matrix(std::size_t n) {
  Rng rng(kModelSeed);
  const gf256::Matrix matrix = gf256::Matrix::random_invertible(n, rng);
  return {matrix.data(), matrix.data() + n * n};
}

MultiSegEstimate model_multi_segment_decode(const simgpu::DeviceSpec& spec,
                                            const coding::Params& params,
                                            std::size_t segments,
                                            simgpu::Profiler* profiler) {
  // Stage 1: one launch, one inverter block per segment. Every block
  // inverts the same matrix, so the launch is the one-block walk repeated.
  const KernelMetrics invert_block = memoized(spec, "invert", params.n, [&] {
    return invert_kernel_model(spec, params, 1,
                               multi_segment_model_matrix(params.n))
        .totals();
  });
  // Stage 2, per segment: the payloads and the rows of C^-1 to the log
  // domain, then a tb5 encode of n blocks (GpuMultiSegmentDecoder's
  // multiply_stage).
  const KernelMetrics multiply = encode_workload_metrics(
      spec, EncodeScheme::kTable5, params, params.n,
      /*include_preprocessing=*/true);
  KernelMetrics stage1;
  KernelMetrics stage2;
  for (std::size_t s = 0; s < segments; ++s) {
    stage1.merge(invert_block);
    stage2.merge(multiply);
  }
  stage1.kernel_launches = 1;
  stage1.blocks = segments;

  const double stage1_s = simgpu::estimate_time(spec, stage1).total_s;
  const double total_s = stage1_s + simgpu::estimate_time(spec, stage2).total_s;
  if (profiler != nullptr) {
    profiler->record_launch(spec, "model/decode/multiseg/invert", stage1);
    profiler->record_launch(spec, "model/decode/multiseg/stage2", stage2);
  }
  MultiSegEstimate estimate;
  estimate.stage1_share = stage1_s / total_s;
  estimate.mb_per_s =
      static_cast<double>(segments) * params.segment_bytes() / kMb / total_s;
  return estimate;
}

}  // namespace extnc::gpu
