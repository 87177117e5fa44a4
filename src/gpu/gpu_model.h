// Bandwidth models for the paper's figures.
//
// Encoding: the functional kernels are fast enough to run a scaled-down
// calibration workload (per-output-word costs are independent of k and of
// the number of coded blocks), so model_encode_bandwidth() runs the real
// kernel on a small batch, extracts per-word metrics — including the
// *measured* shared-memory conflict degree and coalescing behaviour — and
// scales them to the requested workload before applying the timing model.
// Log-domain preprocessing is the preprocess kernels' exact static models
// (gpu/kernel_audit.h).
//
// Multi-segment decoding is built from the same pieces, launch for launch
// as GpuMultiSegmentDecoder runs it: stage 1 is the inverter's static
// model, stage 2 per segment the two preprocess models plus the calibrated
// tb5 encode of n blocks.
//
// Single-segment decoding: its kernel has no access walker, and a
// full-size functional decode is O(n^2 k) work per segment (minutes at the
// figure sizes), so its metrics are built analytically from the same
// per-row-operation costs the functional decoder charges; a test
// cross-checks them against a functional run at a small size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "coding/params.h"
#include "gpu/encode_scheme.h"
#include "gpu/gpu_decoder.h"
#include "simgpu/device_spec.h"
#include "simgpu/profiler.h"
#include "simgpu/timing.h"

namespace extnc::gpu {

struct EncodeModelOptions {
  // Coded blocks generated per segment in the modeled workload. The
  // paper's streaming scenario generates thousands; n is the natural
  // batch for a VoD workload.
  std::size_t coded_blocks = 1024;
  // Include the log-domain preprocessing kernels, amortized over
  // coded_blocks (set false to model the steady-state encode rate only).
  bool include_preprocessing = true;
  // Optional observability: the modeled workload is recorded as one
  // "model/encode/<scheme>" launch (scaled metrics, modeled time), so
  // benches can export a trace of what the figure numbers are made of.
  simgpu::Profiler* profiler = nullptr;
};

struct BandwidthEstimate {
  double mb_per_s = 0;
  simgpu::TimeBreakdown time;
};

// Modeled steady-state encoding bandwidth (MB/s of coded payload).
BandwidthEstimate model_encode_bandwidth(const simgpu::DeviceSpec& spec,
                                         EncodeScheme scheme,
                                         const coding::Params& params,
                                         const EncodeModelOptions& options = {});

// Modeled single-segment progressive decoding bandwidth (Sec. 4.2.2). With
// a profiler, the analytic workload records as "model/decode/single".
BandwidthEstimate model_single_segment_decode(
    const simgpu::DeviceSpec& spec, const coding::Params& params,
    const DecodeOptions& options = {}, simgpu::Profiler* profiler = nullptr);

struct MultiSegEstimate {
  double mb_per_s = 0;
  // Fraction of total decode time spent in stage 1 (matrix inversion) —
  // the Fig. 9 annotations.
  double stage1_share = 0;
};

// Modeled multi-segment decoding bandwidth with `segments` in flight
// (Sec. 5.2; the paper plots 3 and 6 on the GTX 280), every segment
// holding multi_segment_model_matrix(n). With a profiler the two stages
// record as "model/decode/multiseg/invert" (the stage-1 launch itself) and
// "model/decode/multiseg/stage2" (every segment's three launches merged).
MultiSegEstimate model_multi_segment_decode(const simgpu::DeviceSpec& spec,
                                            const coding::Params& params,
                                            std::size_t segments,
                                            simgpu::Profiler* profiler =
                                                nullptr);

// The coefficient matrix stage 1 of the multi-segment model inverts: a
// seeded random invertible n x n matrix, row-major (the inverter's cost
// depends on it through pivot positions and zero factors). Exposed so
// tests can decode the same matrix functionally.
std::vector<std::uint8_t> multi_segment_model_matrix(std::size_t n);

// Analytic single-segment builder (exposed for a test, which cross-checks
// it against the functional decoder's measured metrics).
simgpu::KernelMetrics analytic_single_segment_decode_metrics(
    const simgpu::DeviceSpec& spec, const coding::Params& params,
    const DecodeOptions& options);

}  // namespace extnc::gpu
