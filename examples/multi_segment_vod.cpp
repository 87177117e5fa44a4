// Multi-segment VoD decoding (paper Sec. 5.2): a peer with spare downlink
// pulls several video segments at once; the GPU decodes them with the
// two-stage multi-segment scheme — per-segment [C | I] inversions in stage
// 1, then one big table-based matrix multiplication in stage 2.
//
// Runs the real (simulated-GPU) kernels at reduced scale, verifies every
// decoded segment, prints the per-stage split, and then shows the modeled
// paper-scale rates for 3 vs 6 segments in flight.
#include <cstdio>

#include "coding/progressive_decoder.h"
#include "gpu/gpu_model.h"
#include "gpu/gpu_multiseg_decoder.h"
#include "util/rng.h"

int main() {
  using namespace extnc;
  const coding::Params params{.n = 16, .k = 512};
  const std::size_t segments = 6;
  Rng rng(99);

  std::printf("VoD peer buffering %zu segments of %zu x %zu B\n\n", segments,
              params.n, params.k);

  std::vector<coding::Segment> originals;
  std::vector<coding::CodedBatch> batches;
  for (std::size_t s = 0; s < segments; ++s) {
    originals.push_back(coding::Segment::random(params, rng));
    batches.push_back(coding::independent_batch(originals.back(), rng));
  }

  gpu::GpuMultiSegmentDecoder decoder(simgpu::gtx280(), params);
  const std::vector<coding::Segment> decoded = decoder.decode_all(batches);

  std::size_t correct = 0;
  for (std::size_t s = 0; s < segments; ++s) {
    if (decoded[s] == originals[s]) ++correct;
  }
  std::printf("Decoded %zu/%zu segments correctly\n", correct, segments);
  const double s1 = decoder.stage1_metrics().alu_ops();
  const double s2 = decoder.stage2_metrics().alu_ops();
  std::printf("ALU work split: stage 1 (inversions) %.0f%%, stage 2 "
              "(multiply) %.0f%%\n\n",
              100 * s1 / (s1 + s2), 100 * s2 / (s1 + s2));

  std::printf("Paper-scale modeled rates (n = 128, GTX 280):\n");
  std::printf("  %-10s %-18s %-18s\n", "block", "3 segments", "6 segments");
  for (std::size_t k : {1024u, 4096u, 16384u, 32768u}) {
    const auto three = gpu::model_multi_segment_decode(simgpu::gtx280(),
                                                       {.n = 128, .k = k}, 3);
    const auto six = gpu::model_multi_segment_decode(simgpu::gtx280(),
                                                     {.n = 128, .k = k}, 6);
    std::printf("  %-10zu %6.1f MB/s (s1 %2.0f%%) %6.1f MB/s (s1 %2.0f%%)\n",
                k, three.mb_per_s, 100 * three.stage1_share, six.mb_per_s,
                100 * six.stage1_share);
  }
  std::printf("\n(paper: 6-segment decoding reaches 254 MB/s at n = 128)\n");
  return correct == segments ? 0 : 1;
}
