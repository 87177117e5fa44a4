// Access walkers, static kernel models and the pre-launch audit for the
// shipped kernels.
//
// Every GPU kernel has exactly two forms: its interpreted body (the
// reference oracle and the Checker's target, in gpu_encoder.cpp /
// gpu_multiseg_decoder.cpp) and ONE access walker here. A walker steps
// the kernel's (half-warp, access-sequence) index space and charges a
// simgpu::SegmentBuilder with the executor's own rules (static_model.h):
// bank-conflict degrees, coalescing transactions, texture-cache evolution,
// ALU deci-ops and barriers. Two callers share each walker:
//
//  * the static models below run it on inputs synthesized from a *payload
//    class* (a structural accounting-domain byte function) at modeled,
//    0-based addresses — no launch, no payload;
//  * the simulator fast path runs it on one block's real accounting-domain
//    bytes and device addresses, and hands the counters to
//    simgpu::BlockCtx::charge while computing the outputs with GF(2^8)
//    region ops.
//
// The verification suite (tests/gpu/kernel_audit_test.cpp) holds every
// model bit-equal to the interpreted engine's KernelMetrics on inputs
// synthesized from the same class; engine_equivalence_test holds the fast
// path bit-equal on real inputs.
//
// The pre-launch audit over these models (geometry, footprints, barrier
// structure, advisory lints) lives with the dynamic sanitizer in
// gpu/kernel_check.h, behind tools/extnc_check.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "coding/batch.h"
#include "coding/segment.h"
#include "gpu/encode_scheme.h"
#include "simgpu/device_spec.h"
#include "simgpu/executor.h"
#include "simgpu/static_model.h"

namespace extnc::gpu {

// ------------------------------------------------------------------------
// Payload classes: structural byte functions over the kernel's accounting
// buffers (the log-domain segment/coefficients for preprocessed schemes,
// the natural-domain buffers for loop/tb0). A class fixes every
// data-dependent branch and shared-index pattern, which is what turns the
// access structure into a closed form while staying realizable: for every
// class there is a natural-domain input whose accounting image equals it
// (synthesize_segment / synthesize_batch), so the models remain testable
// against real runs.
enum class PayloadClass {
  // Every byte the same nonzero value: degree-1 table lookups everywhere,
  // all lanes active (the broadcast-friendly best case).
  kUniform,
  // Byte at word w has accounting value 1 + 64 * (w % 4): the four values
  // are 64 apart, so byte-table lookups of a half-warp land on four words
  // of one bank (degree 4) for every coefficient — the documented worst
  // repeating pattern — while tb5's parity-replicated layout still
  // resolves it conflict-free.
  kStride64,
  // kUniform with every third byte zero: exercises the sentinel skip
  // paths (predicated lanes, empty groups, texture fetch gaps).
  kSparse,
};

struct ModelAssumptions {
  PayloadClass payload_class = PayloadClass::kUniform;
  // Accounting-domain byte for the kUniform/kSparse payload and for every
  // coefficient row. Must be a value every scheme's accounting map can
  // produce: in [1, 254] (plain log covers [0, 254] with 0xff the zero
  // sentinel; shifted log covers [1, 255] with 0x00 the sentinel).
  std::uint8_t payload_value = 0x35;
  std::uint8_t coeff_value = 0x1d;
  // Every Nth coefficient row (i % N == N - 1) is zero, exercising the
  // per-word sentinel skip. 0 = all rows nonzero.
  std::size_t coeff_zero_every = 0;
  // Texture caches hold no table lines at launch (a freshly constructed
  // launcher). The tb4 miss closed form depends on this.
  bool cold_texture = true;
};

// The accounting-domain byte the class assigns to payload position `pos`
// (byte index within the accounting segment), or -1 for a zero natural
// byte (the scheme's sentinel). Exposed for tests.
int payload_class_byte(PayloadClass cls, const ModelAssumptions& assume,
                       std::size_t pos);
// The accounting-domain coefficient byte for row i (same for every coded
// block), or -1 for a zero row.
int coeff_class_byte(const ModelAssumptions& assume, std::size_t i);

// Natural-domain inputs whose accounting image under `scheme` equals the
// class: the segment's log (or shifted-log) transform reproduces the class
// bytes exactly, so an interpreted run over these inputs must produce the
// model's KernelMetrics bit for bit.
coding::Segment synthesize_segment(EncodeScheme scheme,
                                   const coding::Params& params,
                                   const ModelAssumptions& assume);
coding::CodedBatch synthesize_batch(EncodeScheme scheme,
                                    const coding::Params& params,
                                    std::size_t count,
                                    const ModelAssumptions& assume);

// A Vandermonde coefficient matrix over distinct nonzero points —
// invertible by construction, used by the inverter model and its
// verification test. Row r, column c = x_r^c with x_r = exp[r].
std::vector<std::uint8_t> synthesize_invertible_matrix(std::size_t n);

// ------------------------------------------------------------------------
// Access walkers.

// Highest byte offset (exclusive) a walker saw touched in one buffer: the
// models derive footprints from it instead of asserting them.
struct ByteExtent {
  std::size_t end = 0;
  void touch(std::size_t offset, std::size_t bytes) {
    end = std::max(end, offset + bytes);
  }
};

// Launch geometry of the encode kernel: the loop kernel runs one thread per
// output word in 256-thread blocks; the table kernels run one resident
// 256-thread block per SM striding over the words.
struct EncodeGeometry {
  std::size_t wpb = 0;          // words per coded block (k / 4)
  std::size_t total_words = 0;  // count * wpb
  std::size_t threads = 0;
  std::size_t blocks = 0;
  std::size_t half = 0;         // half-warp lanes (<= 16)
};
EncodeGeometry encode_geometry(const simgpu::DeviceSpec& spec,
                               EncodeScheme scheme,
                               const coding::Params& params,
                               std::size_t count);

// The encode kernel's global buffers as the kernel sees them: the bytes it
// loads (log domain for preprocessed schemes, natural for loop/tb0) and the
// device addresses the coalescing and texture rules see. Models pass
// 0-based addresses (every device buffer is 64-byte aligned).
struct EncodeBuffers {
  const std::uint8_t* src = nullptr;     // segment rows of params.k bytes
  const std::uint8_t* coeffs = nullptr;  // coefficient rows of params.n
  std::uintptr_t src_addr = 0;
  std::uintptr_t coeff_addr = 0;
  std::uintptr_t out_addr = 0;
  std::uintptr_t exp_addr = 0;  // tb4's texture-bound exp table
};

// Byte extents of the encode kernel's buffers (models only).
struct EncodeExtents {
  ByteExtent src, coeffs, out, exp;
};

// The encode kernel's strided body for thread block `block`: coefficient
// and source loads, tb0's log lookups, the exp lookups (shared or texture)
// and the output stores, per half-warp group, with groups that straddle
// coded blocks taken lane by lane. tb4 fetches go through `texture` (the
// block's cache unit), which evolves exactly as the interpreted fetches
// would evolve it: the 512-byte exp table is cache-resident on every
// shipped device, so misses do not depend on fetch order. Closes nothing:
// the caller finishes `seg` (one barrier per block).
void walk_encode_block(EncodeScheme scheme, const coding::Params& params,
                       const EncodeGeometry& geometry, std::size_t block,
                       const EncodeBuffers& buffers,
                       simgpu::TextureCache* texture,
                       simgpu::SegmentBuilder& seg,
                       EncodeExtents* extents = nullptr);

// The cooperative shared-table load that opens the tb0-tb3/tb5 kernels
// (tb4 binds its table as a texture instead), over `blocks` blocks of
// `threads` lanes. `exp_addr`/`log_addr` are the device tables' addresses.
// `lane_blocked` is the seeded conflict-regression variant: each lane
// sweeps a contiguous chunk instead of the interleaved walk.
simgpu::SegmentModel table_load_segment(
    const simgpu::DeviceSpec& spec, EncodeScheme scheme, std::size_t threads,
    std::size_t blocks, std::uintptr_t exp_addr, std::uintptr_t log_addr,
    ByteExtent* exp_extent = nullptr, ByteExtent* log_extent = nullptr,
    bool lane_blocked = false);

// Block `block` of a preprocess kernel (one lane per element, strided over
// `blocks` x `threads` lanes): load, per-byte table transform, store.
void walk_preprocess_block(const simgpu::DeviceSpec& spec,
                           std::size_t elements, std::size_t element_bytes,
                           std::size_t threads, std::size_t blocks,
                           std::size_t block, std::uintptr_t src_addr,
                           std::uintptr_t dst_addr,
                           simgpu::SegmentBuilder& seg,
                           ByteExtent* extent = nullptr);

// One block of the stage-1 inverter: Gauss-Jordan elimination IN PLACE on
// the augmented n x 2n work matrix [C | I] at `aug` (device address
// `aug_addr`), leaving [I | C^-1]. Pivot positions and factor activity
// evolve with the matrix, so the walk and the elimination are one loop.
// Requires threads >= 2n / 4 and threads >= n (one swap/scale word and one
// factor per lane); aborts if the matrix is singular.
struct InvertBlockModel {
  simgpu::SegmentModel pivot_search;  // one lane per column
  simgpu::SegmentModel row_ops;       // swap, scale, snapshot, eliminate
};
InvertBlockModel walk_invert_block(const simgpu::DeviceSpec& spec,
                                   std::size_t n, std::size_t threads,
                                   std::uint8_t* aug, std::uintptr_t aug_addr);

// ------------------------------------------------------------------------
// Model providers. All buffer addresses are modeled relative to 64-byte
// aligned bases (every device buffer is an AlignedBuffer), which fixes the
// coalescing segment phase without knowing runtime pointers.

// The encode kernel for `scheme` over `count` coded blocks: mul_loop for
// kLoopBased, exp_smem/exp_tex (table load + strided encode) otherwise.
simgpu::StaticKernelModel encode_kernel_model(
    const simgpu::DeviceSpec& spec, EncodeScheme scheme,
    const coding::Params& params, std::size_t count,
    const ModelAssumptions& assume = {});

// Sec. 5.1.1 step (1): segment to log domain (payload-free: the kernel's
// access structure does not depend on byte values).
simgpu::StaticKernelModel preprocess_segment_model(
    const simgpu::DeviceSpec& spec, const coding::Params& params);

// Sec. 5.1.1 step (2): coefficient matrix to log domain (payload-free).
simgpu::StaticKernelModel preprocess_coefficients_model(
    const simgpu::DeviceSpec& spec, const coding::Params& params,
    std::size_t count);

// Stage-1 Gauss-Jordan inverter over `segments` blocks, one per segment,
// for the given coefficient matrix (row-major n x n; all segments assumed
// to hold the same matrix). The provider simulates the elimination on its
// own n x 2n working copy — coefficient-matrix work, never payload work —
// because pivot positions and factor activity evolve with the matrix.
simgpu::StaticKernelModel invert_kernel_model(
    const simgpu::DeviceSpec& spec, const coding::Params& params,
    std::size_t segments, const std::vector<std::uint8_t>& matrix);

// The recoder's encode launch: gpu_recode wraps the encode kernel around a
// pseudo-segment of `received` blocks of n + k bytes each (coefficients
// prepended to payloads), producing `produced` recoded blocks. Forwards to
// encode_kernel_model over the aggregate geometry — which is exactly what
// exercises the walker's straddling groups, since (n + k) / 4 is rarely a
// half-warp multiple.
simgpu::StaticKernelModel recode_kernel_model(
    const simgpu::DeviceSpec& spec, EncodeScheme scheme,
    const coding::Params& params, std::size_t received, std::size_t produced,
    const ModelAssumptions& assume = {});

}  // namespace extnc::gpu
