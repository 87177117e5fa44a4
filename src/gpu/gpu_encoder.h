// GPU network encoder: the paper's encode kernels on the simulated device.
//
// Task partitioning follows the paper:
//  * loop-based (Fig. 2): one thread per 4-byte output word, 256-thread
//    blocks, each block producing 1 KB of coded data;
//  * table-based (Sec. 5.1.2): one resident block per SM, threads striding
//    over output words, so the log/exp tables are loaded into shared
//    memory (or bound as a texture) once per SM instead of once per block.
//
// Preprocessing (Sec. 5.1.1): for the preprocessed schemes the segment is
// transformed to the log domain once at construction, and each batch's
// coefficient matrix is transformed before the encode kernel runs; both
// transforms are themselves simulated kernels whose costs are kept in a
// separate metrics bucket so benches can amortize them the way the
// streaming-server scenario does.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "coding/batch.h"
#include "coding/segment.h"
#include "gpu/encode_scheme.h"
#include "gpu/kernel_audit.h"
#include "gpu/kernel_cost.h"
#include "simgpu/executor.h"
#include "util/aligned_buffer.h"
#include "util/rng.h"

namespace extnc::gpu {

class GpuEncoder {
 public:
  // With a profiler attached every kernel launch (including the
  // construction-time segment preprocessing) is recorded under stable
  // "<prefix>/<scheme>/<kernel>" labels, e.g. "encode/tb5/exp_smem".
  // With a fault injector attached (simgpu/fault_injector.h) every launch
  // — including the construction-time preprocessing — is subject to the
  // injector's fault plan, so construction can throw simgpu::DeviceError.
  // With a checker attached (simgpu/checker.h) every launch runs under the
  // kernel sanitizer with the encoder's device buffers registered as
  // watched global regions, so OOB accesses become findings instead of
  // silent reads; in throw mode launches can throw simgpu::CheckError.
  GpuEncoder(const simgpu::DeviceSpec& spec, const coding::Segment& segment,
             EncodeScheme scheme, simgpu::Profiler* profiler = nullptr,
             std::string label_prefix = "encode",
             simgpu::FaultInjector* injector = nullptr,
             simgpu::Checker* checker = nullptr);

  // Unregisters this encoder's watched regions from an attached checker,
  // so short-lived encoders (the multi-segment decoder's stage-2
  // multipliers) leave a shared checker's region table clean.
  ~GpuEncoder();

  // Attach after construction (misses the segment-preprocess launches that
  // already ran; prefer the constructor argument when those matter).
  void attach_profiler(simgpu::Profiler* profiler,
                       std::string label_prefix = "encode");
  void attach_checker(simgpu::Checker* checker);

  const coding::Params& params() const { return segment_->params(); }
  EncodeScheme scheme() const { return scheme_; }
  const simgpu::DeviceSpec& spec() const { return launcher_.spec(); }

  // The simulated-device context this encoder launches on. Exposed so a
  // supervisor (gpu/resilient_launcher.h) can attach a fault injector and
  // read the modeled elapsed-time clock; the encoder remains the owner.
  simgpu::Launcher& launcher() { return launcher_; }

  // Fill the payloads of `batch` from its (natural-domain) coefficient
  // rows by running the scheme's kernels functionally.
  void encode_into(coding::CodedBatch& batch);

  coding::CodedBatch encode_batch(std::size_t count, Rng& rng);

  // Kernel-work metrics for the encode kernels proper.
  const simgpu::KernelMetrics& encode_metrics() const {
    return encode_metrics_;
  }
  // One-time (per segment / per batch) preprocessing kernel work.
  const simgpu::KernelMetrics& preprocess_metrics() const {
    return preprocess_metrics_;
  }
  void reset_metrics();

 private:
  // Cached access-pattern profile for the aligned table-scheme fast path.
  // The per-byte costs of a table block — shared-bank serialization degrees
  // of the exp/log lookups, source-span coalescing — are functions of
  // (word-group g within a coded block, coefficient row i) and, for the
  // lookup degrees, of log_c mod 4 only (shifting log_c by a word multiple
  // shifts every lookup word uniformly, preserving distinctness and bank
  // spread; see static_model.h). The segment is immutable for the encoder's
  // lifetime, so these are evaluated once and stored as prefix sums over g
  // (index [i * (groups + 1) + g]), letting the steady-state encode loop
  // charge a whole j-run with a handful of subtractions instead of
  // re-deduplicating every byte.
  struct TableFastProfile {
    std::size_t groups = 0;  // words_per_block / half_warp
    bool built = false;
    std::vector<std::uint32_t> src_tx;        // source-load span transactions
    std::array<std::vector<std::uint32_t>, 4> exp_cycles;  // by log_c % 4
    std::vector<std::uint32_t> exp_events;    // byte positions with a lookup
    std::vector<std::uint32_t> exp_accesses;  // active lanes over 4 bytes
    std::vector<std::uint32_t> log_cycles;    // kTable0 log-group degrees
    std::vector<std::uint32_t> active;        // kTable4 texture fetches
  };

  void preprocess_segment();
  void preprocess_coefficients(const coding::CodedBatch& batch);
  // The Sec. 5.1.1 log-domain transform kernel over `elements` elements of
  // `element_bytes` bytes (4 for the segment, 1 for coefficients).
  void run_log_transform(const char* kernel, const std::uint8_t* src,
                         std::uint8_t* dst, std::size_t elements,
                         std::size_t element_bytes);
  void run_loop_based(coding::CodedBatch& batch);
  void run_table_based(coding::CodedBatch& batch);
  // Fast form of one aligned table-based block (BlockCtx::fast_path() and
  // no half-warp straddles a coded block): region math over the
  // natural-domain buffers plus counters from the table-load segment and
  // the cached profile. `src`/`coeffs` are the accounting-domain pointers
  // (log domain for preprocessed schemes); kTable4 replays its exp
  // fetches lane-major through the texture-cache model only until every
  // table line is resident, then charges the rest as hits.
  void run_table_based_fast(simgpu::BlockCtx& block, coding::CodedBatch& batch,
                            const EncodeGeometry& g, const EncodeCost& cost,
                            const std::uint8_t* src,
                            const std::uint8_t* coeffs, std::uint8_t* out,
                            std::uint8_t sentinel);
  // Fast form of any other encode block, every scheme: region math plus the
  // counters of the shared encode walker (gpu/kernel_audit.h) for this
  // block.
  void encode_block_walked(simgpu::BlockCtx& block, const EncodeGeometry& g,
                           const EncodeBuffers& buffers,
                           coding::CodedBatch& batch);
  void build_table_fast_profile(const std::uint8_t* src);
  void set_launch_label(const char* kernel);
  void unwatch_all();

  const coding::Segment* segment_;
  EncodeScheme scheme_;
  simgpu::Launcher launcher_;
  simgpu::Checker* checker_ = nullptr;
  std::string label_prefix_;
  simgpu::KernelMetrics encode_metrics_;
  simgpu::KernelMetrics preprocess_metrics_;

  // Device-resident data.
  AlignedBuffer log_segment_;      // segment in log domain (preprocessed)
  AlignedBuffer log_coefficients_; // batch coefficients in log domain
  AlignedBuffer exp_table_bytes_;  // 512-entry exp (plain or shifted)
  AlignedBuffer log_table_bytes_;  // 256-entry log (kTable0 only)
  AlignedBuffer exp_table_words_;  // 8 interleaved word tables (kTable5)

  // Fast-path accounting state, written only on the host thread before a
  // launch and read-only while its blocks run. The table-load counters are
  // one block's cooperative table load (table_load_segment; zero for the
  // loop kernel and tb4), fixed at construction. The profile is built at
  // the first aligned fast-path encode and stays valid for the encoder's
  // lifetime (the accounting-domain segment never changes).
  simgpu::KernelMetrics table_load_counters_;
  TableFastProfile table_profile_;
};

}  // namespace extnc::gpu
