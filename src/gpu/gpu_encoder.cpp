#include "gpu/gpu_encoder.h"

#include <algorithm>
#include <cstring>

#include "gf256/gf.h"
#include "gf256/region.h"
#include "gf256/swar.h"
#include "gpu/kernel_cost.h"
#include "gpu/table_layout.h"
#include "simgpu/static_model.h"
#include "util/assert.h"
#include "util/metrics_registry.h"

namespace extnc::gpu {

using simgpu::BlockCtx;
using simgpu::LaunchConfig;
using simgpu::ThreadCtx;

GpuEncoder::GpuEncoder(const simgpu::DeviceSpec& spec,
                       const coding::Segment& segment, EncodeScheme scheme,
                       simgpu::Profiler* profiler, std::string label_prefix,
                       simgpu::FaultInjector* injector,
                       simgpu::Checker* checker)
    : segment_(&segment),
      scheme_(scheme),
      launcher_(spec),
      label_prefix_(std::move(label_prefix)) {
  launcher_.set_profiler(profiler);
  launcher_.set_fault_injector(injector);
  const coding::Params& p = segment.params();
  EXTNC_CHECK(p.k % 4 == 0);  // GPU kernels operate on 32-bit words
  const gf256::Tables& t = gf256::tables();

  // Host-side table construction ("created on the CPU side once and then
  // transferred to the GPU memory", Sec. 5.1).
  const bool shifted = scheme_uses_shifted_log(scheme_);
  exp_table_bytes_ = AlignedBuffer(kExpTableEntries);
  for (std::size_t i = 0; i < kExpTableEntries; ++i) {
    exp_table_bytes_[i] = shifted ? t.exp_shifted[i] : t.exp[i];
  }
  if (scheme_ == EncodeScheme::kTable0) {
    log_table_bytes_ = AlignedBuffer(256);
    for (std::size_t i = 0; i < 256; ++i) log_table_bytes_[i] = t.log[i];
  }
  if (scheme_ == EncodeScheme::kTable5) {
    // Eight word-width copies, interleaved so that copy c of entry i lives
    // at word index i * 8 + c: a thread using copy (lane % 8) then only
    // ever touches two banks, halving the expected conflict degree.
    exp_table_words_ = AlignedBuffer(kExpTableEntries * kReplicatedTables * 4);
    for (std::size_t i = 0; i < kExpTableEntries; ++i) {
      for (std::size_t c = 0; c < kReplicatedTables; ++c) {
        const std::size_t word = i * kReplicatedTables + c;
        const std::uint32_t value = t.exp_shifted[i];
        std::memcpy(exp_table_words_.data() + word * 4, &value, 4);
      }
    }
  }
  if (scheme_ != EncodeScheme::kLoopBased &&
      scheme_ != EncodeScheme::kTable4) {
    table_load_counters_ =
        table_load_segment(
            spec, scheme_, encode_geometry(spec, scheme_, p, 1).threads, 1,
            reinterpret_cast<std::uintptr_t>(
                scheme_ == EncodeScheme::kTable5 ? exp_table_words_.data()
                                                 : exp_table_bytes_.data()),
            reinterpret_cast<std::uintptr_t>(log_table_bytes_.data()))
            .counters;
  }
  // Attach before the construction-time preprocessing launch so it runs
  // checked too.
  attach_checker(checker);
  if (scheme_is_preprocessed(scheme_)) {
    preprocess_segment();
  }
}

void GpuEncoder::attach_profiler(simgpu::Profiler* profiler,
                                 std::string label_prefix) {
  launcher_.set_profiler(profiler);
  label_prefix_ = std::move(label_prefix);
}

GpuEncoder::~GpuEncoder() { unwatch_all(); }

void GpuEncoder::unwatch_all() {
  if (checker_ == nullptr) return;
  checker_->unwatch_global(segment_->data());
  checker_->unwatch_global(exp_table_bytes_.data());
  if (!log_table_bytes_.empty()) {
    checker_->unwatch_global(log_table_bytes_.data());
  }
  if (!exp_table_words_.empty()) {
    checker_->unwatch_global(exp_table_words_.data());
  }
  if (!log_segment_.empty()) {
    checker_->unwatch_global(log_segment_.data());
  }
  if (!log_coefficients_.empty()) {
    checker_->unwatch_global(log_coefficients_.data());
  }
}

void GpuEncoder::attach_checker(simgpu::Checker* checker) {
  if (checker_ != nullptr && checker != checker_) unwatch_all();
  checker_ = checker;
  launcher_.set_checker(checker);
  if (checker == nullptr) return;
  // Steady-state device buffers; per-batch buffers are registered by the
  // call that allocates or receives them.
  const coding::Params& p = params();
  checker->watch_global(segment_->data(), p.segment_bytes(), "segment");
  checker->watch_global(exp_table_bytes_.data(), exp_table_bytes_.size(),
                        "exp_table");
  if (!log_table_bytes_.empty()) {
    checker->watch_global(log_table_bytes_.data(), log_table_bytes_.size(),
                          "log_table");
  }
  if (!exp_table_words_.empty()) {
    checker->watch_global(exp_table_words_.data(), exp_table_words_.size(),
                          "exp_table_words");
  }
  if (!log_segment_.empty()) {
    checker->watch_global(log_segment_.data(), log_segment_.size(),
                          "log_segment");
  }
}

void GpuEncoder::set_launch_label(const char* kernel) {
  launcher_.set_launch_label(label_prefix_ + "/" + scheme_label(scheme_) +
                             "/" + kernel);
}

void GpuEncoder::reset_metrics() {
  encode_metrics_ = simgpu::KernelMetrics{};
  preprocess_metrics_ = simgpu::KernelMetrics{};
}

coding::CodedBatch GpuEncoder::encode_batch(std::size_t count, Rng& rng) {
  coding::CodedBatch batch(params(), count);
  for (std::size_t j = 0; j < count; ++j) {
    for (auto& c : batch.coefficients(j)) c = rng.next_nonzero_byte();
  }
  encode_into(batch);
  return batch;
}

void GpuEncoder::encode_into(coding::CodedBatch& batch) {
  EXTNC_CHECK(batch.params() == params());
  if (batch.count() == 0) return;
  // The batch's buffers live only for this call; scoped registration keeps
  // the checker's region table free of dead entries.
  const coding::Params& p = params();
  simgpu::Checker::ScopedWatch watch_coeffs(
      checker_, batch.coefficients_data(), batch.count() * p.n,
      "batch.coefficients");
  simgpu::Checker::ScopedWatch watch_payloads(
      checker_, batch.payloads_data(), batch.count() * p.k, "batch.payloads");
  if (scheme_is_preprocessed(scheme_)) {
    preprocess_coefficients(batch);
  }
  launcher_.reset_metrics();
  if (scheme_ == EncodeScheme::kLoopBased) {
    run_loop_based(batch);
  } else {
    run_table_based(batch);
  }
  encode_metrics_.merge(launcher_.metrics());
}

// Sec. 5.1.1 step (1): transform the segment to the log domain, one thread
// per 32-bit word.
void GpuEncoder::preprocess_segment() {
  const coding::Params& p = params();
  log_segment_ = AlignedBuffer(p.segment_bytes());
  if (checker_ != nullptr) {
    checker_->watch_global(log_segment_.data(), log_segment_.size(),
                           "log_segment");
  }
  run_log_transform("preprocess_segment", segment_->data(),
                    log_segment_.data(), p.segment_bytes() / 4, 4);
}

// Sec. 5.1.1 step (2): coefficient matrix to the log domain, one thread per
// coefficient byte.
void GpuEncoder::preprocess_coefficients(const coding::CodedBatch& batch) {
  const std::size_t bytes = batch.count() * params().n;
  if (checker_ != nullptr && !log_coefficients_.empty()) {
    checker_->unwatch_global(log_coefficients_.data());  // being reallocated
  }
  log_coefficients_ = AlignedBuffer(bytes);
  if (checker_ != nullptr) {
    checker_->watch_global(log_coefficients_.data(), log_coefficients_.size(),
                           "log_coefficients");
  }
  run_log_transform("preprocess_coeffs", batch.coefficients_data(),
                    log_coefficients_.data(), bytes, 1);
}

namespace {

// dst[x] = table[src[x]] over `bytes` bytes.
void lookup_bytes(const std::uint8_t* table, const std::uint8_t* src,
                  std::uint8_t* dst, std::size_t bytes) {
  for (std::size_t x = 0; x < bytes; ++x) dst[x] = table[src[x]];
}

}  // namespace

// The log-domain transform kernel: one thread per element (a 4-byte word or
// a single byte), strided over one resident block per SM, reading every
// byte through the scheme's log table.
void GpuEncoder::run_log_transform(const char* kernel, const std::uint8_t* src,
                                   std::uint8_t* dst, std::size_t elements,
                                   std::size_t element_bytes) {
  const gf256::Tables& t = gf256::tables();
  const std::uint8_t* log_table =
      scheme_uses_shifted_log(scheme_) ? t.log_shifted : t.log;
  const std::size_t threads = 256;
  const std::size_t blocks = std::min<std::size_t>(
      launcher_.spec().num_sms, (elements + threads - 1) / threads);
  const std::size_t stride = blocks * threads;

  set_launch_label(kernel);
  launcher_.reset_metrics();
  launcher_.launch(
      {.blocks = blocks, .threads_per_block = threads},
      [&](BlockCtx& block) {
        if (block.fast_path()) {
          metrics::count("simgpu.fast.lowered_blocks");
          for (std::size_t base = block.block_index() * threads;
               base < elements; base += stride) {
            const std::size_t first = base * element_bytes;
            lookup_bytes(log_table, src + first, dst + first,
                         std::min(threads, elements - base) * element_bytes);
          }
          simgpu::SegmentBuilder seg(block.spec(), "transform");
          walk_preprocess_block(block.spec(), elements, element_bytes,
                                threads, blocks, block.block_index(),
                                reinterpret_cast<std::uintptr_t>(src),
                                reinterpret_cast<std::uintptr_t>(dst), seg);
          block.charge(seg.finish(threads, 1).counters);
          return;
        }
        block.step([&](ThreadCtx& thread) {
          for (std::size_t e = block.block_index() * threads + thread.lane();
               e < elements; e += stride) {
            if (element_bytes == 1) {
              const std::uint8_t c = thread.gload_u8(src + e);
              thread.count_alu(kPreprocessPerByte);
              thread.gstore_u8(dst + e, log_table[c]);
              continue;
            }
            const std::uint32_t in = thread.gload_u32(src + e * 4);
            std::uint32_t out = 0;
            for (int b = 0; b < 4; ++b) {
              const auto byte = static_cast<std::uint8_t>(in >> (8 * b));
              out |= static_cast<std::uint32_t>(log_table[byte]) << (8 * b);
              thread.count_alu(kPreprocessPerByte);
            }
            thread.gstore_u32(dst + e * 4, out);
          }
        });
      });
  preprocess_metrics_.merge(launcher_.metrics());
}

namespace {

// Output words [w, end) of a batch (one word per kernel thread), computed
// the fast way: each same-coded-block run is Eq. 1 over natural-domain
// bytes, one region multiply-add per source row. The log-domain round trip
// of the table kernels is exact GF(2^8) arithmetic, so the bytes are the
// ones every interpreted kernel stores.
void encode_words(const coding::Params& p, const std::uint8_t* src,
                  const std::uint8_t* coeffs, std::uint8_t* out,
                  std::size_t w, std::size_t end) {
  const gf256::Ops& gops = gf256::ops();
  const std::size_t wpb = p.k / 4;
  while (w < end) {
    const std::size_t j = w / wpb;
    const std::size_t word = w % wpb;
    const std::size_t run = std::min(wpb - word, end - w);
    std::uint8_t* dst = out + j * p.k + word * 4;
    std::memset(dst, 0, run * 4);
    for (std::size_t i = 0; i < p.n; ++i) {
      gops.mul_add_region(dst, src + i * p.k + word * 4, coeffs[j * p.n + i],
                          run * 4);
    }
    w += run;
  }
}

// The aligned lowerings charge whole same-coded-block runs. That needs
// every half-warp group to lie in one coded block, and consecutive groups
// to sit a whole number of coalescing segments apart, so that all groups
// of a run share one coalescing phase.
bool aligned_runs(const simgpu::DeviceSpec& spec, const EncodeGeometry& g) {
  return g.half <= 16 && g.wpb % g.half == 0 && g.threads % g.half == 0 &&
         (g.half * 4) % spec.coalesce_segment_bytes == 0;
}

}  // namespace

// Fast form shared by every scheme for blocks the profiled lowerings cannot
// take (half-warps straddling coded blocks: the recoder's aggregate
// pseudo-segment, ragged tails): outputs as same-coded-block region runs,
// counters from the encode kernel's access walker over this one block.
void GpuEncoder::encode_block_walked(BlockCtx& block,
                                     const EncodeGeometry& g,
                                     const EncodeBuffers& buffers,
                                     coding::CodedBatch& batch) {
  metrics::count("simgpu.fast.straddle_blocks");
  for (std::size_t base = block.block_index() * g.threads;
       base < g.total_words; base += g.blocks * g.threads) {
    encode_words(params(), segment_->data(), batch.coefficients_data(),
                 batch.payloads_data(), base,
                 std::min(base + g.threads, g.total_words));
  }
  simgpu::SegmentBuilder seg(block.spec(), "encode");
  walk_encode_block(scheme_, params(), g, block.block_index(), buffers,
                    scheme_ == EncodeScheme::kTable4 ? &block.texture_cache()
                                                     : nullptr,
                    seg);
  block.charge(table_load_counters_);
  block.charge(seg.finish(g.threads, 1).counters);
}

// Fig. 2 partitioning: thread blocks of 256, one thread per output word.
void GpuEncoder::run_loop_based(coding::CodedBatch& batch) {
  const coding::Params p = params();
  const EncodeGeometry g =
      encode_geometry(launcher_.spec(), scheme_, p, batch.count());
  const std::size_t words_per_block = g.wpb;
  const std::size_t total_words = g.total_words;
  const std::size_t threads = g.threads;
  const EncodeCost cost = encode_cost(scheme_);

  const std::uint8_t* src = segment_->data();
  const std::uint8_t* coeffs = batch.coefficients_data();
  std::uint8_t* out = batch.payloads_data();
  const EncodeBuffers buffers{
      .src = src,
      .coeffs = coeffs,
      .src_addr = reinterpret_cast<std::uintptr_t>(src),
      .coeff_addr = reinterpret_cast<std::uintptr_t>(coeffs),
      .out_addr = reinterpret_cast<std::uintptr_t>(out)};

  const bool aligned = aligned_runs(launcher_.spec(), g);

  set_launch_label("mul_loop");
  launcher_.launch(
      {.blocks = g.blocks, .threads_per_block = threads},
      [&](BlockCtx& block) {
        const std::size_t half = g.half;
        if (block.fast_path() && half <= 16) {
          metrics::count("simgpu.fast.lowered_blocks");
          if (!aligned) {
            encode_block_walked(block, g, buffers, batch);
            return;
          }
          // Aligned lowering, charged per same-coded-block run: each
          // half-warp step is one coefficient broadcast (one transaction),
          // one source span and one store span per group, plus one issue
          // slot per lane access.
          const std::size_t span = half * 4;
          const std::uint64_t seg_bytes = block.spec().coalesce_segment_bytes;
          const std::uint64_t word_deci =
              simgpu::KernelMetrics::deciops(cost.per_word);
          simgpu::KernelMetrics counters;
          const std::size_t begin = block.block_index() * threads;
          const std::size_t end = std::min(begin + threads, total_words);
          encode_words(p, src, coeffs, out, begin, end);
          for (std::size_t w = begin; w < end;) {
            const std::size_t j = w / words_per_block;
            const std::size_t word = w % words_per_block;
            const std::size_t run = std::min(words_per_block - word, end - w);
            const std::uint64_t lanes = run;  // gc groups of `half` lanes
            const std::uint64_t gc = run / half;
            const std::uint8_t* coeff_row = coeffs + j * p.n;
            for (std::size_t i = 0; i < p.n; ++i) {
              counters.global_transactions +=
                  gc * (1 + simgpu::span_transactions(
                                reinterpret_cast<std::uintptr_t>(
                                    src + i * p.k + word * 4),
                                span, seg_bytes));
              counters.alu_deciops +=
                  lanes * simgpu::KernelMetrics::deciops(
                              cost.per_iteration *
                              gf256::loop_iterations(coeff_row[i]));
            }
            counters.global_transactions +=
                gc * simgpu::span_transactions(
                         reinterpret_cast<std::uintptr_t>(out + j * p.k +
                                                          word * 4),
                         span, seg_bytes);
            counters.global_load_bytes += lanes * 5 * p.n;
            counters.global_store_bytes += lanes * 4;
            counters.alu_deciops += lanes * (word_deci + 10 * (2 * p.n + 1));
            w += run;
          }
          counters.barriers = 1;
          block.charge(counters);
          return;
        }
        block.step([&](ThreadCtx& thread) {
          const std::size_t w =
              block.block_index() * threads + thread.lane();
          if (w >= total_words) return;
          const std::size_t j = w / words_per_block;       // coded block
          const std::size_t word = w % words_per_block;    // word within it
          const std::uint8_t* coeff_row = coeffs + j * p.n;
          std::uint32_t acc = 0;
          for (std::size_t i = 0; i < p.n; ++i) {
            const std::uint8_t c = thread.gload_u8(coeff_row + i);
            const std::uint32_t s =
                thread.gload_u32(src + i * p.k + word * 4);
            acc ^= gf256::mul_byte_word(c, s);
            thread.count_alu(cost.per_iteration *
                             gf256::loop_iterations(c));
          }
          thread.count_alu(cost.per_word);
          thread.gstore_u32(out + j * p.k + word * 4, acc);
        });
      });
}

// Sec. 5.1.2 partitioning: one resident block per SM striding over words,
// tables loaded into shared memory once per block.
void GpuEncoder::run_table_based(coding::CodedBatch& batch) {
  const coding::Params p = params();
  const EncodeGeometry g =
      encode_geometry(launcher_.spec(), scheme_, p, batch.count());
  const std::size_t words_per_block = g.wpb;
  const std::size_t total_words = g.total_words;
  const std::size_t threads = g.threads;
  const std::size_t blocks = g.blocks;
  const EncodeCost cost = encode_cost(scheme_);
  const bool preprocessed = scheme_is_preprocessed(scheme_);
  const std::uint8_t* src = preprocessed ? log_segment_.data()
                                         : segment_->data();
  const std::uint8_t* coeffs = preprocessed ? log_coefficients_.data()
                                            : batch.coefficients_data();
  std::uint8_t* out = batch.payloads_data();
  const bool shifted = scheme_uses_shifted_log(scheme_);
  const std::uint8_t sentinel = shifted ? 0x00 : gf256::kLogZero;
  const EncodeBuffers buffers{
      .src = src,
      .coeffs = coeffs,
      .src_addr = reinterpret_cast<std::uintptr_t>(src),
      .coeff_addr = reinterpret_cast<std::uintptr_t>(coeffs),
      .out_addr = reinterpret_cast<std::uintptr_t>(out),
      .exp_addr = reinterpret_cast<std::uintptr_t>(exp_table_bytes_.data())};

  // The profiled lowering needs aligned runs (and, for kTable5, a
  // lane-position-independent table interleave). Its profile is built
  // here, before the launch, so the launch's blocks only ever read it.
  const bool aligned =
      aligned_runs(launcher_.spec(), g) &&
      (scheme_ != EncodeScheme::kTable5 || g.half % kReplicatedTables == 0);
  if (aligned && !table_profile_.built && simgpu::fast_path_enabled()) {
    build_table_fast_profile(src);
  }
  const bool profiled = aligned && table_profile_.built;

  // The exp lookup's home names the kernel: texture for TB-4, shared
  // memory (replicated for TB-5) otherwise.
  set_launch_label(scheme_ == EncodeScheme::kTable4 ? "exp_tex" : "exp_smem");
  launcher_.launch(
      {.blocks = blocks, .threads_per_block = threads}, [&](BlockCtx& block) {
        if (block.fast_path() && g.half <= 16) {
          metrics::count("simgpu.fast.lowered_blocks");
          if (profiled) {
            run_table_based_fast(block, batch, g, cost, src, coeffs, out,
                                 sentinel);
          } else {
            encode_block_walked(block, g, buffers, batch);
          }
          return;
        }
        // --- cooperative table load (coalesced, Sec. 5.1) ---------------
        if (scheme_ == EncodeScheme::kTable5) {
          const std::size_t table_words =
              kExpTableEntries * kReplicatedTables;
          block.step([&](ThreadCtx& thread) {
            for (std::size_t w = thread.lane(); w < table_words;
                 w += threads) {
              thread.sstore_u32(
                  w * 4, thread.gload_u32(exp_table_words_.data() + w * 4));
            }
          });
        } else if (scheme_ != EncodeScheme::kTable4) {
          block.step([&](ThreadCtx& thread) {
            for (std::size_t w = thread.lane(); w < kExpTableEntries / 4;
                 w += threads) {
              thread.sstore_u32(
                  kExpBytesOffset + w * 4,
                  thread.gload_u32(exp_table_bytes_.data() + w * 4));
            }
            if (scheme_ == EncodeScheme::kTable0) {
              for (std::size_t w = thread.lane(); w < 256 / 4; w += threads) {
                thread.sstore_u32(
                    kLogBytesOffset + w * 4,
                    thread.gload_u32(log_table_bytes_.data() + w * 4));
              }
            }
          });
        }

        // --- encode words, strided ---------------------------------------
        const std::size_t stride = blocks * threads;
        block.step([&](ThreadCtx& thread) {
          for (std::size_t w =
                   block.block_index() * threads + thread.lane();
               w < total_words; w += stride) {
            const std::size_t j = w / words_per_block;
            const std::size_t word = w % words_per_block;
            const std::uint8_t* coeff_row = coeffs + j * p.n;
            std::uint32_t acc = 0;
            for (std::size_t i = 0; i < p.n; ++i) {
              // Coefficient: log domain for preprocessed schemes; kTable0
              // looks it up in the shared log table.
              std::uint8_t log_c = thread.gload_u8(coeff_row + i);
              if (scheme_ == EncodeScheme::kTable0) {
                log_c = thread.sload_u8(kLogBytesOffset + log_c);
              }
              const std::uint32_t s =
                  thread.gload_u32(src + i * p.k + word * 4);
              thread.count_alu(cost.per_word);
              if (log_c == sentinel) {
                // kTable2+ fold the four per-byte coefficient tests into
                // this single per-word test; earlier schemes still pay for
                // per-byte tests via their per_byte cost. Skipped lanes
                // keep their access sequence aligned with active ones.
                const int skipped =
                    scheme_ == EncodeScheme::kTable0 ? 8 : 4;
                for (int a = 0; a < skipped; ++a) thread.skip_access();
                continue;
              }
              for (int b = 0; b < 4; ++b) {
                std::uint8_t log_s = static_cast<std::uint8_t>(s >> (8 * b));
                if (scheme_ == EncodeScheme::kTable0) {
                  log_s = thread.sload_u8(kLogBytesOffset + log_s);
                }
                thread.count_alu(cost.per_byte);
                if (log_s == sentinel) {
                  thread.skip_access();  // the exp lookup this lane skips
                  continue;
                }
                const std::size_t idx =
                    static_cast<std::size_t>(log_c) + log_s;
                std::uint8_t product;
                if (scheme_ == EncodeScheme::kTable4) {
                  product = thread.tex1d_u8(exp_table_bytes_.data(), idx);
                } else if (scheme_ == EncodeScheme::kTable5) {
                  const std::size_t word_index =
                      idx * kReplicatedTables +
                      (thread.lane() % kReplicatedTables);
                  product = static_cast<std::uint8_t>(
                      thread.sload_u32(word_index * 4));
                } else {
                  product = thread.sload_u8(kExpBytesOffset + idx);
                }
                acc ^= static_cast<std::uint32_t>(product) << (8 * b);
              }
            }
            thread.gstore_u32(out + j * p.k + word * 4, acc);
          }
        });
      });
}

// Evaluate the per-(group, row) access profile once for the encoder's
// immutable accounting-domain segment. Degrees for the exp lookups are
// evaluated at the four log_c residues mod 4: adding 4t to log_c shifts
// every lookup word by t (byte tables) or 8t (kTable5's interleave),
// which preserves word distinctness and rotates banks uniformly — the
// serialization degree is invariant (simgpu::shared_group_degree over
// shifted word sets).
void GpuEncoder::build_table_fast_profile(const std::uint8_t* src) {
  const coding::Params& p = params();
  const simgpu::DeviceSpec& spec = launcher_.spec();
  const std::size_t half = spec.half_warp;
  const auto banks = static_cast<std::uint32_t>(spec.shared_banks);
  const std::size_t groups = (p.k / 4) / half;
  const bool tb0 = scheme_ == EncodeScheme::kTable0;
  const bool tb4 = scheme_ == EncodeScheme::kTable4;
  const bool tb5 = scheme_ == EncodeScheme::kTable5;
  const bool shifted = scheme_uses_shifted_log(scheme_);
  const std::uint8_t sentinel = shifted ? 0x00 : gf256::kLogZero;
  const std::uint8_t* log_table = tb0 ? log_table_bytes_.data() : nullptr;

  TableFastProfile& prof = table_profile_;
  prof.groups = groups;
  const std::size_t len = p.n * (groups + 1);
  prof.src_tx.assign(len, 0);
  prof.exp_events.assign(len, 0);
  prof.exp_accesses.assign(len, 0);
  for (auto& v : prof.exp_cycles) v.assign(len, 0);
  prof.log_cycles.assign(tb0 ? len : 0, 0);
  prof.active.assign(tb4 ? len : 0, 0);

  std::array<std::uintptr_t, 16> words;
  std::array<std::uint8_t, 16> log_s;
  std::array<std::size_t, 16> lane_of;
  for (std::size_t i = 0; i < p.n; ++i) {
    const std::size_t row = i * (groups + 1);
    for (std::size_t g = 0; g < groups; ++g) {
      const std::uint8_t* s = src + i * p.k + g * half * 4;
      std::uint32_t src_tx = static_cast<std::uint32_t>(
          simgpu::span_transactions(reinterpret_cast<std::uintptr_t>(s),
                                    half * 4, spec.coalesce_segment_bytes));
      std::uint32_t events = 0;
      std::uint32_t accesses = 0;
      std::uint32_t cycles[4] = {0, 0, 0, 0};
      std::uint32_t log_cycles = 0;
      for (int b = 0; b < 4; ++b) {
        if (tb0) {
          for (std::size_t l = 0; l < half; ++l) {
            words[l] = (kLogBytesOffset + s[l * 4 + b]) / 4;
          }
          log_cycles += static_cast<std::uint32_t>(
              simgpu::shared_group_degree(words.data(), half, banks));
        }
        std::size_t cnt = 0;
        for (std::size_t l = 0; l < half; ++l) {
          std::uint8_t v = s[l * 4 + b];
          if (tb0) v = log_table[v];
          if (v == sentinel) continue;
          log_s[cnt] = v;
          lane_of[cnt] = l;
          ++cnt;
        }
        if (cnt == 0) continue;
        events += 1;
        accesses += static_cast<std::uint32_t>(cnt);
        if (tb4) continue;  // fetch counts only; no shared lookup
        for (std::uint32_t cc = 0; cc < 4; ++cc) {
          for (std::size_t t = 0; t < cnt; ++t) {
            const std::size_t idx = cc + log_s[t];
            words[t] = tb5 ? tb5_word_index(idx, lane_of[t])
                           : (kExpBytesOffset + idx) / 4;
          }
          cycles[cc] += static_cast<std::uint32_t>(
              simgpu::shared_group_degree(words.data(), cnt, banks));
        }
      }
      prof.src_tx[row + g + 1] = prof.src_tx[row + g] + src_tx;
      prof.exp_events[row + g + 1] = prof.exp_events[row + g] + events;
      prof.exp_accesses[row + g + 1] = prof.exp_accesses[row + g] + accesses;
      for (std::uint32_t cc = 0; cc < 4; ++cc) {
        prof.exp_cycles[cc][row + g + 1] =
            prof.exp_cycles[cc][row + g] + cycles[cc];
      }
      if (tb0) {
        prof.log_cycles[row + g + 1] = prof.log_cycles[row + g] + log_cycles;
      }
      if (tb4) prof.active[row + g + 1] = prof.active[row + g] + accesses;
    }
  }
  prof.built = true;
}

// Fast-path body for one aligned table-based block. Outputs come from
// region multiplies over the natural-domain segment/coefficients;
// accounting charges whole same-coded-block runs from the cached profile —
// a handful of prefix-sum subtractions per (run, i) — instead of
// re-walking every payload byte.
void GpuEncoder::run_table_based_fast(BlockCtx& block,
                                      coding::CodedBatch& batch,
                                      const EncodeGeometry& g,
                                      const EncodeCost& cost,
                                      const std::uint8_t* src,
                                      const std::uint8_t* coeffs,
                                      std::uint8_t* out,
                                      std::uint8_t sentinel) {
  const coding::Params p = params();
  const std::size_t words_per_block = g.wpb;
  const std::size_t total_words = g.total_words;
  const std::size_t threads = g.threads;
  const std::size_t half = g.half;
  const std::size_t stride = g.blocks * threads;
  const bool tb0 = scheme_ == EncodeScheme::kTable0;
  const bool tb4 = scheme_ == EncodeScheme::kTable4;
  const std::uint8_t* log_table = tb0 ? log_table_bytes_.data() : nullptr;
  const TableFastProfile& prof = table_profile_;
  const std::size_t g1 = prof.groups + 1;

  const std::uint64_t word_deci =
      simgpu::KernelMetrics::deciops(cost.per_word);
  const std::uint64_t byte_deci =
      simgpu::KernelMetrics::deciops(cost.per_byte);
  const std::uint64_t seg_bytes = block.spec().coalesce_segment_bytes;
  std::uint64_t tx = 0, instrs = 0, load = 0, store = 0;
  std::uint64_t sacc = 0, sev = 0, scyc = 0, alu = 0, fetches = 0;

  for (std::size_t bb = block.block_index() * threads; bb < total_words;
       bb += stride) {
    // total_words and threads are half-warp multiples here, so every group
    // is full and runs split only at coded-block boundaries (aligned_runs).
    const std::size_t wend = bb + std::min(threads, total_words - bb);
    encode_words(p, segment_->data(), batch.coefficients_data(), out, bb,
                 wend);
    std::size_t w = bb;
    while (w < wend) {
      const std::size_t j = w / words_per_block;
      const std::size_t word0 = w % words_per_block;
      const std::size_t run = std::min(words_per_block - word0, wend - w);
      const std::size_t g0 = word0 / half;
      const std::uint64_t gc = run / half;
      const std::uint8_t* coeff_row = coeffs + j * p.n;
      // Every store group in the run shares one coalescing phase.
      tx += gc * simgpu::span_transactions(
                     reinterpret_cast<std::uintptr_t>(out + j * p.k +
                                                      word0 * 4),
                     half * 4, seg_bytes);
      instrs += gc * half;
      store += run * 4;
      for (std::size_t i = 0; i < p.n; ++i) {
        std::uint8_t log_c = coeff_row[i];
        tx += gc;  // coefficient broadcast: 1-byte span, one segment
        instrs += 2 * gc * half;  // coeff + src loads
        load += gc * half * 5;    // 1 coeff byte + 4 src bytes per lane
        const std::size_t row = i * g1;
        tx += prof.src_tx[row + g0 + gc] - prof.src_tx[row + g0];
        alu += gc * half * word_deci;
        if (tb0) {
          // Broadcast log lookup: all lanes hit one word, degree 1.
          sacc += gc * half;
          sev += gc;
          scyc += gc;
          log_c = log_table[log_c];
        }
        if (log_c == sentinel) continue;
        alu += gc * half * 4 * byte_deci;
        if (tb0) {
          scyc += prof.log_cycles[row + g0 + gc] - prof.log_cycles[row + g0];
          sev += gc * 4;
          sacc += gc * half * 4;
        }
        if (tb4) {
          fetches += prof.active[row + g0 + gc] - prof.active[row + g0];
        } else {
          const auto& cyc = prof.exp_cycles[log_c % 4];
          scyc += cyc[row + g0 + gc] - cyc[row + g0];
          sev += prof.exp_events[row + g0 + gc] - prof.exp_events[row + g0];
          sacc +=
              prof.exp_accesses[row + g0 + gc] - prof.exp_accesses[row + g0];
        }
      }
      w += run;
    }
  }

  // --- kTable4: the table is cache-resident (16 lines, distinct sets), so
  // once every table line is tagged no later fetch can miss. Replay the
  // interpreted lane-major order only through that residency window, then
  // charge the remaining fetches in closed form.
  if (tb4) {
    simgpu::TextureCache& cache = block.texture_cache();
    const auto base =
        reinterpret_cast<std::uintptr_t>(exp_table_bytes_.data());
    const std::size_t line_bytes = cache.line_bytes();
    const std::uintptr_t first_line = base / line_bytes;
    const std::uintptr_t last_line =
        (base + kExpTableEntries - 1) / line_bytes;
    std::size_t missing = 0;
    for (std::uintptr_t line = first_line; line <= last_line; ++line) {
      if (!cache.resident(line * line_bytes)) ++missing;
    }
    for (std::size_t lane = 0; lane < threads && missing > 0; ++lane) {
      for (std::size_t w = block.block_index() * threads + lane;
           w < total_words && missing > 0; w += stride) {
        const std::size_t j = w / words_per_block;
        const std::size_t word = w % words_per_block;
        const std::uint8_t* coeff_row = coeffs + j * p.n;
        for (std::size_t i = 0; i < p.n && missing > 0; ++i) {
          const std::uint8_t log_c = coeff_row[i];
          if (log_c == sentinel) continue;
          const std::uint8_t* s = src + i * p.k + word * 4;
          for (int b = 0; b < 4 && missing > 0; ++b) {
            const std::uint8_t log_s = s[b];
            if (log_s == sentinel) continue;
            const std::uintptr_t addr = base + log_c + log_s;
            if (!cache.resident(addr)) --missing;
            block.fast_texture_fetch(addr);
            --fetches;
          }
        }
      }
    }
  }

  simgpu::KernelMetrics counters;
  counters.global_transactions = tx;
  counters.global_load_bytes = load;
  counters.global_store_bytes = store;
  counters.shared_accesses = sacc;
  counters.shared_access_events = sev;
  counters.shared_serialized_cycles = scyc;
  counters.texture_fetches = fetches;  // the rest: all hits
  // One issue slot per memory instruction, 10 deci-ops each.
  counters.alu_deciops = alu + 10 * (instrs + sacc + fetches);
  counters.barriers = 1;
  block.charge(table_load_counters_);
  block.charge(counters);
}

}  // namespace extnc::gpu
