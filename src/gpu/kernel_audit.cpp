#include "gpu/kernel_audit.h"

#include <algorithm>
#include <array>

#include "gf256/gf.h"
#include "gf256/region.h"
#include "gf256/swar.h"
#include "gpu/kernel_cost.h"
#include "gpu/table_layout.h"
#include "util/assert.h"

namespace extnc::gpu {

using simgpu::KernelMetrics;
using simgpu::SegmentBuilder;
using simgpu::SegmentModel;
using simgpu::StaticKernelModel;

namespace {

// ------------------------------------------------------------------------
// Payload classes.

// The uniform value must survive every scheme's accounting map; assert the
// documented [1, 254] envelope once per entry point.
void check_assumptions(const ModelAssumptions& a) {
  EXTNC_CHECK(a.payload_value >= 1 && a.payload_value <= 254);
  EXTNC_CHECK(a.coeff_value >= 1 && a.coeff_value <= 254);
}

}  // namespace

int payload_class_byte(PayloadClass cls, const ModelAssumptions& assume,
                       std::size_t pos) {
  switch (cls) {
    case PayloadClass::kUniform:
      return assume.payload_value;
    case PayloadClass::kStride64:
      // 1 + 64 * (word % 4): all four values in [1, 193], 64 apart.
      return 1 + 64 * static_cast<int>((pos / 4) % 4);
    case PayloadClass::kSparse:
      return pos % 3 == 0 ? -1 : assume.payload_value;
  }
  return -1;
}

int coeff_class_byte(const ModelAssumptions& assume, std::size_t i) {
  if (assume.coeff_zero_every != 0 &&
      i % assume.coeff_zero_every == assume.coeff_zero_every - 1) {
    return -1;
  }
  return assume.coeff_value;
}

namespace {

// Natural-domain byte whose accounting image under `scheme` is the class
// byte `v` (-1 = zero). Inverts the per-scheme preprocessing map.
std::uint8_t natural_from_class(EncodeScheme scheme, int v) {
  if (v < 0) return 0;
  const gf256::Tables& t = gf256::tables();
  if (!scheme_is_preprocessed(scheme)) {
    // loop / tb0: the kernel reads natural bytes directly.
    return static_cast<std::uint8_t>(v);
  }
  if (scheme_uses_shifted_log(scheme)) {
    // log_shifted[x] == v  =>  x == exp[v - 1]  (v in [1, 255]).
    EXTNC_CHECK(v >= 1);
    return t.exp[v - 1];
  }
  // log[x] == v  =>  x == exp[v]  (v in [0, 254]).
  EXTNC_CHECK(v <= 254);
  return t.exp[v];
}

// The byte the kernel loads for class byte `v` (-1 = zero): natural for
// loop/tb0 (tb0 log-looks it up in shared memory), otherwise the log-domain
// byte with the scheme's sentinel standing for zero.
std::uint8_t loaded_class_byte(EncodeScheme scheme, int v) {
  if (!scheme_is_preprocessed(scheme)) {
    return v < 0 ? 0 : static_cast<std::uint8_t>(v);
  }
  if (v < 0) return scheme_uses_shifted_log(scheme) ? 0x00 : gf256::kLogZero;
  return static_cast<std::uint8_t>(v);
}

}  // namespace

coding::Segment synthesize_segment(EncodeScheme scheme,
                                   const coding::Params& params,
                                   const ModelAssumptions& assume) {
  check_assumptions(assume);
  coding::Segment segment(params);
  std::uint8_t* data = segment.data();
  const std::size_t bytes = params.segment_bytes();
  for (std::size_t pos = 0; pos < bytes; ++pos) {
    data[pos] = natural_from_class(
        scheme, payload_class_byte(assume.payload_class, assume, pos));
  }
  return segment;
}

coding::CodedBatch synthesize_batch(EncodeScheme scheme,
                                    const coding::Params& params,
                                    std::size_t count,
                                    const ModelAssumptions& assume) {
  check_assumptions(assume);
  coding::CodedBatch batch(params, count);
  for (std::size_t j = 0; j < count; ++j) {
    auto row = batch.coefficients(j);
    for (std::size_t i = 0; i < params.n; ++i) {
      row[i] = natural_from_class(scheme, coeff_class_byte(assume, i));
    }
  }
  return batch;
}

std::vector<std::uint8_t> synthesize_invertible_matrix(std::size_t n) {
  EXTNC_CHECK(n >= 1 && n <= 255);
  const gf256::Tables& t = gf256::tables();
  std::vector<std::uint8_t> m(n * n);
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint8_t x = t.exp[r];  // distinct nonzero points
    std::uint8_t power = 1;
    for (std::size_t c = 0; c < n; ++c) {
      m[r * n + c] = power;
      power = gf256::mul(power, x);
    }
  }
  return m;
}

// ------------------------------------------------------------------------
// Encode walker and model.

EncodeGeometry encode_geometry(const simgpu::DeviceSpec& spec,
                               EncodeScheme scheme, const coding::Params& p,
                               std::size_t count) {
  EXTNC_CHECK(p.k % 4 == 0);
  EXTNC_CHECK(count >= 1);
  EncodeGeometry g;
  g.wpb = p.k / 4;
  g.total_words = count * g.wpb;
  g.half = static_cast<std::size_t>(spec.half_warp);
  if (scheme == EncodeScheme::kLoopBased) {
    g.threads = std::min<std::size_t>(256, g.total_words);
    g.blocks = (g.total_words + g.threads - 1) / g.threads;
  } else {
    g.threads = 256;
    g.blocks = std::min<std::size_t>(
        static_cast<std::size_t>(spec.num_sms),
        (g.total_words + g.threads - 1) / g.threads);
  }
  return g;
}

SegmentModel table_load_segment(const simgpu::DeviceSpec& spec,
                                EncodeScheme scheme, std::size_t threads,
                                std::size_t blocks, std::uintptr_t exp_addr,
                                std::uintptr_t log_addr,
                                ByteExtent* exp_extent,
                                ByteExtent* log_extent, bool lane_blocked) {
  SegmentBuilder load(spec, "table_load");
  const std::size_t half = static_cast<std::size_t>(spec.half_warp);
  ByteExtent unused;
  std::array<std::uintptr_t, 16> words{};
  std::array<std::uintptr_t, 16> addrs{};
  // (table word count, shared base word, device table, extent) per
  // cooperative loop.
  struct TableSweep {
    std::size_t table_words;
    std::size_t base_word;
    std::uintptr_t addr;
    ByteExtent* extent;
  };
  std::vector<TableSweep> sweeps;
  ByteExtent* exp = exp_extent != nullptr ? exp_extent : &unused;
  if (scheme == EncodeScheme::kTable5) {
    sweeps.push_back({kExpTableEntries * kReplicatedTables, 0, exp_addr, exp});
  } else {
    sweeps.push_back(
        {kExpTableEntries / 4, kExpBytesOffset / 4, exp_addr, exp});
    if (scheme == EncodeScheme::kTable0) {
      sweeps.push_back({256 / 4, kLogBytesOffset / 4, log_addr,
                        log_extent != nullptr ? log_extent : &unused});
    }
  }
  for (const TableSweep& sweep : sweeps) {
    if (lane_blocked && sweep.table_words >= threads) {
      // Seeded regression: lane l loads words [l * chunk, (l + 1) * chunk).
      const std::size_t chunk = sweep.table_words / threads;
      for (std::size_t it = 0; it < chunk; ++it) {
        for (std::size_t l0 = 0; l0 < threads; l0 += half) {
          const std::size_t cnt = std::min(half, threads - l0);
          for (std::size_t l = 0; l < cnt; ++l) {
            const std::size_t w = (l0 + l) * chunk + it;
            words[l] = sweep.base_word + w;
            // One 4-byte load per lane, chunk * 4 bytes apart: still one
            // transaction dedup per distinct 64-byte segment.
            addrs[l] = sweep.addr + w * 4;
          }
          load.add_global_group(addrs.data(), cnt, 4, cnt * 4, 0, blocks);
          load.add_shared_group(words.data(), cnt, blocks);
          sweep.extent->touch((sweep.table_words - 1) * 4, 4);
        }
      }
      continue;
    }
    for (std::size_t it = 0; it * threads < sweep.table_words; ++it) {
      const std::size_t base = it * threads;
      const std::size_t lanes_end =
          std::min(threads, sweep.table_words - base);
      for (std::size_t l0 = 0; l0 < lanes_end; l0 += half) {
        const std::size_t w0 = base + l0;
        const std::size_t cnt = std::min(half, sweep.table_words - w0);
        load.add_global_span(sweep.addr + w0 * 4, cnt * 4, cnt, cnt * 4, 0,
                             blocks);
        sweep.extent->touch(w0 * 4, cnt * 4);
        for (std::size_t l = 0; l < cnt; ++l) {
          words[l] = sweep.base_word + w0 + l;
        }
        load.add_shared_group(words.data(), cnt, blocks);
      }
    }
  }
  // One step per block.
  return load.finish(threads, blocks);
}

void walk_encode_block(EncodeScheme scheme, const coding::Params& p,
                       const EncodeGeometry& g, std::size_t block,
                       const EncodeBuffers& buf,
                       simgpu::TextureCache* texture, SegmentBuilder& seg,
                       EncodeExtents* extents) {
  const EncodeCost cost = encode_cost(scheme);
  const gf256::Tables& t = gf256::tables();
  const bool loop = scheme == EncodeScheme::kLoopBased;
  const bool tb0 = scheme == EncodeScheme::kTable0;
  const bool tb4 = scheme == EncodeScheme::kTable4;
  const bool tb5 = scheme == EncodeScheme::kTable5;
  const std::uint8_t sentinel =
      scheme_uses_shifted_log(scheme) ? 0x00 : gf256::kLogZero;
  EXTNC_CHECK(g.half >= 1 && g.half <= 16);
  EXTNC_CHECK(!tb4 || texture != nullptr);
  EncodeExtents unused;
  EncodeExtents& ext = extents != nullptr ? *extents : unused;
  const std::uint64_t word_deci = KernelMetrics::deciops(cost.per_word);
  const std::uint64_t byte_deci = KernelMetrics::deciops(cost.per_byte);

  std::array<std::size_t, 16> jv{};
  std::array<std::size_t, 16> wv{};
  std::array<std::uint8_t, 16> log_c{};
  std::array<std::uintptr_t, 16> addrs{};
  std::array<std::uintptr_t, 16> words{};
  std::uint64_t alu = 0;
  std::uint64_t fetches = 0;
  std::uint64_t misses = 0;
  // The loop kernel makes one pass (its blocks cover every word once); the
  // table kernels stride. Both reduce to this strided loop.
  const std::size_t stride = g.blocks * g.threads;
  for (std::size_t base = block * g.threads; base < g.total_words;
       base += stride) {
    const std::size_t lanes_end = std::min(g.threads, g.total_words - base);
    for (std::size_t l0 = 0; l0 < lanes_end; l0 += g.half) {
      const std::size_t cnt = std::min(g.half, lanes_end - l0);
      for (std::size_t l = 0; l < cnt; ++l) {
        jv[l] = (base + l0 + l) / g.wpb;
        wv[l] = (base + l0 + l) % g.wpb;
      }
      for (std::size_t i = 0; i < p.n; ++i) {
        // Coefficient load: one byte per lane, scattered across rows when
        // the half-warp straddles coded blocks.
        for (std::size_t l = 0; l < cnt; ++l) {
          const std::size_t off = jv[l] * p.n + i;
          addrs[l] = buf.coeff_addr + off;
          log_c[l] = buf.coeffs[off];
          ext.coeffs.touch(off, 1);
        }
        seg.add_global_group(addrs.data(), cnt, 1, cnt, 0);
        if (tb0) {
          // Shared log lookup of each lane's natural coefficient byte.
          for (std::size_t l = 0; l < cnt; ++l) {
            words[l] = (kLogBytesOffset + log_c[l]) / 4;
            log_c[l] = t.log[log_c[l]];
          }
          seg.add_shared_group(words.data(), cnt);
        }
        // Source load: 4 bytes per lane; contiguous within a coded block,
        // discontinuous across the straddle.
        for (std::size_t l = 0; l < cnt; ++l) {
          const std::size_t off = i * p.k + wv[l] * 4;
          addrs[l] = buf.src_addr + off;
          ext.src.touch(off, 4);
        }
        seg.add_global_group(addrs.data(), cnt, 4, cnt * 4, 0);
        if (loop) {
          for (std::size_t l = 0; l < cnt; ++l) {
            alu += KernelMetrics::deciops(cost.per_iteration *
                                          gf256::loop_iterations(log_c[l]));
          }
          continue;
        }
        alu += cnt * word_deci;
        // Lanes whose coefficient is the sentinel skip all four bytes.
        std::size_t c_active = 0;
        for (std::size_t l = 0; l < cnt; ++l) {
          if (log_c[l] != sentinel) ++c_active;
        }
        if (c_active == 0) continue;
        for (std::size_t b = 0; b < 4; ++b) {
          if (tb0) {
            std::size_t k2 = 0;
            for (std::size_t l = 0; l < cnt; ++l) {
              if (log_c[l] == sentinel) continue;
              words[k2++] =
                  (kLogBytesOffset + buf.src[i * p.k + wv[l] * 4 + b]) / 4;
            }
            seg.add_shared_group(words.data(), k2);
          }
          alu += c_active * byte_deci;
          std::size_t k2 = 0;
          for (std::size_t l = 0; l < cnt; ++l) {
            if (log_c[l] == sentinel) continue;
            std::uint8_t log_s = buf.src[i * p.k + wv[l] * 4 + b];
            if (tb0) log_s = t.log[log_s];
            if (log_s == sentinel) continue;
            const std::size_t idx = static_cast<std::size_t>(log_c[l]) + log_s;
            if (tb4) {
              ++fetches;
              if (!texture->access(buf.exp_addr + idx)) ++misses;
              ext.exp.touch(idx, 1);
              continue;
            }
            const std::size_t word = tb5 ? tb5_word_index(idx, l0 + l)
                                         : (kExpBytesOffset + idx) / 4;
            words[k2++] = word;
            ext.exp.touch(tb5 ? word * 4 : idx, tb5 ? 4 : 1);
          }
          if (k2 > 0) seg.add_shared_group(words.data(), k2);
        }
      }
      if (loop) alu += cnt * word_deci;
      // Output store.
      for (std::size_t l = 0; l < cnt; ++l) {
        const std::size_t off = jv[l] * p.k + wv[l] * 4;
        addrs[l] = buf.out_addr + off;
        ext.out.touch(off, 4);
      }
      seg.add_global_group(addrs.data(), cnt, 4, 0, cnt * 4);
    }
  }
  seg.add_alu_deciops(alu);
  if (tb4) seg.add_texture_fetches(fetches, misses);
}

StaticKernelModel encode_kernel_model(const simgpu::DeviceSpec& spec,
                                      EncodeScheme scheme,
                                      const coding::Params& p,
                                      std::size_t count,
                                      const ModelAssumptions& assume) {
  check_assumptions(assume);
  const EncodeGeometry g = encode_geometry(spec, scheme, p, count);
  const bool loop = scheme == EncodeScheme::kLoopBased;
  const bool tb0 = scheme == EncodeScheme::kTable0;
  const bool tb4 = scheme == EncodeScheme::kTable4;
  const bool tb5 = scheme == EncodeScheme::kTable5;

  StaticKernelModel model;
  model.kernel = std::string("encode/") + scheme_label(scheme) + "/" +
                 (loop ? "mul_loop" : tb4 ? "exp_tex" : "exp_smem");
  model.blocks = g.blocks;
  model.threads_per_block = g.threads;
  model.shared_bytes = loop || tb4 ? 0
                       : tb5       ? table_shared_bytes_tb5()
                                   : table_shared_bytes_byte(tb0);

  EncodeExtents ext;
  ByteExtent log_extent;
  if (!loop && !tb4) {
    model.segments.push_back(table_load_segment(spec, scheme, g.threads,
                                                g.blocks, 0, 0, &ext.exp,
                                                &log_extent));
  }

  // The class's bytes as the kernel loads them, at 0-based addresses.
  std::vector<std::uint8_t> src(p.segment_bytes());
  for (std::size_t pos = 0; pos < src.size(); ++pos) {
    src[pos] = loaded_class_byte(
        scheme, payload_class_byte(assume.payload_class, assume, pos));
  }
  std::vector<std::uint8_t> coeffs(count * p.n);
  for (std::size_t pos = 0; pos < coeffs.size(); ++pos) {
    coeffs[pos] =
        loaded_class_byte(scheme, coeff_class_byte(assume, pos % p.n));
  }
  const EncodeBuffers buffers{.src = src.data(), .coeffs = coeffs.data()};

  // tb4: one cache per texture unit (sms_per_texture_cache SMs share one),
  // cold, or holding the whole table when the assumptions say warm.
  const std::size_t sms = static_cast<std::size_t>(spec.num_sms);
  const std::size_t unit_div = static_cast<std::size_t>(
      std::max(1, spec.sms_per_texture_cache));
  std::vector<simgpu::TextureCache> units;
  if (tb4) {
    units.assign((sms + unit_div - 1) / unit_div,
                 simgpu::TextureCache(spec.texture_cache_bytes,
                                      spec.texture_cache_line_bytes));
    for (simgpu::TextureCache& cache : units) {
      for (std::size_t idx = 0; !assume.cold_texture && idx < kExpTableEntries;
           idx += cache.line_bytes()) {
        cache.access(idx);
      }
    }
  }

  SegmentBuilder enc(spec, "encode");
  for (std::size_t b = 0; b < g.blocks; ++b) {
    walk_encode_block(scheme, p, g, b, buffers,
                      tb4 ? &units[(b % sms) / unit_div] : nullptr, enc, &ext);
  }
  model.segments.push_back(enc.finish(g.threads, g.blocks));

  // Registered buffer sizes come from the geometry; needed extents from
  // the walk above.
  const bool preprocessed = scheme_is_preprocessed(scheme);
  model.footprint.push_back({preprocessed ? "log_segment" : "segment",
                             ext.src.end, p.segment_bytes(), false});
  model.footprint.push_back(
      {preprocessed ? "log_coefficients" : "batch.coefficients",
       ext.coeffs.end, count * p.n, false});
  model.footprint.push_back(
      {"batch.payloads", ext.out.end, count * p.k, true});
  if (!loop) {
    if (tb5) {
      model.footprint.push_back({"exp_table_words", ext.exp.end,
                                 kExpTableEntries * kReplicatedTables * 4,
                                 false});
    } else {
      model.footprint.push_back(
          {"exp_table", ext.exp.end, kExpTableEntries, false});
    }
    if (tb0) {
      model.footprint.push_back({"log_table", log_extent.end, 256, false});
    }
  }
  return model;
}

StaticKernelModel recode_kernel_model(const simgpu::DeviceSpec& spec,
                                      EncodeScheme scheme,
                                      const coding::Params& params,
                                      std::size_t received,
                                      std::size_t produced,
                                      const ModelAssumptions& assume) {
  EXTNC_CHECK((params.n + params.k) % 4 == 0);
  const coding::Params aggregate{.n = received, .k = params.n + params.k};
  StaticKernelModel model =
      encode_kernel_model(spec, scheme, aggregate, produced, assume);
  model.kernel = std::string("recode/") + scheme_label(scheme) + "/" +
                 (scheme == EncodeScheme::kLoopBased ? "mul_loop"
                  : scheme == EncodeScheme::kTable4 ? "exp_tex"
                                                    : "exp_smem");
  return model;
}

// ------------------------------------------------------------------------
// Preprocess walker and models (payload-free: the access structure is a
// pure function of the element count).

void walk_preprocess_block(const simgpu::DeviceSpec& spec,
                           std::size_t elements, std::size_t element_bytes,
                           std::size_t threads, std::size_t blocks,
                           std::size_t block, std::uintptr_t src_addr,
                           std::uintptr_t dst_addr, SegmentBuilder& seg,
                           ByteExtent* extent) {
  const std::size_t half = static_cast<std::size_t>(spec.half_warp);
  const std::size_t stride = blocks * threads;
  const std::uint64_t byte_deci = KernelMetrics::deciops(kPreprocessPerByte);
  std::uint64_t alu = 0;
  // Partial half-warps (the tail of the element range) are contiguous low
  // lanes, so every group is one span.
  for (std::size_t base = block * threads; base < elements; base += stride) {
    const std::size_t lanes_end = std::min(threads, elements - base);
    for (std::size_t l0 = 0; l0 < lanes_end; l0 += half) {
      const std::size_t off = (base + l0) * element_bytes;
      const std::size_t span =
          std::min(half, elements - base - l0) * element_bytes;
      const std::size_t cnt = span / element_bytes;
      seg.add_global_span(src_addr + off, span, cnt, span, 0);
      alu += span * byte_deci;
      seg.add_global_span(dst_addr + off, span, cnt, 0, span);
      if (extent != nullptr) extent->touch(off, span);
    }
  }
  seg.add_alu_deciops(alu);
}

namespace {

StaticKernelModel preprocess_model(const simgpu::DeviceSpec& spec,
                                   const char* kernel, std::size_t elements,
                                   std::size_t element_bytes,
                                   const char* src_name,
                                   const char* dst_name) {
  const std::size_t threads = 256;
  const std::size_t blocks = std::min<std::size_t>(
      static_cast<std::size_t>(spec.num_sms),
      (elements + threads - 1) / threads);

  StaticKernelModel model;
  model.kernel = kernel;
  model.blocks = blocks;
  model.threads_per_block = threads;
  ByteExtent extent;
  SegmentBuilder seg(spec, "transform");
  for (std::size_t b = 0; b < blocks; ++b) {
    walk_preprocess_block(spec, elements, element_bytes, threads, blocks, b,
                          0, 0, seg, &extent);
  }
  model.segments.push_back(seg.finish(threads, blocks));
  const std::size_t bytes = elements * element_bytes;
  model.footprint.push_back({src_name, extent.end, bytes, false});
  model.footprint.push_back({dst_name, extent.end, bytes, true});
  return model;
}

}  // namespace

StaticKernelModel preprocess_segment_model(const simgpu::DeviceSpec& spec,
                                           const coding::Params& params) {
  EXTNC_CHECK(params.k % 4 == 0);
  return preprocess_model(spec, "encode/preprocess_segment",
                          params.segment_bytes() / 4, 4, "segment",
                          "log_segment");
}

StaticKernelModel preprocess_coefficients_model(
    const simgpu::DeviceSpec& spec, const coding::Params& params,
    std::size_t count) {
  return preprocess_model(spec, "encode/preprocess_coeffs",
                          count * params.n, 1, "batch.coefficients",
                          "log_coefficients");
}

// ------------------------------------------------------------------------
// Inverter walker and model.

InvertBlockModel walk_invert_block(const simgpu::DeviceSpec& spec,
                                   std::size_t n, std::size_t threads,
                                   std::uint8_t* aug,
                                   std::uintptr_t aug_addr) {
  const std::size_t row_bytes = 2 * n;
  const std::size_t row_words = row_bytes / 4;
  const std::size_t half = static_cast<std::size_t>(spec.half_warp);
  EXTNC_CHECK(threads >= row_words && threads >= n && half <= 16);
  const gf256::Ops& gops = gf256::ops();
  auto row = [&](std::size_t r) { return aug + r * row_bytes; };
  auto addr_of = [&](std::size_t r, std::size_t w) -> std::uintptr_t {
    return aug_addr + r * row_bytes + w * 4;
  };

  // Deci-op cost of one charged word multiply per coefficient value: the
  // kernel quantizes the *sum* in a single count_alu call, so this must
  // quantize the same sum (never the parts separately).
  std::array<std::uint64_t, 256> mul_deci{};
  for (std::size_t c = 0; c < 256; ++c) {
    mul_deci[c] = KernelMetrics::deciops(
        kDecodeCost.per_iteration *
            gf256::loop_iterations(static_cast<std::uint8_t>(c)) +
        kDecodeCost.per_word);
  }
  const std::uint64_t scan_deci =
      KernelMetrics::deciops(kDecodeCost.pivot_search_per_byte);

  SegmentBuilder pivot_seg(spec, "pivot_search");
  SegmentBuilder rows_seg(spec, "row_ops");
  std::uint64_t row_barriers = 0;
  std::uint64_t scanned = 0;
  std::uint64_t alu = 0;
  std::vector<std::uint8_t> factors(n);
  std::array<std::uintptr_t, 16> addrs{};
  std::array<std::uintptr_t, 16> col_addrs{};
  std::array<std::uintptr_t, 16> words{};

  for (std::size_t col = 0; col < n; ++col) {
    // Pivot scan, one lane, charged per scanned row including the hit.
    std::size_t pivot = n;
    for (std::size_t r = col; r < n; ++r) {
      ++scanned;
      if (row(r)[col] != 0) {
        pivot = r;
        break;
      }
    }
    EXTNC_CHECK(pivot != n);  // the matrix must be invertible

    // Row swap: one word per lane, four accesses in sequence order — load
    // col, load pivot, store col, store pivot — each a contiguous span.
    if (pivot != col) {
      for (std::size_t w0 = 0; w0 < row_words; w0 += half) {
        const std::size_t cnt = std::min(half, row_words - w0);
        rows_seg.add_global_span(addr_of(col, w0), cnt * 4, cnt, cnt * 4, 0);
        rows_seg.add_global_span(addr_of(pivot, w0), cnt * 4, cnt, cnt * 4,
                                 0);
        rows_seg.add_global_span(addr_of(col, w0), cnt * 4, cnt, 0, cnt * 4);
        rows_seg.add_global_span(addr_of(pivot, w0), cnt * 4, cnt, 0,
                                 cnt * 4);
      }
      std::swap_ranges(row(col), row(col) + row_bytes, row(pivot));
      ++row_barriers;
    }

    // Scale the pivot row to make the pivot 1.
    const std::uint8_t scale = gf256::inv(row(col)[col]);
    for (std::size_t w0 = 0; w0 < row_words; w0 += half) {
      const std::size_t cnt = std::min(half, row_words - w0);
      rows_seg.add_global_span(addr_of(col, w0), cnt * 4, cnt, cnt * 4, 0);
      alu += cnt * mul_deci[scale];
      rows_seg.add_global_span(addr_of(col, w0), cnt * 4, cnt, 0, cnt * 4);
    }
    gops.scale_region(row(col), scale, row_bytes);
    ++row_barriers;

    // Factor snapshot: lane r loads its factor and stages it in shared
    // memory. Lane `col` skips its load WITHOUT advancing its sequence, so
    // its shared store lands one sequence point early — a separate
    // single-access group.
    for (std::size_t r0 = 0; r0 < n; r0 += half) {
      const std::size_t cnt = std::min(half, n - r0);
      std::size_t loads = 0;
      std::size_t stores = 0;
      for (std::size_t l = 0; l < cnt; ++l) {
        const std::size_t r = r0 + l;
        factors[r] = r == col ? 0 : row(r)[col];
        if (r == col) continue;
        addrs[loads++] = addr_of(r, 0) + col;
        words[stores++] = r / 4;
      }
      if (loads > 0) {
        rows_seg.add_global_group(addrs.data(), loads, 1, loads, 0);
      }
      if (cnt != stores) {
        const std::uintptr_t col_word = col / 4;
        rows_seg.add_shared_group(&col_word, 1);
      }
      if (stores > 0) rows_seg.add_shared_group(words.data(), stores);
    }
    ++row_barriers;

    // Eliminate: work item (r, w) reads its factor from shared memory and,
    // when nonzero, applies d ^= factor * p. Half-warps may straddle row
    // boundaries, so global groups take per-lane addresses.
    const std::size_t items = n * row_words;
    for (std::size_t base = 0; base < items; base += threads) {
      const std::size_t lanes_end = std::min(threads, items - base);
      for (std::size_t l0 = 0; l0 < lanes_end; l0 += half) {
        const std::size_t item0 = base + l0;
        const std::size_t cnt = std::min(half, items - item0);
        std::size_t active = 0;
        for (std::size_t l = 0; l < cnt; ++l) {
          words[l] = ((item0 + l) / row_words) / 4;
        }
        rows_seg.add_shared_group(words.data(), cnt);
        for (std::size_t l = 0; l < cnt; ++l) {
          const std::size_t r = (item0 + l) / row_words;
          const std::size_t w = (item0 + l) % row_words;
          if (factors[r] == 0) continue;  // interpreted skip_access x3
          addrs[active] = addr_of(r, w);
          col_addrs[active] = addr_of(col, w);
          ++active;
          alu += mul_deci[factors[r]];
        }
        if (active > 0) {
          rows_seg.add_global_group(addrs.data(), active, 4, active * 4, 0);
          rows_seg.add_global_group(col_addrs.data(), active, 4, active * 4,
                                    0);
          rows_seg.add_global_group(addrs.data(), active, 4, 0, active * 4);
        }
      }
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (factors[r] != 0) {
        gops.mul_add_region(row(r), row(col), factors[r], row_bytes);
      }
    }
    ++row_barriers;
  }

  pivot_seg.add_alu_deciops(scanned * scan_deci);
  rows_seg.add_alu_deciops(alu);
  return {pivot_seg.finish(1, n), rows_seg.finish(threads, row_barriers)};
}

namespace {

// Multiply every counter of a one-block segment model by the block count.
void scale_segment(SegmentModel& seg, std::uint64_t times) {
  KernelMetrics& m = seg.counters;
  m.alu_deciops *= times;
  m.global_load_bytes *= times;
  m.global_store_bytes *= times;
  m.global_transactions *= times;
  m.shared_accesses *= times;
  m.shared_access_events *= times;
  m.shared_serialized_cycles *= times;
  m.texture_fetches *= times;
  m.texture_misses *= times;
  m.atomic_ops *= times;
  m.barriers *= times;
  for (auto& d : seg.degree_events) d *= times;
}

}  // namespace

StaticKernelModel invert_kernel_model(const simgpu::DeviceSpec& spec,
                                      const coding::Params& params,
                                      std::size_t segments,
                                      const std::vector<std::uint8_t>& matrix) {
  const std::size_t n = params.n;
  EXTNC_CHECK(segments >= 1);
  EXTNC_CHECK(matrix.size() == n * n);
  const std::size_t row_bytes = 2 * n;
  const std::size_t threads = std::min<std::size_t>(
      n * (row_bytes / 4),
      static_cast<std::size_t>(spec.max_threads_per_block));

  // Augmented working copy [C | I], as invert_stage builds it.
  std::vector<std::uint8_t> aug(n * row_bytes, 0);
  for (std::size_t r = 0; r < n; ++r) {
    std::copy(matrix.begin() + r * n, matrix.begin() + (r + 1) * n,
              aug.begin() + r * row_bytes);
    aug[r * row_bytes + n + r] = 1;
  }
  InvertBlockModel block = walk_invert_block(spec, n, threads, aug.data(), 0);

  StaticKernelModel model;
  model.kernel = "decode/multiseg/invert";
  model.blocks = segments;
  model.threads_per_block = threads;
  model.shared_bytes = n;  // staged elimination factors
  scale_segment(block.pivot_search, segments);
  scale_segment(block.row_ops, segments);
  model.segments.push_back(std::move(block.pivot_search));
  model.segments.push_back(std::move(block.row_ops));
  model.footprint.push_back(
      {"invert_work", n * row_bytes, n * row_bytes, true});
  return model;
}

}  // namespace extnc::gpu
