#include "coding/progressive_decoder.h"

#include <algorithm>
#include <cstring>

#include "coding/encoder.h"
#include "gf256/gf.h"
#include "gf256/region.h"
#include "util/assert.h"

namespace extnc::coding {

ProgressiveDecoder::ProgressiveDecoder(Params params)
    : params_(params),
      coeffs_(params.n * params.n),
      payloads_(params.n * params.k),
      present_(params.n, false),
      scratch_coeffs_(params.n),
      scratch_payload_(params.k) {
  params_.validate();
  elim_rows_.reserve(params_.n);
  elim_factors_.reserve(params_.n);
}

std::uint8_t* ProgressiveDecoder::coeff_row(std::size_t pivot) {
  return coeffs_.data() + pivot * params_.n;
}
const std::uint8_t* ProgressiveDecoder::coeff_row(std::size_t pivot) const {
  return coeffs_.data() + pivot * params_.n;
}
std::uint8_t* ProgressiveDecoder::payload_row(std::size_t pivot) {
  return payloads_.data() + pivot * params_.k;
}
const std::uint8_t* ProgressiveDecoder::payload_row(std::size_t pivot) const {
  return payloads_.data() + pivot * params_.k;
}

ProgressiveDecoder::Result ProgressiveDecoder::add(const CodedBlock& block) {
  EXTNC_CHECK(block.params() == params_);
  return add(block.coefficients(), block.payload());
}

ProgressiveDecoder::Result ProgressiveDecoder::add(
    std::span<const std::uint8_t> coefficients,
    std::span<const std::uint8_t> payload) {
  EXTNC_CHECK(coefficients.size() == params_.n);
  EXTNC_CHECK(payload.size() == params_.k);
  ++blocks_seen_;
  if (is_complete()) {
    ++blocks_discarded_;
    return Result::kAlreadyComplete;
  }

  const gf256::Ops& ops = gf256::ops();
  const std::size_t n = params_.n;
  const std::size_t k = params_.k;
  std::uint8_t* sc = scratch_coeffs_.data();
  std::uint8_t* sp = scratch_payload_.data();
  std::memcpy(sc, coefficients.data(), n);

  // Forward elimination against every stored pivot row. Because stored
  // rows are in full RREF (zero left of their pivot), one left-to-right
  // pass suffices: eliminating column c never reintroduces a value at a
  // column < c. The pivot is the first nonzero column with no stored row,
  // but elimination must continue past it — later *present* columns may
  // still be nonzero, and leaving them would break the RREF invariant
  // whenever pivots arrive out of order.
  //
  // Only the coefficient side runs inline (each elimination determines the
  // next factor). The payload side is recorded and replayed below as one
  // fused pass — stored payload rows are untouched during forward
  // elimination, so the result is bit-identical, and a linearly dependent
  // block never pays for payload work at all.
  elim_rows_.clear();
  elim_factors_.clear();
  std::size_t pivot = n;
  for (std::size_t col = 0; col < n; ++col) {
    const std::uint8_t value = sc[col];
    if (value == 0) continue;
    if (present_[col]) {
      ops.mul_add_region(sc, coeff_row(col), value, n);
      EXTNC_DASSERT(sc[col] == 0);
      elim_rows_.push_back(payload_row(col));
      elim_factors_.push_back(value);
    } else if (pivot == n) {
      pivot = col;
    }
  }
  if (pivot == n) {
    // Reduced to all zeros: linearly dependent (Gauss-Jordan detects this
    // for free, as the paper notes).
    ++blocks_discarded_;
    return Result::kLinearlyDependent;
  }

  std::memcpy(sp, payload.data(), k);
  ops.mul_add_regions(sp, elim_rows_.data(), elim_factors_.data(),
                      elim_rows_.size(), k);

  // Normalize the pivot to 1.
  const std::uint8_t scale = gf256::inv(sc[pivot]);
  ops.scale_region(sc, scale, n);
  ops.scale_region(sp, scale, k);

  // Back-eliminate the new pivot column from every stored row to keep RREF.
  for (std::size_t p = 0; p < n; ++p) {
    if (!present_[p]) continue;
    const std::uint8_t factor = coeff_row(p)[pivot];
    if (factor == 0) continue;
    ops.mul_add_region(coeff_row(p), sc, factor, n);
    ops.mul_add_region(payload_row(p), sp, factor, k);
  }

  std::memcpy(coeff_row(pivot), sc, n);
  std::memcpy(payload_row(pivot), sp, k);
  present_[pivot] = true;
  ++rank_;
  return Result::kAccepted;
}

Segment ProgressiveDecoder::decoded_segment() const {
  EXTNC_CHECK(is_complete());
  Segment segment(params_);
  for (std::size_t i = 0; i < params_.n; ++i) {
    std::memcpy(segment.block(i).data(), payload_row(i), params_.k);
  }
  return segment;
}

bool ProgressiveDecoder::check_rref_invariant() const {
  const std::size_t n = params_.n;
  std::size_t present_count = 0;
  for (std::size_t p = 0; p < n; ++p) {
    if (!present_[p]) continue;
    ++present_count;
    const std::uint8_t* row = coeff_row(p);
    // Zero left of the pivot, 1 at the pivot.
    for (std::size_t c = 0; c < p; ++c) {
      if (row[c] != 0) return false;
    }
    if (row[p] != 1) return false;
    // The pivot column is zero in every other stored row.
    for (std::size_t q = 0; q < n; ++q) {
      if (q == p || !present_[q]) continue;
      if (coeff_row(q)[p] != 0) return false;
    }
  }
  return present_count == rank_;
}

CodedBatch independent_batch(const Segment& segment, Rng& rng) {
  const Encoder encoder(segment);
  ProgressiveDecoder probe(segment.params());
  CodedBatch batch(segment.params(), segment.params().n);
  while (!probe.is_complete()) {
    const CodedBlock block = encoder.encode(rng);
    const std::size_t row = probe.rank();
    if (probe.add(block) != ProgressiveDecoder::Result::kAccepted) continue;
    std::ranges::copy(block.coefficients(), batch.coefficients(row).begin());
    std::ranges::copy(block.payload(), batch.payload(row).begin());
  }
  return batch;
}

}  // namespace extnc::coding
