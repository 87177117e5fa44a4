// Progressive RLNC decoder using Gauss-Jordan elimination (Sec. 3 of the
// paper).
//
// Incoming coded blocks are reduced into a reduced-row-echelon-form (RREF)
// augmented matrix [C | X] as they arrive. Keeping full RREF (not mere row
// echelon) gives the two properties the paper relies on:
//   * once n pivots exist the coefficient side is the identity and the
//     payload side *is* the decoded data — no back-substitution pass;
//   * a linearly dependent block reduces to an all-zero row and can be
//     discarded immediately, with no separate dependence check.
#pragma once

#include <cstdint>
#include <vector>

#include "coding/batch.h"
#include "coding/coded_block.h"
#include "coding/segment.h"
#include "util/aligned_buffer.h"
#include "util/rng.h"

namespace extnc::coding {

class ProgressiveDecoder {
 public:
  enum class Result {
    kAccepted,           // rank increased
    kLinearlyDependent,  // reduced to zero; block discarded
    kAlreadyComplete,    // decoder already holds n independent blocks
  };

  explicit ProgressiveDecoder(Params params);

  Result add(const CodedBlock& block);
  // Same, but from raw views (lets backends avoid materializing CodedBlock).
  Result add(std::span<const std::uint8_t> coefficients,
             std::span<const std::uint8_t> payload);

  const Params& params() const { return params_; }
  std::size_t rank() const { return rank_; }
  bool is_complete() const { return rank_ == params_.n; }
  std::size_t blocks_seen() const { return blocks_seen_; }
  std::size_t blocks_discarded() const { return blocks_discarded_; }

  // Decoded source blocks; only valid when is_complete().
  Segment decoded_segment() const;

  // Structural invariant check (tests / debug): the stored rows form an
  // RREF basis — each pivot is 1 and is the only nonzero entry in its
  // column among stored rows, and rows are zero left of their pivot.
  bool check_rref_invariant() const;

 private:
  std::uint8_t* coeff_row(std::size_t pivot);
  const std::uint8_t* coeff_row(std::size_t pivot) const;
  std::uint8_t* payload_row(std::size_t pivot);
  const std::uint8_t* payload_row(std::size_t pivot) const;

  Params params_;
  // Rows are keyed by pivot column: row p (if present_[p]) has its leading
  // 1 in column p.
  AlignedBuffer coeffs_;    // n rows of n bytes
  AlignedBuffer payloads_;  // n rows of k bytes
  std::vector<bool> present_;
  AlignedBuffer scratch_coeffs_;
  AlignedBuffer scratch_payload_;
  // Forward-elimination recording: the coefficient pass is sequential (each
  // elimination feeds the next factor), but stored payload rows never change
  // during it, so the payload side is replayed afterwards as one fused
  // mul_add_regions call over these (row, factor) pairs.
  std::vector<const std::uint8_t*> elim_rows_;
  std::vector<std::uint8_t> elim_factors_;
  std::size_t rank_ = 0;
  std::size_t blocks_seen_ = 0;
  std::size_t blocks_discarded_ = 0;
};

// n linearly independent coded blocks of `segment`, in arrival order: the
// reference encoder draws blocks from `rng`, and a block is kept iff it is
// independent of those kept before it — what a receiver holds once it
// drops dependent arrivals. Decoders under test need such a full-rank set.
CodedBatch independent_batch(const Segment& segment, Rng& rng);

}  // namespace extnc::coding
