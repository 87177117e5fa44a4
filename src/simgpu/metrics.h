// Counters accumulated by the functional executor while a kernel runs.
//
// The timing model turns these into seconds; tests assert on them directly
// (e.g. "the TB-5 exp-table layout must produce fewer bank-conflict cycles
// than the TB-1 layout" — the paper's Sec. 5.1.3 claim, measured rather
// than assumed).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace extnc::simgpu {

struct KernelMetrics {
  // Scalar-instruction work charged by kernels via ThreadCtx::count_alu,
  // stored exactly in tenths of an op ("deci-ops"). Every per-word /
  // per-byte / per-iteration cost in gpu/kernel_cost.h is a multiple of
  // 0.1, so quantizing each individual charge to deci-ops loses nothing —
  // and integer accumulation is associative, which is what lets the bulk
  // fast path charge `count * deciops(x)` and still match the interpreted
  // path's lane-at-a-time accumulation bit-for-bit.
  std::uint64_t alu_deciops = 0;

  // Quantize one charge exactly as count_alu does. Bulk accounting must
  // quantize per conceptual call and then multiply by the call count
  // (never quantize the product) to reproduce the interpreted total.
  static std::uint64_t deciops(double ops) {
    return static_cast<std::uint64_t>(std::llround(ops * 10.0));
  }

  double alu_ops() const { return static_cast<double>(alu_deciops) / 10.0; }
  void add_alu_ops(double ops) { alu_deciops += deciops(ops); }
  void set_alu_ops(double ops) { alu_deciops = deciops(ops); }

  // Global memory.
  std::uint64_t global_load_bytes = 0;
  std::uint64_t global_store_bytes = 0;
  // Memory transactions after warp-level coalescing (one per distinct
  // 64-byte segment touched by a warp access step). Broadcast loads (all
  // lanes hit the same address) count one transaction.
  std::uint64_t global_transactions = 0;

  // Shared memory: individual lane accesses and the serialized half-warp
  // access cycles they cost (conflict-free: cycles == events; a d-way
  // conflict costs d cycles for that event).
  std::uint64_t shared_accesses = 0;
  std::uint64_t shared_access_events = 0;   // half-warp access steps
  std::uint64_t shared_serialized_cycles = 0;  // sum of per-event degrees

  // Texture path.
  std::uint64_t texture_fetches = 0;
  std::uint64_t texture_misses = 0;

  std::uint64_t atomic_ops = 0;
  std::uint64_t barriers = 0;
  std::uint64_t kernel_launches = 0;

  // Launch geometry of the (last) launch; used for occupancy.
  std::size_t blocks = 0;
  std::size_t threads_per_block = 0;

  void merge(const KernelMetrics& other) {
    alu_deciops += other.alu_deciops;
    global_load_bytes += other.global_load_bytes;
    global_store_bytes += other.global_store_bytes;
    global_transactions += other.global_transactions;
    shared_accesses += other.shared_accesses;
    shared_access_events += other.shared_access_events;
    shared_serialized_cycles += other.shared_serialized_cycles;
    texture_fetches += other.texture_fetches;
    texture_misses += other.texture_misses;
    atomic_ops += other.atomic_ops;
    barriers += other.barriers;
    kernel_launches += other.kernel_launches;
    // Geometry is "of the last launch": merging a metrics object that never
    // launched must not wipe the recorded geometry with zeros.
    if (other.kernel_launches > 0) {
      blocks = other.blocks;
      threads_per_block = other.threads_per_block;
    }
  }

  // Average bank-conflict degree over all shared access events (1.0 means
  // conflict-free).
  double shared_conflict_degree() const {
    if (shared_access_events == 0) return 1.0;
    return static_cast<double>(shared_serialized_cycles) /
           static_cast<double>(shared_access_events);
  }

  double texture_hit_rate() const {
    if (texture_fetches == 0) return 1.0;
    return 1.0 - static_cast<double>(texture_misses) /
                     static_cast<double>(texture_fetches);
  }

  std::uint64_t global_bytes() const {
    return global_load_bytes + global_store_bytes;
  }

  friend bool operator==(const KernelMetrics&, const KernelMetrics&) = default;
};

}  // namespace extnc::simgpu
