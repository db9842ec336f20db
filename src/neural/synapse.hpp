// Synaptic connectivity data, organised as on the real machine: one
// *synaptic row* per (pre-synaptic neuron, target core), held in the node's
// SDRAM and DMA-fetched into DTCM when that neuron's spike packet arrives
// (§4, Fig. 4; §5.3).
//
// A core's rows are stored compressed-sparse-row style: the row keys in
// ascending order, an offset per row into one flat synapse array, and the
// per-row plasticity state beside them.  The loader builds a store with one
// stable sort of its elaboration buffer; a spike's row is then walked as
// one contiguous span.
//
// A spike's row is found through a master population table, as in the
// SpiNNaker software: a key splits into its source slice (the bits above
// kNeuronKeyBits) and the neuron's index in that slice.  The table holds
// one entry per source slice with rows here, sorted by slice, pointing at
// that slice's row bitmap (bit i set = neuron i has a row).  Each bitmap
// word carries the number of rows before it, so a row's index is that
// count plus a popcount.  Most spikes reaching a core have no row there; a
// miss costs a probe of the small table and one bit test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/fixed_point.hpp"
#include "common/types.hpp"

namespace spinn::neural {

/// One synapse as packed in a row word on the real platform:
/// weight (16 bits, fixed point), delay (4 bits, 1..15 ms), type (exc/inh),
/// target neuron index within the core's slice.
struct Synapse {
  std::uint16_t weight_raw = 0;  // unsigned magnitude, U8.8-ish scaling
  std::uint8_t delay = 1;        // in ms ticks; re-inserted at target (§3.2)
  bool inhibitory = false;
  bool plastic = false;          // weight is modified by STDP (§5.3)
  std::uint16_t target = 0;      // local neuron index on the target core

  Accum weight() const {
    // U8.8 -> S16.15.
    const auto raw =
        static_cast<std::int32_t>(weight_raw) << (Accum::kFractionBits - 8);
    return Accum::from_raw(inhibitory ? -raw : raw);
  }

  static std::uint16_t pack_weight(double w) {
    double mag = w < 0 ? -w : w;
    if (mag > 255.0) mag = 255.0;
    return static_cast<std::uint16_t>(mag * 256.0 + 0.5);
  }
};

/// The maximum synaptic delay the 4-bit field (and the 16-slot input ring)
/// supports.
inline constexpr std::uint8_t kMaxDelayTicks = 15;

/// DMA size of a row of `synapses` synapses: one header word plus one
/// 32-bit word per synapse.
constexpr std::uint32_t row_bytes(std::size_t synapses) {
  return 4 + 4 * static_cast<std::uint32_t>(synapses);
}

/// Per-row state kept beside the synapses.
struct RowState {
  /// Any synapse in the row is plastic => the row is written back after
  /// processing (§5.3).
  bool plastic = false;
  bool has_fired_before = false;
  /// The tick of the previous pre-synaptic spike that fetched this row
  /// (pre-event history for the deferred STDP rule).
  std::uint32_t last_pre_tick = 0;
};

/// All rows resident on one core, keyed by the source neuron's AER key.
/// (Physically these live in the node's shared SDRAM; the map keeps the
/// functional content while chip::Sdram accounts the space.)
class RowStore {
 public:
  /// Returned by find() for a key with no row on this core.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// One synapse of an elaboration buffer, tagged with its row's key.
  struct Entry {
    RoutingKey key = 0;
    Synapse synapse;
  };

  RowStore() = default;

  /// Builds the rows from an elaboration buffer with one stable sort by
  /// key, so each row keeps its synapses in the order they were appended.
  explicit RowStore(std::vector<Entry> entries);

  /// Index of the row for `key`, or npos.
  std::size_t find(RoutingKey key) const;

  RoutingKey key(std::size_t row) const { return keys_[row]; }

  std::span<const Synapse> synapses(std::size_t row) const {
    return {synapses_.data() + offsets_[row],
            synapses_.data() + offsets_[row + 1]};
  }
  /// Mutable row for plasticity processing (the row is "in DTCM").
  std::span<Synapse> synapses(std::size_t row) {
    return {synapses_.data() + offsets_[row],
            synapses_.data() + offsets_[row + 1]};
  }

  RowState& state(std::size_t row) { return state_[row]; }

  std::uint32_t bytes(std::size_t row) const {
    return row_bytes(offsets_[row + 1] - offsets_[row]);
  }

  std::size_t num_rows() const { return keys_.size(); }
  std::size_t num_synapses() const { return synapses_.size(); }

  std::uint64_t total_bytes() const {
    return 4ull * num_rows() + 4ull * num_synapses();
  }

 private:
  /// One master-population-table entry: a source slice and the first word
  /// of its row bitmap.  The slice's words end where the next entry's
  /// begin; a sentinel entry closes the last slice.
  struct SliceEntry {
    RoutingKey slice = 0;
    std::uint32_t first_word = 0;
  };
  /// 64 neurons' row bits, and the number of rows before them.
  struct BitmapWord {
    std::uint64_t bits = 0;
    std::uint32_t rank = 0;
  };

  std::vector<SliceEntry> table_{SliceEntry{}};  // ascending + sentinel
  std::vector<BitmapWord> words_;
  std::vector<RoutingKey> keys_;  // ascending, one per row
  /// Row r's synapses are synapses_[offsets_[r], offsets_[r + 1]).
  std::vector<std::uint32_t> offsets_{0};
  std::vector<Synapse> synapses_;
  std::vector<RowState> state_;
};

}  // namespace spinn::neural
