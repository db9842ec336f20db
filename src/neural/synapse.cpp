#include "neural/synapse.hpp"

#include <algorithm>
#include <bit>

namespace spinn::neural {

RowStore::RowStore(std::vector<Entry> entries) {
  std::stable_sort(
      entries.begin(), entries.end(),
      [](const Entry& a, const Entry& b) { return a.key < b.key; });
  offsets_.clear();
  synapses_.reserve(entries.size());
  for (const Entry& e : entries) {
    if (keys_.empty() || keys_.back() != e.key) {
      keys_.push_back(e.key);
      offsets_.push_back(static_cast<std::uint32_t>(synapses_.size()));
      state_.emplace_back();
    }
    state_.back().plastic = state_.back().plastic || e.synapse.plastic;
    synapses_.push_back(e.synapse);
  }
  offsets_.push_back(static_cast<std::uint32_t>(synapses_.size()));

  // The master population table over the ascending keys: a new entry per
  // source slice, bitmap words grown up to each row's index.
  table_.clear();
  for (std::size_t r = 0; r < keys_.size(); ++r) {
    const RoutingKey slice = keys_[r] >> kNeuronKeyBits;
    const RoutingKey index = keys_[r] & ~kSliceKeyMask;
    if (table_.empty() || table_.back().slice != slice) {
      table_.push_back(
          SliceEntry{slice, static_cast<std::uint32_t>(words_.size())});
    }
    const std::size_t w = table_.back().first_word + index / 64;
    while (words_.size() <= w) {
      words_.push_back(BitmapWord{0, static_cast<std::uint32_t>(r)});
    }
    words_[w].bits |= std::uint64_t{1} << (index % 64);
  }
  table_.push_back(
      SliceEntry{0, static_cast<std::uint32_t>(words_.size())});  // sentinel
}

std::size_t RowStore::find(RoutingKey key) const {
  // Table probe: the last entry whose slice is <= the key's (a branch-free
  // binary search over the entries before the sentinel).
  std::size_t n = table_.size() - 1;
  if (n == 0) return npos;
  const RoutingKey slice = key >> kNeuronKeyBits;
  const SliceEntry* e = table_.data();
  while (n > 1) {
    const std::size_t half = n / 2;
    if (e[half].slice <= slice) e += half;
    n -= half;
  }
  if (e->slice != slice) return npos;
  // Bit test, then rank: rows before this word plus rows below the bit.
  const RoutingKey index = key & ~kSliceKeyMask;
  const std::size_t w = e->first_word + index / 64;
  if (w >= e[1].first_word) return npos;  // past the slice's last word
  const std::uint64_t bit = std::uint64_t{1} << (index % 64);
  if ((words_[w].bits & bit) == 0) return npos;
  return words_[w].rank +
         static_cast<std::size_t>(std::popcount(words_[w].bits & (bit - 1)));
}

}  // namespace spinn::neural
