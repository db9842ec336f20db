#include "neural/synapse.hpp"

#include <algorithm>

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
}

std::size_t RowStore::find(RoutingKey key) const {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return npos;
  return static_cast<std::size_t>(it - keys_.begin());
}

}  // namespace spinn::neural
