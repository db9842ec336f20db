#include "sim/stats.hpp"

namespace spinn::sim {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  if (p <= 0.0) return samples.front();
  if (p >= 1.0) return samples.back();
  const double pos = p * static_cast<double>(samples.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= samples.size()) return samples.back();
  return samples[idx] + frac * (samples[idx + 1] - samples[idx]);
}

}  // namespace spinn::sim
