#include "map/loader.hpp"

#include <cmath>

namespace spinn::map {

namespace {

/// Calls `chosen(c)` for each of the candidates 0..n-1 that a Bernoulli(p)
/// trial would keep, in ascending order, drawing from `rng` once per chosen
/// candidate rather than once per candidate: the gap to the next one is
/// Geom(p), floor(ln(1 - U) / ln(1 - p)) for U uniform on [0, 1).  p >= 1
/// keeps every candidate and p <= 0 none, both without a draw.
template <typename F>
void for_each_chosen(std::uint32_t n, double p, Rng& rng, F&& chosen) {
  if (p >= 1.0) {
    for (std::uint32_t c = 0; c < n; ++c) chosen(c);
    return;
  }
  if (!(p > 0.0)) return;
  const double log_q = std::log1p(-p);
  for (std::uint64_t c = 0;; ++c) {
    const double gap = std::floor(std::log1p(-rng.uniform()) / log_q);
    if (gap >= static_cast<double>(n - c)) return;
    c += static_cast<std::uint64_t>(gap);
    chosen(static_cast<std::uint32_t>(c));
  }
}

/// Appends every synapse of `proj` to the buffer of the post slice it
/// targets, in (pre neuron, post neuron) order.  Each synapse draws its
/// delay, then its weight, right after it is chosen.
void elaborate(
    const neural::Network& net, const neural::Projection& proj,
    const PlacementResult& placement,
    std::vector<std::vector<neural::RowStore::Entry>>& buffers, Rng& rng) {
  const std::uint32_t post_size = net.population(proj.post).size;
  const neural::Connector& conn = proj.connector;
  const bool skip_self = proj.pre == proj.post && !conn.allow_self;
  const double p = conn.kind == neural::ConnectorKind::FixedProbability
                       ? conn.probability
                       : 1.0;
  for (const std::size_t pre_slice : placement.by_population[proj.pre]) {
    const Slice& ps = placement.slices[pre_slice];
    for (std::uint32_t local = 0; local < ps.num_neurons; ++local) {
      const std::uint32_t i = ps.first_neuron + local;
      const RoutingKey key = ps.key_base + local;
      const auto add = [&](std::uint32_t j) {
        const std::size_t qi = *slice_of(placement, proj.post, j);
        const Slice& qs = placement.slices[qi];
        const double d_ms = proj.delay_ms.sample(rng);
        neural::Synapse syn;
        syn.weight_raw = neural::Synapse::pack_weight(proj.weight.sample(rng));
        auto delay = static_cast<std::uint8_t>(d_ms + 0.5);
        if (delay < 1) delay = 1;
        if (delay > neural::kMaxDelayTicks) delay = neural::kMaxDelayTicks;
        syn.delay = delay;
        syn.inhibitory = proj.inhibitory;
        syn.plastic = proj.stdp.enabled;
        syn.target = static_cast<std::uint16_t>(j - qs.first_neuron);
        buffers[qi].push_back({key, syn});
      };
      if (conn.kind == neural::ConnectorKind::OneToOne) {
        if (i < post_size) add(i);
        continue;
      }
      // Candidates are the post neurons, less i itself when
      // self-connections are excluded: candidate c is neuron c, or c + 1
      // from i on.
      for_each_chosen(post_size - (skip_self ? 1 : 0), p, rng,
                      [&](std::uint32_t c) {
                        add(skip_self && c >= i ? c + 1 : c);
                      });
    }
  }
}

}  // namespace

LoadReport Loader::load(const neural::Network& net, mesh::Machine& machine,
                        neural::SpikeRecorder* recorder, Rng& rng) {
  LoadReport report;
  apps_.clear();

  // 1. Place.
  report.placement = place(net, machine, cfg_);
  if (!report.placement.fits) {
    // Quantify the miss: this string reaches a session's status (and so a
    // wire client who described the net), where "does not fit" alone
    // gives no hint whether to shrink the net or grow the machine.
    std::uint64_t required = 0;
    for (const auto& p : net.populations()) {
      required += (static_cast<std::uint64_t>(p.size) +
                   cfg_.neurons_per_core - 1) /
                  cfg_.neurons_per_core;
    }
    report.ok = false;
    report.error = "network does not fit on the machine: " +
                   std::to_string(net.total_neurons()) + " neurons need " +
                   std::to_string(required) + " cores at " +
                   std::to_string(cfg_.neurons_per_core) +
                   " neurons_per_core";
    return report;
  }
  const PlacementResult& placement = report.placement;

  // 2. Route and install tables.
  RoutingResult routing =
      generate_routing(net, placement, machine.topology(), cfg_);
  report.routing = routing.stats;
  for (auto& [coord, entries] : routing.tables) {
    router::MulticastTable& table = machine.chip_at(coord).router().mc_table();
    for (const router::McEntry& e : entries) {
      if (!table.add(e)) {
        report.ok = false;
        report.error = "multicast table overflow on a chip";
        return report;
      }
    }
  }

  // 3. Elaborate every projection into per-post-slice buffers of
  //    (key, synapse).
  std::vector<std::vector<neural::RowStore::Entry>> buffers(
      placement.slices.size());
  for (const neural::Projection& proj : net.projections()) {
    elaborate(net, proj, placement, buffers, rng);
  }
  for (const auto& buffer : buffers) report.total_synapses += buffer.size();

  // 4. Build each slice's rows from its buffer, charge SDRAM and install
  //    the applications.
  for (std::size_t si = 0; si < placement.slices.size(); ++si) {
    const Slice& s = placement.slices[si];
    const neural::Population& pop = net.population(s.pop);
    auto store = std::make_shared<neural::RowStore>(std::move(buffers[si]));
    report.total_rows += store->num_rows();

    chip::Chip& chip = machine.chip_at(s.core.chip);
    const std::uint64_t bytes = store->total_bytes();
    if (bytes > 0 &&
        !chip.sdram().allocate(static_cast<std::uint32_t>(bytes))) {
      report.ok = false;
      report.error = "SDRAM exhausted on a node";
      return report;
    }
    report.sdram_bytes += bytes;

    neural::SliceConfig sc;
    sc.model = pop.model;
    sc.num_neurons = s.num_neurons;
    sc.lif = pop.lif;
    sc.izh = pop.izh;
    sc.poisson_rate_hz = pop.poisson_rate_hz;
    if (pop.model == neural::NeuronModel::SpikeSourceArray) {
      sc.spike_schedule.assign(
          pop.spike_schedule.begin() + s.first_neuron,
          pop.spike_schedule.begin() + s.first_neuron + s.num_neurons);
    }
    sc.key_base = s.key_base;
    sc.record = pop.record;
    // STDP parameters: the first plastic projection targeting this
    // population configures the target cores' update rule.
    for (const neural::Projection& proj : net.projections()) {
      if (proj.post == s.pop && proj.stdp.enabled) {
        sc.stdp = proj.stdp;
        break;
      }
    }

    auto app = std::make_unique<neural::NeuronApp>(sc, store, recorder);
    report.dtcm_ring_bytes +=
        neural::InputRing::kSlots * 4ull * s.num_neurons;
    apps_.push_back(app.get());
    chip::Core& core = chip.core(s.core.core);
    core.load_program(std::move(app));
    core.start();
  }

  return report;
}

}  // namespace spinn::map
