// Tests for the design-automation stack (§5.3): placement, key allocation,
// multicast routing-table generation with default-route compression, and
// key/mask table minimisation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

#include "map/loader.hpp"
#include "map/placement.hpp"
#include "map/routing_gen.hpp"
#include "mesh/machine.hpp"
#include "net/client.hpp"
#include "server/spec.hpp"
#include "sim/simulator.hpp"

namespace spinn::map {
namespace {

mesh::MachineConfig machine_config(std::uint16_t w = 4, std::uint16_t h = 4,
                                   CoreIndex cores = 5) {
  mesh::MachineConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.chip.num_cores = cores;
  cfg.chip.clock_drift_ppm_sigma = 0.0;
  return cfg;
}

// ---- placement ---------------------------------------------------------------

TEST(Placement, SlicesCoverPopulationExactly) {
  sim::Simulator sim(1);
  mesh::Machine m(sim, machine_config());
  neural::Network net;
  net.add_lif("big", 1000);
  MapperConfig cfg;
  cfg.neurons_per_core = 256;
  const PlacementResult placement = place(net, m, cfg);
  ASSERT_TRUE(placement.fits);
  ASSERT_EQ(placement.slices.size(), 4u);  // 256+256+256+232
  std::uint32_t covered = 0;
  std::uint32_t next = 0;
  for (const Slice& s : placement.slices) {
    EXPECT_EQ(s.first_neuron, next);
    next += s.num_neurons;
    covered += s.num_neurons;
    EXPECT_LE(s.num_neurons, 256u);
  }
  EXPECT_EQ(covered, 1000u);
}

TEST(Placement, DistinctCoresAndKeyBases) {
  sim::Simulator sim(1);
  mesh::Machine m(sim, machine_config());
  neural::Network net;
  net.add_lif("a", 600);
  net.add_lif("b", 600);
  const PlacementResult placement = place(net, m, MapperConfig{});
  ASSERT_TRUE(placement.fits);
  std::set<CoreId> cores;
  std::set<RoutingKey> keys;
  for (const Slice& s : placement.slices) {
    EXPECT_TRUE(cores.insert(s.core).second) << "core reused";
    EXPECT_TRUE(keys.insert(s.key_base).second) << "key base reused";
    EXPECT_EQ(s.key_base & ~kSliceKeyMask, 0u)
        << "key base must be aligned to the slice key space";
  }
}

TEST(Placement, ReservesMonitorCore) {
  sim::Simulator sim(1);
  mesh::Machine m(sim, machine_config(1, 1, 3));
  // Elect core 2 as monitor by force.
  m.chip_at({0, 0}).system_controller().force_monitor(2);
  neural::Network net;
  net.add_lif("a", 2 * 256);
  const PlacementResult placement = place(net, m, MapperConfig{});
  ASSERT_TRUE(placement.fits);
  for (const Slice& s : placement.slices) {
    EXPECT_NE(s.core.core, 2) << "monitor core must stay free";
  }
}

TEST(Placement, FailedCoresSkipped) {
  sim::Simulator sim(1);
  mesh::Machine m(sim, machine_config(1, 1, 4));
  m.chip_at({0, 0}).core(1).mark_failed();
  neural::Network net;
  net.add_lif("a", 512);
  const PlacementResult placement = place(net, m, MapperConfig{});
  ASSERT_TRUE(placement.fits);
  for (const Slice& s : placement.slices) {
    EXPECT_NE(s.core.core, 1);
  }
}

TEST(Placement, ReportsWhenMachineTooSmall) {
  sim::Simulator sim(1);
  mesh::Machine m(sim, machine_config(1, 1, 2));  // 1 app core
  neural::Network net;
  net.add_lif("a", 10'000);
  const PlacementResult placement = place(net, m, MapperConfig{});
  EXPECT_FALSE(placement.fits);
}

TEST(Placement, ScatterSpreadsAcrossChips) {
  sim::Simulator sim(1);
  mesh::Machine m(sim, machine_config(4, 4, 5));
  neural::Network net;
  net.add_lif("a", 4 * 256);
  MapperConfig packed;
  MapperConfig scattered;
  scattered.scatter = true;
  const auto p1 = place(net, m, packed);
  const auto p2 = place(net, m, scattered);
  ASSERT_TRUE(p1.fits);
  ASSERT_TRUE(p2.fits);
  EXPECT_LE(p1.chips_used, p2.chips_used)
      << "scatter must not use fewer chips than packing";
}

TEST(Placement, SliceOfFindsOwner) {
  sim::Simulator sim(1);
  mesh::Machine m(sim, machine_config());
  neural::Network net;
  const auto a = net.add_lif("a", 300);
  const PlacementResult placement = place(net, m, MapperConfig{});
  const auto s0 = slice_of(placement, a, 0);
  const auto s299 = slice_of(placement, a, 299);
  ASSERT_TRUE(s0.has_value());
  ASSERT_TRUE(s299.has_value());
  EXPECT_NE(*s0, *s299);
  EXPECT_FALSE(slice_of(placement, a, 300).has_value());
}

// ---- routing generation --------------------------------------------------------

/// Follow the generated tables (plus default routing) from a source chip
/// and collect every (chip, core) the key reaches.
std::set<CoreId> walk_route(const RoutingResult& routing,
                            const mesh::Topology& topo, ChipCoord source,
                            RoutingKey key) {
  std::set<CoreId> delivered;

  struct Hop {
    ChipCoord chip;
    std::optional<LinkDir> in;
  };
  std::vector<Hop> frontier{{source, std::nullopt}};
  int guard = 0;
  while (!frontier.empty() && guard++ < 10'000) {
    const Hop hop = frontier.back();
    frontier.pop_back();
    // Find the chip's matching entry.
    std::optional<router::Route> route;
    const auto it = routing.tables.find(hop.chip);
    if (it != routing.tables.end()) {
      for (const router::McEntry& e : it->second) {
        if ((key & e.mask) == e.key) {
          route = e.route;
          break;
        }
      }
    }
    if (!route.has_value()) {
      if (!hop.in.has_value()) continue;  // locally injected, no entry: drop
      route = router::Route::to_link(opposite(*hop.in));  // default route
    }
    for (int l = 0; l < kLinksPerChip; ++l) {
      const auto d = static_cast<LinkDir>(l);
      if (route->has_link(d)) {
        frontier.push_back(Hop{topo.neighbour(hop.chip, d), opposite(d)});
      }
    }
    for (CoreIndex c = 0; c < kCoresPerChip; ++c) {
      if (route->has_core(c)) delivered.insert(CoreId{hop.chip, c});
    }
  }
  return delivered;
}

struct RoutedNetwork {
  sim::Simulator sim{1};
  mesh::Machine machine;
  neural::Network net;
  PlacementResult placement;
  RoutingResult routing;

  explicit RoutedNetwork(const MapperConfig& cfg,
                         std::uint16_t w = 6, std::uint16_t h = 6,
                         CoreIndex cores = 6)
      : machine(sim, machine_config(w, h, cores)) {
    const auto src = net.add_poisson("src", 600, 10.0);
    const auto mid = net.add_lif("mid", 600);
    const auto dst = net.add_lif("dst", 300);
    net.connect(src, mid, neural::Connector::fixed_probability(0.1),
                neural::ValueDist::fixed(1.0), neural::ValueDist::fixed(1.0));
    net.connect(mid, dst, neural::Connector::all_to_all(),
                neural::ValueDist::fixed(0.5), neural::ValueDist::fixed(2.0));
    net.connect(mid, mid, neural::Connector::fixed_probability(0.05),
                neural::ValueDist::fixed(0.2), neural::ValueDist::fixed(1.0),
                /*inhibitory=*/true);
    placement = place(net, machine, cfg);
    routing = generate_routing(net, placement, machine.topology(), cfg);
  }
};

TEST(Routing, EverySliceReachesExactlyItsDestinations) {
  MapperConfig cfg;
  RoutedNetwork rn(cfg);
  ASSERT_TRUE(rn.placement.fits);
  for (std::size_t si = 0; si < rn.placement.slices.size(); ++si) {
    const Slice& s = rn.placement.slices[si];
    const auto expected_vec = destinations_of(rn.net, rn.placement, si);
    const std::set<CoreId> expected(expected_vec.begin(), expected_vec.end());
    const std::set<CoreId> reached = walk_route(
        rn.routing, rn.machine.topology(), s.core.chip, s.key_base);
    EXPECT_EQ(reached, expected) << "slice " << si;
    // Also check a key in the middle of the slice's range.
    const std::set<CoreId> reached_mid =
        walk_route(rn.routing, rn.machine.topology(), s.core.chip,
                   s.key_base + s.num_neurons / 2);
    EXPECT_EQ(reached_mid, expected);
  }
}

TEST(Routing, DefaultRouteCompressionShrinksTables) {
  // One application core per chip spreads the slices out, giving the long
  // straight path segments that default routing elides.
  MapperConfig with;
  with.default_route_compression = true;
  with.minimize_tables = false;
  MapperConfig without;
  without.default_route_compression = false;
  without.minimize_tables = false;
  RoutedNetwork a(with, 6, 6, 2);
  RoutedNetwork b(without, 6, 6, 2);
  EXPECT_LT(a.routing.stats.entries_total, b.routing.stats.entries_total);
  EXPECT_GT(a.routing.stats.entries_saved_by_default_route, 0u);
}

TEST(Routing, CompressionPreservesDeliveries) {
  MapperConfig with;
  with.default_route_compression = true;
  MapperConfig without;
  without.default_route_compression = false;
  RoutedNetwork a(with, 6, 6, 2);
  RoutedNetwork b(without, 6, 6, 2);
  for (std::size_t si = 0; si < a.placement.slices.size(); ++si) {
    const Slice& s = a.placement.slices[si];
    EXPECT_EQ(walk_route(a.routing, a.machine.topology(), s.core.chip,
                         s.key_base),
              walk_route(b.routing, b.machine.topology(), s.core.chip,
                         s.key_base))
        << "slice " << si;
  }
}

TEST(Routing, MinimizationShrinksOrEqualsAndPreservesSemantics) {
  MapperConfig raw;
  raw.minimize_tables = false;
  MapperConfig mini;
  mini.minimize_tables = true;
  RoutedNetwork a(raw);
  RoutedNetwork b(mini);
  EXPECT_LE(b.routing.stats.entries_total, a.routing.stats.entries_total);
  for (std::size_t si = 0; si < a.placement.slices.size(); ++si) {
    const Slice& s = a.placement.slices[si];
    for (const RoutingKey probe :
         {s.key_base, s.key_base + 1, s.key_base + s.num_neurons - 1}) {
      EXPECT_EQ(
          walk_route(a.routing, a.machine.topology(), s.core.chip, probe),
          walk_route(b.routing, b.machine.topology(), s.core.chip, probe));
    }
  }
}

TEST(Minimize, MergesSiblingEntries) {
  std::vector<router::McEntry> entries{
      {0x0000, 0xF800, router::Route::to_link(LinkDir::East)},
      {0x0800, 0xF800, router::Route::to_link(LinkDir::East)},
  };
  const auto merged = minimize_entries(entries);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].key, 0x0000u);
  EXPECT_EQ(merged[0].mask, 0xF000u);
  // Both original keys still match.
  EXPECT_EQ(0x0000u & merged[0].mask, merged[0].key);
  EXPECT_EQ(0x0800u & merged[0].mask, merged[0].key);
}

TEST(Minimize, DoesNotMergeDifferentRoutes) {
  std::vector<router::McEntry> entries{
      {0x0000, 0xF800, router::Route::to_link(LinkDir::East)},
      {0x0800, 0xF800, router::Route::to_link(LinkDir::West)},
  };
  EXPECT_EQ(minimize_entries(entries).size(), 2u);
}

TEST(Minimize, CascadesMerges) {
  const router::Route r = router::Route::to_core(1);
  std::vector<router::McEntry> entries{
      {0x0000, 0xF800, r},
      {0x0800, 0xF800, r},
      {0x1000, 0xF800, r},
      {0x1800, 0xF800, r},
  };
  const auto merged = minimize_entries(entries);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].mask, 0xE000u);
}

// ---- loader ---------------------------------------------------------------------

TEST(Loader, BuildsRowsAndInstallsPrograms) {
  sim::Simulator sim(1);
  mesh::Machine m(sim, machine_config());
  neural::Network net;
  const auto a = net.add_lif("a", 20);
  const auto b = net.add_lif("b", 20);
  net.connect(a, b, neural::Connector::one_to_one(),
              neural::ValueDist::fixed(2.0), neural::ValueDist::fixed(3.0));
  Loader loader(MapperConfig{});
  neural::SpikeRecorder rec;
  Rng rng(9);
  const LoadReport report = loader.load(net, m, &rec, rng);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.total_synapses, 20u);
  EXPECT_EQ(report.total_rows, 20u);
  EXPECT_GT(report.sdram_bytes, 0u);
  ASSERT_EQ(loader.apps().size(), 2u);
  // The b-side app holds one row per source neuron, keyed by a's key space.
  const RoutingKey b_key_base =
      report.placement.slices[report.placement.by_population[b][0]].key_base;
  const RoutingKey a_key_base =
      report.placement.slices[report.placement.by_population[a][0]].key_base;
  neural::NeuronApp* b_app = nullptr;
  for (auto* app : loader.apps()) {
    if (app->config().key_base == b_key_base) b_app = app;
  }
  ASSERT_NE(b_app, nullptr);
  EXPECT_EQ(b_app->rows().num_rows(), 20u);
  const std::size_t row = b_app->rows().find(a_key_base + 7);
  ASSERT_NE(row, neural::RowStore::npos);
  const auto synapses = b_app->rows().synapses(row);
  ASSERT_EQ(synapses.size(), 1u);
  EXPECT_EQ(synapses[0].target, 7u);
  EXPECT_EQ(synapses[0].delay, 3u);
  EXPECT_NEAR(synapses[0].weight().to_double(), 2.0, 0.01);
}

TEST(Loader, AllToAllSynapseCount) {
  sim::Simulator sim(1);
  mesh::Machine m(sim, machine_config());
  neural::Network net;
  const auto a = net.add_lif("a", 30);
  const auto b = net.add_lif("b", 40);
  net.connect(a, b, neural::Connector::all_to_all(),
              neural::ValueDist::fixed(1.0), neural::ValueDist::fixed(1.0));
  Loader loader(MapperConfig{});
  Rng rng(3);
  const LoadReport report = loader.load(net, m, nullptr, rng);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.total_synapses, 30u * 40u);
}

TEST(Loader, SelfConnectionsExcludedByDefault) {
  sim::Simulator sim(1);
  mesh::Machine m(sim, machine_config());
  neural::Network net;
  const auto a = net.add_lif("a", 25);
  net.connect(a, a, neural::Connector::all_to_all(),
              neural::ValueDist::fixed(1.0), neural::ValueDist::fixed(1.0));
  Loader loader(MapperConfig{});
  Rng rng(3);
  const LoadReport report = loader.load(net, m, nullptr, rng);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.total_synapses, 25u * 24u);
}

TEST(Loader, FixedProbabilityDensityApproximatelyRight) {
  sim::Simulator sim(1);
  mesh::Machine m(sim, machine_config(6, 6, 6));
  neural::Network net;
  const auto a = net.add_lif("a", 200);
  const auto b = net.add_lif("b", 200);
  net.connect(a, b, neural::Connector::fixed_probability(0.1),
              neural::ValueDist::fixed(1.0), neural::ValueDist::fixed(1.0));
  Loader loader(MapperConfig{});
  Rng rng(5);
  const LoadReport report = loader.load(net, m, nullptr, rng);
  ASSERT_TRUE(report.ok);
  const double expected = 200.0 * 200.0 * 0.1;
  EXPECT_NEAR(static_cast<double>(report.total_synapses), expected,
              expected * 0.15);
}

// ---- connector elaboration against ground truth ---------------------------
//
// fixed_probability(p) means one independent Bernoulli(p) trial per
// candidate pair.  These tests read every realised synapse back out of the
// cores' rows and hold it to that distribution with 99.9% bounds.

constexpr double kZ999 = 3.2905;  // two-sided 99.9% normal quantile

/// Upper 99.9% point of chi-squared with k degrees of freedom
/// (Wilson-Hilferty; well inside 1% of the exact value for k >= 20).
double chi2_upper_999(double k) {
  const double h = 2.0 / (9.0 * k);
  return k * std::pow(1.0 - h + 3.0902 * std::sqrt(h), 3);
}

/// Chi-squared statistic of `counts` against a uniform spread of their sum.
double chi2_uniform(const std::vector<std::uint64_t>& counts) {
  double total = 0.0;
  for (const std::uint64_t c : counts) total += static_cast<double>(c);
  const double expected = total / static_cast<double>(counts.size());
  double chi2 = 0.0;
  for (const std::uint64_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

struct Edge {
  neural::PopulationId pre_pop = 0;
  std::uint32_t pre = 0;
  neural::PopulationId post_pop = 0;
  std::uint32_t post = 0;
  neural::Synapse syn;
};

struct Realised {
  LoadReport report;
  std::vector<Edge> edges;  // every synapse, core by core in row order
};

/// Loads `net` under `seed` and reads every synapse back from the rows.
Realised load_and_read_back(const neural::Network& net, std::uint64_t seed,
                            const mesh::MachineConfig& mc = machine_config()) {
  sim::Simulator sim(1);
  mesh::Machine m(sim, mc);
  Loader loader(MapperConfig{});
  Rng rng(seed);
  Realised out;
  out.report = loader.load(net, m, nullptr, rng);
  const std::vector<Slice>& slices = out.report.placement.slices;
  const auto slice_with = [&](RoutingKey key) {
    return *std::find_if(slices.begin(), slices.end(), [&](const Slice& s) {
      return s.key_base == (key & kSliceKeyMask);
    });
  };
  for (neural::NeuronApp* app : loader.apps()) {
    const Slice post = slice_with(app->config().key_base);
    const neural::RowStore& rows = app->rows();
    for (std::size_t r = 0; r < rows.num_rows(); ++r) {
      const Slice pre = slice_with(rows.key(r));
      for (const neural::Synapse& syn : rows.synapses(r)) {
        out.edges.push_back(
            {pre.pop, pre.first_neuron + (rows.key(r) - pre.key_base),
             post.pop, post.first_neuron + syn.target, syn});
      }
    }
  }
  return out;
}

/// a -> b with fixed_probability(p), fixed weight and delay.
neural::Network feedforward(std::uint32_t n_pre, std::uint32_t n_post,
                            double p) {
  neural::Network net;
  const auto a = net.add_lif("a", n_pre);
  const auto b = net.add_lif("b", n_post);
  net.connect(a, b, neural::Connector::fixed_probability(p),
              neural::ValueDist::fixed(1.0), neural::ValueDist::fixed(1.0));
  return net;
}

struct Case {
  std::uint32_t n_pre;
  std::uint32_t n_post;
  double p;
};

std::string describe(const Case& c) {
  return std::to_string(c.n_pre) + "x" + std::to_string(c.n_post) +
         " p=" + std::to_string(c.p);
}

TEST(Elaboration, SynapseCountInsideBinomialCI) {
  const Case cases[] = {{300, 400, 0.05},   {200, 300, 0.5},
                        {150, 200, 0.9},    {1000, 1000, 0.0005},
                        {2000, 1500, 0.0002}};
  std::uint64_t seed = 100;
  for (const Case& c : cases) {
    const Realised r = load_and_read_back(feedforward(c.n_pre, c.n_post, c.p),
                                          ++seed);
    ASSERT_TRUE(r.report.ok) << r.report.error;
    EXPECT_EQ(r.edges.size(), r.report.total_synapses);
    const double pairs = static_cast<double>(c.n_pre) * c.n_post;
    const double sd = std::sqrt(pairs * c.p * (1.0 - c.p));
    EXPECT_LE(std::abs(static_cast<double>(r.report.total_synapses) -
                       pairs * c.p),
              kZ999 * sd)
        << describe(c) << ": " << r.report.total_synapses << " synapses";
  }
}

TEST(Elaboration, PostIndicesUniform) {
  // Dense (short gaps) and sparse (long gaps); both posts span two slices.
  const Case cases[] = {{1000, 300, 0.2}, {4000, 500, 0.01}};
  std::uint64_t seed = 200;
  for (const Case& c : cases) {
    const Realised r = load_and_read_back(feedforward(c.n_pre, c.n_post, c.p),
                                          ++seed);
    ASSERT_TRUE(r.report.ok) << r.report.error;
    std::vector<std::uint64_t> per_post(c.n_post, 0);
    for (const Edge& e : r.edges) ++per_post.at(e.post);
    EXPECT_LT(chi2_uniform(per_post), chi2_upper_999(c.n_post - 1.0))
        << describe(c);
  }
}

TEST(Elaboration, OutDegreeMatchesBinomial) {
  const Case cases[] = {{2000, 500, 0.05}, {500, 400, 0.7},
                        {3000, 1000, 0.001}};
  std::uint64_t seed = 300;
  for (const Case& c : cases) {
    const Realised r = load_and_read_back(feedforward(c.n_pre, c.n_post, c.p),
                                          ++seed);
    ASSERT_TRUE(r.report.ok) << r.report.error;
    std::vector<double> degree(c.n_pre, 0.0);
    for (const Edge& e : r.edges) degree.at(e.pre) += 1.0;
    const double n_samples = c.n_pre;
    double mean = 0.0;
    for (const double d : degree) mean += d;
    mean /= n_samples;
    double var = 0.0;
    for (const double d : degree) var += (d - mean) * (d - mean);
    var /= n_samples - 1.0;
    // Binomial(n_post, p): mean np, variance npq, fourth central moment
    // npq(1 + 3(n - 2)pq); the sample variance's own variance follows.
    const double n = c.n_post;
    const double pq = c.p * (1.0 - c.p);
    const double sigma2 = n * pq;
    const double mu4 = n * pq * (1.0 + 3.0 * (n - 2.0) * pq);
    const double var_of_var =
        (mu4 - sigma2 * sigma2 * (n_samples - 3.0) / (n_samples - 1.0)) /
        n_samples;
    EXPECT_LE(std::abs(mean - n * c.p), kZ999 * std::sqrt(sigma2 / n_samples))
        << describe(c) << ": mean out-degree " << mean;
    EXPECT_LE(std::abs(var - sigma2), kZ999 * std::sqrt(var_of_var))
        << describe(c) << ": out-degree variance " << var;
  }
}

TEST(Elaboration, RecurrentExcludesSelfAndDrawsFromNMinusOne) {
  constexpr std::uint32_t n = 400;
  const auto recurrent = [](double p) {
    neural::Network net;
    const auto a = net.add_lif("a", n);
    net.connect(a, a, neural::Connector::fixed_probability(p),
                neural::ValueDist::fixed(1.0), neural::ValueDist::fixed(1.0));
    return net;
  };
  {
    // Near p = 1 the candidate count shows in the mean out-degree: p(n-1)
    // and pn lie ~10 standard errors apart.
    const double p = 0.99;
    const Realised r = load_and_read_back(recurrent(p), 401);
    ASSERT_TRUE(r.report.ok) << r.report.error;
    for (const Edge& e : r.edges) ASSERT_NE(e.pre, e.post);
    const double mean = static_cast<double>(r.edges.size()) / n;
    const double band = kZ999 * std::sqrt((n - 1.0) * p * (1.0 - p) / n);
    EXPECT_LE(std::abs(mean - p * (n - 1.0)), band) << mean;
    EXPECT_GT(std::abs(p * n - p * (n - 1.0)), 2.0 * band);
  }
  {
    // Every offset j - i (mod n) in 1..n-1 is one candidate per pre
    // neuron, so a correct skip past i leaves the offsets uniform.
    const Realised r = load_and_read_back(recurrent(0.3), 402);
    ASSERT_TRUE(r.report.ok) << r.report.error;
    std::vector<std::uint64_t> per_offset(n - 1, 0);
    for (const Edge& e : r.edges) {
      ASSERT_NE(e.pre, e.post);
      ++per_offset.at((e.post + n - e.pre) % n - 1);
    }
    EXPECT_LT(chi2_uniform(per_offset), chi2_upper_999(n - 2.0));
  }
}

TEST(Elaboration, ProbabilityZeroAndOneAreExact) {
  const Realised none = load_and_read_back(feedforward(300, 300, 0.0), 7);
  ASSERT_TRUE(none.report.ok) << none.report.error;
  EXPECT_EQ(none.report.total_synapses, 0u);
  EXPECT_EQ(none.report.total_rows, 0u);

  // p = 1 is all_to_all, draw for draw: same synapses, weights and delays.
  const auto wired = [](neural::Connector conn) {
    neural::Network net;
    const auto a = net.add_lif("a", 300);
    const auto b = net.add_lif("b", 280);
    net.connect(a, b, conn, neural::ValueDist::uniform(1.0, 9.0),
                neural::ValueDist::uniform(1.0, 6.0));
    net.connect(b, b, conn, neural::ValueDist::uniform(0.5, 2.0),
                neural::ValueDist::uniform(1.0, 12.0));
    return net;
  };
  const Realised all = load_and_read_back(
      wired(neural::Connector::all_to_all()), 8);
  const Realised p1 = load_and_read_back(
      wired(neural::Connector::fixed_probability(1.0)), 8);
  ASSERT_TRUE(all.report.ok && p1.report.ok);
  EXPECT_EQ(all.report.total_synapses, 300u * 280u + 280u * 279u);
  EXPECT_EQ(p1.report.total_synapses, all.report.total_synapses);
  EXPECT_EQ(p1.report.total_rows, all.report.total_rows);
  ASSERT_EQ(p1.edges.size(), all.edges.size());
  for (std::size_t k = 0; k < all.edges.size(); ++k) {
    const Edge& x = all.edges[k];
    const Edge& y = p1.edges[k];
    ASSERT_EQ(x.pre_pop, y.pre_pop) << k;
    ASSERT_EQ(x.pre, y.pre) << k;
    ASSERT_EQ(x.post_pop, y.post_pop) << k;
    ASSERT_EQ(x.post, y.post) << k;
    ASSERT_EQ(x.syn.weight_raw, y.syn.weight_raw) << k;
    ASSERT_EQ(x.syn.delay, y.syn.delay) << k;
    ASSERT_NE(x.post_pop == x.pre_pop && x.pre == x.post, true) << k;
  }
}

/// A projection's contribution to the realised count's variance: zero for
/// the exact connectors, pairs * p(1-p) for fixed_probability.
double count_variance(const neural::NetworkDescription& desc) {
  double var = 0.0;
  for (const neural::ProjectionDesc& proj : desc.projections) {
    if (proj.connector.kind != neural::ConnectorKind::FixedProbability) {
      continue;
    }
    const double pre = desc.populations[static_cast<std::size_t>(
                                            neural::population_index(
                                                desc, proj.pre))]
                           .size;
    const double post = desc.populations[static_cast<std::size_t>(
                                             neural::population_index(
                                                 desc, proj.post))]
                            .size;
    const double pairs =
        proj.pre == proj.post && !proj.connector.allow_self
            ? pre * (post - 1.0)
            : pre * post;
    const double p = proj.connector.probability;
    var += pairs * p * (1.0 - p);
  }
  return var;
}

TEST(Elaboration, AdmissionEstimateInsideRealisedCI) {
  std::vector<std::pair<std::string, neural::NetworkDescription>> nets;
  for (const std::string& app : server::app_names()) {
    nets.emplace_back(app, server::app_description(app));
  }
  {
    // The client-described net of bench_e14's wirenet column.
    net::NetBuilder b;
    b.spike_source("stim", {{1, 5}, {3}});
    b.poisson("bg", 24, 30.0);
    b.lif("cells", 48);
    b.project("stim", "cells", neural::Connector::all_to_all(),
              neural::ValueDist::fixed(15.0), neural::ValueDist::fixed(1.0));
    b.project("bg", "cells", neural::Connector::fixed_probability(0.25),
              neural::ValueDist::uniform(2.0, 6.0),
              neural::ValueDist::fixed(1.0));
    nets.emplace_back("wirenet", b.description());
  }
  {
    // bench_e12's net.
    net::NetBuilder b;
    b.poisson("noise", 6000, 30.0);
    b.lif("exc", 18000);
    b.project("noise", "exc", neural::Connector::fixed_probability(0.0045),
              neural::ValueDist::uniform(4.0, 8.0),
              neural::ValueDist::fixed(1.0));
    b.project("exc", "exc", neural::Connector::fixed_probability(0.0005),
              neural::ValueDist::fixed(2.0), neural::ValueDist::fixed(1.0));
    nets.emplace_back("e12", b.description());
  }
  for (const auto& [name, desc] : nets) {
    neural::Network net;
    std::string error;
    ASSERT_TRUE(neural::build(desc, &net, &error)) << name << ": " << error;
    const double estimate =
        static_cast<double>(neural::estimated_synapses(desc));
    // The estimate rounds each projection's mean up, by under one synapse.
    const double band = kZ999 * std::sqrt(count_variance(desc)) +
                        static_cast<double>(desc.projections.size());
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const Realised r =
          load_and_read_back(net, seed, machine_config(6, 6, 5));
      ASSERT_TRUE(r.report.ok) << name << ": " << r.report.error;
      EXPECT_LE(std::abs(estimate -
                         static_cast<double>(r.report.total_synapses)),
                band)
          << name << " seed " << seed << ": estimate " << estimate
          << ", realised " << r.report.total_synapses;
    }
  }
}

}  // namespace
}  // namespace spinn::map
