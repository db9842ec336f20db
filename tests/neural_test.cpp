// Tests for the neural substrate: LIF/Izhikevich dynamics in fixed point,
// the deferred-event input ring (§3.2), synapse packing and the network
// builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "neural/input_ring.hpp"
#include "neural/network.hpp"
#include "neural/neuron_models.hpp"
#include "neural/synapse.hpp"

namespace spinn::neural {
namespace {

// ---- LIF -------------------------------------------------------------------

TEST(Lif, RestingNeuronStaysAtRest) {
  LifSlice slice(4, LifParams{});
  std::vector<Accum> input(4, Accum{});
  std::vector<std::uint32_t> spikes;
  for (int t = 0; t < 100; ++t) slice.update(input, spikes);
  EXPECT_TRUE(spikes.empty());
  EXPECT_NEAR(slice.membrane(0).to_double(), -65.0, 0.1);
}

TEST(Lif, StrongInputCausesSpikeAndReset) {
  LifParams p;
  LifSlice slice(1, p);
  std::vector<Accum> input{Accum::from_double(30.0)};
  std::vector<std::uint32_t> spikes;
  slice.update(input, spikes);
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0], 0u);
  EXPECT_NEAR(slice.membrane(0).to_double(), p.v_reset.to_double(), 1e-3);
}

TEST(Lif, RefractoryPeriodSuppressesFiring) {
  LifParams p;
  p.refractory_ticks = 3;
  LifSlice slice(1, p);
  std::vector<Accum> input{Accum::from_double(30.0)};
  std::vector<std::uint32_t> spikes;
  slice.update(input, spikes);
  ASSERT_EQ(spikes.size(), 1u);
  // The next 3 ticks are refractory no matter the drive.
  for (int t = 0; t < 3; ++t) {
    spikes.clear();
    slice.update(input, spikes);
    EXPECT_TRUE(spikes.empty()) << "tick " << t;
  }
  spikes.clear();
  slice.update(input, spikes);
  EXPECT_EQ(spikes.size(), 1u) << "fires again after refractory";
}

TEST(Lif, MembraneDecaysTowardsRest) {
  LifParams p;
  LifSlice slice(1, p);
  slice.set_membrane(0, Accum::from_double(-55.0));
  std::vector<Accum> input(1, Accum{});
  std::vector<std::uint32_t> spikes;
  double prev_distance = 10.0;
  for (int t = 0; t < 20; ++t) {
    slice.update(input, spikes);
    const double distance =
        std::abs(slice.membrane(0).to_double() - p.v_rest.to_double());
    EXPECT_LT(distance, prev_distance + 1e-6);
    prev_distance = distance;
  }
  EXPECT_LT(prev_distance, 2.0);
}

TEST(Lif, FixedPointTracksDoubleReference) {
  // Integrate the same trajectory in double precision; S16.15 should track
  // within a few LSB-equivalents across 50 ms.
  LifParams p;
  LifSlice slice(1, p);
  double v_ref = p.v_rest.to_double();
  const double decay = p.decay.to_double();
  const double in = 1.0;  // steady state ~ -54.5 mV: stays sub-threshold
  std::vector<Accum> input{Accum::from_double(in)};
  std::vector<std::uint32_t> spikes;
  for (int t = 0; t < 50; ++t) {
    slice.update(input, spikes);
    v_ref = p.v_rest.to_double() + (v_ref - p.v_rest.to_double()) * decay + in;
  }
  EXPECT_TRUE(spikes.empty());
  EXPECT_NEAR(slice.membrane(0).to_double(), v_ref, 0.05);
}

// ---- Izhikevich --------------------------------------------------------------

TEST(Izhikevich, RestingNeuronIsQuiet) {
  IzhSlice slice(1, IzhParams{});
  std::vector<Accum> input(1, Accum{});
  std::vector<std::uint32_t> spikes;
  for (int t = 0; t < 200; ++t) slice.update(input, spikes);
  EXPECT_TRUE(spikes.empty());
}

TEST(Izhikevich, ToniceSpikingUnderCurrent) {
  IzhSlice slice(1, IzhParams{});
  std::vector<Accum> input{Accum::from_double(10.0)};
  std::vector<std::uint32_t> spikes;
  for (int t = 0; t < 500; ++t) slice.update(input, spikes);
  // Regular-spiking cell at I=10 fires repeatedly (~5-30 Hz-ish here).
  EXPECT_GE(spikes.size(), 3u);
  EXPECT_LE(spikes.size(), 200u);
}

TEST(Izhikevich, ResetAfterSpike) {
  IzhParams p;
  IzhSlice slice(1, p);
  std::vector<Accum> input{Accum::from_double(20.0)};
  std::vector<std::uint32_t> spikes;
  int guard = 0;
  while (spikes.empty() && guard++ < 1000) slice.update(input, spikes);
  ASSERT_FALSE(spikes.empty());
  EXPECT_LE(slice.membrane(0).to_double(), p.c.to_double() + 25.0)
      << "v must have been reset from the +30 mV peak";
}

// ---- input ring (deferred events, §3.2) --------------------------------------

TEST(InputRing, DeliversAtExactDelay) {
  InputRing ring(4);
  ring.add(/*current_tick=*/10, /*neuron=*/2, /*delay=*/5,
           Accum::from_double(1.5));
  // Nothing before tick 15.
  for (std::uint32_t t = 11; t < 15; ++t) {
    const auto& slot = ring.drain(t);
    EXPECT_DOUBLE_EQ(slot[2].to_double(), 0.0) << "tick " << t;
  }
  const auto& slot = ring.drain(15);
  EXPECT_DOUBLE_EQ(slot[2].to_double(), 1.5);
}

TEST(InputRing, AccumulatesMultipleArrivals) {
  InputRing ring(2);
  ring.add(0, 0, 3, Accum::from_double(1.0));
  ring.add(1, 0, 2, Accum::from_double(2.0));  // same arrival tick: 3
  const auto& slot = ring.drain(3);
  EXPECT_DOUBLE_EQ(slot[0].to_double(), 3.0);
}

TEST(InputRing, DrainClearsSlotForReuse) {
  InputRing ring(1);
  ring.add(0, 0, 1, Accum::from_double(1.0));
  EXPECT_DOUBLE_EQ(ring.drain(1)[0].to_double(), 1.0);
  // 16 ticks later the same physical slot must be clean.
  ring.add(16, 0, 1, Accum::from_double(0.25));
  EXPECT_DOUBLE_EQ(ring.drain(17)[0].to_double(), 0.25);
}

TEST(InputRing, DelayClampedToFourBitRange) {
  InputRing ring(1);
  ring.add(0, 0, /*delay=*/200, Accum::from_double(1.0));  // clamps to 15
  EXPECT_DOUBLE_EQ(ring.drain(15)[0].to_double(), 1.0);
  ring.add(20, 0, /*delay=*/0, Accum::from_double(1.0));  // clamps to 1
  EXPECT_DOUBLE_EQ(ring.drain(21)[0].to_double(), 1.0);
}

TEST(InputRing, DtcmCostIsSixteenWordsPerNeuron) {
  // §3.2 calls the delay storage "one of the most expensive functions of
  // the neuron models in terms of the cost of data storage".
  InputRing ring(256);
  EXPECT_EQ(ring.dtcm_bytes(), 256u * 16u * 4u);
}

/// Property sweep: any (delay, tick) combination delivers exactly once.
class RingDelayTest : public ::testing::TestWithParam<int> {};

TEST_P(RingDelayTest, ExactlyOnceDelivery) {
  const auto delay = static_cast<std::uint8_t>(GetParam());
  InputRing ring(1);
  const std::uint32_t start = 7;
  ring.add(start, 0, delay, Accum::from_double(1.0));
  int deliveries = 0;
  for (std::uint32_t t = start + 1; t < start + 17; ++t) {
    if (ring.drain(t)[0].to_double() != 0.0) {
      ++deliveries;
      EXPECT_EQ(t, start + delay);
    }
  }
  EXPECT_EQ(deliveries, 1);
}

INSTANTIATE_TEST_SUITE_P(AllDelays, RingDelayTest, ::testing::Range(1, 16));

// ---- synapses ----------------------------------------------------------------

TEST(Synapse, WeightPackingRoundTrip) {
  for (double w = 0.0; w < 200.0; w += 7.3) {
    Synapse s;
    s.weight_raw = Synapse::pack_weight(w);
    EXPECT_NEAR(s.weight().to_double(), w, 1.0 / 256.0 + 1e-9) << w;
  }
}

TEST(Synapse, InhibitoryWeightsAreNegative) {
  Synapse s;
  s.weight_raw = Synapse::pack_weight(2.0);
  s.inhibitory = true;
  EXPECT_DOUBLE_EQ(s.weight().to_double(), -2.0);
}

TEST(Synapse, RowBytesMatchWireFormat) {
  EXPECT_EQ(row_bytes(10), 4u + 40u);
}

TEST(RowStore, FindAndAccounting) {
  // Rows of 3 (key 100) and 5 (key 200) synapses, appended interleaved.
  std::vector<RowStore::Entry> entries;
  for (int n = 0; n < 5; ++n) {
    if (n < 3) entries.push_back({100, Synapse{}});
    entries.push_back({200, Synapse{}});
  }
  const RowStore store(std::move(entries));
  EXPECT_EQ(store.num_rows(), 2u);
  ASSERT_NE(store.find(100), RowStore::npos);
  EXPECT_EQ(store.synapses(store.find(100)).size(), 3u);
  EXPECT_EQ(store.find(999), RowStore::npos);
  EXPECT_EQ(store.total_bytes(), (4 + 12) + (4 + 20u));
}

// The master population table against a brute-force map, over random key
// sets: several slices with gaps between them, sparse high slice ids,
// indices past a slice's last bitmap word, and keys off the slice layout.
// Every key in a window around each slice must agree, and every row must
// keep its key, span and order of appended synapses.
TEST(RowStore, PopulationTableAgreesWithBruteForce) {
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<RoutingKey> bases;
    const int slices = 1 + static_cast<int>(rng.uniform_int(6));
    for (int i = 0; i < slices; ++i) {
      // Mostly low dense-ish slice ids, sometimes a sparse high one.
      const RoutingKey slice =
          rng.chance(0.3)
              ? static_cast<RoutingKey>(1u << 20) +
                    static_cast<RoutingKey>(rng.uniform_int(1u << 10))
              : static_cast<RoutingKey>(rng.uniform_int(24));
      bases.push_back(slice << kNeuronKeyBits);
    }
    std::vector<RowStore::Entry> entries;
    const auto add = [&](RoutingKey key) {
      const auto n = 1 + rng.uniform_int(4);
      for (std::uint64_t s = 0; s < n; ++s) {
        Synapse syn;
        syn.target = static_cast<std::uint16_t>(rng.uniform_int(60000));
        entries.push_back({key, syn});
      }
    };
    for (const RoutingKey base : bases) {
      // A slice's neurons up to a random last index; sparse or dense.
      const auto last = rng.uniform_int(1u << kNeuronKeyBits);
      const double density = rng.chance(0.5) ? 0.05 : 0.7;
      for (std::uint64_t i = 0; i <= last; ++i) {
        if (rng.chance(density)) add(base + static_cast<RoutingKey>(i));
      }
    }
    add(100);  // keys like the hand-written ones above
    add(999);
    std::shuffle(entries.begin(), entries.end(), rng);
    // The brute-force store: each key's synapses in append order, and its
    // row index among the ascending keys.
    std::map<RoutingKey, std::vector<std::uint16_t>> brute;
    for (const RowStore::Entry& e : entries) {
      brute[e.key].push_back(e.synapse.target);
    }
    std::map<RoutingKey, std::size_t> row_of;
    for (const auto& [key, targets] : brute) {
      row_of.emplace(key, row_of.size());
    }
    const RowStore store(entries);

    ASSERT_EQ(store.num_rows(), brute.size());
    std::size_t row = 0;
    for (const auto& [key, targets] : brute) {
      ASSERT_EQ(store.key(row), key);
      const auto span = store.synapses(row);
      ASSERT_EQ(span.size(), targets.size()) << key;
      for (std::size_t s = 0; s < span.size(); ++s) {
        EXPECT_EQ(span[s].target, targets[s]) << key;
      }
      ++row;
    }
    std::vector<RoutingKey> probes{0, 1, 99, 101, 998, 1000, ~RoutingKey{0}};
    for (const RoutingKey base : bases) {
      const RoutingKey lo = base >= 64 ? base - 64 : 0;
      for (RoutingKey k = lo; k < base + (2u << kNeuronKeyBits); ++k) {
        probes.push_back(k);
      }
    }
    for (const RoutingKey k : probes) {
      const auto it = row_of.find(k);
      const std::size_t want = it == row_of.end() ? RowStore::npos : it->second;
      ASSERT_EQ(store.find(k), want) << "trial " << trial << " key " << k;
    }
  }
  EXPECT_EQ(RowStore().find(0), RowStore::npos);
}

// ---- network builder ---------------------------------------------------------

TEST(Network, BuilderAssignsIds) {
  Network net;
  const auto a = net.add_lif("a", 100);
  const auto b = net.add_poisson("b", 50, 10.0);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(net.population(a).name, "a");
  EXPECT_EQ(net.population(b).model, NeuronModel::PoissonSource);
  EXPECT_EQ(net.total_neurons(), 150u);
}

TEST(Network, ConnectRecordsProjection) {
  Network net;
  const auto a = net.add_lif("a", 10);
  const auto b = net.add_lif("b", 10);
  net.connect(a, b, Connector::fixed_probability(0.5),
              ValueDist::fixed(1.0), ValueDist::uniform(1.0, 4.0), true);
  ASSERT_EQ(net.projections().size(), 1u);
  const Projection& p = net.projections()[0];
  EXPECT_EQ(p.pre, a);
  EXPECT_EQ(p.post, b);
  EXPECT_TRUE(p.inhibitory);
  EXPECT_EQ(p.connector.kind, ConnectorKind::FixedProbability);
}

TEST(Network, SpikeSourceScheduleStored) {
  Network net;
  const auto s = net.add_spike_source("in", {{1, 5, 9}, {2}});
  EXPECT_EQ(net.population(s).size, 2u);
  EXPECT_EQ(net.population(s).spike_schedule[0].size(), 3u);
}

TEST(ValueDist, FixedAndUniform) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(ValueDist::fixed(2.5).sample(rng), 2.5);
  const ValueDist u = ValueDist::uniform(1.0, 3.0);
  for (int i = 0; i < 100; ++i) {
    const double v = u.sample(rng);
    EXPECT_GE(v, 1.0);
    EXPECT_LT(v, 3.0);
  }
}

}  // namespace
}  // namespace spinn::neural
