// Unit tests for the discrete-event kernel and the statistics containers.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace spinn::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, SameTimeOrderedByPriorityThenSeq) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5, [&] { order.push_back(1); }, EventPriority::Background);
  q.schedule_at(5, [&] { order.push_back(2); }, EventPriority::Interrupt);
  q.schedule_at(5, [&] { order.push_back(3); }, EventPriority::Interrupt);
  q.schedule_at(5, [&] { order.push_back(4); }, EventPriority::Fabric);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 1}));
}

TEST(EventQueue, SchedulingIntoThePastThrows) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.step();
  EXPECT_THROW(q.schedule_at(5, [] {}), std::logic_error);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int count = 0;
  for (TimeNs t = 1; t <= 10; ++t) {
    q.schedule_at(t * 10, [&] { ++count; });
  }
  const std::uint64_t executed = q.run_until(50);
  EXPECT_EQ(executed, 5u);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.now(), 50);  // time advances to the boundary even if no event
  EXPECT_EQ(q.pending(), 5u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.schedule_in(10, recurse);
  };
  q.schedule_at(0, recurse);
  q.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.now(), 40);
}

TEST(EventQueue, ClearDropsPending) {
  EventQueue q;
  int count = 0;
  q.schedule_at(1, [&] { ++count; });
  q.clear();
  q.run();
  EXPECT_EQ(count, 0);
}

// ---- EventAction lifetimes -------------------------------------------------

/// A closure owning a shared_ptr that counts its destructions while it
/// still owns the pointer: a moved-from copy owns nothing, so a correctly
/// moved closure counts exactly one destruction.
template <std::size_t kPad = 0>
struct Owner {
  Owner(std::shared_ptr<int> t, int* d, int* r)
      : token(std::move(t)), destroyed(d), runs(r) {}
  Owner(Owner&&) noexcept = default;
  Owner& operator=(Owner&&) = delete;
  ~Owner() {
    if (token) ++*destroyed;
  }
  void operator()() const { ++*runs; }

  std::shared_ptr<int> token;
  int* destroyed;
  int* runs;
  std::array<char, kPad> pad{};
};

struct Lifetime {
  std::shared_ptr<int> token = std::make_shared<int>(0);
  int destroyed = 0;
  int runs = 0;
  template <std::size_t kPad = 0>
  Owner<kPad> closure() {
    return Owner<kPad>(token, &destroyed, &runs);
  }
};

TEST(EventAction, ClosureIsDestroyedOnceAfterRunning) {
  EventQueue q;
  Lifetime life;
  q.schedule_at(5, life.closure());
  EXPECT_EQ(life.token.use_count(), 2);
  EXPECT_EQ(life.destroyed, 0);
  q.run();
  EXPECT_EQ(life.runs, 1);
  EXPECT_EQ(life.destroyed, 1);
  EXPECT_EQ(life.token.use_count(), 1);
}

TEST(EventAction, PendingClosuresAreDestroyedOnClearAndReset) {
  EventQueue q;
  Lifetime cleared;
  for (int i = 0; i < 3; ++i) q.schedule_at(i, cleared.closure());
  q.clear();
  EXPECT_EQ(cleared.destroyed, 3);
  EXPECT_EQ(cleared.token.use_count(), 1);

  Lifetime reset;
  for (int i = 0; i < 3; ++i) q.schedule_at(10 + i, reset.closure());
  q.reset();
  EXPECT_EQ(reset.destroyed, 3);
  EXPECT_EQ(reset.token.use_count(), 1);
  q.run();
  EXPECT_EQ(cleared.runs + reset.runs, 0);
}

TEST(EventAction, PendingClosuresAreDestroyedWithTheEngine) {
  Lifetime serial;
  Lifetime sharded;
  {
    SerialEngine engine(1);
    engine.root().at(100, serial.closure());
    ShardedSimulator sim(1, 2, 2);
    sim.map_actors(3);
    sim.context_of(2).at_as(100, 2, sharded.closure());
  }
  EXPECT_EQ(serial.destroyed, 1);
  EXPECT_EQ(sharded.destroyed, 1);
  EXPECT_EQ(serial.token.use_count() + sharded.token.use_count(), 2);
}

// A closure posted across shards during a parallel window rides the
// sender's outbox, is merged into the receiver's queue at the barrier and
// runs there: still one destruction.
TEST(EventAction, CrossShardMailIsDestroyedOnceAfterDraining) {
  obs::Counter& mail = obs::Registry::global().counter("sim.mail");
  const std::uint64_t mail_before = mail.value();
  Lifetime life;
  ShardedSimulator sim(1, 2, 2);
  sim.map_actors(3);  // actor 1 -> shard 0, actor 2 -> shard 1
  sim.constrain_lookahead(100);
  Simulator& sender = sim.context_of(1);
  sim.context_of(1).at_as(10, 1, [&sender, &life] {
    sender.handoff(100, 2, life.closure());
  });
  sim.run_until(1000);
  EXPECT_EQ(life.runs, 1);
  EXPECT_EQ(life.destroyed, 1);
  EXPECT_EQ(life.token.use_count(), 1);
  EXPECT_GE(mail.value(), mail_before + 1) << "the handoff went by mail";
}

TEST(EventAction, OversizeClosureRunsFromTheHeap) {
  static_assert(sizeof(Owner<256>) > EventAction::kInlineBytes);
  EventQueue q;
  Lifetime life;
  q.schedule_at(1, life.closure<256>());
  EventAction moved = life.closure<256>();
  EventAction target = std::move(moved);
  EXPECT_FALSE(static_cast<bool>(moved));
  target();
  q.run();
  EXPECT_EQ(life.runs, 2);
  EXPECT_EQ(life.destroyed, 1);  // the queued one; `target` is still alive
}

// An action that schedules over a thousand events while it runs grows the
// slot array under itself; it must keep running on its own (moved-out)
// state, and the events must run in key order.
TEST(EventAction, ActionSchedulingThousandsOfEventsRunsCorrectly) {
  EventQueue q;
  std::vector<int> order;
  std::vector<int> payload(4, 7);
  int payload_sum_after = 0;
  q.schedule_at(0, [&q, &order, &payload_sum_after,
                    payload = std::move(payload)] {
    for (int i = 0; i < 1500; ++i) {
      // Reverse time order, then ties broken by scheduling order.
      q.schedule_at(2000 - i / 2, [&order, i] { order.push_back(i); });
    }
    payload_sum_after = std::accumulate(payload.begin(), payload.end(), 0);
  });
  EXPECT_EQ(q.run(), 1501u);
  EXPECT_EQ(payload_sum_after, 28);
  ASSERT_EQ(order.size(), 1500u);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const int pair = 749 - static_cast<int>(k / 2);
    EXPECT_EQ(order[k], 2 * pair + static_cast<int>(k % 2)) << k;
  }
}

TEST(EngineMetrics, SimEventsCountsExecutedEvents) {
  obs::Counter& events = obs::Registry::global().counter("sim.events");
  const std::uint64_t before = events.value();
  SerialEngine engine(1);
  for (int i = 0; i < 5; ++i) engine.root().at(i * 10, [] {});
  EXPECT_EQ(engine.run_until(25), 3u);
  EXPECT_EQ(events.value(), before + 3);
  EXPECT_TRUE(engine.step());
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(events.value(), before + 5);
}

TEST(Simulator, ConvenienceWrappers) {
  Simulator sim(1);
  int hits = 0;
  sim.at(100, [&] { ++hits; });
  sim.after(50, [&] { ++hits; });
  sim.run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RngIsSeeded) {
  Simulator a(5), b(5), c(6);
  EXPECT_EQ(a.rng().next(), b.rng().next());
  Simulator d(5);
  EXPECT_NE(d.rng().next(), c.rng().next());
}

TEST(PeriodicProcess, TicksAtPeriod) {
  Simulator sim(1);
  int ticks = 0;
  PeriodicProcess p(sim, 100, [&] { ++ticks; });
  p.start();
  sim.run_until(1000);
  EXPECT_EQ(ticks, 11);  // t = 0, 100, ..., 1000
}

TEST(PeriodicProcess, CancelStops) {
  Simulator sim(1);
  int ticks = 0;
  PeriodicProcess p(sim, 10, [&] { ++ticks; });
  p.start();
  sim.after(35, [&] { p.cancel(); });
  sim.run_until(1000);
  EXPECT_EQ(ticks, 4);  // 0, 10, 20, 30
}

TEST(PeriodicProcess, PhaseOffsetsFirstTick) {
  Simulator sim(1);
  std::vector<TimeNs> times;
  PeriodicProcess p(sim, 100, [&] { times.push_back(sim.now()); });
  p.start(/*phase=*/42);
  sim.run_until(400);
  ASSERT_GE(times.size(), 3u);
  EXPECT_EQ(times[0], 42);
  EXPECT_EQ(times[1], 142);
}

// ---- stats -----------------------------------------------------------------

TEST(Summary, BasicMoments) {
  Summary s;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

/// Determinism property: identical seeds yield identical event interleaving.
class DeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismTest, SameSeedSameTrace) {
  auto trace = [&](std::uint64_t seed) {
    Simulator sim(seed);
    std::vector<std::uint64_t> log;
    for (int i = 0; i < 50; ++i) {
      const TimeNs t = static_cast<TimeNs>(sim.rng().uniform_int(1000));
      sim.at(t, [&log, t] { log.push_back(static_cast<std::uint64_t>(t)); });
    }
    sim.run();
    return log;
  };
  EXPECT_EQ(trace(GetParam()), trace(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         ::testing::Values(1u, 42u, 1234567u));

}  // namespace
}  // namespace spinn::sim
