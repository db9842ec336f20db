// Property/fuzz tests for the `net` wire grammar (ISSUE 5), in the style
// of event_queue_fuzz_test.
//
// Part 1 generates random *valid* network descriptions and requires the
// wire form to be lossless: client-encode -> server-parse -> re-encode is
// byte-identical, and both descriptions compile (neural::build) to the
// same Network.
//
// Part 2 is adversarial: random byte mutations of valid blocks, and pure
// garbage, must never crash the decoder — fed directly to a NetParser and
// through a live socket server, every frame answers and the connection
// keeps serving.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"

namespace spinn::net {
namespace {

// ---- random-description generator ------------------------------------------

neural::NetworkDescription random_description(Rng& rng) {
  neural::NetworkDescription desc;
  const int npops = 1 + static_cast<int>(rng.uniform_int(5));
  for (int i = 0; i < npops; ++i) {
    neural::PopulationDesc p;
    p.name = "p";  // += sidesteps a GCC 12 -Wrestrict false positive
    p.name += std::to_string(i);
    p.size = 1 + static_cast<std::uint32_t>(rng.uniform_int(48));
    switch (rng.uniform_int(4)) {
      case 0:
        p.model = neural::NeuronModel::Lif;
        if (rng.chance(0.5)) p.v_thresh = rng.uniform(-55.0, -45.0);
        if (rng.chance(0.5)) p.v_rest = rng.uniform(-70.0, -60.0);
        if (rng.chance(0.3)) p.decay = rng.uniform(0.5, 1.0);
        if (rng.chance(0.3)) {
          p.refractory = static_cast<std::uint32_t>(rng.uniform_int(6));
        }
        break;
      case 1:
        p.model = neural::NeuronModel::Izhikevich;
        if (rng.chance(0.5)) p.a = rng.uniform(0.01, 0.1);
        if (rng.chance(0.5)) p.d = rng.uniform(2.0, 8.0);
        break;
      case 2:
        p.model = neural::NeuronModel::PoissonSource;
        p.rate_hz = rng.uniform(0.0, 120.0);
        break;
      case 3: {
        p.model = neural::NeuronModel::SpikeSourceArray;
        p.size = 1 + static_cast<std::uint32_t>(rng.uniform_int(6));
        for (std::uint32_t n = 0; n < p.size; ++n) {
          std::vector<std::uint32_t> train;
          const int ticks = static_cast<int>(rng.uniform_int(5));
          for (int t = 0; t < ticks; ++t) {
            train.push_back(static_cast<std::uint32_t>(rng.uniform_int(50)));
          }
          p.schedule.push_back(std::move(train));
        }
        break;
      }
    }
    p.record = rng.chance(0.7);
    desc.populations.push_back(std::move(p));
  }
  const int nprojs = static_cast<int>(rng.uniform_int(7));
  for (int i = 0; i < nprojs; ++i) {
    neural::ProjectionDesc proj;
    proj.pre = desc.populations[rng.uniform_int(desc.populations.size())]
                   .name;
    proj.post = desc.populations[rng.uniform_int(desc.populations.size())]
                    .name;
    switch (rng.uniform_int(3)) {
      case 0: proj.connector = neural::Connector::all_to_all(); break;
      case 1: proj.connector = neural::Connector::one_to_one(); break;
      case 2:
        proj.connector =
            neural::Connector::fixed_probability(rng.uniform(0.0, 1.0));
        break;
    }
    if (proj.connector.kind != neural::ConnectorKind::OneToOne &&
        rng.chance(0.2)) {
      proj.connector.allow_self = rng.chance(0.5);
    }
    if (rng.chance(0.8)) {
      const double lo = rng.uniform(0.0, 20.0);
      proj.weight = rng.chance(0.5)
                        ? neural::ValueDist::fixed(lo)
                        : neural::ValueDist::uniform(
                              lo, lo + rng.uniform(0.0, 10.0));
    }
    if (rng.chance(0.8)) {
      const double lo = rng.uniform(0.0, 8.0);
      proj.delay_ms = rng.chance(0.5)
                          ? neural::ValueDist::fixed(lo)
                          : neural::ValueDist::uniform(
                                lo, lo + rng.uniform(0.0, 7.0));
    }
    if (rng.chance(0.2)) {
      proj.stdp.enabled = true;
      proj.stdp.a_plus = rng.uniform(0.0, 1.0);
      proj.stdp.a_minus = rng.uniform(0.0, 1.0);
      proj.stdp.window_ticks =
          static_cast<std::uint32_t>(rng.uniform_int(100));
      proj.stdp.w_max = rng.uniform(1.0, 30.0);
    } else if (rng.chance(0.3)) {
      proj.inhibitory = true;
    }
    desc.projections.push_back(std::move(proj));
  }
  return desc;
}

/// Feed a whole block (expected to start with `net`) to a fresh parser.
NetParser::Status parse_block(const std::vector<std::string>& lines,
                              neural::NetworkDescription* out,
                              std::string* error) {
  NetParser parser;
  NetParser::Status status = NetParser::Status::More;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    status = parser.feed(lines[i]);
    if (status == NetParser::Status::Error) {
      if (error != nullptr) *error = parser.error();
      return status;
    }
    if (status == NetParser::Status::Done) {
      if (out != nullptr) *out = *parser.take();
      return status;
    }
  }
  return status;
}

bool same_network(const neural::Network& a, const neural::Network& b) {
  if (a.populations().size() != b.populations().size()) return false;
  if (a.projections().size() != b.projections().size()) return false;
  for (std::size_t i = 0; i < a.populations().size(); ++i) {
    const neural::Population& p = a.populations()[i];
    const neural::Population& q = b.populations()[i];
    if (p.name != q.name || p.size != q.size || p.model != q.model ||
        p.lif.v_rest.raw() != q.lif.v_rest.raw() ||
        p.lif.v_thresh.raw() != q.lif.v_thresh.raw() ||
        p.lif.decay.raw() != q.lif.decay.raw() ||
        p.lif.refractory_ticks != q.lif.refractory_ticks ||
        p.izh.a.raw() != q.izh.a.raw() || p.izh.d.raw() != q.izh.d.raw() ||
        p.poisson_rate_hz != q.poisson_rate_hz ||
        p.spike_schedule != q.spike_schedule || p.record != q.record) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.projections().size(); ++i) {
    const neural::Projection& p = a.projections()[i];
    const neural::Projection& q = b.projections()[i];
    if (p.pre != q.pre || p.post != q.post ||
        p.connector.kind != q.connector.kind ||
        p.connector.probability != q.connector.probability ||
        p.connector.allow_self != q.connector.allow_self ||
        p.weight.lo != q.weight.lo || p.weight.hi != q.weight.hi ||
        p.delay_ms.lo != q.delay_ms.lo || p.delay_ms.hi != q.delay_ms.hi ||
        p.inhibitory != q.inhibitory || p.stdp.enabled != q.stdp.enabled ||
        p.stdp.a_plus != q.stdp.a_plus || p.stdp.w_max != q.stdp.w_max) {
      return false;
    }
  }
  return true;
}

// ---- Part 1: round-trip losslessness ---------------------------------------

class NetGrammarFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetGrammarFuzz, EncodeParseReencodeIsLossless) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const neural::NetworkDescription desc = random_description(rng);
    std::string why;
    ASSERT_TRUE(neural::validate(desc, &why))
        << "generator produced an invalid description: " << why;

    const std::vector<std::string> wire = encode_net(desc);
    neural::NetworkDescription parsed;
    std::string error;
    ASSERT_EQ(parse_block(wire, &parsed, &error), NetParser::Status::Done)
        << error;
    // Lossless: the parsed description re-encodes byte-identically.
    EXPECT_EQ(encode_net(parsed), wire);
    // And compiles to the same Network as the original.
    neural::Network original;
    neural::Network roundtripped;
    ASSERT_TRUE(neural::build(desc, &original, &error)) << error;
    ASSERT_TRUE(neural::build(parsed, &roundtripped, &error)) << error;
    EXPECT_TRUE(same_network(original, roundtripped));
  }
}

// ---- Part 2: mutations and garbage never crash the decoder -----------------

std::vector<std::string> split_mutant(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    if (end > start) lines.push_back(text.substr(start, end - start));
    if (nl == std::string::npos) break;
    start = nl + 1;
  }
  return lines;
}

std::string mutate(std::string text, Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.uniform_int(8));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t at = rng.uniform_int(text.size());
    switch (rng.uniform_int(3)) {
      case 0:  // substitute an arbitrary byte
        text[at] = static_cast<char>(rng.uniform_int(256));
        break;
      case 1:  // truncate
        text.resize(at);
        break;
      case 2: {  // duplicate a slice
        const std::string slice = text.substr(at / 2, rng.uniform_int(16));
        text.insert(at, slice);
        break;
      }
    }
  }
  return text;
}

TEST_P(NetGrammarFuzz, MutatedBlocksNeverCrashTheParser) {
  Rng rng(GetParam() * 7919 + 1);
  for (int round = 0; round < 200; ++round) {
    const neural::NetworkDescription desc = random_description(rng);
    const std::vector<std::string> wire = encode_net(desc);
    // Mutate the block *body* (NetParser::feed never sees the `net`
    // opener — the Request strips it — and feeding it would error out on
    // line one, leaving the pop/proj paths unfuzzed).
    std::string joined;
    for (std::size_t i = 1; i < wire.size(); ++i) {
      if (!joined.empty()) joined += '\n';
      joined += wire[i];
    }
    const std::string mutant = mutate(joined, rng);
    NetParser parser;
    for (const std::string& line : split_mutant(mutant)) {
      const NetParser::Status status = parser.feed(line);
      if (status != NetParser::Status::More) break;  // done or rejected
    }
    // Reaching here without UB/crash is the property (ASan/TSan builds
    // make it a real check); the parser owes no particular verdict.
  }
}

TEST_P(NetGrammarFuzz, GarbageLinesNeverCrashTheParser) {
  Rng rng(GetParam() * 104729 + 3);
  for (int round = 0; round < 200; ++round) {
    NetParser parser;
    const int lines = 1 + static_cast<int>(rng.uniform_int(6));
    for (int l = 0; l < lines; ++l) {
      std::string line;
      const int len = static_cast<int>(rng.uniform_int(120));
      for (int i = 0; i < len; ++i) {
        line.push_back(static_cast<char>(rng.uniform_int(256)));
      }
      if (parser.feed(line) != NetParser::Status::More) break;
    }
  }
}

// Mutants through the real transport: every frame gets exactly one
// response, nothing crashes the reactor, and the connection keeps serving.
TEST(NetGrammarFuzzSocket, MutatedFramesAnswerCleanlyAndServerSurvives) {
  NetServer srv;
  Client client(srv.port());
  Rng rng(20260726);
  for (int round = 0; round < 60; ++round) {
    const neural::NetworkDescription desc = random_description(rng);
    const std::vector<std::string> wire = encode_net(desc);
    std::string joined;
    for (const auto& line : wire) {
      if (!joined.empty()) joined += '\n';
      joined += line;
    }
    const std::string mutant = mutate(joined, rng);
    const std::string response = client.request(mutant);
    ASSERT_FALSE(response.empty())
        << "round " << round << ": connection lost on a mutant frame";
  }
  // The connection and the server both survived the barrage.
  EXPECT_EQ(client.request("ping"), "ok");
  EXPECT_EQ(srv.stats().shed_slow + srv.stats().shed_flood, 0u);
  // No mutant left a half-open parser wedging later frames: a pristine
  // submission still works end-to-end.
  NetBuilder b;
  b.spike_source("kick", {{1}});
  b.lif("sink", 4);
  b.project("kick", "sink", neural::Connector::all_to_all(),
            neural::ValueDist::fixed(30.0), neural::ValueDist::fixed(1.0));
  std::vector<std::string> lines = b.lines();
  lines.push_back("open app=@ seed=2");
  lines.push_back("run $ 5");
  lines.push_back("wait $");
  lines.push_back("drain $");
  lines.push_back("close $");
  const auto blocks = Client::split_response(client.batch(lines));
  ASSERT_EQ(blocks.size(), 6u);
  EXPECT_EQ(blocks[5], "ok");
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetGrammarFuzz,
                         ::testing::Values(1u, 42u, 777u, 20260726u));

}  // namespace
}  // namespace spinn::net
