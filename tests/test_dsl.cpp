// Tests for the .topo DSL and the topology builders/generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/finder.hpp"
#include "netsim/validate.hpp"
#include "topo/builder.hpp"
#include "topo/dsl.hpp"
#include "topo/figures.hpp"
#include "topo/random.hpp"

namespace ibgp::topo {
namespace {

constexpr const char* kSample = R"(
# Fig 1(a) in DSL form
instance sample
policy order ebgp-first med per-as
node A reflector 0
node c1 client 0 bgp-id 21
node B reflector 1
node c3 client 1
link A c1 5
link A B 6
link B c3 12
exit r1 at c1 as 1 med 0 peer 1001
exit r3 at c3 as 2 med 0 lp 100 len 3 cost 2 peer 1003
)";

TEST(Dsl, ParsesSample) {
  const auto inst = parse_topo(kSample);
  EXPECT_EQ(inst.name(), "sample");
  EXPECT_EQ(inst.node_count(), 4u);
  EXPECT_EQ(inst.exits().size(), 2u);
  EXPECT_EQ(inst.bgp_id(inst.find_node("c1")), 21u);
  const auto& r3 = inst.exits()[inst.exits().find_by_name("r3")];
  EXPECT_EQ(r3.exit_cost, 2);
  EXPECT_EQ(r3.ebgp_peer, 1003u);
  EXPECT_EQ(r3.next_as, 2u);
  EXPECT_TRUE(inst.clusters().is_client(inst.find_node("c3")));
}

TEST(Dsl, PolicyParsing) {
  const auto inst = parse_topo(
      "instance p\npolicy order igp-first med always\nnode A reflector 0\n"
      "exit r at A as 1\n");
  EXPECT_EQ(inst.policy().order, bgp::RuleOrder::kIgpCostFirst);
  EXPECT_EQ(inst.policy().med, bgp::MedMode::kAlwaysCompare);
}

TEST(Dsl, ErrorsCarryLineNumbers) {
  try {
    parse_topo("instance x\nnode A reflector 0\nlink A B 5\n");
    FAIL() << "expected parse error";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("<topo>:3:"), std::string::npos) << e.what();
  }
}

TEST(Dsl, RejectsUnknownDirective) {
  EXPECT_THROW(parse_topo("instance x\nfrobnicate\n"), std::runtime_error);
}

TEST(Dsl, RejectsBadRole) {
  EXPECT_THROW(parse_topo("node A emperor 0\n"), std::runtime_error);
}

TEST(Dsl, RejectsEmptyInput) {
  EXPECT_THROW(parse_topo("# nothing\n"), std::runtime_error);
}

TEST(Dsl, RejectsBadExitSyntax) {
  EXPECT_THROW(parse_topo("node A reflector 0\nexit r A as 1\n"), std::runtime_error);
}

TEST(Dsl, CommentsAndBlanksIgnored) {
  const auto inst = parse_topo(
      "\n# hello\ninstance c  # trailing comment\nnode A reflector 0\n\n"
      "exit r at A as 1 # more\n");
  EXPECT_EQ(inst.node_count(), 1u);
}

void expect_equivalent(const core::Instance& a, const core::Instance& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.exits().size(), b.exits().size());
  EXPECT_EQ(a.policy(), b.policy());
  for (NodeId v = 0; v < a.node_count(); ++v) {
    EXPECT_EQ(a.node_name(v), b.node_name(v));
    EXPECT_EQ(a.bgp_id(v), b.bgp_id(v));
    EXPECT_EQ(a.clusters().cluster_of(v), b.clusters().cluster_of(v));
    EXPECT_EQ(a.clusters().role_of(v), b.clusters().role_of(v));
    for (NodeId w = 0; w < a.node_count(); ++w) {
      EXPECT_EQ(a.physical().link_cost(v, w), b.physical().link_cost(v, w));
      EXPECT_EQ(a.sessions().has_session(v, w), b.sessions().has_session(v, w));
    }
  }
  for (PathId p = 0; p < a.exits().size(); ++p) {
    EXPECT_EQ(a.exits()[p], b.exits()[p]);
  }
}

TEST(Dsl, RoundTripsEveryFigure) {
  for (const auto& [name, inst] : all_figures()) {
    SCOPED_TRACE(name);
    const auto reparsed = parse_topo(write_topo(inst));
    expect_equivalent(inst, reparsed);
  }
}

TEST(Dsl, RoundTripsRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    RandomConfig config;
    config.clusters = 2 + seed % 3;
    config.max_clients = 2;
    config.exits = 4;
    config.second_reflector_prob = 0.3;
    const auto inst = random_instance(config, seed);
    const auto reparsed = parse_topo(write_topo(inst));
    expect_equivalent(inst, reparsed);
  }
}

// --- policy knobs (communities, MED overrides, route-maps) -------------------------

TEST(Dsl, ParsesCommunitiesAndMedOverrides) {
  const auto inst = parse_topo(
      "instance k\npolicy med per-as\nmed-override 2 always\nmed-override 3 ignore\n"
      "node A reflector 0\nexit r at A as 2 comm 1,3\n");
  ASSERT_EQ(inst.policy().med_overrides.size(), 2u);
  EXPECT_EQ(inst.policy().med_mode_for(2), bgp::MedMode::kAlwaysCompare);
  EXPECT_EQ(inst.policy().med_mode_for(3), bgp::MedMode::kIgnore);
  EXPECT_EQ(inst.policy().med_mode_for(1), bgp::MedMode::kPerNeighborAs);
  EXPECT_TRUE(inst.exits()[0].has_community(1));
  EXPECT_TRUE(inst.exits()[0].has_community(3));
  EXPECT_FALSE(inst.exits()[0].has_community(2));
}

TEST(Dsl, RouteMapsApplyAtIngressOnly) {
  const auto inst = parse_topo(
      "instance rm\nnode A reflector 0\nnode B reflector 1\nlink A B 1\n"
      "exit r1 at A as 2 med 3 comm 1\nexit r2 at B as 2 med 3 comm 1\n"
      "route-map A match-comm 1 set-lp 200 set-med 0 add-comm 5\n");
  // Effective attributes: only A's exit was rewritten.
  const auto& e1 = inst.exits()[inst.exits().find_by_name("r1")];
  const auto& e2 = inst.exits()[inst.exits().find_by_name("r2")];
  EXPECT_EQ(e1.local_pref, 200u);
  EXPECT_EQ(e1.med, 0);
  EXPECT_TRUE(e1.has_community(5));
  EXPECT_EQ(e2.local_pref, 100u);
  EXPECT_EQ(e2.med, 3);
  EXPECT_FALSE(e2.has_community(5));
  // Raw attributes survive for serialization.
  EXPECT_EQ(inst.raw_exits()[inst.exits().find_by_name("r1")].local_pref, 100u);
  EXPECT_TRUE(inst.has_ingress_policy());
}

TEST(Dsl, RejectsBadCommunityTag) {
  EXPECT_THROW(parse_topo("node A reflector 0\nexit r at A as 1 comm 32\n"),
               std::runtime_error);
  EXPECT_THROW(parse_topo("node A reflector 0\nexit r at A as 1 comm x\n"),
               std::runtime_error);
}

TEST(Dsl, RejectsBadMedOverride) {
  EXPECT_THROW(parse_topo("med-override 1 sometimes\nnode A reflector 0\n"),
               std::runtime_error);
  EXPECT_THROW(parse_topo("med-override 1\nnode A reflector 0\n"), std::runtime_error);
}

// --- byte- and signature-identical round-trips (write -> parse -> write) -----------

void expect_byte_and_signature_stable(const core::Instance& inst) {
  const std::string text = write_topo(inst);
  const auto reparsed = parse_topo(text);
  EXPECT_EQ(write_topo(reparsed), text);
  for (const auto protocol :
       {core::ProtocolKind::kStandard, core::ProtocolKind::kWalton,
        core::ProtocolKind::kModified}) {
    const auto a = analysis::classify(inst, protocol, 2000);
    const auto b = analysis::classify(reparsed, protocol, 2000);
    EXPECT_EQ(a.round_robin, b.round_robin);
    EXPECT_EQ(a.synchronous, b.synchronous);
  }
}

TEST(Dsl, WriteIsByteStableOnFigures) {
  for (const auto& [name, inst] : all_figures()) {
    SCOPED_TRACE(name);
    expect_byte_and_signature_stable(inst);
  }
}

TEST(Dsl, WriteIsByteStableOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    RandomConfig config;
    config.clusters = 2 + seed % 3;
    config.max_clients = 2;
    config.exits = 4;
    config.second_reflector_prob = 0.25;
    expect_byte_and_signature_stable(random_instance(config, seed));
  }
}

TEST(Dsl, KnobbedInstanceRoundTripsByteIdentical) {
  InstanceBuilder b;
  b.reflector("A", 0);
  b.client("c1", 0);
  b.reflector("B", 1);
  b.link("A", "c1", 2);
  b.link("A", "B", 3);
  b.exit({.name = "r1", .at = "c1", .next_as = 1, .med = 2, .communities = 0b1010});
  b.exit({.name = "r2", .at = "B", .next_as = 2, .med = 1});
  b.route_map("c1", {.match_communities = 1u << 1, .set_local_pref = 150,
                     .add_communities = 1u << 4});
  b.route_map("B", {.match_as = 2, .set_med = 0});
  bgp::SelectionPolicy policy;
  policy.med = bgp::MedMode::kAlwaysCompare;
  policy.med_overrides.push_back({.as = 2, .mode = bgp::MedMode::kIgnore});
  const auto inst = b.build("knobbed", policy);
  expect_byte_and_signature_stable(inst);

  // And the knobs actually survive one full cycle.
  const auto reparsed = parse_topo(write_topo(inst));
  EXPECT_EQ(reparsed.policy(), inst.policy());
  EXPECT_EQ(reparsed.ingress_maps().size(), inst.ingress_maps().size());
  EXPECT_EQ(reparsed.exits()[0], inst.exits()[0]);
  EXPECT_EQ(reparsed.raw_exits()[0], inst.raw_exits()[0]);
}

#ifdef IBGP_FIG1A_TOPO
TEST(Dsl, Fig1aFileRoundTripsByteIdentical) {
  std::ifstream in(IBGP_FIG1A_TOPO);
  ASSERT_TRUE(in) << "missing " << IBGP_FIG1A_TOPO;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto inst = parse_topo(buffer.str());
  expect_byte_and_signature_stable(inst);
  // And the file reproduces the paper's Fig 1(a) verdicts.
  EXPECT_TRUE(analysis::classify(inst, core::ProtocolKind::kStandard, 2000).oscillates());
  EXPECT_TRUE(analysis::classify(inst, core::ProtocolKind::kModified, 2000)
                  .converges_always_tested());
}
#endif

// --- builder ------------------------------------------------------------------------

TEST(Builder, RejectsDuplicateLabels) {
  InstanceBuilder b;
  b.reflector("A", 0);
  EXPECT_THROW(b.reflector("A", 1), std::invalid_argument);
}

TEST(Builder, RejectsUnknownLabels) {
  InstanceBuilder b;
  b.reflector("A", 0);
  EXPECT_THROW(b.link("A", "Z", 1), std::invalid_argument);
  EXPECT_THROW(b.exit({.name = "r", .at = "Z", .next_as = 1}), std::invalid_argument);
  EXPECT_THROW(b.bgp_id("Z", 5), std::invalid_argument);
}

TEST(Builder, RejectsExitCostsAtOrAboveInfinity) {
  InstanceBuilder b;
  b.reflector("A", 0);
  ExitSpec far;
  far.name = "far";
  far.at = "A";
  far.exit_cost = kInfCost;
  b.exit(far);
  try {
    (void)b.build("inf");
    FAIL() << "expected the exit cost to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("far"), std::string::npos) << e.what();
  }
}

TEST(Builder, ClientSessionsSurviveBuild) {
  InstanceBuilder b;
  b.reflector("R", 0);
  b.client("x", 0);
  b.client("y", 0);
  b.link("R", "x", 1);
  b.link("R", "y", 1);
  b.link("x", "y", 1);
  b.client_session("x", "y");
  b.exit({.name = "r", .at = "x", .next_as = 1});
  const auto inst = b.build("cc");
  EXPECT_TRUE(inst.sessions().has_session(inst.find_node("x"), inst.find_node("y")));
}

// --- random generator ------------------------------------------------------------------

TEST(Random, DeterministicPerSeed) {
  RandomConfig config;
  const auto a = random_instance(config, 5);
  const auto b = random_instance(config, 5);
  expect_equivalent(a, b);
}

TEST(Random, DifferentSeedsDiffer) {
  RandomConfig config;
  const auto a = random_instance(config, 5);
  const auto b = random_instance(config, 6);
  // Structure may coincide; the exit tables almost surely differ.
  bool differ = a.node_count() != b.node_count() || a.exits().size() != b.exits().size();
  if (!differ) {
    for (PathId p = 0; p < a.exits().size(); ++p) {
      if (!(a.exits()[p] == b.exits()[p])) {
        differ = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differ);
}

TEST(Random, InstancesAreValidAndConnected) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RandomConfig config;
    config.clusters = 2 + seed % 4;
    config.max_clients = seed % 3;
    config.second_reflector_prob = 0.25;
    const auto inst = random_instance(config, seed);
    EXPECT_TRUE(inst.physical().connected()) << seed;
    const auto report =
        netsim::validate(inst.physical(), inst.clusters(), inst.sessions());
    EXPECT_TRUE(report.ok()) << seed;
  }
}

TEST(Random, RespectsExitPlacementFlag) {
  RandomConfig config;
  config.clusters = 3;
  config.min_clients = 1;
  config.max_clients = 2;
  config.exits = 6;
  config.exits_at_clients_only = true;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto inst = random_instance(config, seed);
    for (const auto& path : inst.exits().all()) {
      EXPECT_TRUE(inst.clusters().is_client(path.exit_point)) << seed;
    }
  }
}

// Asserts the parse fails AND the diagnostic contains `needle`.
void expect_topo_error(std::string_view text, std::string_view needle) {
  try {
    parse_topo(text);
    FAIL() << "expected parse error containing '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(Dsl, RejectsOutOfRangeIndices) {
  // Negative and oversized values used to wrap silently through a
  // static_cast; now they are diagnosed with the offending line.
  expect_topo_error("node A reflector -1\n", "<topo>:1:");
  expect_topo_error("node A reflector -1\n", "cluster");
  expect_topo_error("node A reflector 99999999\n", "cluster");  // > kMaxClusterId
  expect_topo_error("node A reflector 0 bgp-id -7\n", "bgp-id");
  expect_topo_error("node A reflector 0 bgp-id 4294967296\n", "bgp-id");  // 2^32
  expect_topo_error("node A reflector 0\nexit r at A as -1\n", "<topo>:2:");
  expect_topo_error("node A reflector 0\nexit r at A as 1 med -3\n", "med");
  expect_topo_error("node A reflector 0\nexit r at A as 1 lp -3\n", "lp");
  expect_topo_error("node A reflector 0\nexit r at A as 1 peer -3\n", "peer");
  expect_topo_error("node A reflector 0\nroute-map A set-lp -1\n", "set-lp");
  expect_topo_error("med-override -1 ignore\nnode A reflector 0\n", "as");
  // Costs are summed along paths, so neither may reach kInfCost.
  const std::string two_nodes = "node A reflector 0\nnode B client 0\n";
  expect_topo_error(two_nodes + "link A B 9223372036854775807\n", "<topo>:3:");
  expect_topo_error(two_nodes + "link A B 2305843009213693951\n", "link cost");  // kInfCost
  expect_topo_error(two_nodes + "link A B 0\n", "<topo>:3:");
  expect_topo_error(two_nodes + "exit r at A as 1 cost 9223372036854775807\n", "<topo>:3:");
  expect_topo_error(two_nodes + "exit r at A as 1 cost 2305843009213693951\n", "exit cost");
}

TEST(Dsl, RejectsNonNumericFields) {
  expect_topo_error("node A reflector zero\n", "cluster");
  expect_topo_error("node A reflector 0\nlink A A x\n", "cost");
  expect_topo_error("node A reflector 0\nexit r at A as one\n", "as");
}

TEST(Dsl, EmptyInputIsDiagnosed) {
  expect_topo_error("", "no nodes defined");
  expect_topo_error("# only a comment\n", "no nodes defined");
}

TEST(Dsl, FileErrorsNameThePath) {
  const std::string path = testing::TempDir() + "ibgp_dsl_bad.topo";
  {
    std::ofstream out(path);
    out << "instance broken\nnode A emperor 0\n";
  }
  try {
    load_topo_file(path);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    // The diagnostic reads like a compiler error: PATH:LINE: message.
    EXPECT_NE(std::string(e.what()).find(path + ":2:"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ibgp::topo
