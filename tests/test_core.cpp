// Core-module tests: the Transfer relation (Section 4), the level function
// and its lemmas (Section 7), the three advertisement policies, and the
// closed-form fixed point of the modified protocol.

#include <gtest/gtest.h>

#include "core/fixed_point.hpp"
#include "core/instance.hpp"
#include "core/levels.hpp"
#include "core/policy.hpp"
#include "core/transfer.hpp"
#include "topo/builder.hpp"
#include "topo/figures.hpp"
#include "topo/random.hpp"

namespace ibgp::core {
namespace {

// A two-cluster instance with every role represented:
//   cluster 0: reflectors RA, RB; clients ca1, ca2 (exit at ca1 and at RA)
//   cluster 1: reflector RC; client cc (exit at cc)
struct TransferFixture {
  core::Instance inst;
  NodeId ra, rb, ca1, ca2, rc, cc;
  PathId p_client_a;  // exits at ca1 (cluster 0 client)
  PathId p_refl_a;    // exits at RA (cluster 0 reflector)
  PathId p_client_c;  // exits at cc (cluster 1 client)

  static TransferFixture make() {
    topo::InstanceBuilder b;
    const NodeId ra = b.reflector("RA", 0);
    const NodeId rb = b.reflector("RB", 0);
    const NodeId ca1 = b.client("ca1", 0);
    const NodeId ca2 = b.client("ca2", 0);
    const NodeId rc = b.reflector("RC", 1);
    const NodeId cc = b.client("cc", 1);
    b.link("RA", "RB", 1);
    b.link("RA", "ca1", 1);
    b.link("RA", "ca2", 1);
    b.link("RB", "ca1", 1);
    b.link("RB", "ca2", 1);
    b.link("RA", "RC", 1);
    b.link("RC", "cc", 1);
    b.exit({.name = "pa", .at = "ca1", .next_as = 1, .med = 0});
    b.exit({.name = "pr", .at = "RA", .next_as = 2, .med = 0});
    b.exit({.name = "pc", .at = "cc", .next_as = 3, .med = 0});
    core::Instance inst = b.build("transfer-fixture");
    const PathId pa = inst.exits().find_by_name("pa");
    const PathId pr = inst.exits().find_by_name("pr");
    const PathId pc = inst.exits().find_by_name("pc");
    return TransferFixture{std::move(inst), ra, rb, ca1, ca2, rc, cc, pa, pr, pc};
  }
};

// --- Transfer condition 1: own E-BGP routes go to every peer ------------------

TEST(Transfer, OwnExitToEveryPeer) {
  const auto f = TransferFixture::make();
  // RA owns p_refl_a and peers with RB, RC, ca1, ca2.
  EXPECT_TRUE(transfer_allowed(f.inst, f.ra, f.rb, f.p_refl_a));
  EXPECT_TRUE(transfer_allowed(f.inst, f.ra, f.rc, f.p_refl_a));
  EXPECT_TRUE(transfer_allowed(f.inst, f.ra, f.ca1, f.p_refl_a));
  EXPECT_TRUE(transfer_allowed(f.inst, f.ra, f.ca2, f.p_refl_a));
}

TEST(Transfer, ClientOwnExitOnlyToItsReflectors) {
  const auto f = TransferFixture::make();
  EXPECT_TRUE(transfer_allowed(f.inst, f.ca1, f.ra, f.p_client_a));
  EXPECT_TRUE(transfer_allowed(f.inst, f.ca1, f.rb, f.p_client_a));
  // No session to anything else, so no transfer.
  EXPECT_FALSE(transfer_allowed(f.inst, f.ca1, f.rc, f.p_client_a));
  EXPECT_FALSE(transfer_allowed(f.inst, f.ca1, f.cc, f.p_client_a));
}

// --- condition 2: reflector relays CLIENT exits cross-cluster -----------------

TEST(Transfer, ReflectorRelaysClientExitToOtherClusters) {
  const auto f = TransferFixture::make();
  EXPECT_TRUE(transfer_allowed(f.inst, f.ra, f.rc, f.p_client_a));
}

TEST(Transfer, ReflectorDoesNotRelayReflectorExitCrossCluster) {
  const auto f = TransferFixture::make();
  // p_refl_a exits at RA (a reflector), so RB may NOT relay it to RC —
  // only RA itself announces it (condition 1).
  EXPECT_FALSE(transfer_allowed(f.inst, f.rb, f.rc, f.p_refl_a));
}

TEST(Transfer, ReflectorDoesNotRelayForeignClientExitOnward) {
  const auto f = TransferFixture::make();
  // RC heard p_client_a from RA; exitPoint is not RC's client, so RC must
  // not relay it to other reflectors (prevents mesh loops).
  EXPECT_FALSE(transfer_allowed(f.inst, f.rc, f.ra, f.p_client_a));
  EXPECT_FALSE(transfer_allowed(f.inst, f.rc, f.rb, f.p_client_a));
}

TEST(Transfer, NoClientRelayBetweenSameClusterReflectors) {
  const auto f = TransferFixture::make();
  // Condition 2 requires different clusters: RA may not relay ca1's exit to
  // RB (they are both in cluster 0); RB hears it from ca1 directly.
  EXPECT_FALSE(transfer_allowed(f.inst, f.ra, f.rb, f.p_client_a));
}

// --- condition 3: reflector to own clients ------------------------------------

TEST(Transfer, ReflectorSendsEverythingToOwnClientsExceptTheirOwn) {
  const auto f = TransferFixture::make();
  EXPECT_TRUE(transfer_allowed(f.inst, f.ra, f.ca2, f.p_client_a));
  EXPECT_TRUE(transfer_allowed(f.inst, f.ra, f.ca1, f.p_client_c));
  EXPECT_TRUE(transfer_allowed(f.inst, f.rc, f.cc, f.p_refl_a));
  // ...but never a client's own exit back to it.
  EXPECT_FALSE(transfer_allowed(f.inst, f.ra, f.ca1, f.p_client_a));
  EXPECT_FALSE(transfer_allowed(f.inst, f.rc, f.cc, f.p_client_c));
}

TEST(Transfer, RequiresSessionEdge) {
  const auto f = TransferFixture::make();
  // cc and ca1 have no session; nothing transfers in either direction.
  EXPECT_FALSE(transfer_allowed(f.inst, f.cc, f.ca1, f.p_client_c));
  // And never self-transfer.
  EXPECT_FALSE(transfer_allowed(f.inst, f.ra, f.ra, f.p_refl_a));
}

TEST(Transfer, NodeNeverReceivesItsOwnExit) {
  const auto f = TransferFixture::make();
  for (NodeId v = 0; v < f.inst.node_count(); ++v) {
    EXPECT_FALSE(transfer_allowed(f.inst, v, f.ca1, f.p_client_a));
    EXPECT_FALSE(transfer_allowed(f.inst, v, f.ra, f.p_refl_a));
  }
}

TEST(Transfer, TransferSetFiltersAndSorts) {
  const auto f = TransferFixture::make();
  const std::vector<PathId> advertised{f.p_client_c, f.p_refl_a, f.p_client_a};
  const auto to_rc = transfer_set(f.inst, f.ra, f.rc, advertised);
  // RA may send RC its own exit and its client's exit, not cc's exit.
  EXPECT_EQ(to_rc, (std::vector<PathId>{f.p_client_a, f.p_refl_a}));
}

// --- levels (Section 7) --------------------------------------------------------

TEST(Levels, MatchesDefinition) {
  const auto f = TransferFixture::make();
  // p_client_a exits at ca1 (client, cluster 0).
  EXPECT_EQ(level_of(f.inst, f.p_client_a, f.ca1), 0);
  EXPECT_EQ(level_of(f.inst, f.p_client_a, f.ra), 1);
  EXPECT_EQ(level_of(f.inst, f.p_client_a, f.rb), 1);
  EXPECT_EQ(level_of(f.inst, f.p_client_a, f.ca2), 2);
  EXPECT_EQ(level_of(f.inst, f.p_client_a, f.rc), 2);
  EXPECT_EQ(level_of(f.inst, f.p_client_a, f.cc), 3);
}

TEST(Levels, Lemma71TransferNeverGoesDownOrFlat) {
  // Lemma 7.1: if level_p(u) >= level_p(w) then p is not transferable u->w.
  const auto f = TransferFixture::make();
  for (PathId p = 0; p < f.inst.exits().size(); ++p) {
    for (NodeId u = 0; u < f.inst.node_count(); ++u) {
      for (NodeId w = 0; w < f.inst.node_count(); ++w) {
        if (u == w) continue;
        if (level_of(f.inst, p, u) >= level_of(f.inst, p, w)) {
          EXPECT_FALSE(transfer_allowed(f.inst, u, w, p))
              << "path " << p << " transferred " << u << "->" << w << " against levels";
        }
      }
    }
  }
}

TEST(Levels, Lemma73LowerLevelSupplierExists) {
  // Lemma 7.3: every node at level > 0 has a session peer at strictly lower
  // level that may transfer the path to it.  Checked on the fixture and on
  // random instances.
  const auto f = TransferFixture::make();
  for (PathId p = 0; p < f.inst.exits().size(); ++p) {
    for (NodeId u = 0; u < f.inst.node_count(); ++u) {
      if (level_of(f.inst, p, u) == 0) {
        EXPECT_EQ(lower_level_supplier(f.inst, p, u), kNoNode);
      } else {
        EXPECT_NE(lower_level_supplier(f.inst, p, u), kNoNode)
            << "no supplier for path " << p << " at node " << u;
      }
    }
  }
}

TEST(Levels, Lemma73OnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    topo::RandomConfig config;
    config.clusters = 3;
    config.max_clients = 2;
    config.second_reflector_prob = 0.3;
    config.exits = 5;
    const auto inst = topo::random_instance(config, seed);
    for (PathId p = 0; p < inst.exits().size(); ++p) {
      for (NodeId u = 0; u < inst.node_count(); ++u) {
        if (level_of(inst, p, u) > 0) {
          ASSERT_NE(lower_level_supplier(inst, p, u), kNoNode) << "seed " << seed;
        }
      }
    }
  }
}

// --- policies -------------------------------------------------------------------

/// walton_advertised against the base IGP, fed the overall best route.
std::vector<PathId> walton_set(const Instance& inst, NodeId node,
                               std::span<const bgp::Candidate> possible) {
  const auto overall =
      bgp::choose_best(inst.exits(), inst.igp(), node, possible, inst.policy());
  std::vector<PathId> advertised;
  walton_advertised(inst, inst.igp(), node, possible, overall, advertised);
  return advertised;
}

TEST(Policy, StandardAdvertisesExactlyBest) {
  const auto inst = topo::fig1a();
  const PathId r1 = inst.exits().find_by_name("r1");
  const PathId r2 = inst.exits().find_by_name("r2");
  const NodeId a = inst.find_node("A");
  const std::vector<bgp::Candidate> possible{{r1, 1}, {r2, 2}};
  NodeDecision decision;
  decide(inst, inst.igp(), ProtocolKind::kStandard, a, possible, decision);
  ASSERT_TRUE(decision.best);
  EXPECT_EQ(decision.best->path, r2);  // metric 4 < 5
  EXPECT_EQ(decision.advertised, (std::vector<PathId>{r2}));
}

TEST(Policy, ModifiedAdvertisesMedSurvivorsAndPicksFromThem) {
  const auto inst = topo::fig1a();
  const PathId r1 = inst.exits().find_by_name("r1");
  const PathId r2 = inst.exits().find_by_name("r2");
  const PathId r3 = inst.exits().find_by_name("r3");
  const NodeId a = inst.find_node("A");
  const std::vector<bgp::Candidate> possible{{r1, 1}, {r2, 2}, {r3, 3}};
  NodeDecision decision;
  decide(inst, inst.igp(), ProtocolKind::kModified, a, possible, decision);
  // GoodExits: r2 MED-eliminated by r3; r1 and r3 survive.
  EXPECT_EQ(decision.advertised, (std::vector<PathId>{r1, r3}));
  ASSERT_TRUE(decision.best);
  EXPECT_EQ(decision.best->path, r1) << "best chosen from GoodExits (Section 6)";
}

TEST(Policy, ModifiedBestIgnoresNonSurvivors) {
  // Even when the MED-eliminated route has the lowest metric, the modified
  // protocol must not select it (best over GoodExits, not PossibleExits).
  const auto inst = topo::fig1a();
  const PathId r2 = inst.exits().find_by_name("r2");
  const PathId r3 = inst.exits().find_by_name("r3");
  const NodeId a = inst.find_node("A");
  const std::vector<bgp::Candidate> possible{{r2, 2}, {r3, 3}};
  NodeDecision decision;
  decide(inst, inst.igp(), ProtocolKind::kModified, a, possible, decision);
  ASSERT_TRUE(decision.best);
  EXPECT_EQ(decision.best->path, r3);
  EXPECT_EQ(decision.advertised, (std::vector<PathId>{r3}));
}

TEST(Policy, WaltonAdvertisesBestPerAs) {
  const auto inst = topo::fig1a();
  const PathId r1 = inst.exits().find_by_name("r1");
  const PathId r2 = inst.exits().find_by_name("r2");
  const PathId r3 = inst.exits().find_by_name("r3");
  const NodeId a = inst.find_node("A");
  const std::vector<bgp::Candidate> possible{{r1, 1}, {r2, 2}, {r3, 3}};
  const auto advertised = walton_set(inst, a, possible);
  // AS1 best = r1; AS2 best = r3 (MED).  r2 is hidden.
  EXPECT_EQ(advertised, (std::vector<PathId>{r1, r3}));
}

TEST(Policy, WaltonFiltersByLocalPrefAndLength) {
  topo::InstanceBuilder b;
  b.reflector("R", 0);
  b.reflector("S", 1);
  b.link("R", "S", 1);
  b.exit({.name = "good", .at = "R", .next_as = 1, .med = 0, .local_pref = 200});
  b.exit({.name = "weak", .at = "S", .next_as = 2, .med = 0, .local_pref = 100});
  const auto inst = b.build("walton-filter");
  const PathId good = inst.exits().find_by_name("good");
  const PathId weak = inst.exits().find_by_name("weak");
  const std::vector<bgp::Candidate> possible{{good, 1}, {weak, 2}};
  const auto advertised = walton_set(inst, inst.find_node("R"), possible);
  // weak is AS2's best but has lower LOCAL-PREF than the overall best.
  EXPECT_EQ(advertised, (std::vector<PathId>{good}));
  (void)weak;
}

TEST(Policy, EmptyPossibleGivesEmptyDecision) {
  const auto inst = topo::fig1a();
  for (const auto kind :
       {ProtocolKind::kStandard, ProtocolKind::kWalton, ProtocolKind::kModified}) {
    NodeDecision decision{{0}, bgp::RouteView{}};  // stale contents are overwritten
    decide(inst, inst.igp(), kind, 0, {}, decision);
    EXPECT_FALSE(decision.best);
    EXPECT_TRUE(decision.advertised.empty());
  }
}

TEST(Policy, Names) {
  EXPECT_STREQ(protocol_name(ProtocolKind::kStandard), "standard");
  EXPECT_STREQ(protocol_name(ProtocolKind::kWalton), "walton");
  EXPECT_STREQ(protocol_name(ProtocolKind::kModified), "modified");
}

// --- fixed point ------------------------------------------------------------------

TEST(FixedPoint, Fig1aPrediction) {
  const auto inst = topo::fig1a();
  const auto prediction = predict_fixed_point(inst);
  const PathId r1 = inst.exits().find_by_name("r1");
  const PathId r3 = inst.exits().find_by_name("r3");
  EXPECT_EQ(prediction.s_prime, (std::vector<PathId>{r1, r3}));
  // A, c1, c2, B all pick r1; c3 keeps its own E-BGP route r3.
  EXPECT_EQ(prediction.best[inst.find_node("A")]->path, r1);
  EXPECT_EQ(prediction.best[inst.find_node("B")]->path, r1);
  EXPECT_EQ(prediction.best[inst.find_node("c1")]->path, r1);
  EXPECT_EQ(prediction.best[inst.find_node("c2")]->path, r1);
  EXPECT_EQ(prediction.best[inst.find_node("c3")]->path, r3);
}

TEST(FixedPoint, EverySPrimeMemberVisibleEverywhere) {
  for (const auto& [name, inst] : topo::all_figures()) {
    const auto prediction = predict_fixed_point(inst);
    for (NodeId v = 0; v < inst.node_count(); ++v) {
      for (const PathId p : prediction.s_prime) {
        EXPECT_TRUE(std::binary_search(prediction.possible[v].begin(),
                                       prediction.possible[v].end(), p))
            << name << ": path " << p << " not visible at node " << v;
      }
    }
  }
}

TEST(FixedPoint, WithdrawnExitsExcluded) {
  const auto inst = topo::fig1a();
  const PathId r1 = inst.exits().find_by_name("r1");
  const PathId r2 = inst.exits().find_by_name("r2");
  const PathId r3 = inst.exits().find_by_name("r3");
  // Without r3, the MED elimination of r2 never happens: S' = {r1, r2}.
  const std::vector<PathId> announced{r1, r2};
  const auto prediction = predict_fixed_point(inst, announced);
  EXPECT_EQ(prediction.s_prime, (std::vector<PathId>{r1, r2}));
  EXPECT_EQ(prediction.best[inst.find_node("A")]->path, r2);
  (void)r3;
}

TEST(FixedPoint, EmptyAnnouncedMeansNoRoutes) {
  const auto inst = topo::fig1a();
  const auto prediction = predict_fixed_point(inst, std::vector<PathId>{});
  EXPECT_TRUE(prediction.s_prime.empty());
  for (const auto& best : prediction.best) EXPECT_FALSE(best.has_value());
}

// --- instance validation -------------------------------------------------------

TEST(Instance, RejectsOutOfRangeExitPoint) {
  netsim::PhysicalGraph g(2);
  g.add_link(0, 1, 1);
  auto layout = netsim::ClusterLayout::full_mesh(2);
  auto sessions = netsim::build_session_graph(layout);
  bgp::ExitTable table;
  bgp::ExitPath path;
  path.exit_point = 9;
  table.add(path);
  EXPECT_THROW(core::Instance("bad", std::move(g), std::move(layout), std::move(sessions),
                              std::move(table)),
               std::invalid_argument);
}

TEST(Instance, NodeNamesDefaultAndLookup) {
  const auto inst = topo::fig1a();
  EXPECT_EQ(inst.node_name(inst.find_node("A")), "A");
  EXPECT_EQ(inst.find_node("nonexistent"), kNoNode);
}

TEST(Instance, WithPolicyKeepsStructure) {
  const auto inst = topo::fig1b();
  bgp::SelectionPolicy policy;
  policy.order = bgp::RuleOrder::kIgpCostFirst;
  const auto alt = inst.with_policy(policy);
  EXPECT_EQ(alt.node_count(), inst.node_count());
  EXPECT_EQ(alt.policy().order, bgp::RuleOrder::kIgpCostFirst);
  EXPECT_EQ(inst.policy().order, bgp::RuleOrder::kPreferEbgpFirst);
}

}  // namespace
}  // namespace ibgp::core
