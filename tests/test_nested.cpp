#include "topo/nested.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/bfs.hpp"
#include "graph/validation.hpp"
#include "topo/factory.hpp"

namespace nestflow {
namespace {

NestedConfig small_config(std::uint32_t t, std::uint32_t u,
                          UpperTierKind upper) {
  NestedConfig config;
  config.global_dims = {8, 4, 4};  // 128 nodes
  config.t = t;
  config.u = u;
  config.upper = upper;
  return config;
}

class NestedRuleTest
    : public testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t,
                                               UpperTierKind>> {};

TEST_P(NestedRuleTest, ValidatesAndCountsUplinks) {
  const auto [t, u, upper] = GetParam();
  const NestedTopology topo(small_config(t, u, upper));
  const auto report = validate_graph(topo.graph());
  EXPECT_TRUE(report.ok()) << topo.name() << ": " << report.to_string();

  std::uint32_t uplinked = 0;
  for (std::uint32_t e = 0; e < topo.num_endpoints(); ++e) {
    uplinked += topo.is_uplinked(e);
  }
  EXPECT_EQ(uplinked, 128u / u);
}

TEST_P(NestedRuleTest, DesignatedUplinkRespectsRuleBounds) {
  const auto [t, u, upper] = GetParam();
  const NestedTopology topo(small_config(t, u, upper));
  const std::uint32_t max_hops = u == 1 ? 0 : (u == 8 ? 3 : 1);
  for (std::uint32_t e = 0; e < topo.num_endpoints(); ++e) {
    const std::uint32_t designated = topo.designated_uplink(e);
    EXPECT_TRUE(topo.is_uplinked(designated));
    EXPECT_EQ(topo.subtorus_of(designated), topo.subtorus_of(e));
    // Hop bound per Fig. 3 (u=1: self; u=2/4: one hop; u=8: up to three).
    Path path;
    topo.route(e, designated, path);
    if (e != designated) {
      EXPECT_LE(path.hops(), max_hops);
    }
    if (u == 1) {
      EXPECT_EQ(designated, e);
    }
  }
}

TEST_P(NestedRuleTest, IntraSubtorusRoutesStayLocal) {
  const auto [t, u, upper] = GetParam();
  const NestedTopology topo(small_config(t, u, upper));
  Path path;
  // All pairs within subtorus 0.
  std::vector<std::uint32_t> members;
  for (std::uint32_t e = 0; e < topo.num_endpoints(); ++e) {
    if (topo.subtorus_of(e) == 0) members.push_back(e);
  }
  ASSERT_EQ(members.size(), t * t * t);
  for (const auto s : members) {
    for (const auto d : members) {
      topo.route(s, d, path);
      for (const LinkId l : path.links) {
        EXPECT_EQ(topo.graph().link(l).link_class, LinkClass::kTorus);
        EXPECT_EQ(topo.subtorus_of(topo.graph().link(l).src), 0u);
        EXPECT_EQ(topo.subtorus_of(topo.graph().link(l).dst), 0u);
      }
      EXPECT_EQ(path.hops(), topo.route_distance(s, d));
    }
  }
}

TEST_P(NestedRuleTest, InterSubtorusRoutesUseUpperTier) {
  const auto [t, u, upper] = GetParam();
  const NestedTopology topo(small_config(t, u, upper));
  Path path;
  const std::uint32_t src = 0;
  const std::uint32_t dst = topo.num_endpoints() - 1;
  ASSERT_NE(topo.subtorus_of(src), topo.subtorus_of(dst));
  topo.route(src, dst, path);
  ASSERT_GT(path.hops(), 0u);
  bool used_uplink = false;
  NodeId current = src;
  for (const LinkId l : path.links) {
    EXPECT_EQ(topo.graph().link(l).src, current);
    current = topo.graph().link(l).dst;
    if (topo.graph().link(l).link_class == LinkClass::kUplink) {
      used_uplink = true;
    }
  }
  EXPECT_EQ(current, dst);
  EXPECT_TRUE(used_uplink);
  EXPECT_EQ(path.hops(), topo.route_distance(src, dst));
}

TEST_P(NestedRuleTest, RoutedAtLeastBfsDistance) {
  const auto [t, u, upper] = GetParam();
  const NestedTopology topo(small_config(t, u, upper));
  BfsScratch bfs;
  for (const std::uint32_t s : {0u, 17u, 99u}) {
    bfs.run(topo.graph(), s);
    for (std::uint32_t d = 0; d < topo.num_endpoints(); d += 7) {
      EXPECT_GE(topo.route_distance(s, d), bfs.distances()[d]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rules, NestedRuleTest,
    testing::Combine(testing::Values(2u, 4u), testing::Values(1u, 2u, 4u, 8u),
                     testing::Values(UpperTierKind::kFattree,
                                     UpperTierKind::kGhc)),
    [](const testing::TestParamInfo<
        std::tuple<std::uint32_t, std::uint32_t, UpperTierKind>>& info) {
      // No commas outside parentheses here: this is a macro argument.
      return std::string(std::get<2>(info.param) == UpperTierKind::kFattree
                             ? "Tree"
                             : "Ghc") +
             "_t" + std::to_string(std::get<0>(info.param)) + "_u" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Nested, ConfigValidation) {
  NestedConfig config = small_config(2, 2, UpperTierKind::kFattree);
  EXPECT_NO_THROW(config.validate());

  config.u = 3;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = small_config(3, 2, UpperTierKind::kFattree);  // odd t with u>1
  config.global_dims = {9, 3, 3};
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = small_config(2, 1, UpperTierKind::kFattree);
  config.global_dims = {7, 4, 4};  // not a multiple of t
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = small_config(2, 1, UpperTierKind::kFattree);
  config.upper_dims = {8, 4, 4};  // ghc override on a fattree config
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config = small_config(2, 1, UpperTierKind::kGhc);
  config.upper_dims = {8, 4, 2};  // product != uplink count (128)
  EXPECT_THROW(config.validate(), std::invalid_argument);

  config.t = 1;
  config.upper_dims.clear();
  EXPECT_THROW(config.validate(), std::invalid_argument);

  // Local coordinates are stored in a byte per dimension.
  config = small_config(2, 1, UpperTierKind::kFattree);
  config.t = 256;
  config.global_dims = {256, 256, 256};
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(Nested, UplinkRanksAreDense) {
  const NestedTopology topo(small_config(2, 4, UpperTierKind::kGhc));
  std::set<std::uint32_t> ranks;
  for (std::uint32_t e = 0; e < topo.num_endpoints(); ++e) {
    if (topo.is_uplinked(e)) {
      EXPECT_TRUE(ranks.insert(topo.uplink_rank(e)).second);
    } else {
      EXPECT_EQ(topo.uplink_rank(e), kInvalidNode);
    }
  }
  EXPECT_EQ(ranks.size(), 32u);
  EXPECT_EQ(*ranks.begin(), 0u);
  EXPECT_EQ(*ranks.rbegin(), 31u);
}

TEST(Nested, U2UplinksAreEvenX) {
  const NestedTopology topo(small_config(2, 2, UpperTierKind::kFattree));
  const auto& shape = topo.global_shape();
  for (std::uint32_t e = 0; e < topo.num_endpoints(); ++e) {
    const bool even_x = shape.coord(e, 0) % 2 == 0;
    EXPECT_EQ(topo.is_uplinked(e), even_x);
  }
}

TEST(Nested, U8UplinkIsSubgridRoot) {
  const NestedTopology topo(small_config(4, 8, UpperTierKind::kGhc));
  const auto& shape = topo.global_shape();
  for (std::uint32_t e = 0; e < topo.num_endpoints(); ++e) {
    const bool all_even = shape.coord(e, 0) % 2 == 0 &&
                          shape.coord(e, 1) % 2 == 0 &&
                          shape.coord(e, 2) % 2 == 0;
    EXPECT_EQ(topo.is_uplinked(e), all_even);
  }
}

TEST(Nested, SubtorusCablesPerNode) {
  // Each t=4 subtorus is a full 4x4x4 torus: 3 cables per node. For
  // (8,4,4)/t=4 there are 2 subtori and no cables between them.
  const NestedTopology topo(small_config(4, 1, UpperTierKind::kFattree));
  std::uint32_t torus_cables = 0;
  const auto& g = topo.graph();
  for (LinkId l = 0; l < g.num_transit_links(); ++l) {
    const auto& link = g.link(l);
    if (link.link_class != LinkClass::kTorus) continue;
    if (link.reverse < l) continue;
    ++torus_cables;
    EXPECT_EQ(topo.subtorus_of(link.src), topo.subtorus_of(link.dst));
  }
  EXPECT_EQ(torus_cables, 128u * 3u);  // 3 cables owned per node

}

TEST(Nested, T2SubtorusHasThreeCablesPerNode) {
  // 2x2x2 subtorus: each node has exactly 3 incident cables (the d==2
  // wrap collapse), i.e. 12 cables per subtorus.
  const NestedTopology topo(small_config(2, 1, UpperTierKind::kFattree));
  std::vector<std::uint32_t> degree(topo.num_endpoints(), 0);
  const auto& g = topo.graph();
  for (LinkId l = 0; l < g.num_transit_links(); ++l) {
    if (g.link(l).link_class == LinkClass::kTorus) ++degree[g.link(l).src];
  }
  for (std::uint32_t e = 0; e < topo.num_endpoints(); ++e) {
    EXPECT_EQ(degree[e], 3u) << "endpoint " << e;
  }
}

TEST(Nested, UpperTierSwitchCount) {
  // 128 nodes, u=1 -> 128 uplinked; fattree arities (32, 4): 4 + 32 = 36.
  const NestedTopology tree(small_config(2, 1, UpperTierKind::kFattree));
  EXPECT_EQ(tree.num_upper_switches(), 36u);
  // GHC dims for 128 = (4,4,8)... balanced_ghc_dims(128) = {4,4,8}:
  // 32 + 32 + 16 = 80 switches.
  const NestedTopology ghc(small_config(2, 1, UpperTierKind::kGhc));
  EXPECT_EQ(ghc.num_upper_switches(), 80u);
}

TEST(Nested, GhcUplinkedNodesHaveThreeUplinkCables) {
  const NestedTopology topo(small_config(2, 2, UpperTierKind::kGhc));
  const auto& g = topo.graph();
  std::vector<std::uint32_t> uplink_degree(topo.num_endpoints(), 0);
  for (LinkId l = 0; l < g.num_transit_links(); ++l) {
    const auto& link = g.link(l);
    if (link.link_class != LinkClass::kUplink) continue;
    if (link.src < topo.num_endpoints()) ++uplink_degree[link.src];
  }
  for (std::uint32_t e = 0; e < topo.num_endpoints(); ++e) {
    if (topo.is_uplinked(e)) {
      // One port per GHC dimension (the 3 spare QFDB transceivers).
      EXPECT_EQ(uplink_degree[e], 3u);
    } else {
      EXPECT_EQ(uplink_degree[e], 0u);
    }
  }
}

TEST(Nested, TreeUplinkedNodesHaveOneUplinkCable) {
  const NestedTopology topo(small_config(2, 2, UpperTierKind::kFattree));
  const auto& g = topo.graph();
  for (std::uint32_t e = 0; e < topo.num_endpoints(); ++e) {
    std::uint32_t uplinks = 0;
    for (const LinkId l : g.out_links(e)) {
      uplinks += g.link(l).link_class == LinkClass::kUplink;
    }
    EXPECT_EQ(uplinks, topo.is_uplinked(e) ? 1u : 0u);
  }
}

TEST(Nested, Names) {
  EXPECT_EQ(NestedTopology(small_config(2, 4, UpperTierKind::kFattree)).name(),
            "NestTree(t=2,u=4)");
  EXPECT_EQ(NestedTopology(small_config(4, 8, UpperTierKind::kGhc)).name(),
            "NestGHC(t=4,u=8)");
}

TEST(Nested, Fig2ExampleInstance) {
  // The paper's Fig. 2b: NestGHC(t=2, u=8) with a 4-ary 2-GHC upper tier
  // needs 16 uplinked nodes -> 128 QFDBs.
  NestedConfig config;
  config.global_dims = {8, 4, 4};
  config.t = 2;
  config.u = 8;
  config.upper = UpperTierKind::kGhc;
  config.upper_dims = {4, 4};
  const NestedTopology topo(config);
  EXPECT_EQ(topo.num_upper_switches(), 8u);  // 4 + 4 switches
  const auto report = validate_graph(topo.graph());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Nested, MakeNestedFactory) {
  const auto topo = make_nested(512, 8, 8, UpperTierKind::kGhc);
  EXPECT_EQ(topo->num_endpoints(), 512u);
  EXPECT_EQ(topo->num_subtori(), 1u);
  EXPECT_EQ(topo->name(), "NestGHC(t=8,u=8)");
}

}  // namespace
}  // namespace nestflow
