#include "topo/torus.hpp"

#include <array>

#include <gtest/gtest.h>

#include "graph/bfs.hpp"
#include "graph/validation.hpp"

namespace nestflow {
namespace {

TEST(GridShape, IndexCoordRoundTrip) {
  const GridShape shape({4, 3, 2});
  EXPECT_EQ(shape.size(), 24u);
  for (std::uint32_t i = 0; i < shape.size(); ++i) {
    std::array<std::uint32_t, 3> coords{};
    shape.coords_of(i, coords);
    EXPECT_EQ(shape.index_of(coords), i);
    for (std::uint32_t dim = 0; dim < 3; ++dim) {
      EXPECT_EQ(shape.coord(i, dim), coords[dim]);
    }
  }
}

TEST(GridShape, XMajorOrdering) {
  const GridShape shape({4, 3, 2});
  EXPECT_EQ(shape.index_of({1, 0, 0}), 1u);
  EXPECT_EQ(shape.index_of({0, 1, 0}), 4u);
  EXPECT_EQ(shape.index_of({0, 0, 1}), 12u);
}

TEST(GridShape, WrapNeighbor) {
  const GridShape shape({4, 3});
  EXPECT_EQ(shape.wrap_neighbor(0, 0, +1), 1u);
  EXPECT_EQ(shape.wrap_neighbor(3, 0, +1), 0u);   // wraps in x
  EXPECT_EQ(shape.wrap_neighbor(0, 0, -1), 3u);
  EXPECT_EQ(shape.wrap_neighbor(0, 1, -1), 8u);   // wraps in y
}

TEST(GridShape, RejectsEmptyAndZero) {
  EXPECT_THROW(GridShape({}), std::invalid_argument);
  EXPECT_THROW(GridShape({4, 0}), std::invalid_argument);
}

TEST(Torus, CableCount) {
  // d dims of size >= 3: n*d cables. 4x4x4 -> 192 cables, 384 directed.
  const TorusTopology torus({4, 4, 4});
  EXPECT_EQ(torus.graph().num_transit_links(), 2u * 3u * 64u);
}

TEST(Torus, DimensionOfTwoGetsSingleCable) {
  // A 2-node ring is one cable, not two parallel ones.
  const TorusTopology torus({2});
  EXPECT_EQ(torus.graph().num_transit_links(), 2u);  // one duplex cable
  const auto report = validate_graph(torus.graph());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Torus, MixedDimsValidate) {
  for (const auto& dims : std::vector<std::vector<std::uint32_t>>{
           {2, 2, 2}, {4, 2, 2}, {8, 4, 2}, {3, 3, 3}, {5, 4, 3}}) {
    const TorusTopology torus(dims);
    const auto report = validate_graph(torus.graph());
    EXPECT_TRUE(report.ok()) << torus.name() << ": " << report.to_string();
  }
}

TEST(Torus, DorRouteIsMinimalEverywhere) {
  const TorusTopology torus({4, 3, 2});
  BfsScratch bfs;
  Path path;
  for (std::uint32_t s = 0; s < torus.num_endpoints(); ++s) {
    bfs.run(torus.graph(), s);
    for (std::uint32_t d = 0; d < torus.num_endpoints(); ++d) {
      torus.route(s, d, path);
      EXPECT_EQ(path.hops(), bfs.distances()[d]) << s << "->" << d;
      EXPECT_EQ(path.hops(), torus.route_distance(s, d));
    }
  }
}

TEST(Torus, RouteWalksRealLinks) {
  const TorusTopology torus({5, 5});
  Path path;
  torus.route(0, 18, path);
  NodeId current = 0;
  for (const LinkId l : path.links) {
    EXPECT_EQ(torus.graph().link(l).src, current);
    current = torus.graph().link(l).dst;
  }
  EXPECT_EQ(current, 18u);
}

TEST(Torus, SelfRouteIsEmpty) {
  const TorusTopology torus({4, 4});
  Path path;
  torus.route(7, 7, path);
  EXPECT_EQ(path.hops(), 0u);
}

TEST(Torus, WrapChosenWhenShorter) {
  const TorusTopology torus({8});
  // 0 -> 6: forward 6 hops, backward 2. DOR must take the wrap.
  EXPECT_EQ(torus.route_distance(0, 6), 2u);
  EXPECT_EQ(torus.route_distance(0, 4), 4u);  // tie -> still 4 hops
}

TEST(Torus, AdversarialPairAttainsDiameter) {
  const TorusTopology torus({6, 4, 2});
  const auto pairs = torus.adversarial_pairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(torus.route_distance(pairs[0].first, pairs[0].second),
            3u + 2u + 1u);
}

TEST(Torus, PaperScaleReferenceShape) {
  // The paper's full-scale torus: 2^17 nodes as 64x64x32, diameter 80,
  // average distance 40 (Table 1 caption). Check the shape rule and the
  // diameter arithmetic without building the graph.
  const auto dims = balanced_pow2_dims(131072, 3);
  EXPECT_EQ(dims, (std::vector<std::uint32_t>{64, 64, 32}));
  EXPECT_EQ(64 / 2 + 64 / 2 + 32 / 2, 80);
}

TEST(Torus, BalancedDimsRejectNonPowerOfTwo) {
  EXPECT_THROW(balanced_pow2_dims(100, 3), std::invalid_argument);
  EXPECT_THROW(balanced_pow2_dims(0, 3), std::invalid_argument);
}

TEST(Torus, BalancedDimsSmall) {
  EXPECT_EQ(balanced_pow2_dims(8, 3), (std::vector<std::uint32_t>{2, 2, 2}));
  EXPECT_EQ(balanced_pow2_dims(16, 3), (std::vector<std::uint32_t>{4, 2, 2}));
  EXPECT_EQ(balanced_pow2_dims(4096, 3),
            (std::vector<std::uint32_t>{16, 16, 16}));
}

TEST(Torus, Name) {
  EXPECT_EQ(TorusTopology({4, 4, 2}).name(), "Torus3D(4x4x2)");
}

TEST(TorusDorDistance, MatchesManual) {
  const GridShape shape({8, 8, 8});
  // (0,0,0) -> (4,3,7): 4 + 3 + 1(wrap) = 8.
  EXPECT_EQ(torus_dor_distance(shape, shape.index_of({0, 0, 0}),
                               shape.index_of({4, 3, 7})),
            8u);
}

}  // namespace
}  // namespace nestflow
