#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "commdet/gen/rmat.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/stats.hpp"
#include "commdet/graph/validate.hpp"
#include "commdet/util/rng.hpp"
#include "sort_reference.hpp"

namespace commdet {
namespace {

template <typename V>
class BuilderTypedTest : public ::testing::Test {};

using VertexTypes = ::testing::Types<std::int32_t, std::int64_t>;
TYPED_TEST_SUITE(BuilderTypedTest, VertexTypes);

TYPED_TEST(BuilderTypedTest, HashedOrderRespectsParityRule) {
  using V = TypeParam;
  // Same parity -> (min, max).
  EXPECT_EQ(hashed_edge_order<V>(2, 4), (std::pair<V, V>{2, 4}));
  EXPECT_EQ(hashed_edge_order<V>(4, 2), (std::pair<V, V>{2, 4}));
  EXPECT_EQ(hashed_edge_order<V>(3, 7), (std::pair<V, V>{3, 7}));
  // Mixed parity -> (max, min).
  EXPECT_EQ(hashed_edge_order<V>(2, 5), (std::pair<V, V>{5, 2}));
  EXPECT_EQ(hashed_edge_order<V>(5, 2), (std::pair<V, V>{5, 2}));
}

TYPED_TEST(BuilderTypedTest, TriangleBuildsValidGraph) {
  using V = TypeParam;
  EdgeList<V> el;
  el.num_vertices = 3;
  el.add(0, 1);
  el.add(1, 2);
  el.add(0, 2);
  const auto g = build_community_graph(el);
  EXPECT_TRUE(validate_graph(g).ok()) << validate_graph(g).error;
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.total_weight, 3);
  // Triangle: every vertex has volume 2 (two unit edges).
  for (int v = 0; v < 3; ++v) EXPECT_EQ(g.volume[static_cast<std::size_t>(v)], 2);
}

TYPED_TEST(BuilderTypedTest, AccumulatesRepeatedEdges) {
  using V = TypeParam;
  EdgeList<V> el;
  el.num_vertices = 2;
  el.add(0, 1, 2);
  el.add(1, 0, 3);
  el.add(0, 1, 5);
  const auto g = build_community_graph(el);
  ASSERT_TRUE(validate_graph(g).ok()) << validate_graph(g).error;
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.eweight[0], 10);
  EXPECT_EQ(g.total_weight, 10);
}

TYPED_TEST(BuilderTypedTest, FoldsSelfLoopsIntoSelfWeight) {
  using V = TypeParam;
  EdgeList<V> el;
  el.num_vertices = 3;
  el.add(0, 0, 4);
  el.add(0, 0, 1);
  el.add(1, 2, 7);
  const auto g = build_community_graph(el);
  ASSERT_TRUE(validate_graph(g).ok()) << validate_graph(g).error;
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.self_weight[0], 5);
  EXPECT_EQ(g.volume[0], 10);  // 2 * self
  EXPECT_EQ(g.total_weight, 12);
}

TYPED_TEST(BuilderTypedTest, RejectsBadInput) {
  using V = TypeParam;
  EdgeList<V> el;
  el.num_vertices = 2;
  el.add(0, 2);  // out of range
  EXPECT_THROW((void)build_community_graph(el), std::invalid_argument);

  EdgeList<V> el2;
  el2.num_vertices = 2;
  el2.edges.push_back({0, 1, 0});  // non-positive weight
  EXPECT_THROW((void)build_community_graph(el2), std::invalid_argument);

  EdgeList<V> el3;
  el3.num_vertices = 2;
  el3.edges.push_back({V{-1}, 1, 1});
  EXPECT_THROW((void)build_community_graph(el3), std::invalid_argument);
}

TYPED_TEST(BuilderTypedTest, EmptyGraph) {
  using V = TypeParam;
  EdgeList<V> el;
  el.num_vertices = 5;
  const auto g = build_community_graph(el);
  ASSERT_TRUE(validate_graph(g).ok());
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.total_weight, 0);
}

TYPED_TEST(BuilderTypedTest, MemoryFootprintMatchesPaperBudget) {
  using V = TypeParam;
  EdgeList<V> el;
  el.num_vertices = 100;
  for (V v = 0; v + 1 < 100; ++v) el.add(v, v + 1);
  const auto g = build_community_graph(el);
  // Paper budget: 3|V| + 3|E| words (+ our extra |V| volume array).
  const std::size_t expected =
      100 * (2 * sizeof(EdgeId) + 2 * sizeof(Weight)) + 99 * (2 * sizeof(V) + sizeof(Weight));
  EXPECT_EQ(g.memory_bytes(), expected);
  // The 32-bit instantiation is strictly smaller per edge.
  if constexpr (std::is_same_v<V, std::int32_t>) {
    EXPECT_LT(g.memory_bytes(), 100 * 32 + 99 * 24);
  }
}

// The builder's arrays are canonical; sort_reference_build() computes
// them with one serial std::sort of the triples.
TYPED_TEST(BuilderTypedTest, MatchesSortReferenceOnRmatAtOneAndFourThreads) {
  using V = TypeParam;
  RmatParams params;
  params.scale = 12;
  params.edge_factor = 8;
  params.seed = 5;
  auto el = generate_rmat<V>(params);
  // R-MAT draws repeated pairs on its own; add explicit self-loops and
  // weighted repeats on top so every fold path runs.
  for (V v = 0; v < 64; ++v) el.add(v, v, 1 + v % 3);
  for (V v = 0; v < 64; ++v) el.add(v + 1, v, 2);
  for (V v = 0; v < 64; ++v) el.add(v, v + 1, 3);
  const auto expected = sort_reference_build(el);
  ASSERT_LT(expected.num_edges(), el.num_edges() - 192);  // repeats were folded

  const int saved = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    const auto g = build_community_graph(el);
    const auto check = validate_graph(g);
    EXPECT_TRUE(check.ok()) << threads << " threads: " << check.error;
    EXPECT_EQ(g.efirst, expected.efirst) << threads << " threads";
    EXPECT_EQ(g.esecond, expected.esecond) << threads << " threads";
    EXPECT_EQ(g.eweight, expected.eweight) << threads << " threads";
    EXPECT_EQ(g.bucket_begin, expected.bucket_begin) << threads << " threads";
    EXPECT_EQ(g.bucket_end, expected.bucket_end) << threads << " threads";
    EXPECT_EQ(g.self_weight, expected.self_weight) << threads << " threads";
    EXPECT_EQ(g.volume, expected.volume) << threads << " threads";
    EXPECT_EQ(g.total_weight, expected.total_weight) << threads << " threads";
  }
  omp_set_num_threads(saved);
}

// accumulate_buckets() cuts the edge range into at most
// min(threads, 4 ne / nv) chunks with private histograms.  The output
// must not depend on that cut, and the histograms must stay O(E + V): an
// input with about one edge per two buckets gets two chunks at any team
// size of two or more.
TYPED_TEST(BuilderTypedTest, AccumulateBucketsIsChunkingInvariantWithBoundedHistograms) {
  using V = TypeParam;
  RmatParams params;
  params.scale = 11;
  params.edge_factor = 8;
  params.seed = 9;
  const auto dense = generate_rmat<V>(params);
  EdgeList<V> sparse;
  sparse.num_vertices = 4096;
  for (V v = 0; v + 1 < 2048; ++v) sparse.add(v, v + 1, 1 + v % 4);
  for (V v = 0; v < 32; ++v) sparse.add(v + 1, v, 2);
  for (V v = 0; v < 32; ++v) sparse.add(v, v, 5);
  ASSERT_EQ(4 * sparse.num_edges() / sparse.num_vertices, 2);

  const int saved = omp_get_max_threads();
  for (const EdgeList<V>* el : {&dense, static_cast<const EdgeList<V>*>(&sparse)}) {
    const auto expected = sort_reference_build(*el);
    const std::int64_t ne = el->num_edges();
    const std::int64_t nb = el->num_vertices;
    const auto self_loops = std::count_if(el->edges.begin(), el->edges.end(),
                                          [](const RawEdge<V>& e) { return e.u == e.v; });
    for (const int threads : {1, 2, 3, 4}) {
      omp_set_num_threads(threads);
      CommunityGraph<V> g;
      g.nv = el->num_vertices;
      const BucketPass pass = accumulate_buckets(
          g, ne, [&](std::int64_t i) { return el->edges[static_cast<std::size_t>(i)]; });
      EXPECT_EQ(g.efirst, expected.efirst) << threads << " threads";
      EXPECT_EQ(g.esecond, expected.esecond) << threads << " threads";
      EXPECT_EQ(g.eweight, expected.eweight) << threads << " threads";
      EXPECT_EQ(g.bucket_begin, expected.bucket_begin) << threads << " threads";
      EXPECT_EQ(g.bucket_end, expected.bucket_end) << threads << " threads";
      EXPECT_EQ(g.self_weight, expected.self_weight) << threads << " threads";
      EXPECT_EQ(pass.live, ne - self_loops) << threads << " threads";
      // 16 bytes of histogram per bucket and chunk, one 16-byte slot per
      // scattered edge, and the output arrays.
      const std::int64_t chunks =
          std::min<std::int64_t>(threads, std::max<std::int64_t>(1, 4 * ne / nb));
      const auto out_bytes =
          g.num_edges() * static_cast<std::int64_t>(2 * sizeof(V) + sizeof(Weight));
      EXPECT_EQ(pass.bytes_moved, 16 * nb * chunks + 16 * pass.live + out_bytes)
          << threads << " threads";
    }
  }
  omp_set_num_threads(saved);
}

// Property sweep: random multigraphs of varying density build into valid
// graphs whose totals match a serial reference.
class BuilderPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::int32_t, std::int64_t, std::uint64_t>> {};

TEST_P(BuilderPropertyTest, RandomMultigraphInvariants) {
  const auto [nv, ne, seed] = GetParam();
  CounterRng rng(seed);
  EdgeList<std::int32_t> el;
  el.num_vertices = nv;
  Weight expected_total = 0;
  for (std::int64_t i = 0; i < ne; ++i) {
    const auto u = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(3 * i), static_cast<std::uint64_t>(nv)));
    const auto v = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(3 * i + 1), static_cast<std::uint64_t>(nv)));
    const auto w = static_cast<Weight>(1 + rng.below(static_cast<std::uint64_t>(3 * i + 2), 5));
    el.add(u, v, w);
    expected_total += w;
  }
  const auto g = build_community_graph(el);
  const auto check = validate_graph(g);
  ASSERT_TRUE(check.ok()) << check.error;
  EXPECT_EQ(g.total_weight, expected_total);
  const auto s = graph_stats(g);
  EXPECT_EQ(s.num_vertices, nv);
  EXPECT_LE(s.num_edges, ne);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BuilderPropertyTest,
    ::testing::Values(std::tuple{10, std::int64_t{50}, std::uint64_t{1}},
                      std::tuple{100, std::int64_t{1000}, std::uint64_t{2}},
                      std::tuple{1000, std::int64_t{20000}, std::uint64_t{3}},
                      std::tuple{17, std::int64_t{500}, std::uint64_t{4}},
                      std::tuple{2, std::int64_t{100}, std::uint64_t{5}},
                      std::tuple{1, std::int64_t{20}, std::uint64_t{6}}));

}  // namespace
}  // namespace commdet
