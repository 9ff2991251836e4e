#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "commdet/contract/bucket_sort_contractor.hpp"
#include "commdet/contract/hash_chain_contractor.hpp"
#include "commdet/contract/spgemm_contractor.hpp"
#include "commdet/gen/erdos_renyi.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/gen/simple_graphs.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/validate.hpp"
#include "commdet/match/matching.hpp"
#include "commdet/match/sequential_greedy_matcher.hpp"
#include "commdet/match/unmatched_list_matcher.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/score/score_edges.hpp"
#include "commdet/score/scorers.hpp"
#include "commdet/shard/shard_contract.hpp"
#include "sort_reference.hpp"

namespace commdet {
namespace {

using V32 = std::int32_t;

template <typename V>
Matching<V> match_pairs(std::int64_t nv, std::vector<std::pair<V, V>> pairs) {
  Matching<V> m;
  m.mate.assign(static_cast<std::size_t>(nv), kNoVertex<V>);
  for (const auto& [a, b] : pairs) {
    m.mate[static_cast<std::size_t>(a)] = b;
    m.mate[static_cast<std::size_t>(b)] = a;
    ++m.num_pairs;
  }
  return m;
}

/// Canonical multiset of (min, max, weight) edges for graph comparison.
template <typename V>
std::map<std::pair<std::int64_t, std::int64_t>, Weight> edge_multiset(
    const CommunityGraph<V>& g) {
  std::map<std::pair<std::int64_t, std::int64_t>, Weight> out;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto i = static_cast<std::size_t>(e);
    const auto lo = std::min<std::int64_t>(g.efirst[i], g.esecond[i]);
    const auto hi = std::max<std::int64_t>(g.efirst[i], g.esecond[i]);
    out[{lo, hi}] += g.eweight[i];
  }
  return out;
}

enum class CKind { kBucket, kHash, kSpGemm };

template <typename V>
ContractionResult<V> run(CKind kind, const CommunityGraph<V>& g, const Matching<V>& m) {
  if (kind == CKind::kHash) return HashChainContractor<V>{}.contract(g, m);
  if (kind == CKind::kSpGemm) return SpGemmContractor<V>{}.contract(g, m);
  return BucketSortContractor<V>{}.contract(g, m);
}

class ContractorTest : public ::testing::TestWithParam<CKind> {};

TEST_P(ContractorTest, PathContractionMergesPairs) {
  // Path 0-1-2-3, match (0,1) and (2,3):
  // new graph: 2 vertices, one edge of weight 1, self weights 1 each.
  const auto g = build_community_graph(make_path<V32>(4));
  const auto m = match_pairs<V32>(4, {{0, 1}, {2, 3}});
  const auto r = run(GetParam(), g, m);
  ASSERT_TRUE(validate_graph(r.graph).ok()) << validate_graph(r.graph).error;
  EXPECT_EQ(r.graph.num_vertices(), 2);
  EXPECT_EQ(r.graph.num_edges(), 1);
  EXPECT_EQ(r.graph.eweight[0], 1);
  EXPECT_EQ(r.graph.self_weight[0], 1);
  EXPECT_EQ(r.graph.self_weight[1], 1);
  EXPECT_EQ(r.graph.total_weight, g.total_weight);
  EXPECT_EQ(r.new_label[0], r.new_label[1]);
  EXPECT_EQ(r.new_label[2], r.new_label[3]);
  EXPECT_NE(r.new_label[0], r.new_label[2]);
}

TEST_P(ContractorTest, ParallelEdgesAccumulateOnContraction) {
  // Square 0-1-2-3-0.  Match (0,1) and (2,3): the two cross edges
  // {1,2} and {3,0} become parallel edges between the two new vertices
  // and must accumulate to weight 2.
  const auto g = build_community_graph(make_cycle<V32>(4));
  const auto m = match_pairs<V32>(4, {{0, 1}, {2, 3}});
  const auto r = run(GetParam(), g, m);
  ASSERT_TRUE(validate_graph(r.graph).ok()) << validate_graph(r.graph).error;
  EXPECT_EQ(r.graph.num_vertices(), 2);
  EXPECT_EQ(r.graph.num_edges(), 1);
  EXPECT_EQ(r.graph.eweight[0], 2);
  EXPECT_EQ(r.graph.total_weight, 4);
}

TEST_P(ContractorTest, EmptyMatchingKeepsGraphIsomorphic) {
  const auto g = build_community_graph(make_clique<V32>(6));
  Matching<V32> m;
  m.mate.assign(6, kNoVertex<V32>);
  const auto r = run(GetParam(), g, m);
  ASSERT_TRUE(validate_graph(r.graph).ok());
  EXPECT_EQ(r.graph.num_vertices(), 6);
  EXPECT_EQ(r.graph.num_edges(), g.num_edges());
  EXPECT_EQ(edge_multiset(r.graph), edge_multiset(g));
}

TEST_P(ContractorTest, SelfLoopsPropagateThroughMerges) {
  EdgeList<V32> el;
  el.num_vertices = 2;
  el.add(0, 0, 3);
  el.add(1, 1, 4);
  el.add(0, 1, 2);
  const auto g = build_community_graph(el);
  const auto m = match_pairs<V32>(2, {{0, 1}});
  const auto r = run(GetParam(), g, m);
  ASSERT_TRUE(validate_graph(r.graph).ok());
  EXPECT_EQ(r.graph.num_vertices(), 1);
  EXPECT_EQ(r.graph.num_edges(), 0);
  EXPECT_EQ(r.graph.self_weight[0], 9);  // 3 + 4 + merged edge 2
  EXPECT_EQ(r.graph.volume[0], 18);
  EXPECT_EQ(r.graph.total_weight, 9);
}

class ContractorPropertyTest
    : public ::testing::TestWithParam<std::tuple<CKind, std::uint64_t>> {};

TEST_P(ContractorPropertyTest, RandomGraphInvariantsSurviveRepeatedContraction) {
  const auto [kind, seed] = GetParam();
  auto g = build_community_graph(generate_erdos_renyi<V32>(500, 3000, seed));
  const Weight w0 = g.total_weight;
  std::vector<Score> scores;
  // Contract repeatedly with greedy matchings until exhausted.
  for (int level = 0; level < 20 && g.num_vertices() > 1; ++level) {
    score_edges(g, HeavyEdgeScorer{}, scores);
    const auto m = SequentialGreedyMatcher<V32>{}.match(g, scores);
    if (m.num_pairs == 0) break;
    auto r = run(kind, g, m);
    ASSERT_TRUE(validate_graph(r.graph).ok()) << validate_graph(r.graph).error;
    ASSERT_EQ(r.graph.total_weight, w0);  // weight conservation
    ASSERT_EQ(r.graph.num_vertices(), g.num_vertices() - static_cast<V32>(m.num_pairs));
    // Labels must be dense and consistent with the matching.
    for (V32 v = 0; v < g.num_vertices(); ++v) {
      const V32 p = m.mate[static_cast<std::size_t>(v)];
      ASSERT_GE(r.new_label[static_cast<std::size_t>(v)], 0);
      ASSERT_LT(r.new_label[static_cast<std::size_t>(v)], r.graph.num_vertices());
      if (p != kNoVertex<V32>) {
        ASSERT_EQ(r.new_label[static_cast<std::size_t>(v)], r.new_label[static_cast<std::size_t>(p)]);
      }
    }
    g = std::move(r.graph);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ContractorPropertyTest,
    ::testing::Combine(::testing::Values(CKind::kBucket, CKind::kHash, CKind::kSpGemm),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(ContractorEquivalence, BothContractorsProduceIdenticalGraphs) {
  RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  const auto g = build_community_graph(generate_rmat<V32>(p));
  std::vector<Score> scores;
  score_edges(g, ModularityScorer{}, scores);
  const auto m = SequentialGreedyMatcher<V32>{}.match(g, scores);
  ASSERT_GT(m.num_pairs, 0);
  const auto a = BucketSortContractor<V32>{}.contract(g, m);
  const auto b = HashChainContractor<V32>{}.contract(g, m);
  const auto c = SpGemmContractor<V32>{}.contract(g, m);
  EXPECT_EQ(a.new_label, b.new_label);
  EXPECT_EQ(a.graph.num_vertices(), b.graph.num_vertices());
  EXPECT_EQ(a.graph.self_weight, b.graph.self_weight);
  EXPECT_EQ(a.graph.volume, b.graph.volume);
  EXPECT_EQ(edge_multiset(a.graph), edge_multiset(b.graph));
  // The SpGEMM formulation (A' = S^T A S) is bit-identical too: same
  // labels, same self weights, same sorted buckets.
  EXPECT_EQ(a.new_label, c.new_label);
  EXPECT_EQ(a.graph.self_weight, c.graph.self_weight);
  EXPECT_EQ(a.graph.volume, c.graph.volume);
  EXPECT_EQ(a.graph.efirst, c.graph.efirst);
  EXPECT_EQ(a.graph.esecond, c.graph.esecond);
  EXPECT_EQ(a.graph.eweight, c.graph.eweight);
}

/// Serial reference for one contraction: leader = min endpoint of each
/// matched pair, dense ids in leader order; relabelled edges sorted and
/// accumulated by sort_reference_build(); self weights and volumes
/// summed per new vertex.
template <VertexId V>
ContractionResult<V> reference_contract(const CommunityGraph<V>& g, const Matching<V>& m) {
  const auto nv = static_cast<std::size_t>(g.nv);
  std::vector<V> id(nv, kNoVertex<V>);
  V new_nv = 0;
  for (std::size_t v = 0; v < nv; ++v) {
    const V p = m.mate[v];
    if (p == kNoVertex<V> || p > static_cast<V>(v)) id[v] = new_nv++;
  }
  ContractionResult<V> r;
  r.new_label.resize(nv);
  for (std::size_t v = 0; v < nv; ++v) {
    const V p = m.mate[v];
    r.new_label[v] = id[p == kNoVertex<V> || p > static_cast<V>(v) ? v : static_cast<std::size_t>(p)];
  }
  EdgeList<V> el;
  el.num_vertices = new_nv;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto i = static_cast<std::size_t>(e);
    el.add(r.new_label[static_cast<std::size_t>(g.efirst[i])],
           r.new_label[static_cast<std::size_t>(g.esecond[i])], g.eweight[i]);
  }
  r.graph = sort_reference_build(el);
  r.graph.volume.assign(static_cast<std::size_t>(new_nv), 0);
  for (std::size_t v = 0; v < nv; ++v) {
    const auto c = static_cast<std::size_t>(r.new_label[v]);
    r.graph.self_weight[c] += g.self_weight[v];
    r.graph.volume[c] += g.volume[v];
  }
  r.graph.total_weight = g.total_weight;
  return r;
}

template <typename V>
class BucketSortContractorTypedTest : public ::testing::Test {};

using VertexTypes = ::testing::Types<std::int32_t, std::int64_t>;
TYPED_TEST_SUITE(BucketSortContractorTypedTest, VertexTypes);

// Every level of a full agglomeration, at 1, 2 and 4 threads: the
// contractor's arrays equal the serial reference's, element for element.
TYPED_TEST(BucketSortContractorTypedTest, EveryLevelMatchesSerialReferenceAtOneTwoFourThreads) {
  using V = TypeParam;
  RmatParams p;
  p.scale = 14;
  p.edge_factor = 8;
  p.seed = 7;
  const auto input = build_community_graph(generate_rmat<V>(p));
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 2, 4}) {
    omp_set_num_threads(threads);
    auto g = input;
    std::vector<Score> scores;
    int level = 0;
    for (; level < 10000 && g.num_vertices() > 1; ++level) {
      score_edges(g, ModularityScorer{}, scores);
      const auto m = UnmatchedListMatcher<V>{}.match(g, scores);
      if (m.num_pairs == 0) break;
      auto r = BucketSortContractor<V>{}.contract(g, m);
      const auto want = reference_contract(g, m);
      const auto where = [&] {
        return ::testing::Message() << threads << " threads, level " << level;
      };
      ASSERT_EQ(r.new_label, want.new_label) << where();
      ASSERT_EQ(r.graph.nv, want.graph.nv) << where();
      ASSERT_EQ(r.graph.efirst, want.graph.efirst) << where();
      ASSERT_EQ(r.graph.esecond, want.graph.esecond) << where();
      ASSERT_EQ(r.graph.eweight, want.graph.eweight) << where();
      ASSERT_EQ(r.graph.bucket_begin, want.graph.bucket_begin) << where();
      ASSERT_EQ(r.graph.bucket_end, want.graph.bucket_end) << where();
      ASSERT_EQ(r.graph.self_weight, want.graph.self_weight) << where();
      ASSERT_EQ(r.graph.volume, want.graph.volume) << where();
      ASSERT_EQ(r.graph.total_weight, want.graph.total_weight) << where();
      g = std::move(r.graph);
    }
    EXPECT_GT(level, 5) << threads << " threads";
  }
  omp_set_num_threads(saved);
}

// The contract.* counters describe agglomeration levels only: the input
// build shares the kernel but must not add to them.
TEST(ContractorCounters, CountLevelContractionsOnly) {
  obs::MetricsRegistry reg;
  obs::MetricsSession session(reg);
  // Path 0-1-2-3-4 with a repeat of {1,2}: match (0,1) and (2,3).
  EdgeList<V32> el;
  el.num_vertices = 5;
  el.add(0, 1);
  el.add(1, 2);
  el.add(2, 3);
  el.add(3, 4);
  el.add(2, 1);
  const auto g = build_community_graph(el);
  EXPECT_EQ(reg.snapshot().count("contract.edges_in"), 0u);
  // One thread, so the kernel cuts the edges into one chunk.
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const auto r = BucketSortContractor<V32>{}.contract(g, match_pairs<V32>(5, {{0, 1}, {2, 3}}));
  omp_set_num_threads(saved);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("contract.edges_in"), 4);
  EXPECT_EQ(snap.at("contract.self_edges_folded"), 2);  // {0,1} and {2,3}
  EXPECT_EQ(snap.at("contract.edges_out"), r.graph.num_edges());
  EXPECT_EQ(r.graph.num_edges(), 2);
  // Histograms (one chunk: 16 B x 3 buckets), two 16-byte slots, and
  // two copied-out edges of 4 + 4 + 8 bytes.
  EXPECT_EQ(snap.at("contract.scratch_bytes_moved"), 16 * 3 + 2 * 16 + 2 * 16);
}

// The sharded contraction reports the same counters by the same formula:
// histograms, one scatter slot per live edge, copy-out.
TEST(ContractorCounters, ShardedContractionCountsTheSameParts) {
  EdgeList<V32> el;
  el.num_vertices = 5;
  el.add(0, 1);
  el.add(1, 2);
  el.add(2, 3);
  el.add(3, 4);
  el.add(2, 1);
  auto sg = partition_graph(build_community_graph(el), 1);
  obs::MetricsRegistry reg;
  obs::MetricsSession session(reg);
  const auto r = contract_sharded(sg, match_pairs<V32>(5, {{0, 1}, {2, 3}}));
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("contract.edges_in"), 4);
  EXPECT_EQ(snap.at("contract.self_edges_folded"), 2);
  EXPECT_EQ(snap.at("contract.edges_out"), 2);
  EXPECT_EQ(r.graph.nv, 3);
  // Bucket counts and group cursors (8 B per coarse vertex each, plus
  // the prefix's end), two (4 + 8)-byte scatter slots, and two
  // copied-out edges of 4 + 4 + 8 bytes.
  EXPECT_EQ(snap.at("contract.scratch_bytes_moved"), 8 * (2 * 3 + 1) + 2 * 12 + 2 * 16);
}

INSTANTIATE_TEST_SUITE_P(AllContractors, ContractorTest,
                         ::testing::Values(CKind::kBucket, CKind::kHash, CKind::kSpGemm),
                         [](const auto& info) {
                           switch (info.param) {
                             case CKind::kBucket: return "BucketSort";
                             case CKind::kHash: return "HashChain";
                             case CKind::kSpGemm: return "SpGemm";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace commdet
