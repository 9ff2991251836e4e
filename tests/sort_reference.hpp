// Serial reference for the bucket-sort kernel's canonical output:
// hashed edges sorted by (first, second), repeated pairs summed,
// self-loops folded into self_weight.  One serial std::sort of the
// triples computes them, independent of the parallel kernel.
#pragma once

#include <algorithm>
#include <vector>

#include "commdet/graph/community_graph.hpp"
#include "commdet/graph/edge_list.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

template <VertexId V>
CommunityGraph<V> sort_reference_build(const EdgeList<V>& el) {
  struct Triple {
    V first;
    V second;
    Weight w;
  };
  CommunityGraph<V> g;
  g.nv = el.num_vertices;
  g.self_weight.assign(static_cast<std::size_t>(g.nv), 0);
  std::vector<Triple> triples;
  for (const auto& e : el.edges) {
    if (e.u == e.v) {
      g.self_weight[static_cast<std::size_t>(e.u)] += e.w;
      continue;
    }
    const auto [f, s] = hashed_edge_order(e.u, e.v);
    triples.push_back({f, s, e.w});
  }
  std::sort(triples.begin(), triples.end(), [](const Triple& a, const Triple& b) {
    return a.first != b.first ? a.first < b.first : a.second < b.second;
  });
  for (const Triple& t : triples) {
    if (!g.efirst.empty() && g.efirst.back() == t.first && g.esecond.back() == t.second) {
      g.eweight.back() += t.w;
      continue;
    }
    g.efirst.push_back(t.first);
    g.esecond.push_back(t.second);
    g.eweight.push_back(t.w);
  }
  g.bucket_begin.assign(static_cast<std::size_t>(g.nv), 0);
  g.bucket_end.assign(static_cast<std::size_t>(g.nv), 0);
  EdgeId at = 0;
  for (V v = 0; v < g.nv; ++v) {
    g.bucket_begin[static_cast<std::size_t>(v)] = at;
    while (at < g.num_edges() && g.efirst[static_cast<std::size_t>(at)] == v) ++at;
    g.bucket_end[static_cast<std::size_t>(v)] = at;
  }
  g.recompute_volumes();
  g.total_weight = g.compute_total_weight();
  return g;
}

}  // namespace commdet
