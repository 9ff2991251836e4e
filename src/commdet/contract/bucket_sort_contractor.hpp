// The paper's improved graph contraction (Sec. IV-C).
//
// "After relabeling the vertex endpoints and re-ordering their storage
// according to the hashing, we roughly bucket sort by the first stored
// vertex in each edge.  If a stored edge is (i, j; w), we place (j; w)
// into a bucket associated with vertex i but leave i implicitly defined
// by the bucket.  Within each bucket, we sort by j and accumulate
// identical edges, shortening the bucket.  The buckets then are copied
// back out into the original graph's storage, filling in the i values."
//
// relabel_matched() turns the matching into a dense labelling; the
// relabelled edges then go through accumulate_buckets() in
// graph/builder.hpp, the one bucket-sort kernel that also builds the
// input graph and runs contract_by_labels().  It places edges through
// chunk-private histograms and cursors, so the scatter takes no atomic
// and no lock; the only synchronization is the prefix sums computing
// bucket offsets.  Scratch is one 16-byte (j; w) slot per edge plus the
// histograms, bounded at O(|E| + |V|).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "commdet/contract/relabel.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/community_graph.hpp"
#include "commdet/graph/edge_list.hpp"
#include "commdet/match/matching.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

template <VertexId V>
struct ContractionResult {
  CommunityGraph<V> graph;
  std::vector<V> new_label;  // old community -> new community
};

template <VertexId V>
class BucketSortContractor {
 public:
  [[nodiscard]] ContractionResult<V> contract(const CommunityGraph<V>& g,
                                              const Matching<V>& m) const {
    auto rel = relabel_matched(g, m);
    const EdgeId ne = g.num_edges();

    CommunityGraph<V> out;
    out.nv = rel.new_nv;
    out.total_weight = g.total_weight;
    // An edge inside a new community arrives as a self-loop and folds
    // into its self weight.
    const BucketPass pass = accumulate_buckets(out, ne, [&](std::int64_t i) {
      const auto ii = static_cast<std::size_t>(i);
      return RawEdge<V>{rel.new_label[static_cast<std::size_t>(g.efirst[ii])],
                        rel.new_label[static_cast<std::size_t>(g.esecond[ii])], g.eweight[ii]};
    });
    // The members' own self weights come from the relabel.
    parallel_for(static_cast<std::int64_t>(out.nv), [&](std::int64_t v) {
      out.self_weight[static_cast<std::size_t>(v)] += rel.self_weight[static_cast<std::size_t>(v)];
    });
    out.volume = std::move(rel.volume);

    // Counted here rather than in the shared kernel, so the input build
    // and label contractions stay out of the per-level numbers.
    if (obs::Counter* c = obs::counter("contract.self_edges_folded")) c->add(ne - pass.live);
    if (obs::Counter* c = obs::counter("contract.edges_in")) c->add(ne);
    if (obs::Counter* c = obs::counter("contract.edges_out")) c->add(out.num_edges());
    if (obs::Counter* c = obs::counter("contract.scratch_bytes_moved")) c->add(pass.bytes_moved);

    return {std::move(out), std::move(rel.new_label)};
  }
};

}  // namespace commdet
