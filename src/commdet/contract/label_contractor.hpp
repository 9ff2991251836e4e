// Label-keyed contraction: collapses a graph by an arbitrary dense
// labeling instead of a matching.
//
// This is the paper's bucket-sort contraction generalized from "each
// community absorbs at most one partner" to "any vertex -> community
// map": counting pass, scatter into first-vertex buckets, per-bucket
// sort-and-accumulate, contiguous copy-out.  That kernel is
// accumulate_buckets() in graph/builder.hpp, the same one that builds
// the input graph and contracts every agglomeration level, so every
// placement invariant of CommunityGraph (hashed edge order, sorted
// buckets) holds by construction.
//
// Two subsystems share it: the dyn/ warm-start path (contract the
// surviving assignment into a seeded community graph) and the parallel
// Louvain backend (aggregate a level's local-move labeling into the
// next coarser graph).  Keeping one implementation is the point — the
// aggregation step of Louvain IS a seeded contraction.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "commdet/graph/builder.hpp"
#include "commdet/graph/community_graph.hpp"
#include "commdet/graph/edge_list.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

/// Contracts `base` by the dense labeling `labels` (values in
/// [0, num_labels)): every label class becomes one vertex carrying its
/// members' collapsed internal weight as a self-loop; volumes and total
/// weight are preserved exactly (both are additive under contraction).
template <VertexId V>
[[nodiscard]] CommunityGraph<V> contract_by_labels(const CommunityGraph<V>& base,
                                                   std::span<const V> labels,
                                                   std::int64_t num_labels) {
  CommunityGraph<V> out;
  out.nv = static_cast<V>(num_labels);
  out.total_weight = base.total_weight;
  // Relabelled edges go through the builder's bucket-sort kernel; an
  // edge inside one class arrives as a self-loop and folds into it.
  accumulate_buckets(out, base.num_edges(), [&](std::int64_t i) {
    const auto ii = static_cast<std::size_t>(i);
    return RawEdge<V>{labels[static_cast<std::size_t>(base.efirst[ii])],
                      labels[static_cast<std::size_t>(base.esecond[ii])], base.eweight[ii]};
  });

  // Per-vertex state is additive under contraction: volumes scatter-add,
  // member self-loops fold into the community self weight.
  out.volume.assign(static_cast<std::size_t>(num_labels), 0);
  parallel_for(static_cast<std::int64_t>(base.nv), [&](std::int64_t v) {
    const auto vi = static_cast<std::size_t>(v);
    const auto c = static_cast<std::size_t>(labels[vi]);
    std::atomic_ref<Weight>(out.volume[c])
        .fetch_add(base.volume[vi], std::memory_order_relaxed);
    if (base.self_weight[vi] > 0)
      std::atomic_ref<Weight>(out.self_weight[c])
          .fetch_add(base.self_weight[vi], std::memory_order_relaxed);
  });
  return out;
}

}  // namespace commdet
