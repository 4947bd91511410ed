#include "route/search_workspace.hpp"

#include <algorithm>

namespace tw {

void SearchWorkspace::bind(const RoutingGraph& g) {
  const std::size_t n = g.num_nodes();
  const std::size_t m = g.num_edges();
  if (dist_gen_.size() < n) {
    dist_gen_.resize(n, 0);
    target_gen_.resize(n, 0);
    label_gen_.resize(n, 0);
    nblock_gen_.resize(n, 0);
    dist_.resize(n, kInf);
    via_.resize(n, kNoEdge);
    label_.resize(n, -1);
    hdist_gen_.resize(n, 0);
    hdone_gen_.resize(n, 0);
    hmark_gen_.resize(n, 0);
    hdist_.resize(n, kInf);
  }
  if (eblock_gen_.size() < m) eblock_gen_.resize(m, 0);

  // Derive (incrementally — graphs are append-only) the largest scale
  // `alpha` with alpha * manhattan(pos(a), pos(b)) <= length for every
  // edge. When every edge is at least its endpoint manhattan distance the
  // scale is exactly 1 (the channel-graph case: lengths are exact
  // manhattans, so h is tight); otherwise the minimum length/manhattan
  // ratio is shaved by a relative 1e-12 so that float rounding in
  // `h = alpha * manhattan` can never tip the heuristic above a true
  // remaining distance. A fresh uid or a shrunken edge count (the graph
  // was moved-from and refilled) restarts the scan.
  if (g.uid() != bound_uid_ || m < scanned_edges_) {
    bound_uid_ = g.uid();
    scanned_edges_ = 0;
    all_at_least_manhattan_ = true;
    min_ratio_ = kInf;
  }
  const auto& edges = g.edges();
  for (std::size_t i = scanned_edges_; i < m; ++i) {
    const GraphEdge& e = edges[i];
    const double md =
        static_cast<double>(manhattan(g.node_pos(e.a), g.node_pos(e.b)));
    if (md <= 0.0) continue;  // coincident endpoints constrain nothing
    if (e.length < md) all_at_least_manhattan_ = false;
    min_ratio_ = std::min(min_ratio_, e.length / md);
  }
  scanned_edges_ = m;
  if (all_at_least_manhattan_)
    alpha_ = 1.0;
  else
    alpha_ = std::max(0.0, min_ratio_ * (1.0 - 1e-12));
}

void SearchWorkspace::arm_exact_heuristic(const RoutingGraph& g,
                                          std::span<const NodeId> targets) {
  key_scratch_.assign(targets.begin(), targets.end());
  std::sort(key_scratch_.begin(), key_scratch_.end());
  key_scratch_.erase(std::unique(key_scratch_.begin(), key_scratch_.end()),
                     key_scratch_.end());
  exact_h_on_ = true;
  if (!htargets_.empty() && g.uid() == huid_ &&
      g.num_edges() == hnum_edges_ && key_scratch_ == htargets_)
    return;  // resume the kept sweep

  bind(g);
  ++counters.dijkstra_runs;
  hgraph_ = &g;
  hgen_ = ++gen_;
  huid_ = g.uid();
  hnum_edges_ = g.num_edges();
  htargets_.swap(key_scratch_);
  hheap_.clear();
  // Seeded in the caller's order, duplicates once — as a full search()
  // from the targets would be.
  for (NodeId t : targets) {
    const auto i = static_cast<std::size_t>(t);
    if (hdist_gen_[i] == hgen_) continue;
    hdist_gen_[i] = hgen_;
    hdist_[i] = 0.0;
    ++counters.heap_pushes;
    heap_insert(hheap_, {0.0, 0.0, t});
  }
}

bool SearchWorkspace::settle_next(HeapEntry& e) {
  // Plain Dijkstra (f == d), paused between calls: every settle and every
  // relaxation happens exactly as in one uninterrupted sweep.
  const RoutingGraph& g = *hgraph_;
  while (heap_extract(hheap_, e)) {
    const auto u = static_cast<std::size_t>(e.node);
    if (e.d > hdist_[u]) continue;  // stale entry
    ++counters.nodes_popped;
    hdone_gen_[u] = hgen_;
    for (EdgeId eid : g.incident(e.node)) {
      const GraphEdge& ge = g.edge(eid);
      const auto v = static_cast<std::size_t>(ge.other(e.node));
      const double nd = e.d + ge.length;
      if (hdist_gen_[v] == hgen_ && nd >= hdist_[v]) continue;
      hdist_gen_[v] = hgen_;
      hdist_[v] = nd;
      ++counters.heap_pushes;
      heap_insert(hheap_, {nd, nd, static_cast<NodeId>(v)});
    }
    return true;
  }
  return false;
}

double SearchWorkspace::settle_exact_h(NodeId n, double g, double cap) {
  // The floor is the smallest key in the heap. Rounding is monotone, so
  // h(n) >= floor gives g + h(n) >= g + floor: once g + floor > cap, the
  // caller drops `n` whatever h(n) is.
  HeapEntry e;
  while (!hheap_.empty() && g + hheap_.front().d <= cap) {
    if (!settle_next(e)) break;
    if (e.node == n) return e.d;
  }
  return kInf;  // dry (unreachable) or provably over the cap
}

double SearchWorkspace::exact_h_min(std::span<const NodeId> nodes) {
  // Settled nodes lie at most the floor away and unsettled ones at least
  // as far, so a settled member, if any, holds the minimum.
  double best = kInf;
  for (NodeId n : nodes)
    if (hdone_gen_[static_cast<std::size_t>(n)] == hgen_)
      best = std::min(best, hdist_[static_cast<std::size_t>(n)]);
  if (best < kInf) return best;
  const std::uint64_t mark = ++gen_;
  for (NodeId n : nodes) hmark_gen_[static_cast<std::size_t>(n)] = mark;
  HeapEntry e;
  while (settle_next(e))
    if (hmark_gen_[static_cast<std::size_t>(e.node)] == mark) return e.d;
  return kInf;
}

}  // namespace tw
