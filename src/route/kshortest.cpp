#include "route/kshortest.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <tuple>

namespace tw {
namespace {

/// A found path or deviation candidate. Endpoint ranks (indices into the
/// source/target spans) pin down the path completely even when several
/// endpoint nodes could produce the same edge sequence; `dev` is the
/// deviation position this path branched from its parent at — Lawler's
/// refinement re-expands a path from `dev` onward only. Position 0 is the
/// source choice, position q >= 1 is a spur at the q-th node of the path,
/// and position len+1 deviates the target choice from the final node.
struct DevPath {
  std::vector<EdgeId> edges;  ///< real edges, in walk order from src
  double length = 0.0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::int32_t src_rank = 0;
  std::int32_t dst_rank = 0;
  std::size_t dev = 0;
};

/// Candidate ordering: ascending by length, ties broken by source rank,
/// then the edge sequence, then the target rank — fully deterministic. A
/// path that is a strict edge-prefix of another (it stops at an earlier
/// target) orders *after* it, matching the lexicographic order the edge
/// sequences would have with a per-target sentinel edge appended.
struct CandLess {
  bool operator()(const DevPath& a, const DevPath& b) const {
    if (a.length != b.length) return a.length < b.length;
    if (a.src_rank != b.src_rank) return a.src_rank < b.src_rank;
    const std::size_t n = std::min(a.edges.size(), b.edges.size());
    for (std::size_t i = 0; i < n; ++i)
      if (a.edges[i] != b.edges[i]) return a.edges[i] < b.edges[i];
    if (a.edges.size() != b.edges.size()) return a.edges.size() > b.edges.size();
    return a.dst_rank < b.dst_rank;
  }
};

using SeenKey = std::tuple<std::int32_t, std::vector<EdgeId>, std::int32_t>;

/// The deviation algorithm proper. Sources and targets must be disjoint;
/// duplicate entries within a span are collapsed onto their first rank.
std::vector<DevPath> lawler(const RoutingGraph& g,
                            std::span<const NodeId> sources,
                            std::span<const NodeId> targets, int k,
                            SearchWorkspace& ws) {
  std::vector<DevPath> found;
  if (k <= 0 || sources.empty() || targets.empty()) return found;

  ws.bind(g);
  // Rank labels: endpoint node -> index in its span (first occurrence
  // wins). Sources and targets are disjoint, so one label space serves
  // both. Labels survive the searches below (separate generation).
  ws.begin_labels();
  for (std::size_t i = 0; i < sources.size(); ++i)
    if (ws.label(sources[i]) < 0)
      ws.set_label(sources[i], static_cast<std::int32_t>(i));
  for (std::size_t i = 0; i < targets.size(); ++i)
    if (ws.label(targets[i]) < 0)
      ws.set_label(targets[i], static_cast<std::int32_t>(i));

  const PathQuery q;  // blocking happens via workspace marks

  // An unblocked reverse sweep from the targets gives every node's exact
  // distance-to-nearest-target: the (perfect on the unblocked graph,
  // admissible under blocking) heuristic of the first search and of every
  // spur search below. It settles lazily, only as far as those searches
  // ask; a workspace that still holds the sweep for this same graph +
  // target set resumes it — the beam search asks about one pin's
  // alternatives once per beam tree. See search_workspace.hpp.
  if (ws.astar()) ws.arm_exact_heuristic(g, targets);

  PathResult pr;
  auto make_path = [&](std::size_t dev) {
    DevPath p;
    p.edges = pr.edges;
    p.length = pr.length;
    p.src = pr.src;
    p.dst = pr.dst;
    p.src_rank = ws.label(pr.src);
    p.dst_rank = ws.label(pr.dst);
    p.dev = dev;
    return p;
  };

  // With the exact heuristic, the first target pops at f = L, the
  // smallest h over the sources, and no entry above L can pop before it:
  // capping the first search at L drops only entries that never pop.
  // L itself settles the sweep just until the first source settles; the
  // cap then keeps the other sources from being settled at all.
  PathQuery first = q;
  if (ws.exact_heuristic()) {
    const double L = ws.exact_h_min(sources);
    if (L == SearchWorkspace::kInf) {  // no source reaches a target
      ws.clear_exact_heuristic();
      return found;
    }
    first.cost_cap = L + 1e-9 * (1.0 + std::abs(L));  // see the spur cap
  }
  ws.clear_blocks();
  const NodeId first_hit = search(g, sources, targets, first, ws);
  if (first_hit == kInvalidNode) {
    ws.clear_exact_heuristic();
    return found;
  }
  extract_path(g, ws, first_hit, pr);
  found.push_back(make_path(0));

  std::set<DevPath, CandLess> candidates;
  std::set<SeenKey> seen;
  seen.insert({found[0].src_rank, found[0].edges, found[0].dst_rank});

  std::vector<NodeId> prev_nodes;
  std::vector<NodeId> seeds;       // spur / source-deviation seed nodes
  std::vector<NodeId> spur_targets;
  std::vector<char> used_src;      // per source rank
  std::vector<char> excluded_dst;  // per target rank

  while (static_cast<int>(found.size()) < k) {
    const DevPath& prev = found.back();
    prev_nodes = g.walk_nodes(prev.src, prev.edges);
    const std::size_t len = prev.edges.size();

    // Once the candidate set already holds the r remaining paths needed,
    // the r-th best candidate's length caps every useful spur result (the
    // future pops are nondecreasing and each is at most the r-th smallest
    // candidate available now), so the spur searches prune anything
    // provably longer. `prefix_len` tracks the kept prefix's edge lengths
    // as the deviation position advances.
    const std::size_t r_need = static_cast<std::size_t>(k) - found.size();
    double prefix_len = 0.0;
    for (std::size_t j = 1; j < prev.dev; ++j)
      prefix_len += g.edge(prev.edges[j - 1]).length;

    // One spur per deviation position from prev.dev onward. The source
    // deviation (position 0) runs last: its candidates never duplicate
    // another position's (they start at a source no found path uses), so
    // the order changes no candidate, and running last lets it inherit
    // the cap of the candidates the round has found.
    auto spur = [&](std::size_t qpos) {
      ws.clear_blocks();
      std::size_t prefix = 0;  // real edges shared with prev
      if (qpos == 0) {
        // Deviate the source choice: search from every source no found
        // path starts at (all found paths share the empty prefix).
        used_src.assign(sources.size(), 0);
        for (const DevPath& p : found)
          used_src[static_cast<std::size_t>(p.src_rank)] = 1;
        seeds.clear();
        for (std::size_t i = 0; i < sources.size(); ++i) {
          if (ws.label(sources[i]) != static_cast<std::int32_t>(i))
            continue;  // duplicate occurrence of an earlier rank
          if (!used_src[i]) seeds.push_back(sources[i]);
        }
        spur_targets.assign(targets.begin(), targets.end());
      } else {
        prefix = qpos - 1;
        const NodeId spur_node = prev_nodes[prefix];
        // Loopless requirement: the prefix nodes may not be revisited.
        for (std::size_t j = 0; j < prefix; ++j) ws.block_node(prev_nodes[j]);
        // Every found path sharing this source + prefix either continues
        // with a (now blocked) edge, or ends at the spur node — then its
        // target choice is removed from the spur search instead.
        excluded_dst.assign(targets.size(), 0);
        for (const DevPath& p : found) {
          if (p.src_rank != prev.src_rank) continue;
          if (p.edges.size() < prefix) continue;
          if (!std::equal(p.edges.begin(),
                          p.edges.begin() + static_cast<std::ptrdiff_t>(prefix),
                          prev.edges.begin()))
            continue;
          if (p.edges.size() == prefix)
            excluded_dst[static_cast<std::size_t>(p.dst_rank)] = 1;
          else
            ws.block_edge(p.edges[prefix]);
        }
        seeds.assign(1, spur_node);
        spur_targets.clear();
        for (std::size_t i = 0; i < targets.size(); ++i) {
          if (ws.label(targets[i]) != static_cast<std::int32_t>(i)) continue;
          if (!excluded_dst[i]) spur_targets.push_back(targets[i]);
        }
      }
      if (seeds.empty() || spur_targets.empty()) return;

      PathQuery sq = q;
      if (candidates.size() >= r_need) {
        auto cap_it = candidates.begin();
        std::advance(cap_it, static_cast<std::ptrdiff_t>(r_need - 1));
        // Inclusive cap with a relative slack so float drift can never
        // drop a candidate of genuinely equal length.
        sq.cost_cap = cap_it->length - prefix_len +
                      1e-9 * (1.0 + std::abs(cap_it->length));
      }
      const NodeId hit = search(g, seeds, spur_targets, sq, ws);
      if (hit == kInvalidNode) return;
      extract_path(g, ws, hit, pr);

      DevPath cand;
      cand.edges.assign(prev.edges.begin(),
                        prev.edges.begin() + static_cast<std::ptrdiff_t>(prefix));
      cand.edges.insert(cand.edges.end(), pr.edges.begin(), pr.edges.end());
      cand.length = g.path_length(cand.edges);
      cand.src = qpos == 0 ? pr.src : prev.src;
      cand.src_rank = qpos == 0 ? ws.label(pr.src) : prev.src_rank;
      cand.dst = pr.dst;
      cand.dst_rank = ws.label(pr.dst);
      cand.dev = qpos;
      if (seen.insert({cand.src_rank, cand.edges, cand.dst_rank}).second)
        candidates.insert(std::move(cand));
    };
    for (std::size_t qpos = std::max<std::size_t>(prev.dev, 1); qpos <= len + 1;
         ++qpos) {
      spur(qpos);
      if (qpos <= len) prefix_len += g.edge(prev.edges[qpos - 1]).length;
    }
    if (prev.dev == 0) {
      prefix_len = 0.0;
      spur(0);
    }

    if (candidates.empty()) break;
    found.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  ws.clear_exact_heuristic();
  return found;
}

std::vector<PathResult> strip(std::vector<DevPath> found) {
  std::vector<PathResult> out;
  std::set<std::vector<EdgeId>> seen;
  for (DevPath& p : found) {
    if (!seen.insert(p.edges).second) continue;  // defensive; see header
    PathResult r;
    r.edges = std::move(p.edges);
    r.length = p.length;
    r.src = p.src;
    r.dst = p.dst;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

std::vector<PathResult> k_shortest_paths(const RoutingGraph& g, NodeId s,
                                         NodeId t, int k) {
  SearchWorkspace ws;
  return k_shortest_paths(g, s, t, k, ws);
}

std::vector<PathResult> k_shortest_paths(const RoutingGraph& g, NodeId s,
                                         NodeId t, int k, SearchWorkspace& ws) {
  if (s == t) return {};
  const NodeId sources[] = {s};
  const NodeId targets[] = {t};
  return strip(lawler(g, sources, targets, k, ws));
}

std::vector<PathResult> k_shortest_between_sets(
    const RoutingGraph& g, std::span<const NodeId> sources,
    std::span<const NodeId> targets, int k) {
  SearchWorkspace ws;
  return k_shortest_between_sets(g, sources, targets, k, ws);
}

std::vector<PathResult> k_shortest_between_sets(
    const RoutingGraph& g, std::span<const NodeId> sources,
    std::span<const NodeId> targets, int k, SearchWorkspace& ws) {
  if (sources.empty() || targets.empty() || k <= 0) return {};

  // Degenerate case: a target already in the source set -> zero-length path.
  ws.bind(g);
  ws.begin_labels();
  for (NodeId s : sources)
    if (ws.label(s) < 0) ws.set_label(s, 0);
  for (NodeId t : targets)
    if (ws.label(t) >= 0) {
      PathResult r;
      r.src = r.dst = t;
      return {r};
    }

  return strip(lawler(g, sources, targets, k, ws));
}

}  // namespace tw
