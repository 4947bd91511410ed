#include "route/interchange.hpp"

#include <algorithm>
#include <optional>

#include "check/contracts.hpp"
#include "pool/workers.hpp"
#include "route/validate.hpp"
#include "util/log.hpp"

namespace tw {

int total_overflow(const RoutingGraph& g, const std::vector<int>& usage) {
  int x = 0;
  for (std::size_t e = 0; e < usage.size(); ++e) {
    const int over = usage[e] - g.edge(static_cast<EdgeId>(e)).capacity;
    if (over > 0) x += over;
  }
  return x;
}

namespace {

/// Nets per phase-one batch. Each batch's budget charges and kill polls
/// run first, serially and in net order, then its nets are routed across
/// the crew: a budget or cancellation stop takes effect within one batch.
constexpr std::size_t kNetBatch = 128;

}  // namespace

GlobalRouter::GlobalRouter(const RoutingGraph& g, GlobalRouterParams params)
    : g_(g), params_(params) {}

GlobalRouter::~GlobalRouter() = default;

GlobalRouteResult GlobalRouter::route(const std::vector<NetTargets>& nets) {
  GlobalRouteResult r;
  r.alternatives.resize(nets.size());
  r.choice.assign(nets.size(), -1);
  r.edge_usage.assign(g_.num_edges(), 0);
  if (!crew_) {
    crew_ = std::make_unique<WorkerCrew>(params_.workers > 0
                                             ? params_.workers
                                             : WorkerCrew::hardware_workers());
    ws_.resize(static_cast<std::size_t>(crew_->num_workers()));
  }
  std::vector<RouteCounters> counters_before;
  for (const SearchWorkspace& ws : ws_) counters_before.push_back(ws.counters);
  // Every return path calls this first so r.counters always reports the
  // work of exactly this call.
  auto finish = [&]() {
    for (std::size_t w = 0; w < ws_.size(); ++w)
      r.counters += ws_[w].counters - counters_before[w];
    r.counters.interchange_trials = r.interchange_attempts;
  };

  // The crew jobs below capture only const bindings and slot-disjoint
  // outputs: worker w uses workspaces[w] alone, and each slot writes its
  // own net's entry.
  const RoutingGraph& g = g_;
  const SteinerParams& steiner = params_.steiner;
  std::vector<SearchWorkspace>& workspaces = ws_;
  std::vector<std::vector<Route>>& alternatives = r.alternatives;

  // --- phase one: enumerate alternatives, seed with the shortest ----------
  bool stopped_early = false;
  for (std::size_t begin = 0; begin < nets.size() && !stopped_early;) {
    const std::size_t end = std::min(nets.size(), begin + kNetBatch);
    std::size_t charged = begin;
    for (; charged < end; ++charged) {
      if (params_.faults != nullptr)
        params_.faults->poll(recover::FaultSite::kRouteNet);
      if (params_.budget != nullptr) {
        if (params_.budget->stop_requested()) {
          // Remaining nets stay unrouted; the partial result is consistent.
          r.unrouted_nets += static_cast<int>(nets.size() - charged);
          stopped_early = true;
          break;
        }
        params_.budget->charge_move();
      }
    }
    const WorkerCrew::Job phase1 = [&g, &nets, &steiner, &workspaces,
                                    &alternatives, begin](int worker, int slot) {
      const std::size_t i = begin + static_cast<std::size_t>(slot);
      alternatives[i] = m_best_routes(g, nets[i], steiner,
                                      workspaces[static_cast<std::size_t>(worker)]);
    };
    crew_->run(static_cast<int>(charged - begin), phase1);
    for (std::size_t i = begin; i < charged; ++i) {
      if (r.alternatives[i].empty()) {
        ++r.unrouted_nets;
        continue;
      }
      r.choice[i] = 0;
      for (EdgeId e : r.alternatives[i][0].edges)
        ++r.edge_usage[static_cast<std::size_t>(e)];
      r.total_length += r.alternatives[i][0].length;
    }
    begin = charged;
  }
  r.total_overflow = total_overflow(g_, r.edge_usage);
  // The interchange below maintains edge_usage, total_length and
  // total_overflow incrementally; this checker recomputes all three.
  auto ensure_consistent = [&](const GlobalRouteResult& result) {
    if constexpr (check::kLevel >= check::kLevelFull) {
      const ValidationReport vr = validate_routing(g_, nets, result);
      TW_ENSURE_FULL(vr.ok(), vr.str());
    } else {
      (void)result;
    }
  };
  if (stopped_early || r.total_overflow == 0) {
    // Stopping criterion (1), or the budget expired during phase one — the
    // interchange loop would stop before its first attempt anyway, so skip
    // its setup and return the (validated) partial selection directly.
    ensure_consistent(r);
    finish();
    return r;
  }

  // --- phase two: random interchange ---------------------------------------
  Rng rng(params_.seed);

  // Nets using each edge, maintained incrementally.
  std::vector<std::vector<std::int32_t>> nets_on_edge(g_.num_edges());
  for (std::size_t i = 0; i < nets.size(); ++i)
    if (const Route* rt = r.route_of(i))
      for (EdgeId e : rt->edges)
        nets_on_edge[static_cast<std::size_t>(e)].push_back(
            static_cast<std::int32_t>(i));

  auto remove_net_from_edge = [&](EdgeId e, std::int32_t net) {
    auto& v = nets_on_edge[static_cast<std::size_t>(e)];
    v.erase(std::find(v.begin(), v.end(), net));
  };

  // Overflow worklist: the overloaded edges, kept sorted ascending so its
  // content is always identical to what a fresh O(E) scan would produce —
  // attempts only ever examine nets incident to an overloaded edge, and
  // the random draws match the previous full-scan implementation exactly.
  std::vector<EdgeId> over;
  for (std::size_t e = 0; e < r.edge_usage.size(); ++e)
    if (r.edge_usage[e] > g_.edge(static_cast<EdgeId>(e)).capacity)
      over.push_back(static_cast<EdgeId>(e));

  // The single mutation point for edge usage: adjusts the count and keeps
  // the worklist in sync when the edge crosses its capacity either way.
  auto apply_usage_delta = [&](EdgeId e, int delta) {
    const int cap = g_.edge(e).capacity;
    int& usage = r.edge_usage[static_cast<std::size_t>(e)];
    const bool was_over = usage > cap;
    usage += delta;
    const bool is_over = usage > cap;
    if (was_over == is_over) return;
    const auto it = std::lower_bound(over.begin(), over.end(), e);
    if (is_over) {
      over.insert(it, e);
    } else {
      TW_ASSERT(it != over.end() && *it == e,
                "overflow worklist lost edge ", e);
      over.erase(it);
    }
  };

  const long long patience =
      static_cast<long long>(std::max(1, params_.steiner.m)) *
      static_cast<long long>(std::max<std::size_t>(1, nets.size()));
  long long unchanged = 0;

  // Rip-up augmentation: when the interchange stalls with overflow left,
  // nets crossing overloaded channels get an extra congestion-aware
  // alternative (a greedy route that pays a penalty on overloaded edges),
  // and the interchange resumes. This keeps the phase-two guarantee —
  // order-free selection — while reaching detours phase one's M shortest
  // routes missed.
  int augment_rounds_left = 3;
  auto augment = [&]() {
    if (augment_rounds_left-- <= 0) return false;
    // Penalty scale: several average route lengths per unit of overflow.
    double avg_len = 0.0;
    int routed_count = 0;
    for (std::size_t i = 0; i < nets.size(); ++i)
      if (const Route* rt = r.route_of(i)) {
        avg_len += rt->length;
        ++routed_count;
      }
    const double penalty =
        4.0 * (routed_count ? avg_len / routed_count : 1.0) + 1.0;
    std::vector<double> extra(g_.num_edges(), 0.0);
    for (std::size_t e = 0; e < r.edge_usage.size(); ++e) {
      const int over =
          r.edge_usage[e] - g_.edge(static_cast<EdgeId>(e)).capacity;
      if (over > 0) extra[e] = penalty * static_cast<double>(over);
    }
    std::vector<std::size_t> ripup;
    for (std::size_t i = 0; i < nets.size(); ++i) {
      const Route* cur = r.route_of(i);
      if (!cur) continue;
      for (EdgeId e : cur->edges)
        if (r.edge_usage[static_cast<std::size_t>(e)] >
            g_.edge(e).capacity) {
          ripup.push_back(i);
          break;
        }
    }

    // The congestion-aware routes are computed across the crew, then
    // merged in net order.
    const std::vector<double>& penalties = extra;
    const std::vector<std::size_t>& ripup_nets = ripup;
    std::vector<std::optional<Route>> ripup_routes(ripup.size());
    const WorkerCrew::Job reroute = [&g, &nets, &penalties, &ripup_nets,
                                     &workspaces, &ripup_routes](int worker,
                                                                 int slot) {
      const auto k = static_cast<std::size_t>(slot);
      ripup_routes[k] =
          greedy_route(g, nets[ripup_nets[k]], &penalties,
                       workspaces[static_cast<std::size_t>(worker)]);
    };
    crew_->run(static_cast<int>(ripup.size()), reroute);

    bool added = false;
    for (std::size_t k = 0; k < ripup.size(); ++k) {
      std::optional<Route>& alt = ripup_routes[k];
      if (!alt) continue;
      const std::size_t i = ripup[k];
      std::sort(alt->edges.begin(), alt->edges.end());
      alt->length = 0.0;
      for (EdgeId e : alt->edges) alt->length += g_.edge(e).length;
      bool duplicate = false;
      for (const Route& have : r.alternatives[i])
        if (have.edges == alt->edges) {
          duplicate = true;
          break;
        }
      if (duplicate) continue;
      r.alternatives[i].push_back(std::move(*alt));
      added = true;
    }
    return added;
  };

  while (r.total_overflow > 0) {
    if (params_.budget != nullptr) {
      if (params_.budget->stop_requested()) break;
      params_.budget->charge_move();
    }
    if (unchanged >= patience) {
      // Stopping criterion (2) hit with overflow left: widen the pool or
      // give up.
      if (!augment()) break;
      unchanged = 0;
    }
    ++r.interchange_attempts;
    ++unchanged;

    // Random overflowed edge, drawn from the maintained worklist.
    if (over.empty()) break;
    const EdgeId ej = over[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(over.size()) - 1))];

    const auto& users = nets_on_edge[static_cast<std::size_t>(ej)];
    if (users.empty()) break;  // capacity < 0 edge with no user: stuck
    const std::int32_t net = users[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(users.size()) - 1))];

    const auto ni = static_cast<std::size_t>(net);
    const Route& cur = r.alternatives[ni][static_cast<std::size_t>(r.choice[ni])];

    // Evaluate every alternative's (dX, dL); keep those with dX <= 0.
    struct Candidate {
      int k;
      int dx;
      double dl;
    };
    std::vector<Candidate> ok;
    for (int k = 0; k < static_cast<int>(r.alternatives[ni].size()); ++k) {
      if (k == r.choice[ni]) continue;
      const Route& alt = r.alternatives[ni][static_cast<std::size_t>(k)];
      int dx = 0;
      // Edges leaving the selection (cur \ alt) and entering (alt \ cur);
      // both edge lists are sorted.
      std::size_t a = 0, b = 0;
      auto over_delta = [&](EdgeId e, int delta) {
        const int cap = g_.edge(e).capacity;
        const int before = std::max(0, r.edge_usage[static_cast<std::size_t>(e)] - cap);
        const int after =
            std::max(0, r.edge_usage[static_cast<std::size_t>(e)] + delta - cap);
        dx += after - before;
      };
      while (a < cur.edges.size() || b < alt.edges.size()) {
        if (b >= alt.edges.size() ||
            (a < cur.edges.size() && cur.edges[a] < alt.edges[b])) {
          over_delta(cur.edges[a], -1);
          ++a;
        } else if (a >= cur.edges.size() || alt.edges[b] < cur.edges[a]) {
          over_delta(alt.edges[b], +1);
          ++b;
        } else {
          ++a;
          ++b;
        }
      }
      if (dx <= 0) ok.push_back({k, dx, alt.length - cur.length});
    }
    if (ok.empty()) continue;

    const Candidate cand = ok[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ok.size()) - 1))];
    // Acceptance rule: dX < 0, or dX == 0 and dL <= 0.
    if (!(cand.dx < 0 || (cand.dx == 0 && cand.dl <= 0.0))) continue;

    // Apply the interchange.
    const Route& alt = r.alternatives[ni][static_cast<std::size_t>(cand.k)];
    for (EdgeId e : cur.edges) {
      apply_usage_delta(e, -1);
      remove_net_from_edge(e, net);
    }
    for (EdgeId e : alt.edges) {
      apply_usage_delta(e, +1);
      nets_on_edge[static_cast<std::size_t>(e)].push_back(net);
    }
    r.choice[ni] = cand.k;
    r.total_length += cand.dl;
    r.total_overflow += cand.dx;
    TW_ASSERT(r.total_overflow >= 0, "X=", r.total_overflow,
              " after interchange of net ", net);
    if (cand.dx != 0 || cand.dl != 0.0) unchanged = 0;
  }

  // Fixed-point certificate: one full scan confirms the incrementally
  // maintained worklist and overflow total against ground truth.
  {
    int x = 0;
    std::size_t wl = 0;
    for (std::size_t e = 0; e < r.edge_usage.size(); ++e) {
      const int cap = g_.edge(static_cast<EdgeId>(e)).capacity;
      if (r.edge_usage[e] > cap) {
        x += r.edge_usage[e] - cap;
        TW_ASSERT(wl < over.size() && over[wl] == static_cast<EdgeId>(e),
                  "overflow worklist out of sync at edge ", e);
        ++wl;
      }
    }
    TW_ASSERT(wl == over.size(), "overflow worklist has ",
              over.size() - wl, " stale entries");
    TW_ASSERT(x == r.total_overflow, "incremental X=", r.total_overflow,
              " but recomputed X=", x);
  }

  ensure_consistent(r);
  finish();
  return r;
}

}  // namespace tw
