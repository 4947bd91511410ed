// Worker-count invariance of the global router (docs/PERF.md "Parallel
// phase 1 and rip-up"). GlobalRouter::route spreads phase one's M-best
// routes and the rip-up round's greedy routes over a WorkerCrew with one
// SearchWorkspace per worker; every observable — the alternatives, the
// selection, the usage, L, X, the attempts and the summed work counters —
// must be identical for every worker count, and so must a whole flow's
// fingerprint. WorkerCrew itself, which the router and the replica pool
// both run on, is checked here too. The suite carries the
// "route.parallel" label, which the ThreadSanitizer CI leg runs.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "channel/channel_graph.hpp"
#include "estimator/area_estimator.hpp"
#include "fingerprint.hpp"
#include "place/legalize.hpp"
#include "pool/workers.hpp"
#include "recover/budget.hpp"
#include "recover/fault.hpp"
#include "route/interchange.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

constexpr int kWorkerCounts[] = {1, 2, 3, 4, 8};

/// w x h grid with manhattan edge lengths (spacing 10) and capacity
/// `cap`, so a handful of nets overflows it and the interchange and the
/// rip-up round both run.
RoutingGraph grid(int w, int h, int cap) {
  RoutingGraph g;
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) g.add_node(Point{x * 10, y * 10});
  auto id = [w](int x, int y) { return static_cast<NodeId>(y * w + x); };
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      if (x + 1 < w) g.add_edge(id(x, y), id(x + 1, y), 10.0, cap);
      if (y + 1 < h) g.add_edge(id(x, y), id(x, y + 1), 10.0, cap);
    }
  return g;
}

/// `n` nets of 2-5 logical pins on distinct nodes; about one pin in four
/// has a second, electrically equivalent alternative.
std::vector<NetTargets> random_nets(Rng& rng, const RoutingGraph& g, int n) {
  const auto last = static_cast<std::int64_t>(g.num_nodes()) - 1;
  std::vector<NetTargets> nets;
  for (int i = 0; i < n; ++i) {
    NetTargets net;
    std::set<NodeId> used;
    const int pins = static_cast<int>(rng.uniform_int(2, 5));
    while (static_cast<int>(net.pins.size()) < pins) {
      const auto a = static_cast<NodeId>(rng.uniform_int(0, last));
      if (!used.insert(a).second) continue;
      std::vector<NodeId> alts{a};
      const auto b = static_cast<NodeId>(rng.uniform_int(0, last));
      if (rng.uniform_int(0, 3) == 0 && used.insert(b).second)
        alts.push_back(b);
      net.pins.push_back(std::move(alts));
    }
    nets.push_back(std::move(net));
  }
  return nets;
}

GlobalRouteResult route_with(const RoutingGraph& g,
                             const std::vector<NetTargets>& nets,
                             GlobalRouterParams params, int workers) {
  params.workers = workers;
  return GlobalRouter(g, params).route(nets);
}

void expect_same(const GlobalRouteResult& want, const GlobalRouteResult& got,
                 int workers) {
  SCOPED_TRACE(::testing::Message() << "workers=" << workers);
  EXPECT_EQ(got.alternatives, want.alternatives);
  EXPECT_EQ(got.choice, want.choice);
  EXPECT_EQ(got.edge_usage, want.edge_usage);
  EXPECT_EQ(got.total_length, want.total_length);
  EXPECT_EQ(got.total_overflow, want.total_overflow);
  EXPECT_EQ(got.unrouted_nets, want.unrouted_nets);
  EXPECT_EQ(got.interchange_attempts, want.interchange_attempts);
  EXPECT_EQ(got.counters, want.counters);
}

TEST(RouterParallel, WorkerCountInvariantOnRandomGrids) {
  Rng rng(1313);
  int ripped_up = 0;
  for (int iter = 0; iter < 6; ++iter) {
    const RoutingGraph g = grid(static_cast<int>(rng.uniform_int(5, 8)),
                                static_cast<int>(rng.uniform_int(5, 8)), 1);
    const auto nets =
        random_nets(rng, g, static_cast<int>(rng.uniform_int(12, 40)));
    GlobalRouterParams params;
    params.steiner.m = 4;
    params.seed = static_cast<std::uint64_t>(iter) + 5;

    const GlobalRouteResult want = route_with(g, nets, params, 1);
    EXPECT_GT(want.counters.dijkstra_runs, 0);
    EXPECT_EQ(want.counters.interchange_trials, want.interchange_attempts);
    for (const auto& alts : want.alternatives)
      if (static_cast<int>(alts.size()) > params.steiner.m) {
        ++ripped_up;  // the rip-up round added a congestion-aware route
        break;
      }
    for (int w : kWorkerCounts) expect_same(want, route_with(g, nets, params, w), w);
  }
  EXPECT_GT(ripped_up, 0) << "no instance exercised the parallel rip-up round";
}

TEST(RouterParallel, WorkerCountInvariantOnSocPass) {
  // One stage-2 routing pass of a 100-cell hub-free SoC netlist, on a
  // legalized random placement.
  CircuitSpec spec = soc_circuit(SocTier::k1k, 3);
  spec.num_cells = 100;
  spec.num_nets = 350;
  spec.num_pins = 1400;
  spec.hub_nets = 0;
  const Netlist nl = generate_circuit(spec);
  Placement placement(nl);
  const Rect core = DynamicAreaEstimator(nl).compute_initial_core();
  Rng rng(17);
  placement.randomize(rng, core);
  legalize_spread(placement, core, 2 * nl.tech().track_separation);
  const ChannelGraph cg = build_channel_graph(placement, core);
  const auto nets = build_net_targets(nl, cg);
  ASSERT_GT(nets.size(), 300u);

  GlobalRouterParams params;
  params.steiner.m = 4;
  params.seed = 29;
  const GlobalRouteResult want = route_with(cg.graph, nets, params, 1);
  EXPECT_EQ(want.unrouted_nets, 0);
  for (int w : kWorkerCounts)
    expect_same(want, route_with(cg.graph, nets, params, w), w);
}

TEST(RouterParallel, FlowFingerprintsMatchAcrossWorkerCounts) {
  const Netlist nl = generate_circuit(tiny_circuit(21));
  for (std::uint64_t seed : {3u, 77u, 1001u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    FlowParams serial = testing::fast_flow(seed);
    serial.stage2.router.workers = 1;
    FlowParams parallel = testing::fast_flow(seed);
    parallel.stage2.router.workers = 4;
    Placement p1(nl), p4(nl);
    const FlowResult r1 = TimberWolfMC(nl, serial).run(p1);
    const FlowResult r4 = TimberWolfMC(nl, parallel).run(p4);
    EXPECT_EQ(testing::fingerprint(p1, r1), testing::fingerprint(p4, r4));
    ASSERT_EQ(r1.stage2.passes.size(), r4.stage2.passes.size());
    for (std::size_t i = 0; i < r1.stage2.passes.size(); ++i)
      EXPECT_EQ(r1.stage2.passes[i].router_counters,
                r4.stage2.passes[i].router_counters);
  }
}

TEST(RouterParallel, BudgetExpiringInPhaseOneLeavesSameUnroutedNets) {
  // More nets than one phase-one batch, so the budget stops the router in
  // a later batch.
  Rng rng(4242);
  const RoutingGraph g = grid(12, 12, 2);
  const auto nets = random_nets(rng, g, 300);
  for (std::int64_t max_moves : {7, 130, 211}) {
    SCOPED_TRACE(::testing::Message() << "max_moves=" << max_moves);
    std::vector<GlobalRouteResult> results;
    for (int w : {1, 4}) {
      recover::RunBudget budget(max_moves, recover::RunBudget::kUnlimited);
      recover::FaultPlan polls;
      GlobalRouterParams params;
      params.steiner.m = 4;
      params.budget = &budget;
      params.faults = &polls;
      results.push_back(route_with(g, nets, params, w));
      // One charge and one kill poll per routed net, none beyond.
      EXPECT_EQ(budget.moves_charged(), max_moves);
      EXPECT_EQ(polls.count(recover::FaultSite::kRouteNet), max_moves + 1);
    }
    const GlobalRouteResult& r = results.front();
    EXPECT_EQ(r.unrouted_nets, static_cast<int>(nets.size()) - max_moves);
    for (std::size_t i = 0; i < nets.size(); ++i)
      EXPECT_EQ(r.choice[i] >= 0, static_cast<std::int64_t>(i) < max_moves);
    expect_same(r, results.back(), 4);
  }
}

TEST(RouterParallel, KillPollInPhaseOneFiresAtTheSameNet) {
  Rng rng(99);
  const RoutingGraph g = grid(8, 8, 2);
  const auto nets = random_nets(rng, g, 200);
  for (int w : {1, 4}) {
    recover::FaultPlan plan;
    plan.kill_at(recover::FaultSite::kRouteNet, 150);
    GlobalRouterParams params;
    params.faults = &plan;
    params.workers = w;
    GlobalRouter router(g, params);
    EXPECT_THROW(router.route(nets), recover::InjectedFault);
    EXPECT_EQ(plan.count(recover::FaultSite::kRouteNet), 151);
  }
}

TEST(RouterParallel, NetWorkDoesNotDependOnEarlierNets) {
  // A workspace that just routed other nets reports the same work for a
  // net as a fresh one: no search state carries over between nets.
  Rng rng(5);
  const RoutingGraph g = grid(9, 9, 2);
  const auto nets = random_nets(rng, g, 24);
  const SteinerParams steiner{4, 12};
  SearchWorkspace warm;
  for (const NetTargets& net : nets) {
    SearchWorkspace fresh;
    const auto want = m_best_routes(g, net, steiner, fresh);
    const RouteCounters before = warm.counters;
    const auto got = m_best_routes(g, net, steiner, warm);
    EXPECT_EQ(got, want);
    EXPECT_EQ(warm.counters - before, fresh.counters);
  }
}

TEST(WorkerCrew, RunsEverySlotExactlyOnce) {
  WorkerCrew crew(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  std::atomic<int> worker_seen{0};
  crew.run(257, [&](int worker, int slot) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    worker_seen.fetch_or(1 << worker);
    if (slot == 0) {
      // Hold this worker until another one has run a slot. While it
      // waits, the other 256 slots can only run on other workers, so a
      // crew whose helpers never run slots times out here instead of
      // passing; no timing assumption beyond the generous bound.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(120);
      while ((worker_seen.load() & ~(1 << worker)) == 0 &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    }
    hits[static_cast<std::size_t>(slot)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(std::popcount(static_cast<unsigned>(worker_seen.load())), 2);
  EXPECT_NE(worker_seen.load() & ~1, 0) << "no helper thread ran a slot";
  // Batch after batch reuses the parked threads.
  crew.run(3, [&](int, int slot) { hits[static_cast<std::size_t>(slot)].fetch_add(1); });
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(hits[s].load(), 2);
}

TEST(WorkerCrew, SerialDegenerateFormUsesCallerOnly) {
  WorkerCrew crew(1);
  std::vector<int> order;
  crew.run(5, [&](int worker, int slot) {
    EXPECT_EQ(worker, 0);
    order.push_back(slot);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(WorkerCrew, PropagatesFirstException) {
  WorkerCrew crew(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      crew.run(64,
               [&](int, int slot) {
                 executed.fetch_add(1);
                 if (slot == 7) throw std::runtime_error("slot 7 failed");
               }),
      std::runtime_error);
  // The crew must be reusable after an error drained the batch.
  std::atomic<int> after{0};
  crew.run(8, [&](int, int) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

}  // namespace
}  // namespace tw
