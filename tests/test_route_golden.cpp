// Cross-commit pins of the global router (docs/PERF.md "Forced pins,
// capped sweep, crossing table").
//
// RouteGolden.*: a digest of everything the router returns — every
// m_best_routes alternative and every GlobalRouter::route result, edge
// ids and hexfloat lengths — on fixed random grids and on one stage-2
// pass of a 100-cell SoC netlist, plus that pass's region densities and
// Eqn 22 width check. The Determinism suites compare two runs of one
// build; these digests compare a build with the commits before it. A
// change that claims to return the same routes while doing less work
// must leave them untouched.
//
// RouteWork.*: the exact search work (searches, pops, pushes, interchange
// trials) of that SoC pass. The counters are deterministic, so a change
// that makes the router do more work fails here on any machine; a change
// that makes it do less updates the pin and records the before and after
// values in CHANGES.md. The suite carries the "perf.work" label.
#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "channel/channel_graph.hpp"
#include "estimator/area_estimator.hpp"
#include "place/legalize.hpp"
#include "route/channel_router.hpp"
#include "route/interchange.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace tw {
namespace {

/// FNV-1a 64 of a text, printed as 16 hex digits.
std::string digest(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << h;
  return os.str();
}

void put(std::ostringstream& os, const Route& r) {
  os << r.length << "[";
  for (EdgeId e : r.edges) os << e << ",";
  os << "]";
}

void put(std::ostringstream& os, const GlobalRouteResult& r) {
  for (std::size_t n = 0; n < r.alternatives.size(); ++n) {
    os << "net " << n << " choice " << r.choice[n] << ":";
    for (const Route& alt : r.alternatives[n]) put(os, alt);
    os << "\n";
  }
  os << "usage";
  for (int u : r.edge_usage) os << " " << u;
  os << "\nL " << r.total_length << " X " << r.total_overflow << " unrouted "
     << r.unrouted_nets << " attempts " << r.interchange_attempts << "\n";
}

/// w x h grid, spacing 10, capacity `cap`. `manhattan` gives every edge
/// its manhattan length (alpha = 1, the channel-graph case); otherwise
/// lengths are random in [5, 15] (alpha < 1). `island` extra nodes form a
/// chain that no grid node reaches.
RoutingGraph grid(Rng& rng, int w, int h, int cap, bool manhattan,
                  int island) {
  RoutingGraph g;
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) g.add_node(Point{x * 10, y * 10});
  auto id = [w](int x, int y) { return static_cast<NodeId>(y * w + x); };
  auto len = [&] {
    return manhattan ? 10.0 : static_cast<double>(rng.uniform_int(5, 15));
  };
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      if (x + 1 < w) g.add_edge(id(x, y), id(x + 1, y), len(), cap);
      if (y + 1 < h) g.add_edge(id(x, y), id(x, y + 1), len(), cap);
    }
  for (int i = 0; i < island; ++i) {
    const NodeId n = g.add_node(Point{-20 - 10 * i, -20});
    if (i > 0) g.add_edge(n - 1, n, 10.0, cap);
  }
  return g;
}

/// `n` nets of 2-`max_pins` logical pins on distinct nodes; about one pin
/// in four has a second, electrically equivalent alternative.
std::vector<NetTargets> random_nets(Rng& rng, const RoutingGraph& g, int n,
                                    int max_pins) {
  const auto last = static_cast<std::int64_t>(g.num_nodes()) - 1;
  std::vector<NetTargets> nets;
  for (int i = 0; i < n; ++i) {
    NetTargets net;
    std::set<NodeId> used;
    const int pins = static_cast<int>(rng.uniform_int(2, max_pins));
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

/// One stage-2 routing pass of a 100-cell hub-free SoC netlist on a
/// legalized random placement.
struct SocPass {
  Netlist nl;
  Placement placement;
  Rect core;
  ChannelGraph cg;
  std::vector<NetTargets> nets;

  SocPass() : nl(make_netlist()), placement(nl) {
    core = DynamicAreaEstimator(nl).compute_initial_core();
    Rng rng(17);
    placement.randomize(rng, core);
    legalize_spread(placement, core, 2 * nl.tech().track_separation);
    cg = build_channel_graph(placement, core);
    nets = build_net_targets(nl, cg);
  }

  static Netlist make_netlist() {
    CircuitSpec spec = soc_circuit(SocTier::k1k, 3);
    spec.num_cells = 100;
    spec.num_nets = 350;
    spec.num_pins = 1400;
    spec.hub_nets = 0;
    return generate_circuit(spec);
  }

  GlobalRouteResult route() const {
    GlobalRouterParams params;
    params.steiner.m = 4;
    params.seed = 29;
    params.workers = 1;
    return GlobalRouter(cg.graph, params).route(nets);
  }
};

TEST(RouteGolden, MBestRoutesOnRandomGrids) {
  Rng rng(2718);
  std::ostringstream os;
  os << std::hexfloat;
  SearchWorkspace ws;
  for (int iter = 0; iter < 60; ++iter) {
    const bool manhattan = rng.uniform_int(0, 2) != 0;
    const RoutingGraph g =
        grid(rng, static_cast<int>(rng.uniform_int(3, 9)),
             static_cast<int>(rng.uniform_int(3, 9)), 2, manhattan,
             static_cast<int>(rng.uniform_int(0, 3)));
    SteinerParams sp;
    sp.m = static_cast<int>(rng.uniform_int(1, 8));
    sp.wide_net_threshold = static_cast<int>(rng.uniform_int(3, 12));
    sp.prim_k = rng.uniform_int(0, 3) == 0 ? 1 : 0;
    for (const NetTargets& net :
         random_nets(rng, g, static_cast<int>(rng.uniform_int(4, 10)), 6)) {
      os << "net:";
      for (const Route& r : m_best_routes(g, net, sp, ws)) put(os, r);
      os << "\n";
    }
  }
  EXPECT_EQ(digest(os.str()), "dd629c02340303ff");
}

TEST(RouteGolden, GlobalRouteOnRandomGrids) {
  Rng rng(1618);
  std::ostringstream os;
  os << std::hexfloat;
  for (int iter = 0; iter < 8; ++iter) {
    const RoutingGraph g =
        grid(rng, static_cast<int>(rng.uniform_int(5, 9)),
             static_cast<int>(rng.uniform_int(5, 9)), 1,
             rng.uniform_int(0, 1) == 0, 0);
    GlobalRouterParams params;
    params.steiner.m = 4;
    params.seed = static_cast<std::uint64_t>(iter) + 3;
    params.workers = 1;
    put(os, GlobalRouter(g, params)
                .route(random_nets(
                    rng, g, static_cast<int>(rng.uniform_int(12, 40)), 5)));
  }
  EXPECT_EQ(digest(os.str()), "63f2036d7ca47acb");
}

TEST(RouteGolden, SocPass) {
  const SocPass f;
  ASSERT_GT(f.nets.size(), 300u);
  const GlobalRouteResult r = f.route();
  EXPECT_EQ(r.unrouted_nets, 0);
  std::vector<std::vector<EdgeId>> route_edges(f.nets.size());
  for (std::size_t n = 0; n < f.nets.size(); ++n)
    if (const Route* sel = r.route_of(n)) route_edges[n] = sel->edges;

  std::ostringstream os;
  os << std::hexfloat;
  put(os, r);
  os << "densities";
  for (int d : region_densities(f.cg, route_edges)) os << " " << d;
  os << "\nwidth violations " << validate_channel_widths(f.cg, route_edges)
     << "\n";
  EXPECT_EQ(digest(os.str()), "90e81d3924983fca");
}

TEST(RouteWork, SocPassCounters) {
  const RouteCounters c = SocPass().route().counters;
  EXPECT_EQ(c.dijkstra_runs, 56709);
  EXPECT_EQ(c.nodes_popped, 3914634);
  EXPECT_EQ(c.heap_pushes, 4731992);
  EXPECT_EQ(c.interchange_trials, 29460);
}

}  // namespace
}  // namespace tw
