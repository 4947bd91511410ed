// Tests for src/cluster: partition round-trip, pin-aggregation
// conservation, determinism (same inputs from many threads), and the
// validate_clustering rejection cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "netlist/parser.hpp"
#include "workload/generator.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

Netlist test_circuit(std::uint64_t seed = 7) {
  CircuitSpec spec = medium_circuit(seed);
  spec.num_cells = 40;
  spec.num_nets = 140;
  spec.num_pins = 520;
  return generate_circuit(spec);
}

TEST(Cluster, PartitionRoundTrips) {
  const Netlist nl = test_circuit();
  ClusterParams params;
  params.max_cluster_size = 6;
  const Clustering c = cluster_netlist(nl, params);

  // Every flat cell is in exactly one member list, and the two views of
  // the partition agree.
  std::vector<int> seen(nl.num_cells(), 0);
  for (CellId k = 0; k < static_cast<CellId>(c.coarse.num_cells()); ++k) {
    const auto& members = c.map.members[static_cast<std::size_t>(k)];
    EXPECT_FALSE(members.empty()) << "cluster " << k;
    EXPECT_LE(members.size(),
              static_cast<std::size_t>(params.max_cluster_size));
    for (const ClusterMember& m : members) {
      seen[static_cast<std::size_t>(m.cell)] += 1;
      EXPECT_EQ(c.map.cluster_of[static_cast<std::size_t>(m.cell)], k);
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);

  EXPECT_TRUE(validate_clustering(nl, c.coarse, c.map).ok())
      << validate_clustering(nl, c.coarse, c.map).str();
}

TEST(Cluster, IdentityClusteringAtCapOne) {
  const Netlist nl = test_circuit();
  ClusterParams params;
  params.max_cluster_size = 1;
  const Clustering c = cluster_netlist(nl, params);
  EXPECT_EQ(c.coarse.num_cells(), nl.num_cells());
  for (const auto& members : c.map.members) EXPECT_EQ(members.size(), 1u);
  EXPECT_TRUE(validate_clustering(nl, c.coarse, c.map).ok());
}

TEST(Cluster, PinAggregationConservesNets) {
  const Netlist nl = test_circuit();
  const Clustering c = cluster_netlist(nl, {});

  // Every flat net is either dropped as intra-cluster or mapped; the
  // counts are conserved.
  int mapped = 0;
  int dropped = 0;
  for (NetId n = 0; n < static_cast<NetId>(nl.num_nets()); ++n) {
    const NetId cn = c.map.coarse_net_of[static_cast<std::size_t>(n)];
    if (cn == kInvalidNet) {
      ++dropped;
      // All pins really are inside one cluster.
      CellId cluster = kInvalidCell;
      bool same = true;
      for (const PinId pid : nl.net(n).pins) {
        const CellId k =
            c.map.cluster_of[static_cast<std::size_t>(nl.pin(pid).cell)];
        if (cluster == kInvalidCell) cluster = k;
        same = same && (k == cluster);
      }
      EXPECT_TRUE(same) << "net " << n << " dropped but spans clusters";
    } else {
      ++mapped;
      EXPECT_EQ(c.map.flat_net_of[static_cast<std::size_t>(cn)], n);
      // One aggregated pin per incident cluster.
      std::vector<CellId> incident;
      for (const PinId pid : nl.net(n).pins)
        incident.push_back(
            c.map.cluster_of[static_cast<std::size_t>(nl.pin(pid).cell)]);
      std::sort(incident.begin(), incident.end());
      incident.erase(std::unique(incident.begin(), incident.end()),
                     incident.end());
      EXPECT_EQ(c.coarse.net(cn).pins.size(), incident.size()) << "net " << n;
    }
  }
  EXPECT_EQ(dropped, c.map.dropped_nets);
  EXPECT_EQ(static_cast<std::size_t>(mapped), c.coarse.num_nets());
  EXPECT_GT(mapped, 0);
  EXPECT_GT(dropped, 0) << "test circuit should produce intra-cluster nets";
}

/// A circuit with one deliberate hub net (a clock) touching every cell,
/// plus a chain of 2-pin nets that gives the clusterer real affinity.
Netlist hub_circuit(int cells) {
  Netlist nl;
  for (int i = 0; i < cells; ++i)
    nl.add_macro(std::string("c").append(std::to_string(i)),
                 {Rect{0, 0, 8, 8}});
  const NetId hub = nl.add_net("clk", 1.0, 1.0);
  for (CellId c = 0; c < cells; ++c)
    nl.add_fixed_pin(c, std::string("clk").append(std::to_string(c)),
                     hub, Point{4, 4});
  for (CellId c = 0; c + 1 < cells; ++c) {
    const NetId n = nl.add_net(std::string("w").append(std::to_string(c)),
                               1.0, 1.0);
    nl.add_fixed_pin(c, std::string("a").append(std::to_string(c)),
                     n, Point{8, 4});
    nl.add_fixed_pin(c + 1, std::string("b").append(std::to_string(c)),
                     n, Point{0, 4});
  }
  nl.validate();
  return nl;
}

TEST(Cluster, DegreeCapSplitsHubNetsIntoAChain) {
  const Netlist nl = hub_circuit(40);
  ClusterParams params;
  params.max_cluster_size = 4;
  params.max_aggregated_degree = 4;
  const Clustering c = cluster_netlist(nl, params);
  const ValidationReport vr = validate_clustering(nl, c.coarse, c.map);
  ASSERT_TRUE(vr.ok()) << vr.str();

  // No coarse net exceeds the cap.
  for (const Net& cn : c.coarse.nets())
    EXPECT_LE(cn.pins.size(), 4u) << "coarse net " << cn.id;

  // The hub net split into a chain: several segments, all pointing back at
  // it, jointly covering every cluster, consecutive ones sharing a
  // cluster, and coarse_net_of naming the first.
  const NetId hub = 0;
  std::vector<NetId> segs;
  for (NetId cn = 0; cn < static_cast<NetId>(c.coarse.num_nets()); ++cn)
    if (c.map.flat_net_of[static_cast<std::size_t>(cn)] == hub)
      segs.push_back(cn);
  ASSERT_GT(segs.size(), 1u);
  EXPECT_EQ(c.map.coarse_net_of[static_cast<std::size_t>(hub)], segs.front());
  std::vector<CellId> covered;
  std::vector<CellId> prev;
  for (const NetId seg : segs) {
    std::vector<CellId> cells;
    for (const PinId pid : c.coarse.net(seg).pins)
      cells.push_back(c.coarse.pin(pid).cell);
    std::sort(cells.begin(), cells.end());
    if (!prev.empty()) {
      std::vector<CellId> shared;
      std::set_intersection(prev.begin(), prev.end(), cells.begin(),
                            cells.end(), std::back_inserter(shared));
      EXPECT_EQ(shared.size(), 1u) << "segment " << seg;
    }
    covered.insert(covered.end(), cells.begin(), cells.end());
    prev = std::move(cells);
  }
  std::sort(covered.begin(), covered.end());
  covered.erase(std::unique(covered.begin(), covered.end()), covered.end());
  EXPECT_EQ(covered.size(), c.coarse.num_cells());
}

TEST(Cluster, InactiveCapReproducesUncappedClustering) {
  const Netlist nl = test_circuit();
  ClusterParams capped;
  capped.max_aggregated_degree = 64;  // larger than any aggregated degree
  const Clustering a = cluster_netlist(nl, {});
  const Clustering b = cluster_netlist(nl, capped);
  EXPECT_EQ(write_netlist(a.coarse), write_netlist(b.coarse));
  EXPECT_EQ(a.map.coarse_net_of, b.map.coarse_net_of);
  EXPECT_EQ(a.map.flat_net_of, b.map.flat_net_of);
}

TEST(ClusterValidate, RejectsBrokenSegmentChains) {
  const Netlist nl = hub_circuit(40);
  ClusterParams params;
  params.max_cluster_size = 4;
  params.max_aggregated_degree = 4;
  const Clustering good = cluster_netlist(nl, params);
  ASSERT_TRUE(validate_clustering(nl, good.coarse, good.map).ok());

  {  // a trailing segment re-attributed to a different flat net: its own
     // net loses coverage and the other net gains a foreign segment
    ClusterMap bad = good.map;
    for (std::size_t cn = 0; cn < bad.flat_net_of.size(); ++cn)
      if (bad.flat_net_of[cn] == 0 &&
          good.map.coarse_net_of[0] != static_cast<NetId>(cn)) {
        bad.flat_net_of[cn] = 1;
        break;
      }
    EXPECT_FALSE(validate_clustering(nl, good.coarse, bad).ok());
  }
  {  // coarse_net_of pointed at a later segment instead of the first
    ClusterMap bad = good.map;
    NetId last = kInvalidNet;
    for (std::size_t cn = 0; cn < bad.flat_net_of.size(); ++cn)
      if (bad.flat_net_of[cn] == 0) last = static_cast<NetId>(cn);
    ASSERT_NE(last, bad.coarse_net_of[0]);
    bad.coarse_net_of[0] = last;
    EXPECT_FALSE(validate_clustering(nl, good.coarse, bad).ok());
  }
}

TEST(Cluster, DeterministicAcrossThreads) {
  const Netlist nl = test_circuit(11);
  const Clustering ref = cluster_netlist(nl, {});
  const std::string ref_text = write_netlist(ref.coarse);

  constexpr int kThreads = 4;
  std::vector<std::string> texts(kThreads);
  std::vector<ClusterMap> maps(kThreads);
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i)
      workers.emplace_back([&, i] {
        Clustering c = cluster_netlist(nl, {});
        texts[static_cast<std::size_t>(i)] = write_netlist(c.coarse);
        maps[static_cast<std::size_t>(i)] = std::move(c.map);
      });
    for (auto& w : workers) w.join();
  }
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(texts[static_cast<std::size_t>(i)], ref_text) << "thread " << i;
    EXPECT_EQ(maps[static_cast<std::size_t>(i)].cluster_of, ref.map.cluster_of);
    EXPECT_EQ(maps[static_cast<std::size_t>(i)].coarse_net_of,
              ref.map.coarse_net_of);
    EXPECT_EQ(maps[static_cast<std::size_t>(i)].dropped_nets,
              ref.map.dropped_nets);
  }

  // Different seeds are allowed to differ (and on this circuit do).
  ClusterParams other;
  other.seed = 99;
  const Clustering alt = cluster_netlist(nl, other);
  EXPECT_TRUE(validate_clustering(nl, alt.coarse, alt.map).ok());
}

TEST(ClusterValidate, RejectsCorruptedMaps) {
  const Netlist nl = test_circuit();
  const Clustering good = cluster_netlist(nl, {});
  ASSERT_TRUE(validate_clustering(nl, good.coarse, good.map).ok());

  {  // a cell claimed by the wrong cluster
    ClusterMap bad = good.map;
    bad.cluster_of[0] =
        (bad.cluster_of[0] + 1) % static_cast<CellId>(good.coarse.num_cells());
    EXPECT_FALSE(validate_clustering(nl, good.coarse, bad).ok());
  }
  {  // a member listed twice
    ClusterMap bad = good.map;
    bad.members[0].push_back(bad.members[0].front());
    EXPECT_FALSE(validate_clustering(nl, good.coarse, bad).ok());
  }
  {  // a member pushed outside its cluster rectangle
    ClusterMap bad = good.map;
    bad.members[0].front().offset.x += 100000;
    EXPECT_FALSE(validate_clustering(nl, good.coarse, bad).ok());
  }
  {  // an inter-cluster net mislabeled as dropped
    ClusterMap bad = good.map;
    const auto it = std::find_if(
        bad.coarse_net_of.begin(), bad.coarse_net_of.end(),
        [](NetId n) { return n != kInvalidNet; });
    ASSERT_NE(it, bad.coarse_net_of.end());
    *it = kInvalidNet;
    EXPECT_FALSE(validate_clustering(nl, good.coarse, bad).ok());
  }
  {  // dropped-net count off by one
    ClusterMap bad = good.map;
    bad.dropped_nets += 1;
    EXPECT_FALSE(validate_clustering(nl, good.coarse, bad).ok());
  }
  {  // shape mismatch: truncated cluster_of
    ClusterMap bad = good.map;
    bad.cluster_of.pop_back();
    EXPECT_FALSE(validate_clustering(nl, good.coarse, bad).ok());
  }
}

}  // namespace
}  // namespace tw
