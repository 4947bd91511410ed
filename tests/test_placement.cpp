// Tests for placement state: absolute geometry, pin positions under all
// orientations, net bounding boxes, TEIC/TEIL, pin-site assignment and the
// C3 penalty bookkeeping.
#include <gtest/gtest.h>

#include "place/placement.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

Netlist pair_circuit() {
  Netlist nl;
  const NetId n = nl.add_net("n");
  const CellId a = nl.add_macro("a", {Rect{0, 0, 10, 4}});
  const CellId b = nl.add_macro("b", {Rect{0, 0, 6, 6}});
  nl.add_fixed_pin(a, "p", n, Point{10, 2});
  nl.add_fixed_pin(b, "q", n, Point{0, 3});
  return nl;
}

TEST(Placement, BBoxFollowsCenterAndOrient) {
  const Netlist nl = pair_circuit();
  Placement p(nl);
  p.set_center(0, Point{100, 50});
  EXPECT_EQ(p.bbox(0), (Rect{95, 48, 105, 52}));
  p.set_orient(0, Orient::W);  // 10x4 -> 4x10
  const Rect bb = p.bbox(0);
  EXPECT_EQ(bb.width(), 4);
  EXPECT_EQ(bb.height(), 10);
  EXPECT_EQ(bb.center(), (Point{100, 50}));
}

TEST(Placement, AbsoluteTilesMatchBBoxForRect) {
  const Netlist nl = pair_circuit();
  Placement p(nl);
  p.set_center(0, Point{7, 7});
  const auto tiles = p.absolute_tiles(0);
  ASSERT_EQ(tiles.size(), 1u);
  EXPECT_EQ(tiles[0], p.bbox(0));
}

TEST(Placement, PinPositionIdentityOrient) {
  const Netlist nl = pair_circuit();
  Placement p(nl);
  p.set_center(0, Point{100, 50});
  // bbox = {95,48,105,52}; pin offset (10,2) -> (105, 50).
  EXPECT_EQ(p.pin_position(0), (Point{105, 50}));
}

TEST(Placement, PinPositionUnderAllOrients) {
  const Netlist nl = pair_circuit();
  Placement p(nl);
  p.set_center(0, Point{0, 0});
  for (Orient o : kAllOrients) {
    p.set_orient(0, o);
    const Point pos = p.pin_position(0);
    // The pin sits on the cell boundary in every orientation.
    const Rect bb = p.bbox(0);
    EXPECT_TRUE(pos.x == bb.xlo || pos.x == bb.xhi || pos.y == bb.ylo ||
                pos.y == bb.yhi)
        << to_string(o);
  }
}

TEST(Placement, MirrorMovesPinToOppositeSide) {
  const Netlist nl = pair_circuit();
  Placement p(nl);
  p.set_center(0, Point{0, 0});
  const Point at_n = p.pin_position(0);
  p.set_orient(0, Orient::FN);  // mirror about Y
  const Point at_fn = p.pin_position(0);
  EXPECT_EQ(at_fn.x, -at_n.x);
  EXPECT_EQ(at_fn.y, at_n.y);
}

TEST(Placement, NetBBoxAndCost) {
  const Netlist nl = pair_circuit();
  Placement p(nl);
  p.set_center(0, Point{0, 0});   // pin at (5, 0)
  p.set_center(1, Point{20, 10}); // pin q offset (0,3), bbox {17,7,23,13} -> (17,10)
  const Rect bb = p.net_bbox(0);
  EXPECT_EQ(bb, (Rect{5, 0, 17, 10}));
  EXPECT_DOUBLE_EQ(p.net_cost(0), 12.0 + 10.0);
  EXPECT_DOUBLE_EQ(p.teic(), p.net_cost(0));
  EXPECT_DOUBLE_EQ(p.teil(), 22.0);
}

TEST(Placement, WeightedTeicDiffersFromTeil) {
  Netlist nl = pair_circuit();
  nl.set_net_weights(0, 2.0, 0.5);
  Placement p(nl);
  p.set_center(0, Point{0, 0});
  p.set_center(1, Point{20, 10});
  EXPECT_DOUBLE_EQ(p.teic(), 2.0 * 12.0 + 0.5 * 10.0);
  EXPECT_DOUBLE_EQ(p.teil(), 22.0);
}

TEST(Placement, NetsOfCellDeduplicated) {
  Netlist nl;
  const NetId n1 = nl.add_net("n1");
  const CellId a = nl.add_macro("a", {Rect{0, 0, 10, 10}});
  const CellId b = nl.add_macro("b", {Rect{0, 0, 10, 10}});
  nl.add_fixed_pin(a, "p1", n1, Point{0, 0});
  nl.add_fixed_pin(a, "p2", n1, Point{10, 10});
  nl.add_fixed_pin(b, "q", n1, Point{0, 0});
  Placement p(nl);
  EXPECT_EQ(p.nets_of_cell(a).size(), 1u);
}

TEST(Placement, SnapshotRestoreRoundTrip) {
  const Netlist nl = pair_circuit();
  Placement p(nl);
  p.set_center(0, Point{5, 5});
  p.set_orient(0, Orient::S);
  const CellState snap = p.snapshot(0);
  p.set_center(0, Point{50, 50});
  p.set_orient(0, Orient::E);
  p.restore(0, snap);
  EXPECT_EQ(p.state(0).center, (Point{5, 5}));
  EXPECT_EQ(p.state(0).orient, Orient::S);
}

TEST(Placement, CustomCellAspectChange) {
  Netlist nl;
  const NetId n = nl.add_net("n");
  const CellId c = nl.add_custom("c", 400, 0.25, 4.0);
  const CellId d = nl.add_macro("d", {Rect{0, 0, 5, 5}});
  nl.add_edge_pin(c, "p", n);
  nl.add_fixed_pin(d, "q", n, Point{0, 0});
  Placement p(nl);
  p.set_aspect(c, 4.0);
  const CellInstance& g = p.geometry(c);
  EXPECT_NEAR(static_cast<double>(g.height) / g.width, 4.0, 0.6);
  EXPECT_NEAR(static_cast<double>(g.width * g.height), 400.0, 60.0);
  // Clamped outside the range.
  p.set_aspect(c, 100.0);
  EXPECT_NEAR(static_cast<double>(p.geometry(c).height) / p.geometry(c).width,
              4.0, 0.6);
}

TEST(Placement, AspectChangeRejectsMacro) {
  const Netlist nl = pair_circuit();
  Placement p(nl);
  EXPECT_THROW(p.set_aspect(0, 1.0), std::invalid_argument);
}

TEST(Placement, CustomFixedPinScalesWithAspect) {
  Netlist nl;
  const NetId n = nl.add_net("n");
  const CellId c = nl.add_custom("c", 400, 0.25, 4.0);
  const CellId d = nl.add_macro("d", {Rect{0, 0, 5, 5}});
  // Fixed pin at the middle of the right edge of the initial realization.
  const CellInstance& init = nl.cell(c).instances.front();
  nl.add_fixed_pin(c, "p", n, Point{init.width, init.height / 2});
  nl.add_fixed_pin(d, "q", n, Point{0, 0});
  Placement p(nl);
  p.set_aspect(c, 4.0);
  const CellInstance& g = p.geometry(c);
  const Point off = g.pin_offsets[0];
  EXPECT_EQ(off.x, g.width);  // still on the right edge
}

TEST(Placement, SitePenaltyZeroWhenSpread) {
  Netlist nl;
  const NetId n = nl.add_net("n");
  const CellId c = nl.add_custom("c", 1600, 1.0, 1.0, 4);
  const CellId d = nl.add_macro("d", {Rect{0, 0, 5, 5}});
  nl.add_edge_pin(c, "p0", n);
  nl.add_edge_pin(c, "p1", n);
  nl.add_fixed_pin(d, "q", n, Point{0, 0});
  Placement p(nl);
  // Constructor spreads pins; capacity of a 40-long edge site is 40/4 = 10.
  EXPECT_DOUBLE_EQ(p.site_penalty(c, 5.0), 0.0);
  EXPECT_EQ(p.overloaded_sites(), 0);
}

TEST(Placement, SitePenaltyMatchesEqn10And11) {
  Netlist nl;
  const NetId n = nl.add_net("n");
  // Tiny custom cell: site capacity 1 (edge 8 long, 8 sites).
  const CellId c = nl.add_custom("c", 64, 1.0, 1.0, 8);
  const CellId d = nl.add_macro("d", {Rect{0, 0, 5, 5}});
  std::vector<PinId> pins;
  for (int i = 0; i < 3; ++i)
    pins.push_back(
        nl.add_edge_pin(c, std::string("p").append(std::to_string(i)), n));
  nl.add_fixed_pin(d, "q", n, Point{0, 0});
  Placement p(nl);
  // Cram all three pins into site 0 (capacity 1): E = (3-1)+5 = 7, C3 = 49.
  for (int i = 0; i < 3; ++i) p.assign_pin_to_site(c, i, 0);
  EXPECT_DOUBLE_EQ(p.site_penalty(c, 5.0), 49.0);
  EXPECT_EQ(p.overloaded_sites(), 1);
  // Moving one pin away: 2 pins in a capacity-1 site -> E = 1+5 = 6.
  p.assign_pin_to_site(c, 0, 1);
  EXPECT_DOUBLE_EQ(p.site_penalty(c, 5.0), 36.0);
}

TEST(Placement, AssignGroupSequencedConsecutive) {
  Netlist nl;
  const NetId n = nl.add_net("n");
  const CellId c = nl.add_custom("c", 6400, 1.0, 1.0, 8);
  const CellId d = nl.add_macro("d", {Rect{0, 0, 5, 5}});
  const GroupId g = nl.add_group(c, "bus", kSideLeft | kSideRight, true);
  for (int i = 0; i < 3; ++i)
    nl.add_group_pin(c, g, std::string("b").append(std::to_string(i)), n);
  nl.add_fixed_pin(d, "q", n, Point{0, 0});
  Placement p(nl);
  p.assign_group(c, g, Side::kRight, 2);
  const CellState& st = p.state(c);
  // Pins occupy consecutive sites 2,3,4 on the right edge.
  const int base = site_index_of(Side::kRight, 2, 8);
  EXPECT_EQ(st.pin_site[0], base);
  EXPECT_EQ(st.pin_site[1], base + 1);
  EXPECT_EQ(st.pin_site[2], base + 2);
  // Sequenced order preserved along the edge.
  EXPECT_LT(st.sites[static_cast<std::size_t>(st.pin_site[0])].offset.y,
            st.sites[static_cast<std::size_t>(st.pin_site[2])].offset.y);
}

TEST(Placement, AssignGroupClampsAtEdgeEnd) {
  Netlist nl;
  const NetId n = nl.add_net("n");
  const CellId c = nl.add_custom("c", 6400, 1.0, 1.0, 4);
  const CellId d = nl.add_macro("d", {Rect{0, 0, 5, 5}});
  const GroupId g = nl.add_group(c, "bus", kSideTop, true);
  for (int i = 0; i < 3; ++i)
    nl.add_group_pin(c, g, std::string("b").append(std::to_string(i)), n);
  nl.add_fixed_pin(d, "q", n, Point{0, 0});
  Placement p(nl);
  p.assign_group(c, g, Side::kTop, 3);  // last site; trailing pins share it
  const CellState& st = p.state(c);
  const int last = site_index_of(Side::kTop, 3, 4);
  EXPECT_EQ(st.pin_site[0], last);
  EXPECT_EQ(st.pin_site[1], last);
  EXPECT_EQ(st.pin_site[2], last);
}

TEST(Placement, AssignGroupRejectsIllegalSide) {
  Netlist nl;
  const NetId n = nl.add_net("n");
  const CellId c = nl.add_custom("c", 400, 1.0, 1.0, 4);
  const CellId d = nl.add_macro("d", {Rect{0, 0, 5, 5}});
  const GroupId g = nl.add_group(c, "bus", kSideLeft, false);
  nl.add_group_pin(c, g, "b0", n);
  nl.add_fixed_pin(d, "q", n, Point{0, 0});
  Placement p(nl);
  EXPECT_THROW(p.assign_group(c, g, Side::kTop, 0), std::invalid_argument);
}

TEST(Placement, RandomizeKeepsCellsInCore) {
  const Netlist nl = generate_circuit(tiny_circuit());
  Placement p(nl);
  Rng rng(3);
  const Rect core{-200, -200, 200, 200};
  p.randomize(rng, core);
  for (const auto& c : nl.cells()) {
    EXPECT_TRUE(core.contains(p.state(c.id).center)) << c.name;
  }
}

TEST(Placement, RandomizeDeterministicPerSeed) {
  const Netlist nl = generate_circuit(tiny_circuit());
  Placement p1(nl), p2(nl);
  Rng r1(9), r2(9);
  const Rect core{-200, -200, 200, 200};
  p1.randomize(r1, core);
  p2.randomize(r2, core);
  for (const auto& c : nl.cells()) {
    EXPECT_EQ(p1.state(c.id).center, p2.state(c.id).center);
    EXPECT_EQ(p1.state(c.id).orient, p2.state(c.id).orient);
  }
  EXPECT_DOUBLE_EQ(p1.teic(), p2.teic());
}

TEST(Placement, UncommittedPinSitsOnAllowedSide) {
  Netlist nl;
  const NetId n = nl.add_net("n");
  const CellId c = nl.add_custom("c", 400, 1.0, 1.0, 4);
  const CellId d = nl.add_macro("d", {Rect{0, 0, 5, 5}});
  nl.add_edge_pin(c, "p", n, kSideTop);
  nl.add_fixed_pin(d, "q", n, Point{0, 0});
  Placement p(nl);
  p.set_center(c, Point{0, 0});
  const Point pos = p.pin_position(0);
  EXPECT_EQ(pos.y, p.bbox(c).yhi);  // on the top edge
}

}  // namespace
}  // namespace tw
