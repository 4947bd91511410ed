// Tests for overlap removal (legalization): spreading, relocation, the
// row-repack fallback, and preservation of placement quality.
#include <gtest/gtest.h>

#include "place/legalize.hpp"
#include "place/stage1.hpp"
#include "workload/paper_circuits.hpp"

namespace tw {
namespace {

Netlist small_circuit() {
  Netlist nl;
  const NetId n = nl.add_net("n");
  for (int i = 0; i < 4; ++i)
    nl.add_macro(std::string("c").append(std::to_string(i)),
                 {Rect{0, 0, 10, 10}});
  nl.add_fixed_pin(0, "p", n, Point{10, 5});
  nl.add_fixed_pin(1, "q", n, Point{0, 5});
  return nl;
}

TEST(Legalize, BareOverlapMeasure) {
  const Netlist nl = small_circuit();
  Placement p(nl);
  for (CellId c = 0; c < 4; ++c) p.set_center(c, Point{0, 0});
  EXPECT_EQ(bare_overlap(p), 6 * 100);  // all pairs fully stacked
  p.set_center(0, Point{-50, -50});
  p.set_center(1, Point{50, -50});
  p.set_center(2, Point{-50, 50});
  p.set_center(3, Point{50, 50});
  EXPECT_EQ(bare_overlap(p), 0);
}

TEST(Legalize, SeparatesStackedCells) {
  const Netlist nl = small_circuit();
  Placement p(nl);
  const Rect core{-100, -100, 100, 100};
  for (CellId c = 0; c < 4; ++c)
    p.set_center(c, Point{c, 0});  // heavy mutual overlap
  const LegalizeResult r = legalize_spread(p, core);
  EXPECT_TRUE(r.success());
  EXPECT_EQ(bare_overlap(p), 0);
  EXPECT_GT(r.initial_overlap, 0);
}

TEST(Legalize, RespectsMargin) {
  const Netlist nl = small_circuit();
  Placement p(nl);
  const Rect core{-100, -100, 100, 100};
  for (CellId c = 0; c < 4; ++c) p.set_center(c, Point{c, c});
  const LegalizeResult r = legalize_spread(p, core, 4);
  EXPECT_TRUE(r.success());
  // Every pair of cells keeps a gap of at least the margin in one axis.
  for (CellId i = 0; i < 4; ++i)
    for (CellId j = static_cast<CellId>(i + 1); j < 4; ++j) {
      const Rect a = p.bbox(i).inflated(2);
      const Rect b = p.bbox(j).inflated(2);
      EXPECT_EQ(a.overlap_area(b), 0) << i << "," << j;
    }
}

TEST(Legalize, ClampsIntoCore) {
  const Netlist nl = small_circuit();
  Placement p(nl);
  const Rect core{-100, -100, 100, 100};
  p.set_center(0, Point{500, 500});  // far outside
  p.set_center(1, Point{-50, -50});
  p.set_center(2, Point{50, -50});
  p.set_center(3, Point{-50, 50});
  legalize_spread(p, core);
  EXPECT_TRUE(core.inflated(1).contains(p.bbox(0)));
}

TEST(Legalize, NoopOnLegalPlacement) {
  const Netlist nl = small_circuit();
  Placement p(nl);
  const Rect core{-100, -100, 100, 100};
  p.set_center(0, Point{-50, -50});
  p.set_center(1, Point{50, -50});
  p.set_center(2, Point{-50, 50});
  p.set_center(3, Point{50, 50});
  const std::vector<Point> before{p.state(0).center, p.state(1).center,
                                  p.state(2).center, p.state(3).center};
  const LegalizeResult r = legalize_spread(p, core);
  EXPECT_TRUE(r.success());
  EXPECT_LE(r.iterations, 2);
  for (CellId c = 0; c < 4; ++c)
    EXPECT_EQ(p.state(c).center, before[static_cast<std::size_t>(c)]);
}

TEST(Legalize, RepackAlwaysLegal) {
  const Netlist nl = generate_circuit(tiny_circuit(3));
  Placement p(nl);
  Rng rng(5);
  const Rect core{-200, -200, 200, 200};
  p.randomize(rng, core);
  legalize_repack(p, core, 2);
  EXPECT_EQ(bare_overlap(p), 0);
}

TEST(Legalize, RepackPreservesRoughOrdering) {
  const Netlist nl = generate_circuit(tiny_circuit(4));
  Placement p(nl);
  const Rect core{-300, -300, 300, 300};
  // Two cells at opposite corners should stay on their sides after repack.
  Rng rng(6);
  p.randomize(rng, core);
  p.set_center(0, Point{-290, -290});
  p.set_center(1, Point{290, 290});
  legalize_repack(p, core, 2);
  EXPECT_LT(p.state(0).center.y, p.state(1).center.y);
}

TEST(Legalize, Stage1OutputLegalizesCheaply) {
  // The end-to-end property the stage-2 pipeline depends on: stage 1 with
  // the penalty ramp leaves so little overlap that legalization barely
  // moves the TEIL.
  const Netlist nl = generate_circuit(tiny_circuit(5));
  Stage1Params params;
  params.attempts_per_cell = 20;
  params.p2_samples = 8;
  Placement p(nl);
  const Stage1Result s1 = Stage1Placer(nl, params, 9).run(p);
  const double teil_before = p.teil();
  const LegalizeResult r =
      legalize_spread(p, s1.core, 2 * nl.tech().track_separation);
  // At most a sliver of overlap remains (under the repack tolerance of 2
  // percent of the cell area) and the wirelength survives.
  EXPECT_LT(static_cast<double>(r.final_overlap),
            0.02 * static_cast<double>(nl.total_cell_area()));
  EXPECT_FALSE(r.repacked);
  EXPECT_LT(p.teil(), 1.2 * teil_before);
}

TEST(Legalize, RandomPlacementsAlwaysEndNearlyLegal) {
  // Property sweep: any random configuration must end with overlap under
  // the repack tolerance (2 percent of cell area), via the fallback chain.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Netlist nl = generate_circuit(tiny_circuit(seed));
    Placement p(nl);
    Rng rng(seed * 13);
    // Core sized like the estimator's target.
    DynamicAreaEstimator est(nl);
    const Rect core = est.compute_initial_core();
    p.randomize(rng, core);
    const LegalizeResult r = legalize_spread(p, core, 2);
    EXPECT_LE(static_cast<double>(r.final_overlap),
              0.02 * static_cast<double>(nl.total_cell_area()))
        << "seed " << seed;
  }
}

TEST(Legalize, RelocateFixesIsolatedCollision) {
  const Netlist nl = small_circuit();
  Placement p(nl);
  const Rect core{-100, -100, 100, 100};
  p.set_center(0, Point{-50, -50});
  p.set_center(1, Point{-50, -50});  // stacked on 0
  p.set_center(2, Point{50, 50});
  p.set_center(3, Point{-50, 50});
  EXPECT_TRUE(relocate_overlapping(p, core, 2));
  EXPECT_EQ(bare_overlap(p), 0);
}

}  // namespace
}  // namespace tw
