#include "place/stage1_parallel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "check/contracts.hpp"
#include "check/validate.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace tw {
namespace {

OverlapEngine make_overlap_engine(const Placement& placement, const Rect& core,
                                  const DynamicAreaEstimator& est,
                                  EstimatorMode mode, const Netlist& nl) {
  switch (mode) {
    case EstimatorMode::kDynamic:
      return OverlapEngine(placement, est);
    case EstimatorMode::kUniform: {
      const Coord e0 = static_cast<Coord>(std::ceil(0.5 * est.channel_width()));
      return OverlapEngine(placement, core,
                           std::vector<std::array<Coord, 4>>(
                               nl.num_cells(), {e0, e0, e0, e0}));
    }
    case EstimatorMode::kNone:
      return OverlapEngine(placement, core, {});
  }
  throw std::logic_error("bad estimator mode");
}

}  // namespace

/// Placement + incremental-evaluation stack a slot executes against,
/// by reference: the master's objects during the commit pass, a worker
/// replica's during speculation. Same code either way.
struct ParallelStage1Placer::Workspace {
  Placement* placement = nullptr;
  OverlapEngine* overlap = nullptr;
  CostModel* model = nullptr;
  MoveTxn* txn = nullptr;
};

/// One worker's private copy of the evaluation stack. The placement is
/// copied from the master; the overlap index, cost model, and
/// transaction are built over the copy, so a speculating worker never
/// touches shared mutable state (the netlist and the estimator are
/// const-shared; neither has mutable scratch).
struct ParallelStage1Placer::Replica {
  Placement placement;
  OverlapEngine overlap;
  CostModel model;
  MoveTxn txn;

  Replica(const Placement& master, const Rect& core,
          const DynamicAreaEstimator& est, EstimatorMode mode,
          const Netlist& nl, const CostParams& cost, double p2)
      : placement(master),
        overlap(make_overlap_engine(placement, core, est, mode, nl)),
        model(placement, overlap, cost),
        txn(placement, overlap, model) {
    model.set_p2(p2);
    overlap.refresh_all();
  }

  Workspace ws() { return Workspace{&placement, &overlap, &model, &txn}; }
};

/// Everything one speculative slot produced: the accepted moves (with
/// enough state to commit them on the master, roll them back on the
/// replica, and verify them at full check level) plus the read/write
/// footprints the commit pass intersects.
struct ParallelStage1Placer::SlotResult {
  struct Commit {
    std::size_t num_cells = 0;
    std::array<CellId, 2> cells{};
    std::array<CellState, 2> pre;   ///< states before the move (rollback)
    std::array<CellState, 2> post;  ///< accepted states (commit + resync)
    CostTerms before;
    CostTerms after;
    bool pin_mode = false;
    std::vector<NetId> nets;  ///< pin moves: the moved pins' nets (sorted)
  };

  std::vector<Commit> commits;
  std::uint64_t read_regions = 0;   ///< every outline the slot evaluated
  std::uint64_t write_regions = 0;  ///< outlines of committed moves only
  std::vector<NetId> read_nets;     ///< may contain duplicates (stamped)
  std::vector<NetId> write_nets;
  long long attempted = 0;
  long long accepted = 0;

  void reset() {
    commits.clear();
    read_regions = write_regions = 0;
    read_nets.clear();
    write_nets.clear();
    attempted = accepted = 0;
  }
};

/// Per-temperature-step constants every slot of the step shares.
struct ParallelStage1Placer::SlotEnv {
  double t = 0.0;
  Coord win_x = 0;
  Coord win_y = 0;
  Rect core;
  double p_displace = 0.0;
};

ParallelStage1Placer::ParallelStage1Placer(const Netlist& nl,
                                           ParallelStage1Params params,
                                           std::uint64_t seed)
    : nl_(nl),
      params_(params),
      rng_(seed),
      estimator_(nl, params.base.wire),
      slot_seed_base_(derive_seed(seed, "p1-slots")) {}

Stage1Result ParallelStage1Placer::run(Placement& placement) {
  return run_impl(placement, nullptr);
}

Stage1Result ParallelStage1Placer::resume(Placement& placement,
                                          const Stage1Cursor& cursor) {
  return run_impl(placement, &cursor);
}

std::uint64_t ParallelStage1Placer::note_read(const Workspace& ws, CellId c,
                                              SlotResult& out) {
  const std::uint64_t m = regions_.mask(ws.overlap->expanded_bbox(c));
  out.read_regions |= m;
  const auto& nets = ws.placement->nets_of_cell(c);
  out.read_nets.insert(out.read_nets.end(), nets.begin(), nets.end());
  return m;
}

ParallelStage1Placer::MoveOutcome ParallelStage1Placer::judge(
    const Workspace& ws, Rng& rng, const SlotEnv& env,
    std::span<const CellId> cells, bool pin_mode, std::span<const NetId> nets,
    const char* what, std::uint64_t pre_regions, SlotResult& out,
    CostTerms& running, bool on_master) {
  MoveTxn& txn = *ws.txn;
  MoveOutcome res;
  res.attempted_valid = true;
  const double delta = txn.evaluate();

  // Post-evaluation outline: where the move put the cells. The overlap
  // index was refreshed by evaluate() (pin moves keep the outline), so
  // expanded_bbox is the moved geometry.
  std::uint64_t move_regions = 0;
  for (const CellId c : cells)
    move_regions |= regions_.mask(ws.overlap->expanded_bbox(c));
  out.read_regions |= move_regions;

  ++out.attempted;
  if (metropolis_accept(delta, env.t, rng)) {
    ++out.accepted;
    res.accepted = true;
    txn.commit(running);
    auto& cm = out.commits.emplace_back();
    cm.num_cells = cells.size();
    cm.pin_mode = pin_mode;
    cm.before = txn.before();
    cm.after = txn.after();
    cm.nets.assign(nets.begin(), nets.end());
    for (std::size_t k = 0; k < cells.size(); ++k) {
      cm.cells[k] = cells[k];
      cm.pre[k] = txn.saved_state(k);
      cm.post[k] = ws.placement->state(cells[k]);
    }
    // Write footprint: both outlines (any later slot reading either
    // conflicts — this also serializes two slots touching the same cell,
    // whose current outline is always in both footprints) plus the nets
    // whose bounds the commit changes.
    out.write_regions |= pre_regions | move_regions;
    if (pin_mode) {
      out.write_nets.insert(out.write_nets.end(), nets.begin(), nets.end());
    } else {
      for (const CellId c : cells) {
        const auto& cn = ws.placement->nets_of_cell(c);
        out.write_nets.insert(out.write_nets.end(), cn.begin(), cn.end());
      }
    }
    if (on_master) {
      if (audit_ != nullptr) audit_->on_accept(running, what);
      if (hooks_.faults != nullptr)
        hooks_.faults->poll(recover::FaultSite::kStage1Accept);
    }
  } else {
    txn.revert();
  }
  return res;
}

ParallelStage1Placer::MoveOutcome ParallelStage1Placer::try_pin_move(
    const Workspace& ws, Rng& rng, const SlotEnv& env, CellId i,
    SlotResult& out, CostTerms& running, bool on_master) {
  const Cell& cell = nl_.cell(i);
  MoveTxn& txn = *ws.txn;

  std::vector<int>& loose = txn.scratch_ints();
  loose.clear();
  for (std::size_t k = 0; k < cell.pins.size(); ++k)
    if (nl_.pin(cell.pins[k]).commit == PinCommit::kEdge)
      loose.push_back(static_cast<int>(k));
  const std::size_t units = cell.groups.size() + loose.size();
  if (units == 0) return {};

  const auto pick = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(units) - 1));
  std::vector<NetId>& nets = txn.scratch_nets();
  nets.clear();
  if (pick < cell.groups.size()) {
    for (PinId pid : cell.groups[pick].pins) nets.push_back(nl_.pin(pid).net);
  } else {
    const int local = loose[pick - cell.groups.size()];
    nets.push_back(nl_.pin(cell.pins[static_cast<std::size_t>(local)]).net);
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());

  const std::uint64_t pre = note_read(ws, i, out);
  txn.begin_pins(i, nets);
  if (pick < cell.groups.size()) {
    const auto g = static_cast<GroupId>(pick);
    const auto sides = sides_in_mask(cell.groups[pick].side_mask);
    const Side side = sides[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(sides.size()) - 1))];
    const int start =
        static_cast<int>(rng.uniform_int(0, cell.sites_per_edge - 1));
    txn.assign_group(g, side, start);
  } else {
    const int local = loose[pick - cell.groups.size()];
    const Pin& pin = nl_.pin(cell.pins[static_cast<std::size_t>(local)]);
    const int count = num_sites_in_mask(pin.side_mask, cell.sites_per_edge);
    const int site = nth_site_in_mask(
        pin.side_mask, static_cast<int>(rng.uniform_int(0, count - 1)),
        cell.sites_per_edge);
    txn.assign_pin_to_site(local, site);
  }
  const CellId cells1[] = {i};
  return judge(ws, rng, env, cells1, /*pin_mode=*/true, nets,
               "stage1 pin move", pre, out, running, on_master);
}

void ParallelStage1Placer::run_slot(const Workspace& ws, Rng& rng,
                                    const SlotEnv& env, SlotResult& out,
                                    CostTerms& running, bool on_master) {
  Placement& p = *ws.placement;
  MoveTxn& txn = *ws.txn;
  const auto num_cells = static_cast<CellId>(nl_.num_cells());
  const int move_type = rng.one_or_two(env.p_displace);
  if (move_type == 1) {
    // --- single-cell displacement cascade (Stage1Placer's repertoire) ----
    const CellId i = static_cast<CellId>(rng.uniform_int(0, num_cells - 1));
    const std::uint64_t pre = note_read(ws, i, out);
    const Point c0 = p.state(i).center;
    const Point d = select_displacement(rng, env.win_x, env.win_y,
                                        params_.base.selector);
    const Point target{std::clamp(c0.x + d.x, env.core.xlo, env.core.xhi),
                       std::clamp(c0.y + d.y, env.core.ylo, env.core.yhi)};
    const CellId cells1[] = {i};

    txn.begin(i);
    txn.set_center(i, target);
    MoveOutcome mo = judge(ws, rng, env, cells1, false, {}, "stage1 move",
                           pre, out, running, on_master);
    if (!mo.accepted) {
      // A'(i, x, y): same displacement, aspect ratio inverted.
      const Orient o0 = p.state(i).orient;
      txn.begin(i);
      txn.set_center(i, target);
      txn.set_orient(i, aspect_inverted(o0));
      mo = judge(ws, rng, env, cells1, false, {}, "stage1 move", pre, out,
                 running, on_master);
      if (!mo.accepted) {
        // A_o(i): randomly-chosen orientation change in place.
        const Orient o =
            kAllOrients[static_cast<std::size_t>(rng.uniform_int(0, 7))];
        txn.begin(i);
        txn.set_orient(i, o);
        mo = judge(ws, rng, env, cells1, false, {}, "stage1 move", pre, out,
                   running, on_master);
      }
    }

    if (nl_.cell(i).is_custom()) {
      int uncommitted = 0;
      for (PinId pid : nl_.cell(i).pins)
        if (!nl_.pin(pid).committed()) ++uncommitted;
      for (int k = 0; k < uncommitted; ++k)
        (void)try_pin_move(ws, rng, env, i, out, running, on_master);
      if (nl_.cell(i).has_aspect_freedom()) {
        // The cell may have moved above; re-note its current outline.
        const std::uint64_t pre2 = note_read(ws, i, out);
        const Cell& cell = nl_.cell(i);
        txn.begin(i);
        double aspect;
        if (!cell.discrete_aspects.empty()) {
          aspect = cell.discrete_aspects[static_cast<std::size_t>(
              rng.uniform_int(
                  0,
                  static_cast<std::int64_t>(cell.discrete_aspects.size()) -
                      1))];
        } else {
          aspect = rng.uniform_real(cell.aspect_lo, cell.aspect_hi);
        }
        txn.set_aspect(i, aspect);
        (void)judge(ws, rng, env, cells1, false, {}, "stage1 move", pre2, out,
                    running, on_master);
      }
    } else if (nl_.cell(i).instances.size() > 1) {
      const std::uint64_t pre2 = note_read(ws, i, out);
      const InstanceId cur = p.state(i).instance;
      txn.begin(i);
      InstanceId k = cur;
      while (k == cur)
        k = static_cast<InstanceId>(rng.uniform_int(
            0, static_cast<std::int64_t>(nl_.cell(i).instances.size()) - 1));
      txn.set_instance(i, k);
      (void)judge(ws, rng, env, cells1, false, {}, "stage1 move", pre2, out,
                  running, on_master);
    }
  } else {
    // --- pairwise interchange -------------------------------------------
    if (num_cells < 2) return;
    const CellId i = static_cast<CellId>(rng.uniform_int(0, num_cells - 1));
    CellId j = i;
    while (j == i)
      j = static_cast<CellId>(rng.uniform_int(0, num_cells - 1));
    const std::uint64_t pre = note_read(ws, i, out) | note_read(ws, j, out);
    const Point ci = p.state(i).center;
    const Point cj = p.state(j).center;
    const CellId cells2[] = {i, j};

    txn.begin(i, j);
    txn.set_center(i, cj);
    txn.set_center(j, ci);
    MoveOutcome mo = judge(ws, rng, env, cells2, false, {}, "stage1 move",
                           pre, out, running, on_master);
    if (!mo.accepted) {
      txn.begin(i, j);
      txn.set_center(i, cj);
      txn.set_center(j, ci);
      txn.set_orient(i, aspect_inverted(p.state(i).orient));
      txn.set_orient(j, aspect_inverted(p.state(j).orient));
      (void)judge(ws, rng, env, cells2, false, {}, "stage1 move", pre, out,
                  running, on_master);
    }
  }
}

void ParallelStage1Placer::rollback_slot(const Workspace& ws,
                                         SlotResult& out) {
  // Reverse replay of the recorded pre-states: a slot may have committed
  // several moves of the same cell (displacement + aspect + pin), so the
  // first-committed state must be written back last.
  for (auto it = out.commits.rbegin(); it != out.commits.rend(); ++it) {
    ws.txn->sync_states(std::span<const CellId>(it->cells.data(),
                                                it->num_cells),
                        std::span<const CellState>(it->pre.data(),
                                                   it->num_cells));
  }
}

void ParallelStage1Placer::quench(const Workspace& ws, const Rect& core,
                                  long long inner) {
  // T = 0 (same wind-down as Stage1Placer::quench): improvements only,
  // metropolis consumes no RNG, one sweep of minimum-window moves.
  const Coord span = RangeLimiter(core.width(), core.height(), 1.0).min_span();
  const auto num_cells = static_cast<CellId>(nl_.num_cells());
  SlotEnv env;
  env.core = core;
  SlotResult scratch;
  Placement& p = *ws.placement;
  MoveTxn& txn = *ws.txn;
  for (long long it = 0; it < inner; ++it) {
    scratch.reset();
    const CellId i = static_cast<CellId>(rng_.uniform_int(0, num_cells - 1));
    const std::uint64_t pre = note_read(ws, i, scratch);
    const Point c0 = p.state(i).center;
    const Point d = select_displacement(rng_, span, span, params_.base.selector);
    const Point target{std::clamp(c0.x + d.x, core.xlo, core.xhi),
                       std::clamp(c0.y + d.y, core.ylo, core.yhi)};
    const CellId cells1[] = {i};
    txn.begin(i);
    txn.set_center(i, target);
    const MoveOutcome mo = judge(ws, rng_, env, cells1, false, {},
                                 "stage1 move", pre, scratch, current_, true);
    if (!mo.accepted) {
      const Orient o =
          kAllOrients[static_cast<std::size_t>(rng_.uniform_int(0, 7))];
      txn.begin(i);
      txn.set_orient(i, o);
      (void)judge(ws, rng_, env, cells1, false, {}, "stage1 move", pre,
                  scratch, current_, true);
    }
  }
}

Stage1Result ParallelStage1Placer::run_impl(Placement& placement,
                                            const Stage1Cursor* cursor) {
  TW_REQUIRE(nl_.num_cells() > 0, "stage 1 needs at least one cell");
  if constexpr (check::kLevel >= check::kLevelFull) {
    const ValidationReport nr = validate_netlist(nl_);
    TW_REQUIRE_FULL(nr.ok(), nr.str());
  }
  Stage1Result result;
  stats_ = BatchStats{};

  // --- core sizing, T-infinity scaling, p2 calibration (as Stage1Placer) ---
  const Rect core = estimator_.compute_initial_core(params_.base.core_aspect);

  const double e0 = estimator_.nominal_expansion();
  double eff_area = 0.0;
  for (const auto& c : nl_.cells()) {
    const CellInstance& inst = c.instances.front();
    eff_area += (static_cast<double>(inst.width) + 2.0 * e0) *
                (static_cast<double>(inst.height) + 2.0 * e0);
  }
  const double avg_cell_area = eff_area / static_cast<double>(nl_.num_cells());
  const double scale = temperature_scale(avg_cell_area);
  double t;
  int first_step = 0;
  if (cursor != nullptr) {
    TW_REQUIRE(cursor->next_step >= 0 &&
                   cursor->next_step <= params_.base.max_temperature_steps,
               "cursor step=", cursor->next_step);
    TW_REQUIRE(cursor->t > 0.0 && cursor->p2_base > 0.0,
               "cursor t=", cursor->t, " p2_base=", cursor->p2_base);
    result = cursor->partial;
    t = cursor->t;
    first_step = cursor->next_step;
    rng_ = Rng::from_state(cursor->rng);
  } else {
    TW_REQUIRE(params_.base.warm_start_t_factor > 0.0 &&
                   params_.base.warm_start_t_factor <= 1.0,
               "warm_start_t_factor=", params_.base.warm_start_t_factor);
    result.core = core;
    result.t_infinity = t_infinity(scale);
    result.temperature_scale = scale;
    t = result.t_infinity * params_.base.warm_start_t_factor;
  }

  OverlapEngine overlap = make_overlap_engine(
      placement, core, estimator_, params_.base.estimator_mode, nl_);
  CostModel model(placement, overlap, params_.base.cost);
  double p2_base;
  if (cursor != nullptr) {
    p2_base = cursor->p2_base;
    model.set_p2(p2_base);
    overlap.refresh_all();
  } else if (params_.base.warm_start_t_factor < 1.0) {
    std::vector<CellState> warm;
    const auto n = static_cast<CellId>(nl_.num_cells());
    warm.reserve(static_cast<std::size_t>(n));
    for (CellId i = 0; i < n; ++i) warm.push_back(placement.snapshot(i));
    p2_base = model.calibrate_p2(placement, overlap, core, rng_,
                                 params_.base.p2_samples);
    result.p2 = p2_base;
    for (CellId i = 0; i < n; ++i)
      placement.restore(i, warm[static_cast<std::size_t>(i)]);  // lint: allow(txn-mutation) // lint: allow(txn-reach)
    overlap.refresh_all();
  } else {
    p2_base = model.calibrate_p2(placement, overlap, core, rng_,
                                 params_.base.p2_samples);
    result.p2 = p2_base;
  }

  current_ = model.full();
  CostAudit audit(model, params_.base.audit);
  audit_ = &audit;
  MoveTxn txn(placement, overlap, model);
  Workspace master{&placement, &overlap, &model, &txn};

  // --- the parallel machinery ------------------------------------------
  // The region grid is a pure function of the core, the batch size of the
  // circuit: neither depends on the worker count, so the trajectory
  // (speculation footprints, conflict verdicts, commit order) is fixed by
  // (netlist, params, seed) alone.
  const Coord span_target =
      params_.region_span > 0
          ? params_.region_span
          : std::max<Coord>(1, std::max(core.width(), core.height()) / 8);
  regions_ = BinGrid::make(core, span_target, 8);

  const auto num_cells = static_cast<CellId>(nl_.num_cells());
  const int batch_slots =
      params_.batch_slots > 0
          ? params_.batch_slots
          : std::clamp(static_cast<int>(num_cells), 8, 256);

  const int num_workers = std::max(1, params_.num_workers);
  WorkerCrew crew(num_workers);
  std::vector<std::unique_ptr<Replica>> replicas;
  replicas.reserve(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w)
    replicas.push_back(std::make_unique<Replica>(
        placement, core, estimator_, params_.base.estimator_mode, nl_,
        params_.base.cost, model.p2()));

  std::vector<SlotResult> slots(static_cast<std::size_t>(batch_slots));
  std::vector<std::uint32_t> net_stamp(nl_.num_nets(), 0);
  std::uint32_t net_epoch = 0;
  std::vector<CellId> sync_cells;
  std::vector<CellState> sync_states;

  const CoolingSchedule schedule = CoolingSchedule::stage1();
  RangeLimiter limiter(core.width(), core.height(), result.t_infinity,
                       params_.base.rho);
  const double p_displace =
      params_.base.ratio_r / (1.0 + params_.base.ratio_r);
  const long long inner =
      static_cast<long long>(params_.base.attempts_per_cell) * num_cells;

  const double t_final = std::max(1e-9, scale * params_.base.t_stop_factor);
  const double log_span = std::log(result.t_infinity / t_final);

  recover::RunBudget* budget = hooks_.budget;
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<CellState> best;
  auto track_best = [&]() {
    if (budget == nullptr) return;
    const double c = model.total(current_);
    if (c >= best_cost) return;
    best_cost = c;
    best.clear();
    best.reserve(static_cast<std::size_t>(num_cells));
    for (CellId i = 0; i < num_cells; ++i)
      best.push_back(placement.snapshot(i));
  };

  const int checkpoint_every = std::max(1, hooks_.checkpoint_every);
  bool stopped = false;

  // --- the annealing loop ----------------------------------------------
  for (int step = first_step; step < params_.base.max_temperature_steps;
       ++step) {
    if (hooks_.on_checkpoint && step % checkpoint_every == 0) {
      Stage1Cursor cur;
      cur.next_step = step;
      cur.t = t;
      cur.p2_base = p2_base;
      cur.partial = result;
      cur.rng = rng_.state();
      hooks_.on_checkpoint(cur);
    }
    if (hooks_.faults != nullptr)
      hooks_.faults->poll(recover::FaultSite::kStage1Step);
    if (budget != nullptr && budget->stop_requested()) {
      stopped = true;
      break;
    }
    if (params_.base.overlap_penalty_growth != 1.0 && log_span > 0.0) {
      const double progress =
          std::clamp(std::log(t / t_final) / log_span, 0.0, 1.0);
      model.set_p2(p2_base * std::pow(params_.base.overlap_penalty_growth,
                                      1.0 - progress));
      current_ = model.full();
    }
    // The replicas evaluate with the step's penalty weight too.
    for (auto& r : replicas) r->model.set_p2(model.p2());

    const SlotEnv env{t, limiter.window_x(t), limiter.window_y(t), core,
                      p_displace};

    RunningStats cost_trace;
    AcceptanceCounter acc;

    long long done = 0;
    long long batch = 0;
    while (done < inner) {
      if (budget != nullptr && budget->stop_requested()) {
        stopped = true;
        break;
      }
      const int n_slots =
          static_cast<int>(std::min<long long>(batch_slots, inner - done));

      // 1) Speculate: every slot evaluated against the frozen batch-start
      //    state on whichever worker claims it.
      // Slot `slot` writes only slots[slot], worker w only replicas[w];
      // run_slot/rollback_slot off the master read the placer's
      // configuration alone (test_stage1_parallel runs under TSan).
      const WorkerCrew::Job eval = [this, &slots, &replicas, &env, step,  // lint: allow(pool-capture)
                                    batch](int worker, int slot) {
        SlotResult& sr = slots[static_cast<std::size_t>(slot)];
        sr.reset();
        Rng srng(derive_slot_seed(slot_seed_base_, step, batch, slot));
        Workspace ws = replicas[static_cast<std::size_t>(worker)]->ws();
        CostTerms scratch;
        run_slot(ws, srng, env, sr, scratch, /*on_master=*/false);
        rollback_slot(ws, sr);
      };
      crew.run(n_slots, eval);

      // 2) Commit pass, in slot order, on this thread.
      if (net_epoch == std::numeric_limits<std::uint32_t>::max()) {
        std::fill(net_stamp.begin(), net_stamp.end(), 0);
        net_epoch = 0;
      }
      ++net_epoch;
      std::uint64_t dirty_regions = 0;
      sync_cells.clear();
      sync_states.clear();
      for (int s = 0; s < n_slots; ++s) {
        SlotResult& sr = slots[static_cast<std::size_t>(s)];
        if (budget != nullptr) budget->charge_move();
        bool conflict = (sr.read_regions & dirty_regions) != 0;
        if (!conflict) {
          for (const NetId n : sr.read_nets) {
            if (net_stamp[static_cast<std::size_t>(n)] == net_epoch) {
              conflict = true;
              break;
            }
          }
        }
        if (conflict) {
          // The slot's frozen-state view is stale: re-run it serially
          // against the live master from the same slot seed.
          ++stats_.conflicted;
          sr.reset();
          Rng srng(derive_slot_seed(slot_seed_base_, step, batch, s));
          run_slot(master, srng, env, sr, current_, /*on_master=*/true);
        } else {
          ++stats_.clean;
          for (const auto& cm : sr.commits) {
            txn.commit_applied(
                std::span<const CellId>(cm.cells.data(), cm.num_cells),
                std::span<const CellState>(cm.post.data(), cm.num_cells),
                cm.nets, cm.pin_mode, cm.before, cm.after, current_);
            if (audit_ != nullptr)
              audit_->on_accept(current_, cm.pin_mode ? "stage1 pin move"
                                                      : "stage1 move");
            if (hooks_.faults != nullptr)
              hooks_.faults->poll(recover::FaultSite::kStage1Accept);
          }
        }
        acc.attempted += static_cast<std::size_t>(sr.attempted);
        acc.accepted += static_cast<std::size_t>(sr.accepted);
        dirty_regions |= sr.write_regions;
        for (const NetId n : sr.write_nets)
          net_stamp[static_cast<std::size_t>(n)] = net_epoch;
        for (const auto& cm : sr.commits) {
          for (std::size_t k = 0; k < cm.num_cells; ++k) {
            sync_cells.push_back(cm.cells[k]);
            sync_states.push_back(cm.post[k]);
          }
        }
        cost_trace.add(model.total(current_));
      }

      // 3) Resync the replicas with everything the batch committed (in
      //    commit order; later writes of a cell overwrite earlier ones).
      if (!sync_cells.empty()) {
        const std::vector<CellId>& cells = sync_cells;
        const std::vector<CellState>& states = sync_states;
        const WorkerCrew::Job sync = [&replicas, &cells, &states](
                                         int /*worker*/, int replica) {
          replicas[static_cast<std::size_t>(replica)]->txn.sync_states(cells,
                                                                       states);
        };
        crew.run(num_workers, sync);
      }
      ++stats_.batches;
      stats_.slots += n_slots;
      done += n_slots;
      ++batch;
    }

    result.attempts += static_cast<long long>(acc.attempted);
    result.accepts += static_cast<long long>(acc.accepted);
    if (stopped) break;

    result.trace.push_back(
        {t, cost_trace.mean(), acc.rate(), limiter.window_x(t)});
    ++result.temperature_steps;
    if (budget != nullptr) budget->charge_step();

    audit.on_temperature_step(current_, "stage1 temperature step");

    current_ = model.full();
    track_best();

    log_debug("stage1-par T=", t, " cost=", model.total(current_),
              " acc=", acc.rate(), " win=", limiter.window_x(t),
              " clean=", stats_.clean, " conflicted=", stats_.conflicted);

    if (limiter.at_minimum(t) && t <= scale * params_.base.t_stop_factor)
      break;
    t = schedule.next(t, scale);
  }

  if (stopped) {
    quench(master, core, inner);
    current_ = model.full();
    if (model.total(current_) > best_cost) {
      for (CellId i = 0; i < num_cells; ++i)
        placement.restore(i, best[static_cast<std::size_t>(i)]);  // lint: allow(txn-mutation) // lint: allow(txn-reach)
      overlap.refresh_all();
      current_ = model.full();
    }
    result.outcome = budget->stop_outcome();
    log_info("stage1-par stopped early (", recover::to_string(result.outcome),
             ") after ", result.temperature_steps, " step(s)");
  }

  audit_ = nullptr;
  if constexpr (check::kLevel >= check::kLevelFull) {
    const ValidationReport pr = validate_placement(placement, {.core = core});
    TW_ENSURE_FULL(pr.ok(), pr.str());
  }

  result.final_teic = placement.teic();
  result.final_teil = placement.teil();
  result.residual_overlap = overlap.total_overlap();
  result.overloaded_sites = placement.overloaded_sites();
  return result;
}

}  // namespace tw
