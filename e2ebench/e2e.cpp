// End-to-end benchmark program for TimberWolfMC (README.md in this
// directory explains the workloads, the metrics and the steadiness
// record).
//
//   tw_e2e --workload soc_route|soc_place|serve_mix --seed N --seconds S
//          --trace 0|1 --work-dir DIR [--commit ID]
//
// Every input is generated here from --seed; the library receives only
// the generated netlists. Stdout carries one `meta {...}` line and, last,
// the result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 1 the spans are written to DIR/trace-<workload>-<seed>.json in
// Chrome trace-event format. Exit status: 0 when every output check
// passed, 1 when a check failed (the result line is still printed), 2 on
// usage errors and 3 for builds that must not be timed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "channel/channel_graph.hpp"
#include "check/contracts.hpp"
#include "check/validate.hpp"
#include "cluster/cluster.hpp"
#include "flow/multilevel.hpp"
#include "flow/timberwolf.hpp"
#include "flow/warm_start.hpp"
#include "netlist/yal.hpp"
#include "place/legalize.hpp"
#include "route/interchange.hpp"
#include "route/steiner.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/scheduler.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/paper_circuits.hpp"

namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workload constants. Changing any of them changes what the benchmark
// measures: it is a benchmark change of its own, never part of a change
// that claims a gain.

// Set-up repeats in bursts of kSetupBurst: one before the warm-up and one
// after each timed job (serve_mix: after each half lap). setup_s is the
// least of the bursts' medians. On a shared 4-vCPU VM the vCPUs switched
// between a fast and a ~1.6x slower state every 10-40 s; a burst of a few
// tens of milliseconds sees one state, and a run's fastest burst gives its
// set-up time in the fast one.
constexpr int kSetupBurst = 6;

// The soc_route and serve_mix netlists are the same in every run; --seed
// drives the flow seeds (and the serve submission sequence). Their routing
// work differs so much from instance to instance that per-seed instances
// make a run's job-cost mix, and so its times and quality, depend on the
// seed more than on the program. soc_place netlists (1k cells, near-equal
// work per instance) still come from --seed.
constexpr std::uint64_t kInstanceSeed = 1988;

// A timed batch run holds --seconds / (nominal job cost) jobs, so its job
// set depends on --seconds and never on the machine's speed.
constexpr int kRouteCells = 100;       // soc_route: scaled, hub-free soc netlists
constexpr int kRouteInstances = 12;    // fixed netlists; job k routes k % 12
constexpr double kRouteJobSeconds = 2.0;
constexpr int kRouteTracedJobs = 4;

constexpr double kPlaceJobSeconds = 3.5;  // soc_place: k1k tier, hubs on
constexpr int kPlaceTracedJobs = 2;
constexpr int kPlaceAttemptsPerCell = 5;

constexpr int kServeExecutors = 2;     // PoolExecutor worker threads
// Closed loop, one job per client. As many jobs outstanding as executors:
// with more, a job's latency depends on which jobs it happened to queue
// behind, and the median moved by 20% between runs on one machine.
constexpr int kServeOutstanding = kServeExecutors;
constexpr int kServeMinJobs = 110;     // so p90 has >= 10 samples beyond it
constexpr int kServeQualityJobs = 100; // quality over submissions [0, 100)
constexpr int kServeTracedJobs = 100;  // per phase of the traced run
constexpr int kServeReplays = 2;       // in-process flow replays (trace 1)
constexpr int kServeRepeatEvery = 4;   // 25% of submissions are repeats
constexpr int kServeRepeatLag = 12;    // a repeat targets index <= i - lag
constexpr int kServeVariants = 6;      // generated instances per circuit

// The paper circuits whose fast flow takes 0.35-0.9 s, overlapping ranges.
// l1 and d2 take 4-20 s and would turn the mix into a queue behind them.
// i3 and p1 take 0.07-0.25 s: with them, the median job fell in the gap
// between their runs and the next circuit's (0.25-0.35 s) and moved by 17%
// between seeds.
const char* const kServeCircuits[] = {"i1", "i2", "d3", "x1"};
constexpr double kHardStopSeconds = 120.0;

tw::FlowParams route_flow_params(std::uint64_t seed) {
  tw::FlowParams p;
  p.stage1.attempts_per_cell = 2;
  p.stage2.attempts_per_cell = 2;
  p.stage2.router.steiner.m = 4;
  p.seed = seed;
  return p;
}

tw::Stage1Params place_stage1_params() {
  tw::Stage1Params sp;
  sp.attempts_per_cell = kPlaceAttemptsPerCell;
  sp.p2_samples = 6;
  return sp;
}

/// The wire-visible knobs of a served job (twcli --fast).
tw::serve::JobParams serve_job_params(std::uint64_t seed) {
  tw::serve::JobParams p;
  p.master_seed = seed;
  p.s1_attempts_per_cell = 12;
  p.s1_p2_samples = 6;
  p.s2_attempts_per_cell = 8;
  p.steiner_m = 4;
  return p;
}

/// The flow parameters the daemon derives for a served job.
tw::FlowParams serve_replay_params(std::uint64_t seed) {
  tw::FlowParams p = tw::serve::flow_params_from(serve_job_params(seed));
  p.seed = seed;
  return p;
}

std::uint64_t job_seed(std::uint64_t seed, const char* stream, int k) {
  return tw::derive_seed(seed, std::string(stream) + "-" + std::to_string(k));
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written as Chrome trace-event JSON at exit. A Span
// always measures its own duration (the untimed path needs the number
// too); it is recorded only when tracing is on.

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}
  bool on() const { return on_; }

  int open(const std::string& name, int parent, long job) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, micros(), -1.0, parent, job, thread_index()});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_us = micros();
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Rec& s = spans_[i];
      if (i > 0) out << ",\n";
      out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << s.tid << ",\"ts\":" << s.start_us
          << ",\"dur\":" << std::max(0.0, s.end_us - s.start_us)
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"job\":" << s.job << "}}";
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Rec {
    std::string name;
    double start_us;
    double end_us;
    int parent;
    long job;
    int tid;
  };
  double micros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  static int thread_index() {
    static std::atomic<int> next{0};
    thread_local const int mine = next.fetch_add(1);
    return mine;
  }

  bool on_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Rec> spans_;
};

class Span {
 public:
  Span(Tracer& tr, const std::string& name, int parent, long job)
      : tr_(tr), id_(tr.open(name, parent, job)), t0_(Clock::now()) {}
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return id_; }
  /// Ends the span (idempotent) and returns its duration in seconds.
  double close() {
    if (!closed_) {
      secs_ = seconds_since(t0_);
      tr_.close(id_);
      closed_ = true;
    }
    return secs_;
  }

 private:
  Tracer& tr_;
  int id_;
  Clock::time_point t0_;
  bool closed_ = false;
  double secs_ = 0.0;
};

// ---------------------------------------------------------------------------
// Statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

/// Samples strictly above the q-quantile's rank: the guide's condition for
/// reporting that percentile is >= 10.
int samples_beyond(std::size_t n, double q) {
  const auto at = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return static_cast<int>(n - std::min(at, n));
}

// ---------------------------------------------------------------------------
// One run's outcome

struct Layers {
  std::map<std::string, std::vector<double>> samples;
  void add(const std::string& k, double v) { samples[k].push_back(v); }
};

struct Run {
  std::vector<double> setup_s;      // one per set-up burst: its median
  std::vector<double> generate_s;
  std::vector<double> validate_s;
  std::vector<double> job_s;        // timed per-job wall samples
  double timed_wall_s = 0.0;
  std::vector<double> teil, area;   // quality over the fixed job set
  long long overflow = 0;           // sum of final-pass X over that set
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;
  Layers layers;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// ---------------------------------------------------------------------------
// Batch flows (soc_route, soc_place, and the serve_mix replays)

struct FlowOut {
  double teil = 0.0;
  double area = 0.0;
  long long overflow = 0;
  bool operator==(const FlowOut&) const = default;
};

std::string describe(const FlowOut& o) {
  return "teil=" + fmt(o.teil) + " area=" + fmt(o.area) +
         " X=" + std::to_string(o.overflow);
}

/// The output checks every routed job must pass.
void check_routed(Run& run, const std::string& job, const tw::Placement& pl,
                  const tw::Stage2Result& s2, tw::recover::RunOutcome outcome) {
  const tw::ValidationReport vr = tw::validate_placement(pl);
  if (!vr.ok()) run.fail(job + ": validate_placement: " + vr.str());
  if (outcome != tw::recover::RunOutcome::kCompleted)
    run.fail(job + ": outcome " + tw::recover::to_string(outcome));
  if (s2.passes.empty())
    run.fail(job + ": no refinement pass ran");
  else if (s2.passes.back().unrouted_nets != 0)
    run.fail(job + ": " + std::to_string(s2.passes.back().unrouted_nets) +
             " unrouted nets");
}

FlowOut routed_out(const tw::Stage2Result& s2) {
  FlowOut o;
  o.teil = s2.final_teil;
  o.area = static_cast<double>(s2.final_chip_area);
  o.overflow = s2.passes.empty() ? 0 : s2.passes.back().route_overflow;
  return o;
}

/// The untraced job: one TimberWolfMC::run.
FlowOut bare_flow_job(Run& run, const std::string& job, const tw::Netlist& nl,
                      const tw::FlowParams& params) {
  tw::TimberWolfMC flow(nl, params);
  tw::Placement pl(nl);
  const tw::FlowResult r = flow.run(pl);
  check_routed(run, job, pl, r.stage2, r.outcome);
  return routed_out(r.stage2);
}

/// The traced job: the flow's own public calls in the flow's order
/// (run_stage1, then Stage2Refiner::run with the flow's derived seed),
/// followed, outside the job's span, by a replay of one refinement pass's
/// steps before its anneal (legalize, channel definition, phase-1 routing,
/// full route) on the final placement, for the per-layer split.
FlowOut traced_flow_job(Run& run, Tracer& tr, long job_id,
                        const std::string& job, const tw::Netlist& nl,
                        const tw::FlowParams& params) {
  Layers& L = run.layers;
  tw::TimberWolfMC flow(nl, params);
  tw::Placement pl(nl);
  Span js(tr, "job", -1, job_id);

  Span s1(tr, "place.stage1", js.id(), job_id);
  const tw::Stage1Result r1 = flow.run_stage1(pl);
  const double t1 = s1.close();

  Span s2(tr, "refine.stage2", js.id(), job_id);
  tw::Stage2Refiner refiner(nl, params.stage2,
                            tw::derive_seed(params.seed, "stage2"));
  const tw::Stage2Result r2 =
      refiner.run(pl, r1.core, r1.t_infinity, r1.temperature_scale);
  const double t2 = s2.close();
  const double tj = js.close();

  const tw::recover::RunOutcome outcome =
      r1.outcome != tw::recover::RunOutcome::kCompleted ? r1.outcome
                                                        : r2.outcome;
  check_routed(run, job + " (traced)", pl, r2, outcome);

  L.add("job_s", tj);
  L.add("place.stage1_s", t1);
  L.add("place.attempts", static_cast<double>(r1.attempts));
  L.add("place.accept_ratio",
        r1.attempts > 0 ? static_cast<double>(r1.accepts) /
                              static_cast<double>(r1.attempts)
                        : 0.0);
  L.add("place.moves_per_s", t1 > 0 ? static_cast<double>(r1.attempts) / t1 : 0.0);
  L.add("refine.stage2_s", t2);
  L.add("refine.stage2_share", t2 / (t1 + t2));
  tw::RouteCounters rc;
  double steps = 0.0;
  for (const tw::RefinementPass& p : r2.passes) {
    rc += p.router_counters;
    steps += p.temperature_steps;
  }
  L.add("refine.temperature_steps", steps);
  L.add("route.searches", static_cast<double>(rc.dijkstra_runs));
  L.add("route.nodes_popped", static_cast<double>(rc.nodes_popped));
  L.add("route.heap_pushes", static_cast<double>(rc.heap_pushes));
  L.add("route.interchange_trials", static_cast<double>(rc.interchange_trials));
  const double routed_nets =
      static_cast<double>(nl.num_nets() * r2.passes.size());
  L.add("route.pops_per_net",
        routed_nets > 0 ? static_cast<double>(rc.nodes_popped) / routed_nets
                        : 0.0);

  // Replay of one pass, on a copy so the job's result stays untouched.
  tw::Placement rp = pl;
  Span rs(tr, "replay", -1, job_id);
  Span ls(tr, "place.legalize", rs.id(), job_id);
  tw::legalize_spread(rp, r2.final_core, 2 * nl.tech().track_separation);
  L.add("place.legalize_s", ls.close());

  Span cs(tr, "channel.build", rs.id(), job_id);
  const tw::ChannelGraph cg = tw::build_channel_graph(rp, r2.final_core);
  const std::vector<tw::NetTargets> targets = tw::build_net_targets(nl, cg);
  L.add("channel.build_s", cs.close());
  L.add("channel.regions", static_cast<double>(cg.regions.size()));
  L.add("channel.graph_edges", static_cast<double>(cg.graph.num_edges()));

  Span ps(tr, "route.phase1", rs.id(), job_id);
  tw::SearchWorkspace ws;
  for (const tw::NetTargets& net : targets)
    (void)tw::m_best_routes(cg.graph, net, params.stage2.router.steiner, ws);
  L.add("route.phase1_s", ps.close());

  Span gs(tr, "route.route", rs.id(), job_id);
  tw::GlobalRouterParams gp = params.stage2.router;
  gp.seed = tw::derive_seed(params.seed, "replay-router");
  tw::GlobalRouter router(cg.graph, gp);
  const tw::GlobalRouteResult routed = router.route(targets);
  L.add("route.route_s", gs.close());
  if (routed.unrouted_nets != 0)
    run.fail(job + ": replayed pass left " +
             std::to_string(routed.unrouted_nets) + " unrouted nets");
  return routed_out(r2);
}

// ---------------------------------------------------------------------------
// soc_route

tw::CircuitSpec route_spec(int k) {
  tw::CircuitSpec spec =
      tw::soc_circuit(tw::SocTier::k1k, job_seed(kInstanceSeed, "route-netlist", k));
  spec.name = "soc-100";
  spec.num_cells = kRouteCells;
  spec.num_nets = kRouteCells * 7 / 2;
  spec.num_pins = kRouteCells * 14;
  spec.hub_nets = 0;
  return spec;
}

/// One set-up burst of a batch workload: kSetupBurst repetitions of
/// generating and validating the job netlists, one at a time, recording
/// each repetition's figures. With `keep` it returns the last repetition's
/// netlists. Without, each netlist is dropped once validated, so a burst
/// between jobs adds one netlist, not a second set, to peak memory.
template <typename MakeSpec>
std::vector<tw::Netlist> setup_burst(Run& run, int n, MakeSpec make_spec,
                                     bool keep) {
  std::vector<tw::Netlist> nls;
  std::vector<double> reps;
  for (int rep = 0; rep < kSetupBurst; ++rep) {
    nls.clear();
    double gen = 0.0, val = 0.0;
    for (int k = 0; k < n; ++k) {
      const Clock::time_point t0 = Clock::now();
      tw::Netlist nl = tw::generate_circuit(make_spec(k));
      gen += seconds_since(t0);
      const Clock::time_point t1 = Clock::now();
      nl.validate();
      val += seconds_since(t1);
      if (keep) nls.push_back(std::move(nl));
    }
    run.generate_s.push_back(gen);
    run.validate_s.push_back(val);
    reps.push_back(gen + val);
  }
  run.setup_s.push_back(median(reps));
  return nls;
}

int batch_jobs(double seconds, double nominal_job_s) {
  return std::max(1, static_cast<int>(std::lround(seconds / nominal_job_s)));
}

/// Runs `job(k)` for k in [0, jobs), timing each one, with an untimed
/// set-up burst after each.
template <typename Job, typename Setup>
void timed_jobs(Run& run, int jobs, Job job, Setup setup) {
  for (int k = 0; k < jobs; ++k) {
    const Clock::time_point tj = Clock::now();
    const FlowOut o = job(k);
    run.job_s.push_back(seconds_since(tj));
    run.timed_wall_s += run.job_s.back();
    ++run.attempted;
    run.teil.push_back(o.teil);
    run.area.push_back(o.area);
    run.overflow += o.overflow;
    setup(false);
  }
}

/// Trace run of a batch workload: each of the first `traced` jobs runs
/// bare, then traced; the two must agree exactly.
template <typename Bare, typename Traced>
void traced_pairs(Run& run, int traced, Bare bare, Traced traced_job) {
  std::vector<double> bare_s;
  const Clock::time_point t0 = Clock::now();
  for (int k = 0; k < traced; ++k) {
    const Clock::time_point t = Clock::now();
    const FlowOut b = bare(k);
    bare_s.push_back(seconds_since(t));
    const FlowOut o = traced_job(k);
    run.attempted += 2;
    if (!(o == b))
      run.fail("job " + std::to_string(k) + ": traced " + describe(o) +
               " != untraced " + describe(b));
    run.teil.push_back(b.teil);
    run.area.push_back(b.area);
    run.overflow += b.overflow;
    run.job_s.push_back(bare_s.back());
  }
  run.timed_wall_s = seconds_since(t0);
  // The traced side's job span excludes the replays that follow it.
  run.layers.add("trace.overhead_ratio",
                 median(run.layers.samples["job_s"]) / median(bare_s));
}

void soc_route(Run& run, Tracer& tr, std::uint64_t seed, double seconds) {
  const auto setup = [&](bool keep) {
    return setup_burst(run, kRouteInstances, route_spec, keep);
  };
  const std::vector<tw::Netlist> nls = setup(true);
  const auto params = [&](int k) {
    return route_flow_params(job_seed(seed, "route-flow", k));
  };
  const auto bare = [&](int k) {
    return bare_flow_job(run, "soc_route job " + std::to_string(k),
                         nls[static_cast<std::size_t>(k % kRouteInstances)],
                         params(k));
  };
  ++run.attempted;  // the untimed warm-up job; its checks still count
  bare_flow_job(run, "warm-up", nls[0],
                route_flow_params(tw::derive_seed(seed, "warm-up")));
  if (!tr.on()) {
    timed_jobs(run, batch_jobs(seconds, kRouteJobSeconds), bare, setup);
    return;
  }
  traced_pairs(run, kRouteTracedJobs, bare, [&](int k) {
    return traced_flow_job(run, tr, k, "soc_route job " + std::to_string(k),
                           nls[static_cast<std::size_t>(k)], params(k));
  });
}

// ---------------------------------------------------------------------------
// soc_place

/// Forwards to the wrapped source, timing prepare() as the warm-start span.
class TimedWarmStart final : public tw::WarmStart {
 public:
  TimedWarmStart(tw::WarmStart& inner, Tracer& tr, int parent, long job)
      : inner_(inner), tr_(tr), parent_(parent), job_(job) {}
  const char* name() const override { return inner_.name(); }
  tw::WarmStartInfo prepare(tw::Placement& placement, const tw::Rect& core,
                            std::uint64_t seed,
                            tw::recover::RunBudget* budget) override {
    Span s(tr_, "flow.warm_start", parent_, job_);
    tw::WarmStartInfo info = inner_.prepare(placement, core, seed, budget);
    secs = s.close();
    return info;
  }
  double secs = 0.0;

 private:
  tw::WarmStart& inner_;
  Tracer& tr_;
  int parent_;
  long job_;
};

FlowOut place_job(Run& run, Tracer* tr, long job_id, const std::string& job,
                  const tw::Netlist& nl, std::uint64_t flow_seed) {
  const tw::Stage1Params sp = place_stage1_params();
  tw::ClusterWarmStart cluster({}, sp);
  tw::MultilevelParams mp;
  mp.refine = sp;
  mp.seed = flow_seed;
  tw::Placement pl(nl);
  tw::MultilevelResult r;
  if (tr == nullptr) {
    tw::MultilevelFlow flow(nl, cluster, mp);
    r = flow.run(pl);
  } else {
    Layers& L = run.layers;
    Span js(*tr, "job", -1, job_id);
    TimedWarmStart timed(cluster, *tr, js.id(), job_id);
    tw::MultilevelFlow flow(nl, timed, mp);
    r = flow.run(pl);
    const double tj = js.close();
    const double refine_s = tj - timed.secs;
    L.add("job_s", tj);
    L.add("flow.warm_start_s", timed.secs);
    L.add("flow.refine_s", refine_s);
    L.add("place.stage1_s", refine_s);
    const long long attempts = r.refine.attempts + r.warm.coarse.attempts;
    const long long accepts = r.refine.accepts + r.warm.coarse.accepts;
    L.add("place.attempts", static_cast<double>(attempts));
    L.add("place.accept_ratio",
          attempts > 0 ? static_cast<double>(accepts) / static_cast<double>(attempts)
                       : 0.0);
    L.add("place.moves_per_s", static_cast<double>(r.refine.attempts) / refine_s);
    L.add("cluster.clusters", r.warm.clusters);

    // Replays: the clustering the warm start ran (same derived seed and
    // degree cap), and a legalization of the final placement.
    Span rs(*tr, "replay", -1, job_id);
    tw::ClusterParams cp;
    cp.seed = tw::derive_seed(tw::derive_seed(flow_seed, "warm"), "cluster");
    cp.max_aggregated_degree = tw::kDefaultAggregatedDegreeCap;
    Span cs(*tr, "cluster.build", rs.id(), job_id);
    const tw::Clustering cl = tw::cluster_netlist(nl, cp);
    L.add("cluster.build_s", cs.close());
    std::size_t widest = 0;
    for (const tw::Net& n : cl.coarse.nets()) widest = std::max(widest, n.pins.size());
    L.add("cluster.max_coarse_degree", static_cast<double>(widest));
    if (static_cast<int>(cl.coarse.num_cells()) != r.warm.clusters)
      run.fail(job + ": replayed clustering has " +
               std::to_string(cl.coarse.num_cells()) + " clusters, flow had " +
               std::to_string(r.warm.clusters));
    tw::Placement lp = pl;
    Span ls(*tr, "place.legalize", rs.id(), job_id);
    tw::legalize_spread(lp, r.refine.core, 2 * nl.tech().track_separation);
    L.add("place.legalize_s", ls.close());
  }
  const tw::ValidationReport vr = tw::validate_placement(pl);
  if (!vr.ok()) run.fail(job + ": validate_placement: " + vr.str());
  if (r.outcome != tw::recover::RunOutcome::kCompleted)
    run.fail(job + ": outcome " + tw::recover::to_string(r.outcome));
  FlowOut o;
  o.teil = r.final_teil;
  o.area = static_cast<double>(r.final_chip_area);
  return o;
}

void soc_place(Run& run, Tracer& tr, std::uint64_t seed, double seconds) {
  const int jobs = tr.on() ? kPlaceTracedJobs : batch_jobs(seconds, kPlaceJobSeconds);
  const auto setup = [&](bool keep) {
    return setup_burst(run, jobs, [&](int k) {
      return tw::soc_circuit(tw::SocTier::k1k, job_seed(seed, "place-netlist", k));
    }, keep);
  };
  const std::vector<tw::Netlist> nls = setup(true);
  const auto flow_seed = [&](int k) { return job_seed(seed, "place-flow", k); };
  const auto bare = [&](int k) {
    return place_job(run, nullptr, k, "soc_place job " + std::to_string(k),
                     nls[static_cast<std::size_t>(k)], flow_seed(k));
  };
  ++run.attempted;  // the untimed warm-up job; its checks still count
  place_job(run, nullptr, -1, "warm-up", nls[0], tw::derive_seed(seed, "warm-up"));
  if (!tr.on()) {
    timed_jobs(run, jobs, bare, setup);
    return;
  }
  traced_pairs(run, kPlaceTracedJobs, bare, [&](int k) {
    return place_job(run, &tr, k, "soc_place job " + std::to_string(k),
                     nls[static_cast<std::size_t>(k)], flow_seed(k));
  });
}

// ---------------------------------------------------------------------------
// serve_mix

struct Submission {
  int circuit = 0;
  std::uint64_t seed = 0;
  int repeat_of = -1;  // index of the earlier submission repeated exactly
};

std::vector<Submission> serve_sequence(std::uint64_t seed, int n, int circuits) {
  tw::Rng rng(tw::derive_seed(seed, "serve-sequence"));
  std::vector<Submission> seq;
  std::vector<int> fresh;
  for (int i = 0; i < n; ++i) {
    Submission s;
    const int eligible = static_cast<int>(
        std::count_if(fresh.begin(), fresh.end(),
                      [&](int j) { return j <= i - kServeRepeatLag; }));
    // Every kServeRepeatEvery-th submission repeats an earlier one, so the
    // repeat share is exact in every run.
    if (eligible > 0 && i % kServeRepeatEvery == kServeRepeatEvery - 1) {
      s.repeat_of = fresh[static_cast<std::size_t>(rng.uniform_int(0, eligible - 1))];
      s.circuit = seq[static_cast<std::size_t>(s.repeat_of)].circuit;
      s.seed = seq[static_cast<std::size_t>(s.repeat_of)].seed;
    } else {
      // Round-robin, so every run serves the same circuit mix.
      s.circuit = static_cast<int>(fresh.size()) % circuits;
      s.seed = job_seed(seed, "serve-job", i);
      fresh.push_back(i);
    }
    seq.push_back(s);
  }
  return seq;
}

struct Served {
  bool done = false;
  bool shed = false;
  std::string error;
  tw::serve::Disposition disposition = tw::serve::Disposition::kFresh;
  tw::serve::ResultEvent result;
  double latency_s = 0.0;
  double ack_s = 0.0;
  double queue_wait_s = -1.0;  // ack -> first progress (traced only)
  double run_s = -1.0;         // first progress -> result (traced only)
};

/// A live daemon on its own thread, over a fresh state directory.
class DaemonHost {
 public:
  explicit DaemonHost(const std::string& dir)
      : dir_(dir), socket_(dir + "/d.sock"), daemon_(config(dir, socket_)) {
    thread_ = std::thread([this] { daemon_.run(); });
  }
  ~DaemonHost() {
    daemon_.request_stop();
    thread_.join();
  }
  DaemonHost(const DaemonHost&) = delete;
  DaemonHost& operator=(const DaemonHost&) = delete;
  const std::string& socket() const { return socket_; }

 private:
  static tw::serve::DaemonConfig config(const std::string& dir,
                                        const std::string& socket) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    tw::serve::DaemonConfig cfg;
    cfg.socket_path = socket;
    cfg.scheduler.state_dir = dir + "/state";
    cfg.scheduler.threads = kServeExecutors;
    return cfg;
  }
  std::string dir_;
  std::string socket_;
  tw::serve::Daemon daemon_;
  std::thread thread_;
};

struct ServeLoopResult {
  std::vector<Served> served;  // [0, issued)
  double wall_s = 0.0;         // summed over the loop's calls
  std::uint64_t journal_bytes = 0;
  std::string error;  // a client that could not connect
};

/// Closed loop over submissions [out.served.size(), end): kServeOutstanding
/// clients, each with one job outstanding, take the indices in order until
/// `end` or the hard stop. The results extend `out`.
void serve_loop(ServeLoopResult& out, const std::string& socket,
                const std::vector<Submission>& seq,
                const std::vector<std::string>& yals, int end, bool progress,
                Tracer& tr) {
  std::mutex issue_mu;
  int next = static_cast<int>(out.served.size());  // guarded by issue_mu
  out.served.resize(static_cast<std::size_t>(end));
  bool closed = false;
  const Clock::time_point t0 = Clock::now();
  const auto issue = [&]() -> int {
    std::lock_guard<std::mutex> lock(issue_mu);
    if (next >= end || seconds_since(t0) >= kHardStopSeconds) closed = true;
    return closed ? -1 : next++;
  };
  const auto client_main = [&] {
    std::unique_ptr<tw::serve::Client> conn;
    try {
      conn = std::make_unique<tw::serve::Client>(socket);
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(issue_mu);
      closed = true;
      out.error = std::string("client cannot connect: ") + e.what();
      return;
    }
    tw::serve::Client& client = *conn;
    for (;;) {
      const int i = issue();
      if (i < 0) break;
      const Submission& s = seq[static_cast<std::size_t>(i)];
      Served& sv = out.served[static_cast<std::size_t>(i)];
      tw::serve::SubmitRequest req;
      req.params = serve_job_params(s.seed);
      req.netlist_yal = yals[static_cast<std::size_t>(s.circuit)];
      req.want_progress = progress;
      Span js(tr, "serve.job", -1, i);
      const Clock::time_point ts = Clock::now();
      try {
        Span as(tr, "serve.ack", js.id(), i);
        client.send(req);
        tw::serve::Message m = client.recv();
        sv.ack_s = as.close();
        if (const auto* rej = std::get_if<tw::serve::RejectReply>(&m)) {
          sv.shed = rej->code == tw::serve::RejectCode::kOverloaded;
          sv.error = std::string("rejected: ") + tw::serve::to_string(rej->code) +
                     " " + rej->detail;
        } else {
          const auto& ack = std::get<tw::serve::SubmitReply>(m);
          sv.disposition = ack.disposition;
          Clock::time_point tp{};
          int qs = -1;
          if (progress) qs = tr.open("serve.queue_wait", js.id(), i);
          for (;;) {
            m = client.recv();
            if (const auto* pg = std::get_if<tw::serve::ProgressEvent>(&m)) {
              if (pg->job == ack.job && sv.queue_wait_s < 0) {
                tp = Clock::now();
                sv.queue_wait_s =
                    std::chrono::duration<double>(tp - ts).count() - sv.ack_s;
                tr.close(qs);
                qs = tr.open("serve.run", js.id(), i);
              }
              continue;
            }
            const auto& res = std::get<tw::serve::ResultEvent>(m);
            if (res.job != ack.job) continue;
            tr.close(qs);
            if (sv.queue_wait_s >= 0)
              sv.run_s = std::chrono::duration<double>(Clock::now() - tp).count();
            sv.result = res;
            sv.done = true;
            break;
          }
        }
      } catch (const std::exception& e) {
        sv.error = std::string("client error: ") + e.what();
      }
      sv.latency_s = seconds_since(ts);
    }
  };
  std::vector<std::thread> clients;
  for (int c = 1; c < kServeOutstanding; ++c) clients.emplace_back(client_main);
  client_main();
  for (std::thread& t : clients) t.join();
  out.wall_s += seconds_since(t0);
  out.served.resize(static_cast<std::size_t>(next));
  tw::serve::Client stats_client(socket);
  out.journal_bytes = stats_client.stats().journal_bytes;
}

/// Output checks of one loop: every submission accepted and completed,
/// every repeat answered with its original's result digest.
void check_served(Run& run, const ServeLoopResult& lr,
                  const std::vector<Submission>& seq) {
  if (!lr.error.empty()) {
    ++run.attempted;
    run.fail(lr.error);
  }
  for (std::size_t i = 0; i < lr.served.size(); ++i) {
    const Served& sv = lr.served[i];
    ++run.attempted;
    const std::string job = "serve job " + std::to_string(i);
    if (!sv.done) {
      run.fail(job + ": " + (sv.error.empty() ? "no result" : sv.error));
      continue;
    }
    if (sv.result.status != tw::serve::JobStatus::kCompleted) {
      run.fail(job + ": status " + tw::serve::to_string(sv.result.status) +
               " " + sv.result.detail);
      continue;
    }
    const int rep = seq[i].repeat_of;
    if (rep >= 0) {
      const Served& first = lr.served[static_cast<std::size_t>(rep)];
      if (first.done && first.result.fingerprint != sv.result.fingerprint)
        run.fail(job + ": repeat of " + std::to_string(rep) +
                 " returned a different result digest");
    }
  }
}

struct ServeInputs {
  std::vector<std::string> yals;
  std::vector<tw::Netlist> nls;
};

/// One set-up burst of serve_mix, kSetupBurst repetitions of: generating
/// the circuits (kServeVariants fixed instances of each paper circuit in
/// kServeCircuits) one at a time, writing each as YAL and validating it,
/// and starting a daemon on a fresh state directory `dir`. With `keep` it
/// returns the last repetition's circuits (else they are dropped as in
/// setup_burst); `host` keeps the last daemon.
ServeInputs serve_setup_burst(Run& run, const std::string& dir,
                              std::unique_ptr<DaemonHost>& host, bool keep) {
  ServeInputs in;
  std::vector<double> reps;
  for (int rep = 0; rep < kSetupBurst; ++rep) {
    host.reset();
    in = ServeInputs{};
    double gen = 0.0, val = 0.0;
    for (const char* name : kServeCircuits)
      for (int v = 0; v < kServeVariants; ++v) {
        const Clock::time_point t0 = Clock::now();
        tw::CircuitSpec spec = tw::paper_circuit(name).spec;
        spec.seed = job_seed(kInstanceSeed, spec.name.c_str(), v);
        tw::Netlist nl = tw::generate_circuit(spec);
        std::string yal = tw::write_yal(nl, spec.name);
        gen += seconds_since(t0);
        const Clock::time_point t1 = Clock::now();
        nl.validate();
        val += seconds_since(t1);
        if (keep) {
          in.nls.push_back(std::move(nl));
          in.yals.push_back(std::move(yal));
        }
      }
    const Clock::time_point t2 = Clock::now();
    host = std::make_unique<DaemonHost>(dir);
    tw::serve::Client probe(host->socket());
    if (!probe.ping()) run.fail("daemon did not answer ping");
    const double up = seconds_since(t2);
    run.generate_s.push_back(gen);
    run.validate_s.push_back(val);
    reps.push_back(gen + val + up);
  }
  run.setup_s.push_back(median(reps));
  return in;
}

void serve_mix(Run& run, Tracer& tr, std::uint64_t seed, double seconds,
               const std::string& work_dir) {
  std::unique_ptr<DaemonHost> host;
  const ServeInputs in = serve_setup_burst(run, work_dir + "/serve", host, true);
  const std::vector<std::string>& yals = in.yals;
  const std::vector<tw::Netlist>& nls = in.nls;
  const int circuits = static_cast<int>(yals.size());
  // One lap serves every instance once fresh, plus its share of repeats,
  // so runs of whole laps serve the same job mix.
  const int lap = circuits * kServeRepeatEvery / (kServeRepeatEvery - 1);
  const std::vector<Submission> seq = serve_sequence(seed, 4000, circuits);

  {  // untimed warm-up job, not part of the sequence
    tw::serve::Client client(host->socket());
    tw::serve::SubmitRequest req;
    req.params = serve_job_params(tw::derive_seed(seed, "warm-up"));
    req.netlist_yal = yals[0];
    ++run.attempted;
    const auto w = client.submit_and_wait(req);
    if (w.rejected || !w.result || w.result->status != tw::serve::JobStatus::kCompleted)
      run.fail("serve warm-up job did not complete");
  }

  const auto quality = [&](const ServeLoopResult& lr, int upto) {
    for (int i = 0; i < std::min<int>(upto, static_cast<int>(lr.served.size())); ++i) {
      const Served& sv = lr.served[static_cast<std::size_t>(i)];
      if (seq[static_cast<std::size_t>(i)].repeat_of >= 0 || !sv.done) continue;
      run.teil.push_back(sv.result.final_teil);
      run.area.push_back(static_cast<double>(sv.result.final_chip_area));
    }
  };
  const auto latencies = [](const ServeLoopResult& lr) {
    std::vector<double> v;
    for (const Served& sv : lr.served) v.push_back(sv.latency_s);
    return v;
  };

  if (!tr.on()) {
    // Whole laps, so every run serves the same job mix, until at least
    // kServeMinJobs are served and `seconds` have passed. A set-up burst on
    // a spare state directory follows each half lap, while the daemon idles.
    Tracer off(false);
    ServeLoopResult lr;
    const Clock::time_point t0 = Clock::now();
    do {
      serve_loop(lr, host->socket(), seq, yals,
                 static_cast<int>(lr.served.size()) + lap / 2, false, off);
      std::unique_ptr<DaemonHost> spare;
      serve_setup_burst(run, work_dir + "/serve-setup", spare, false);
    } while ((lr.served.size() % static_cast<std::size_t>(lap) != 0 ||
              static_cast<int>(lr.served.size()) < kServeMinJobs ||
              lr.wall_s < seconds) &&
             seconds_since(t0) < kHardStopSeconds);
    check_served(run, lr, seq);
    run.job_s = latencies(lr);
    run.timed_wall_s = lr.wall_s;
    if (static_cast<int>(lr.served.size()) < kServeQualityJobs)
      run.fail("only " + std::to_string(lr.served.size()) + " jobs completed");
    quality(lr, kServeQualityJobs);
    return;
  }

  // Traced run: the same fixed submission prefix twice, on fresh daemons,
  // once bare and once with progress streaming and spans; every result
  // digest must agree.
  host.reset();
  Tracer off(false);
  ServeLoopResult bare;
  {
    DaemonHost h(work_dir + "/serve-bare");
    serve_loop(bare, h.socket(), seq, yals, kServeTracedJobs, false, off);
  }
  ServeLoopResult traced;
  {
    DaemonHost h(work_dir + "/serve-traced");
    serve_loop(traced, h.socket(), seq, yals, kServeTracedJobs, true, tr);
  }
  check_served(run, bare, seq);
  check_served(run, traced, seq);
  if (bare.served.size() != traced.served.size())
    run.fail("traced and untraced serve phases ran different job counts");
  for (std::size_t i = 0; i < std::min(bare.served.size(), traced.served.size()); ++i)
    if (bare.served[i].result.fingerprint != traced.served[i].result.fingerprint)
      run.fail("serve job " + std::to_string(i) +
               ": traced result digest differs from untraced");
  run.job_s = latencies(bare);
  run.timed_wall_s = bare.wall_s;
  quality(bare, kServeTracedJobs);

  Layers& L = run.layers;
  int repeats = 0, hits = 0, shed = 0;
  std::vector<double> ack, wait, run_s;
  for (std::size_t i = 0; i < traced.served.size(); ++i) {
    const Served& sv = traced.served[i];
    ack.push_back(sv.ack_s);
    if (sv.shed) ++shed;
    if (seq[i].repeat_of >= 0) {
      ++repeats;
      if (sv.disposition == tw::serve::Disposition::kCached) ++hits;
    }
    if (sv.queue_wait_s >= 0) wait.push_back(sv.queue_wait_s);
    if (sv.run_s >= 0) run_s.push_back(sv.run_s);
  }
  L.add("serve.job_p90_s", quantile(latencies(bare), 0.9));
  L.add("serve.ack_s", median(ack));
  L.add("serve.queue_wait_s", median(wait));
  L.add("serve.run_s", median(run_s));
  L.add("serve.cache_hit_ratio", repeats > 0 ? double(hits) / repeats : 0.0);
  L.add("serve.shed_ratio",
        traced.served.empty() ? 0.0 : double(shed) / double(traced.served.size()));
  L.add("recover.journal_bytes", static_cast<double>(traced.journal_bytes));
  L.add("trace.overhead_ratio", median(latencies(traced)) / median(latencies(bare)));

  // In-process replays of the flow on the served circuits, for the place /
  // refine / channel / route split at this size.
  for (int k = 0; k < kServeReplays; ++k) {
    const tw::FlowParams p = serve_replay_params(job_seed(seed, "serve-replay", k));
    const std::size_t c = static_cast<std::size_t>(k * kServeVariants) % nls.size();
    const FlowOut o = traced_flow_job(run, tr, 100000 + k,
                                      "serve replay " + std::to_string(k), nls[c], p);
    ++run.attempted;
    run.overflow += o.overflow;
  }
}

// ---------------------------------------------------------------------------
// Reporting

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "route.route_s", "route.phase1_s", "route.searches", "route.nodes_popped",
      "route.heap_pushes", "route.interchange_trials", "route.pops_per_net",
      "channel.build_s", "channel.regions", "channel.graph_edges",
      "refine.stage2_s", "refine.temperature_steps", "refine.stage2_share",
      "place.stage1_s", "place.legalize_s", "place.attempts",
      "place.accept_ratio", "place.moves_per_s",
      "cluster.build_s", "cluster.clusters", "cluster.max_coarse_degree",
      "flow.warm_start_s", "flow.refine_s",
      "serve.job_p90_s", "serve.ack_s", "serve.queue_wait_s", "serve.run_s",
      "serve.cache_hit_ratio", "serve.shed_ratio", "recover.journal_bytes",
      "workload.generate_s", "netlist.validate_s",
      "overflow_sum", "fail_ratio", "trace.overhead_ratio"};
  return names;
}

std::string unit_of(const std::string& name) {
  const auto ends = [&](const char* s) {
    const std::string suf(s);
    return name.size() >= suf.size() &&
           name.compare(name.size() - suf.size(), suf.size(), suf) == 0;
  };
  if (ends("per_s")) return "1/s";
  if (ends("_s")) return "s";
  if (ends("_ratio") || ends("_share")) return "ratio";
  if (ends("_bytes")) return "bytes";
  if (ends("per_net")) return "count/net";
  return "count";
}

/// Times and ratios reduce by median over traced jobs, work counts by the
/// per-job mean (exact for a given seed).
double reduce_layer(const std::string& name, const std::vector<double>& v) {
  const std::string u = unit_of(name);
  if (u == "count") {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  }
  return median(v);
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string loadavg() {
  double la[3] = {0, 0, 0};
  if (getloadavg(la, 3) != 3) return "null";
  return "[" + fmt(la[0]) + "," + fmt(la[1]) + "," + fmt(la[2]) + "]";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

int usage() {
  std::cerr << "usage: tw_e2e --workload soc_route|soc_place|serve_mix "
               "--seed N --seconds S --trace 0|1 --work-dir DIR [--commit ID]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir, commit = "unknown";
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i], v = argv[i + 1];
    try {
      if (a == "--workload") workload = v;
      else if (a == "--seed") seed = std::stoull(v);
      else if (a == "--seconds") seconds = std::stod(v);
      else if (a == "--trace") trace = std::stoi(v);
      else if (a == "--work-dir") work_dir = v;
      else if (a == "--commit") commit = v;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || work_dir.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1))
    return usage();
  if (workload != "soc_route" && workload != "soc_place" && workload != "serve_mix")
    return usage();
  if (tw::check::kLevel != tw::check::kLevelOff || !optimized_build()) {
    std::cerr << "tw_e2e: refusing to time a build with contracts on (level "
              << tw::check::kLevel << ") or without optimization ("
              << TW_E2E_BUILD_TYPE << ")\n";
    return 3;
  }
  tw::set_log_level(tw::LogLevel::kError);
  fs::create_directories(work_dir);

  const std::string load_start = loadavg();
  Tracer tracer(trace == 1);
  Run run;
  const Clock::time_point t0 = Clock::now();
  try {
    if (workload == "soc_route") soc_route(run, tracer, seed, seconds);
    else if (workload == "soc_place") soc_place(run, tracer, seed, seconds);
    else serve_mix(run, tracer, seed, seconds, work_dir);
  } catch (const std::exception& e) {
    run.fail(std::string("exception: ") + e.what());
    if (run.attempted < run.failed) run.attempted = run.failed;
  }
  const double total_s = seconds_since(t0);

  std::string trace_file;
  if (tracer.on()) {
    trace_file = work_dir + "/trace-" + workload + "-" + std::to_string(seed) + ".json";
    if (!tracer.write(trace_file)) run.fail("cannot write " + trace_file);
  }
  for (const std::string& e : run.errors) std::cerr << "check failed: " << e << "\n";

  const std::size_t n = run.job_s.size();
  std::ostringstream meta;
  meta << "meta {\"workload\":\"" << workload << "\",\"seed\":" << seed
       << ",\"trace\":" << trace << ",\"commit\":\"" << commit << "\""
       << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
       << ",\"nproc\":" << nproc() << ",\"loadavg_start\":" << load_start
       << ",\"loadavg_end\":" << loadavg() << ",\"build_type\":\""
       << TW_E2E_BUILD_TYPE << "\",\"tw_check_level\":" << tw::check::kLevel
       << ",\"jobs\":" << n << ",\"job_p90_s\":" << fmt(quantile(run.job_s, 0.9))
       << ",\"p90_samples_beyond\":" << samples_beyond(n, 0.9)
       << ",\"quality_jobs\":" << run.teil.size()
       << ",\"overflow_sum\":" << run.overflow
       << ",\"fail_ratio\":"
       << (run.attempted > 0 ? double(run.failed) / double(run.attempted) : 1.0)
       << ",\"total_s\":" << fmt(total_s);
  if (!trace_file.empty()) meta << ",\"trace_file\":\"" << trace_file << "\"";
  meta << "}";
  std::cout << meta.str() << "\n";

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (trace == 0) {
    metrics = {
        {"setup_s", {quantile(run.setup_s, 0.0), "s"}},
        {"job_p50_s", {quantile(run.job_s, 0.5), "s"}},
        {"jobs_per_s",
         {run.timed_wall_s > 0 ? double(n) / run.timed_wall_s : 0.0, "1/s"}},
        {"peak_rss_mb", {peak_rss_mb(), "MB"}},
        {"teil_geomean", {geomean(run.teil), "grid"}},
        {"chip_area_geomean", {geomean(run.area), "grid2"}},
    };
  } else {
    run.layers.add("workload.generate_s", median(run.generate_s));
    run.layers.add("netlist.validate_s", median(run.validate_s));
    run.layers.add("overflow_sum", static_cast<double>(run.overflow));
    run.layers.add("fail_ratio", double(run.failed) / double(std::max(1L, run.attempted)));
    for (const std::string& name : per_layer_names()) {
      const auto it = run.layers.samples.find(name);
      const double v =
          it == run.layers.samples.end() ? 0.0 : reduce_layer(name, it->second);
      metrics.push_back({name, {v, unit_of(name)}});
    }
  }
  if (run.attempted < 1) {
    run.attempted = 1;
    run.fail("no job ran");
  }
  std::ostringstream res;
  res << "{\"correct\": " << (run.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) res << ", ";
    res << "\"" << metrics[i].first << "\": {\"value\": "
        << fmt(metrics[i].second.first) << ", \"unit\": \""
        << metrics[i].second.second << "\"}";
  }
  res << "}}";
  std::cout << res.str() << std::endl;
  return run.failed == 0 ? 0 : 1;
}
