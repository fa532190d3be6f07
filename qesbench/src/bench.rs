//! The two kinds of run: the untraced run that gives the end-to-end
//! metrics, and the traced run that gives the per-layer metrics.

use std::time::Instant;

use qes_cluster::{dispatch_protected, ClusterEngine, DispatchPlan, FaultPlan, OverloadPolicy};
use qes_core::MetricsRegistry;
use qes_multicore::DesPolicy;
use qes_sim::engine::Simulator;

use crate::calib::{self, Calibrator};
use crate::checks::{check, check_same, Outcome};
use crate::host;
use crate::probe::{Probes, ShardProbe, TimedPolicy};
use crate::workloads::{prepare, Prepared, System, Workload};

/// Fewest replays a run makes, however long they take.
pub const MIN_REPLAYS: usize = 3;
/// Fewest untraced/traced replay pairs a traced run makes.
pub const MIN_PAIRS: usize = 2;

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The result of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Replays made.
    pub attempted: u64,
    /// Replays that failed an output check.
    pub failed: u64,
    /// Every failed check, in the order found.
    pub errors: Vec<String>,
    /// The run's metrics.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Whether every replay passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Count one replay, failed when any of its checks failed.
    fn tally(&mut self, checks: impl IntoIterator<Item = Result<(), String>>) {
        self.attempted += 1;
        let before = self.errors.len();
        self.errors
            .extend(checks.into_iter().filter_map(Result::err));
        if self.errors.len() > before {
            self.failed += 1;
        }
    }

    /// The value of metric `name`, if the run reported it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result as the one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Reject non-finite metric values: JSON cannot carry them, and
    /// one means a derivation went wrong.
    fn finish(mut self) -> RunResult {
        let bad: Vec<&'static str> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name)
            .collect();
        for name in bad {
            self.errors.push(format!("metric {name} is not finite"));
            self.failed += 1;
        }
        for m in &mut self.metrics {
            if !m.value.is_finite() {
                m.value = 0.0;
            }
        }
        self
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when `b` is 0 (a ratio of nothing).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Replay the prepared workload once, untraced, on `lanes` lanes.
pub fn replay(p: &Prepared, lanes: usize) -> Outcome {
    let cfg = p.config();
    rayon::with_threads(lanes, || match &p.system {
        System::Single => {
            let (report, _) = Simulator::run(&cfg, &mut DesPolicy::new(), &p.jobs);
            Outcome::single(p.jobs.len(), report)
        }
        System::Cluster { engine, .. } => Outcome::cluster(
            p.jobs.len(),
            engine.run(&cfg, &p.jobs, |_| Box::new(DesPolicy::new())),
        ),
    })
}

/// The untraced run: for `seconds` of host time (and at least
/// [`MIN_REPLAYS`] times), set the workload up afresh and replay it,
/// checking every replay. Setting up before each replay spreads the
/// set-up samples over the whole run, like the replay samples, so a
/// passing disturbance on the host moves few of them.
///
/// Set-up and replays are timed on the process CPU clock, over every
/// thread, so time the process spends waiting for a core (other
/// processes, hypervisor steal) is left out. Each set-up and replay is
/// then scaled to reference host speed by the calibration kernel timed
/// just before and just after it ([`calib`]), so contention that slows
/// the work itself is divided out too.
pub fn end_to_end(workload: Workload, jobs: usize, seed: u64, seconds: f64) -> RunResult {
    let lanes = host::lanes();
    let mut result = RunResult::default();
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let mut reference: Option<Outcome> = None;
    let mut calibrator = Calibrator::new(lanes);
    let mut before = calibrator.run();
    let start = Instant::now();
    while rates.len() < MIN_REPLAYS || start.elapsed().as_secs_f64() < seconds {
        let (p, setup_s) = host::cpu_timed(|| prepare(workload, jobs, seed));
        let p = match p {
            Ok(p) => p,
            Err(e) => {
                result.tally([Err(e)]);
                return result.finish();
            }
        };
        let (o, replay_s) = host::cpu_timed(|| replay(&p, lanes));
        let offered = p.jobs.len() as f64;
        let same = reference
            .as_ref()
            .map(|r| check_same(r, &o, "repeat replay"));
        result.tally([check(&o)].into_iter().chain(same));
        reference.get_or_insert(o);
        let after = calibrator.run();
        let slowdown = calib::slowdown(before, after);
        setups.push(setup_s / slowdown);
        rates.push(offered * slowdown / replay_s);
        before = after;
    }
    let o = reference.expect("at least one replay");
    result.metrics = vec![
        metric("sim_jobs_per_ref_s", "1/s", median(&rates)),
        metric("setup_s", "s", median(&setups)),
        metric(
            "peak_rss_mb",
            "MiB",
            host::peak_rss_mb().unwrap_or(f64::NAN),
        ),
        metric("quality_norm", "ratio", o.quality_norm),
        metric("energy_j_per_job", "J", o.energy_j_per_job()),
        metric("unsatisfied_frac", "ratio", o.unsatisfied_frac()),
    ];
    result.finish()
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What the traced run learns from one direct dispatch pre-pass.
struct DispatchSample {
    wall_s: f64,
    /// Routed copies over all shard streams.
    copies: u64,
    rejected: u64,
    dropped: u64,
    retried: u64,
    hedges: u64,
    duels: u64,
}

impl DispatchSample {
    /// Time one `dispatch_protected` call with the engine's arguments.
    fn measure(p: &Prepared, engine: &ClusterEngine, overload: &OverloadPolicy) -> Self {
        let cfg = p.config();
        let t = Instant::now();
        let plan: DispatchPlan = dispatch_protected(
            &p.jobs,
            engine.shards(),
            engine.routing(),
            cfg.model,
            cfg.quality,
            engine.fault_plan(),
            overload,
            cfg.end,
        );
        let wall_s = t.elapsed().as_secs_f64();
        DispatchSample {
            wall_s,
            copies: plan.shard_jobs.iter().map(|s| s.len() as u64).sum(),
            rejected: plan.rejected.len() as u64,
            dropped: plan.dropped.len() as u64,
            retried: plan.retried,
            hedges: plan.hedges.len() as u64,
            duels: plan.hedges.iter().filter(|h| h.duel).count() as u64,
        }
    }
}

/// One traced replay: the outcome plus what the probes saw.
struct TracedSample {
    outcome: Outcome,
    /// When the replay started: the cluster's dispatch pre-pass runs
    /// from here to the first shard's start.
    start: Instant,
    /// Host seconds of the whole replay (the direct dispatch call of a
    /// single machine's probe excluded).
    wall_s: f64,
    /// The dispatch pre-pass, and whether it lies on the replay's path.
    dispatch: DispatchSample,
    dispatch_on_path: bool,
    probes: Vec<ShardProbe>,
    /// Engine arrivals plus dequeued events, over all machines.
    engine_events: u64,
}

/// Engine arrivals plus dequeued heap events counted by a registry.
fn engine_events(reg: &MetricsRegistry) -> u64 {
    reg.counter("engine.arrivals")
        + reg.counter("engine.dequeue.deadline")
        + reg.counter("engine.dequeue.plan_end")
        + reg.counter("engine.dequeue.quantum")
}

fn timed_des(probes: &std::sync::Arc<Probes>, i: usize) -> TimedPolicy {
    TimedPolicy::new(Box::new(DesPolicy::new()), probes.clone(), i)
}

/// Replay once with every probe attached.
fn traced_replay(p: &Prepared, lanes: usize) -> TracedSample {
    let cfg = p.config();
    match &p.system {
        System::Single => {
            // No front end: price a one-shard dispatch pre-pass over the
            // same stream, off the replay's path.
            let front = ClusterEngine::new(1).with_fault_plan(FaultPlan::none(1));
            let dispatch = DispatchSample::measure(p, &front, &OverloadPolicy::default());
            let probes = Probes::new(1);
            let mut policy = timed_des(&probes, 0);
            let mut reg = MetricsRegistry::new();
            let t = Instant::now();
            probes.start(0);
            let (report, _) = rayon::with_threads(lanes, || {
                Simulator::run_observed(&cfg, &mut policy, &p.jobs, &mut reg)
            });
            drop(policy);
            let wall_s = t.elapsed().as_secs_f64();
            TracedSample {
                outcome: Outcome::single(p.jobs.len(), report),
                start: t,
                wall_s,
                dispatch,
                dispatch_on_path: false,
                probes: probes.take(),
                engine_events: engine_events(&reg),
            }
        }
        System::Cluster { engine, overload } => {
            let dispatch = DispatchSample::measure(p, engine, overload);
            let probes = Probes::new(engine.shards());
            let t = Instant::now();
            let (report, regs) = rayon::with_threads(lanes, || {
                engine.run_observed(
                    &cfg,
                    &p.jobs,
                    |i| Box::new(timed_des(&probes, i)),
                    |i| {
                        probes.start(i);
                        MetricsRegistry::new()
                    },
                )
            });
            let wall_s = t.elapsed().as_secs_f64();
            TracedSample {
                outcome: Outcome::cluster(p.jobs.len(), report),
                start: t,
                wall_s,
                dispatch,
                dispatch_on_path: true,
                probes: probes.take(),
                engine_events: regs.iter().map(engine_events).sum(),
            }
        }
    }
}

/// Percentile `q` (0..=1) of a sorted slice, nearest rank.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The per-layer metrics of one traced replay, paired with the
/// untraced replay run just before it.
fn layer_metrics(s: &TracedSample, untraced_wall_s: f64, lanes: usize) -> Vec<Metric> {
    let d = &s.dispatch;
    let offered = s.outcome.offered as f64;
    let probes = &s.probes;
    // The replay splits into the in-run dispatch pre-pass (start to the
    // first shard's start), the shard phase (to the last shard's end)
    // and the merge (the rest), which add up to its wall time.
    let first_start = probes.iter().filter_map(|p| p.start).min();
    let last_end = probes.iter().filter_map(|p| p.end).max();
    let (pre_shard_s, shard_phase_s, merge_s) = match (first_start, last_end) {
        (Some(a), Some(b)) => {
            let pre = a.saturating_duration_since(s.start).as_secs_f64();
            let phase = b.saturating_duration_since(a).as_secs_f64();
            (pre, phase, (s.wall_s - pre - phase).max(0.0))
        }
        _ => (0.0, 0.0, s.wall_s),
    };
    let busy: Vec<f64> = probes.iter().map(|p| p.busy().as_secs_f64()).collect();
    let busy_sum: f64 = busy.iter().sum();
    let busy_max = busy.iter().copied().fold(0.0, f64::max);
    let policy_busy: f64 = probes.iter().map(|p| p.policy_busy.as_secs_f64()).sum();
    let mut calls: Vec<u64> = probes
        .iter()
        .flat_map(|p| p.call_ns.iter().copied())
        .collect();
    calls.sort_unstable();
    let mut des = MetricsRegistry::new();
    for p in probes {
        for (name, v) in p.policy_counters.counters() {
            des.inc(name, v);
        }
    }
    let dc = |name: &str| des.counter(name) as f64;
    let machine_jobs: Vec<f64> = if s.outcome.shards.is_empty() {
        vec![s.outcome.report.counters.jobs_total as f64]
    } else {
        s.outcome
            .shards
            .iter()
            .map(|r| r.counters.jobs_total as f64)
            .collect()
    };
    let mean_jobs = machine_jobs.iter().sum::<f64>() / machine_jobs.len() as f64;
    let max_jobs = machine_jobs.iter().copied().fold(0.0, f64::max);
    let on_path_dispatch_s = if s.dispatch_on_path { pre_shard_s } else { 0.0 };
    let c = &s.outcome.report.counters;
    let engine_self_s = busy_sum - policy_busy;
    let des_core_decisions = dc("des.keep_plan") + dc("des.cache_hit") + dc("des.cache_miss");
    vec![
        metric("dispatch.wall_s", "s", d.wall_s),
        metric(
            "dispatch.ns_per_arrival",
            "ns",
            ratio(d.wall_s * 1e9, offered),
        ),
        metric(
            "dispatch.share",
            "ratio",
            ratio(on_path_dispatch_s, s.wall_s),
        ),
        metric(
            "dispatch.copies_per_arrival",
            "ratio",
            ratio(d.copies as f64, offered),
        ),
        metric(
            "dispatch.hedge_win_ratio",
            "ratio",
            ratio(s.outcome.hedges_won as f64, d.duels as f64),
        ),
        metric("dispatch.rejected", "count", d.rejected as f64),
        metric("dispatch.dropped", "count", d.dropped as f64),
        metric("dispatch.retried", "count", d.retried as f64),
        metric("dispatch.hedges", "count", d.hedges as f64),
        metric("dispatch.duels", "count", d.duels as f64),
        metric("cluster.wall_s", "s", s.wall_s),
        metric("cluster.shard_phase_s", "s", shard_phase_s),
        metric("cluster.merge_s", "s", merge_s),
        metric("cluster.shard_busy_sum_s", "s", busy_sum),
        metric("cluster.shard_busy_max_s", "s", busy_max),
        metric(
            "cluster.parallel_eff",
            "ratio",
            ratio(busy_sum, lanes as f64 * shard_phase_s),
        ),
        metric(
            "cluster.shard_jobs_imbalance",
            "ratio",
            ratio(max_jobs, mean_jobs),
        ),
        metric("policy.calls", "count", calls.len() as f64),
        metric("policy.busy_s", "s", policy_busy),
        metric("policy.share", "ratio", ratio(policy_busy, busy_sum)),
        metric("policy.call_p50_us", "us", percentile(&calls, 0.50) / 1e3),
        metric("policy.call_p99_us", "us", percentile(&calls, 0.99) / 1e3),
        metric("engine.self_s", "s", engine_self_s),
        metric("engine.events", "count", s.engine_events as f64),
        metric(
            "engine.ns_per_event",
            "ns",
            ratio(engine_self_s * 1e9, s.engine_events as f64),
        ),
        metric("engine.jobs_zero", "count", c.jobs_zero as f64),
        metric("engine.invocations", "count", c.invocations as f64),
        metric(
            "engine.invocations_kept",
            "count",
            c.invocations_kept as f64,
        ),
        metric("engine.plans_installed", "count", c.plans_installed as f64),
        metric("engine.plans_kept", "count", c.plans_kept as f64),
        metric(
            "des.budget_bound_ratio",
            "ratio",
            ratio(dc("des.budget_bound"), dc("des.triggers")),
        ),
        metric("des.qe_solve", "count", dc("des.qe_solve")),
        metric("des.free_solve", "count", dc("des.free_solve")),
        metric("des.wf_rounds", "count", dc("des.wf_rounds")),
        metric(
            "des.keep_plan_ratio",
            "ratio",
            ratio(dc("des.keep_plan"), des_core_decisions),
        ),
        metric("des.discards", "count", dc("des.discards")),
        metric(
            "des.cache_hit_ratio",
            "ratio",
            ratio(
                dc("des.cache_hit"),
                dc("des.cache_hit") + dc("des.cache_miss"),
            ),
        ),
        metric(
            "des.wf_hit_ratio",
            "ratio",
            ratio(
                dc("des.wf_hits"),
                dc("des.wf_hits") + dc("des.wf_levelings"),
            ),
        ),
        metric(
            "trace.overhead_ratio",
            "ratio",
            ratio(s.wall_s, untraced_wall_s),
        ),
    ]
}

/// The traced run: for `seconds` of host time (and at least
/// [`MIN_PAIRS`] times), set the workload up afresh and replay it
/// untraced, then traced. Every traced replay must reproduce the
/// untraced one bitwise. The layer metrics reported are those of the
/// traced replay with the median wall time, taken whole so that its
/// layer times add up exactly.
pub fn per_layer(workload: Workload, jobs: usize, seed: u64, seconds: f64) -> RunResult {
    let lanes = host::lanes();
    let mut result = RunResult::default();
    let (mut gens, mut calibs) = (Vec::new(), Vec::new());
    let mut calibrator = Calibrator::new(lanes);
    let (mut wall_rates, mut cpu_rates, mut cpu_per_wall) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_pair: Vec<(f64, Vec<Metric>)> = Vec::new();
    let mut reference: Option<Outcome> = None;
    let mut last = None;
    let start = Instant::now();
    while per_pair.len() < MIN_PAIRS || start.elapsed().as_secs_f64() < seconds {
        // Free the previous copy first, so memory holds one at a time.
        drop(last.take());
        let p = match prepare(workload, jobs, seed) {
            Ok(p) => last.insert(p),
            Err(e) => {
                result.tally([Err(e)]);
                return result.finish();
            }
        };
        gens.push(p.gen_s);
        calibs.push(calibrator.run());
        let t = Instant::now();
        let (plain, untraced_cpu_s) = host::cpu_timed(|| replay(p, lanes));
        let untraced_wall_s = t.elapsed().as_secs_f64();
        wall_rates.push(p.jobs.len() as f64 / untraced_wall_s);
        cpu_rates.push(p.jobs.len() as f64 / untraced_cpu_s);
        cpu_per_wall.push(untraced_cpu_s / untraced_wall_s);
        let same = reference
            .as_ref()
            .map(|r| check_same(r, &plain, "repeat replay"));
        result.tally([check(&plain)].into_iter().chain(same));
        let reference = reference.get_or_insert(plain);

        let traced = traced_replay(p, lanes);
        result.tally([
            check(&traced.outcome),
            check_same(&*reference, &traced.outcome, "traced replay"),
        ]);
        per_pair.push((
            traced.wall_s,
            layer_metrics(&traced, untraced_wall_s, lanes),
        ));
    }

    let p = last.expect("at least one pair");
    let mut metrics = vec![
        metric("workload.gen_s", "s", median(&gens)),
        metric("workload.jobs", "count", p.jobs.len() as f64),
        metric("workload.offered_util", "ratio", p.offered_util()),
    ];
    per_pair.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (_, layers) = per_pair.swap_remove((per_pair.len() - 1) / 2);
    metrics.extend(layers);
    metrics.push(metric("host.nproc", "count", host::nproc() as f64));
    metrics.push(metric("host.lanes", "count", lanes as f64));
    metrics.push(metric("host.wall_jobs_per_s", "1/s", median(&wall_rates)));
    metrics.push(metric("host.cpu_jobs_per_s", "1/s", median(&cpu_rates)));
    metrics.push(metric("host.cpu_per_wall", "ratio", median(&cpu_per_wall)));
    metrics.push(metric("host.calib_s", "s", median(&calibs)));
    result.metrics = metrics;
    result.finish()
}
