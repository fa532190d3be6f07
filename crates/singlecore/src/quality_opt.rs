//! **Quality-OPT** — the Tians maximum-quality algorithm (paper §III-A).
//!
//! Given a job set on a single core running at a *fixed* speed, Quality-OPT
//! maximizes total quality when the quality function is identical across
//! jobs, non-decreasing and strictly concave. Under overload some jobs are
//! *deprived* (partially executed); concavity makes the optimal policy give
//! every deprived job in the bottleneck interval the same processed volume
//! — the interval's **d-mean**:
//!
//! ```text
//! p̃(I) = (cap(I) − Σ_{J_j ∈ S(I)} w_j) / |D(I)|
//! ```
//!
//! where `cap(I)` is the work the core can do in `I`, `S(I)` the satisfied
//! jobs and `D(I)` the deprived jobs (classified by an iterative water-level
//! fixed point). The algorithm repeatedly extracts the **busiest deprived
//! interval** (minimum d-mean), fixes its allocations, removes the interval
//! and recurses; when every remaining interval can satisfy its jobs, the
//! rest are scheduled in full.

use std::collections::HashMap;

use qes_core::job::{JobId, JobSet};
use qes_core::schedule::{CoreSchedule, Slice};
use qes_core::time::SimTime;

use crate::timeline::{compress_point, edf_pack, materialize, VJob, VirtualMap};

/// Output of [`quality_opt`].
#[derive(Clone, Debug)]
pub struct QualityOptResult {
    /// Optimal processed volume `p_j` per job (jobs absent were given 0).
    pub volumes: HashMap<JobId, f64>,
    /// A fixed-speed schedule realizing those volumes.
    pub schedule: CoreSchedule,
    /// The fixed core speed used (GHz).
    pub speed: f64,
}

impl QualityOptResult {
    /// Processed volume for `id` (0 if never scheduled).
    pub fn volume(&self, id: JobId) -> f64 {
        self.volumes.get(&id).copied().unwrap_or(0.0)
    }
}

/// Run Quality-OPT on `jobs` with the core fixed at `speed_ghz`.
pub fn quality_opt(jobs: &JobSet, speed_ghz: f64) -> QualityOptResult {
    let mut volumes: HashMap<JobId, f64> = jobs.iter().map(|j| (j.id, 0.0)).collect();
    if speed_ghz <= 0.0 || jobs.is_empty() {
        return QualityOptResult {
            volumes,
            schedule: CoreSchedule::default(),
            speed: speed_ghz,
        };
    }
    let origin = jobs.first_release().unwrap().as_micros();
    let horizon = jobs.last_deadline().unwrap().as_micros() - origin;
    let mut vjobs: Vec<VJob> = jobs
        .iter()
        .filter(|j| j.demand > 0.0)
        .map(|j| VJob {
            id: j.id,
            r: j.release.as_micros() - origin,
            d: j.deadline.as_micros() - origin,
            w: j.demand,
        })
        .collect();
    let mut map = VirtualMap::identity(origin, horizon);
    let mut slices: Vec<Slice> = Vec::new();
    // units the core does per µs: 1 unit = 1 GHz·ms ⇒ cap(µs) = s·µs/1000.
    let units_per_us = speed_ghz / 1000.0;
    let mut scratch = BdiScratch::default();

    loop {
        if vjobs.is_empty() {
            break;
        }
        match busiest_deprived_interval(&vjobs, units_per_us, &mut scratch) {
            None => {
                // Everything remaining is satisfiable: schedule in full.
                vjobs.sort_by_key(|x| (x.d, x.r, x.id));
                let assigned: Vec<(VJob, f64)> = vjobs.iter().map(|&j| (j, j.w)).collect();
                emit(&map, &assigned, speed_ghz, 0, &mut slices, &mut volumes);
                break;
            }
            Some((a, b, level)) => {
                let (mut group, rest): (Vec<VJob>, Vec<VJob>) =
                    vjobs.into_iter().partition(|j| j.r >= a && j.d <= b);
                vjobs = rest;
                group.sort_by_key(|x| (x.d, x.r, x.id));
                // Satisfied jobs (w ≤ level) get w; deprived get the d-mean.
                let assigned: Vec<(VJob, f64)> = group
                    .iter()
                    .map(|&j| (j, if j.w <= level + 1e-9 { j.w } else { level }))
                    .collect();
                emit(&map, &assigned, speed_ghz, a, &mut slices, &mut volumes);
                map.cut(a, b);
                for j in &mut vjobs {
                    j.r = compress_point(j.r, a, b);
                    j.d = compress_point(j.d, a, b);
                }
            }
        }
    }

    QualityOptResult {
        volumes,
        schedule: CoreSchedule::new(slices),
        speed: speed_ghz,
    }
}

/// EDF-pack `assigned` volumes at `speed` from virtual `start`, materialize
/// through `map`, and record slices + volumes.
fn emit(
    map: &VirtualMap,
    assigned: &[(VJob, f64)],
    speed: f64,
    start: u64,
    slices: &mut Vec<Slice>,
    volumes: &mut HashMap<JobId, f64>,
) {
    for &(vj, vol) in assigned {
        *volumes.entry(vj.id).or_insert(0.0) += vol;
    }
    let vslices = edf_pack(assigned, speed, start);
    for (id, ra, rb) in materialize(map, &vslices) {
        slices.push(Slice {
            job: id,
            start: SimTime::from_micros(ra),
            end: SimTime::from_micros(rb),
            speed,
        });
    }
}

/// Classify jobs of one interval into satisfied/deprived via the iterative
/// water-level fixed point, and return the d-mean water level.
///
/// `demands` must be sorted ascending. Returns `None` when every job fits
/// (`p̃ = ∞`), otherwise `Some((level, satisfied_count))` with
/// `demands[..satisfied_count] ≤ level < demands[satisfied_count..]`.
pub(crate) fn d_mean(capacity: f64, demands: &[f64]) -> Option<(f64, usize)> {
    let k = demands.len();
    if k == 0 {
        return None;
    }
    let total: f64 = demands.iter().sum();
    if total <= capacity + 1e-9 {
        return None;
    }
    let mut m = 0; // number of satisfied jobs (smallest demands first)
    let mut prefix = 0.0;
    loop {
        // Water level if jobs [..m] are satisfied and the rest deprived.
        let level = (capacity - prefix) / (k - m) as f64;
        if m < k && demands[m] <= level + 1e-9 {
            prefix += demands[m];
            m += 1;
            if m == k {
                // All classified satisfied, yet total > capacity: numeric
                // corner; treat as satisfiable.
                return None;
            }
        } else {
            return Some((level.max(0.0), m));
        }
    }
}

/// Reusable buffers for [`busiest_deprived_interval`]; a warm scratch
/// makes the search allocation-free, which matters because Online-QE runs
/// it on every invocation of every core.
#[derive(Clone, Debug, Default)]
pub(crate) struct BdiScratch {
    /// Distinct releases, ascending.
    rels: Vec<u64>,
    /// Distinct deadlines, ascending.
    dls: Vec<u64>,
    /// Job indices ordered by deadline.
    by_d: Vec<u32>,
    /// Demands of the current candidate group, kept sorted ascending.
    sorted: Vec<f64>,
}

/// Find the busiest deprived interval: the candidate `[a, b)` minimizing
/// the d-mean. Returns `None` when no interval has deprived jobs (all jobs
/// satisfiable at this speed).
///
/// Visits candidates with `a` ascending then `b` ascending and keeps the
/// first minimum — the tie rule the decomposition's determinism rests on.
/// For a fixed `a` the contained group only grows with `b`, so the group's
/// demands are accumulated incrementally (sorted-insert) instead of
/// refiltered per candidate; `d_mean` still sums the sorted demands
/// itself, so its result is bit-identical to the refiltering form.
fn busiest_deprived_interval(
    vjobs: &[VJob],
    units_per_us: f64,
    s: &mut BdiScratch,
) -> Option<(u64, u64, f64)> {
    s.rels.clear();
    s.rels.extend(vjobs.iter().map(|j| j.r));
    s.rels.sort_unstable();
    s.rels.dedup();
    s.dls.clear();
    s.dls.extend(vjobs.iter().map(|j| j.d));
    s.dls.sort_unstable();
    s.dls.dedup();
    s.by_d.clear();
    s.by_d.extend(0..vjobs.len() as u32);
    s.by_d.sort_unstable_by_key(|&i| vjobs[i as usize].d);
    let mut best: Option<(u64, u64, f64)> = None;
    for i in 0..s.rels.len() {
        let a = s.rels[i];
        s.sorted.clear();
        // Running sum of the group's demands, for the skip test below.
        // Its summation order differs from the canonical (sorted) order
        // `d_mean` uses, so it is never compared against the 1e-9 slack
        // directly — only with a margin far wider than its float error.
        let mut running = 0.0f64;
        let mut di = 0usize;
        for &b in &s.dls {
            // Append jobs due exactly at `b`; a surviving job always has
            // `r < d`, so none of them can join a group when `b ≤ a`.
            while di < s.by_d.len() {
                let j = &vjobs[s.by_d[di] as usize];
                if j.d != b {
                    break;
                }
                if j.r >= a && j.d > a {
                    let pos = s.sorted.partition_point(|&x| x < j.w);
                    s.sorted.insert(pos, j.w);
                    running += j.w;
                }
                di += 1;
            }
            if b <= a || s.sorted.is_empty() {
                continue;
            }
            let capacity = (b - a) as f64 * units_per_us;
            // `d_mean` returns `None` (candidate irrelevant) whenever the
            // canonical total ≤ capacity + 1e-9. `running` agrees with
            // the canonical total to within summation error ≪ the 1e-6
            // margin, so skipping here can only skip `None` candidates.
            if running <= capacity - 1e-6 * (1.0 + running) {
                continue;
            }
            if let Some((level, _)) = d_mean(capacity, &s.sorted) {
                match best {
                    Some((_, _, l)) if l <= level => {}
                    _ => best = Some((a, b, level)),
                }
            }
        }
    }
    best
}

/// The busiest-deprived-interval recursion of [`quality_opt`], reduced to
/// what Online-QE's myopic step actually consumes: per-job volumes, no
/// schedule. Exposed as a structure so the §V-D discard loop can *resume*
/// the recursion after removing a job instead of re-running it from
/// scratch.
///
/// Jobs are addressed by their index in the caller's array: `VJob::id`
/// carries the index, and `vols` is indexed by it.
///
/// When `record` is set, the job state at the start of every round is
/// snapshotted. [`Self::resume_without`] then replays the recursion from
/// the round that fixed a removed job's volume. The resume is
/// bit-identical to a from-scratch solve without that job provided the
/// chosen intervals of all earlier rounds survive the removal — which
/// [`Self::can_resume_without`] checks: every earlier chosen endpoint must
/// be anchored by some *other* job alive in that round (a removed job that
/// was the sole holder of a chosen endpoint would have changed the
/// candidate enumeration itself). See DESIGN.md §"Interval reuse and
/// invalidation" for the full contract.
#[derive(Clone, Debug, Default)]
pub(crate) struct VolumeDecomposition {
    /// Surviving jobs, windows compressed through all extracted intervals.
    work: Vec<VJob>,
    /// Round in which each job index had its volume fixed.
    fixed_round: Vec<u32>,
    /// `work` as of the start of each round (only kept when recording),
    /// stored back to back in one pooled buffer: round `k`'s snapshot is
    /// `snap_jobs[snap_start[k]..snap_start[k + 1]]` (the last one runs
    /// to the end).
    snap_jobs: Vec<VJob>,
    snap_start: Vec<usize>,
    /// The `(a, b)` chosen by each completed group round.
    chosen: Vec<(u64, u64)>,
    scratch: BdiScratch,
}

impl VolumeDecomposition {
    /// Run the full decomposition over `vjobs`, writing each job's volume
    /// into `vols[id]`. `vols` must cover every id in `vjobs`.
    pub(crate) fn solve(
        &mut self,
        vjobs: &[VJob],
        units_per_us: f64,
        record: bool,
        vols: &mut [f64],
    ) {
        self.work.clear();
        self.work.extend_from_slice(vjobs);
        self.snap_jobs.clear();
        self.snap_start.clear();
        self.chosen.clear();
        self.fixed_round.clear();
        self.fixed_round.resize(vols.len(), u32::MAX);
        self.run(0, units_per_us, record, vols);
    }

    /// Whether [`Self::resume_without`] would be bit-identical to a
    /// from-scratch solve over the `alive` jobs after removing job `x`
    /// (the caller has already cleared `alive[x]`): `x` must have a
    /// recorded fixing round, and every earlier round's chosen interval
    /// must keep both endpoints anchored by a still-alive job. Snapshots
    /// of early rounds predate later removals, so dead jobs linger in
    /// them as unfixed participants — they must anchor nothing and be
    /// filtered out on replay.
    pub(crate) fn can_resume_without(&self, x: u32, alive: &[bool]) -> bool {
        let k = self
            .fixed_round
            .get(x as usize)
            .copied()
            .unwrap_or(u32::MAX);
        if (k as usize) >= self.snap_start.len() {
            return false;
        }
        self.chosen[..k as usize]
            .iter()
            .enumerate()
            .all(|(round, &(a, b))| {
                let (lo, hi) = self.snapshot_range(round);
                let mut a_held = false;
                let mut b_held = false;
                for j in &self.snap_jobs[lo..hi] {
                    if alive[j.id.0 as usize] {
                        a_held |= j.r == a;
                        b_held |= j.d == b;
                    }
                }
                a_held && b_held
            })
    }

    /// Replay the recursion from the round that fixed job `x`, over the
    /// still-`alive` jobs of that round's snapshot. Only valid right
    /// after a solve/resume in which `record` was set and
    /// [`Self::can_resume_without`]`(x, alive)` holds.
    pub(crate) fn resume_without(
        &mut self,
        x: u32,
        alive: &[bool],
        units_per_us: f64,
        vols: &mut [f64],
    ) {
        let k = self.fixed_round[x as usize] as usize;
        debug_assert!(k < self.snap_start.len());
        let (lo, hi) = self.snapshot_range(k);
        let snap = &self.snap_jobs[lo..hi];
        self.work.clear();
        self.work
            .extend(snap.iter().filter(|j| alive[j.id.0 as usize]).copied());
        self.snap_jobs.truncate(lo);
        self.snap_start.truncate(k);
        self.chosen.truncate(k);
        self.run(k as u32, units_per_us, true, vols);
    }

    /// Where the job state recorded at the start of `round` lies in
    /// `snap_jobs`.
    fn snapshot_range(&self, round: usize) -> (usize, usize) {
        let end = self
            .snap_start
            .get(round + 1)
            .copied()
            .unwrap_or(self.snap_jobs.len());
        (self.snap_start[round], end)
    }

    fn run(&mut self, first_round: u32, units_per_us: f64, record: bool, vols: &mut [f64]) {
        let mut round = first_round;
        loop {
            if self.work.is_empty() {
                break;
            }
            if record {
                self.snap_start.push(self.snap_jobs.len());
                self.snap_jobs.extend_from_slice(&self.work);
            }
            match busiest_deprived_interval(&self.work, units_per_us, &mut self.scratch) {
                None => {
                    // Everything remaining is satisfiable in full.
                    for j in &self.work {
                        vols[j.id.0 as usize] = j.w;
                        self.fixed_round[j.id.0 as usize] = round;
                    }
                    break;
                }
                Some((a, b, level)) => {
                    self.chosen.push((a, b));
                    // In-place, order-preserving partition: fix the
                    // contained group's volumes, compress the rest.
                    let mut keep = 0;
                    for i in 0..self.work.len() {
                        let j = self.work[i];
                        if j.r >= a && j.d <= b {
                            let idx = j.id.0 as usize;
                            vols[idx] = if j.w <= level + 1e-9 { j.w } else { level };
                            self.fixed_round[idx] = round;
                        } else {
                            self.work[keep] = VJob {
                                r: compress_point(j.r, a, b),
                                d: compress_point(j.d, a, b),
                                ..j
                            };
                            keep += 1;
                        }
                    }
                    self.work.truncate(keep);
                    round += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qes_core::job::Job;
    use qes_core::power::PolynomialPower;
    use qes_core::quality::{ExpQuality, QualityFunction};
    use qes_core::schedule::Schedule;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn js(jobs: Vec<Job>) -> JobSet {
        JobSet::new(jobs).unwrap()
    }

    // ---- d-mean fixed point ----

    #[test]
    fn d_mean_all_satisfiable() {
        assert_eq!(d_mean(100.0, &[10.0, 20.0, 30.0]), None);
        assert_eq!(d_mean(60.0, &[10.0, 20.0, 30.0]), None); // exactly fits
        assert_eq!(d_mean(10.0, &[]), None);
    }

    #[test]
    fn d_mean_all_deprived() {
        // Capacity 30 across three jobs of 20 each: level 10 < 20.
        let (level, sat) = d_mean(30.0, &[20.0, 20.0, 20.0]).unwrap();
        assert!((level - 10.0).abs() < 1e-9);
        assert_eq!(sat, 0);
    }

    #[test]
    fn d_mean_mixed_classification() {
        // Jobs 5, 20, 20; capacity 35. Satisfy 5 → level (35−5)/2 = 15 < 20.
        let (level, sat) = d_mean(35.0, &[5.0, 20.0, 20.0]).unwrap();
        assert!((level - 15.0).abs() < 1e-9);
        assert_eq!(sat, 1);
    }

    #[test]
    fn d_mean_iterates_to_fixed_point() {
        // Jobs 2, 4, 100; capacity 12. Round 1: level 4 → satisfy 2 and 4.
        // Final: level (12−6)/1 = 6 < 100.
        let (level, sat) = d_mean(12.0, &[2.0, 4.0, 100.0]).unwrap();
        assert!((level - 6.0).abs() < 1e-9);
        assert_eq!(sat, 2);
    }

    #[test]
    fn d_mean_level_below_every_deprived_demand() {
        let demands = [3.0, 7.0, 11.0, 13.0, 40.0];
        for cap in [5.0, 15.0, 30.0, 50.0, 70.0] {
            if let Some((level, sat)) = d_mean(cap, &demands) {
                for (i, &w) in demands.iter().enumerate() {
                    if i < sat {
                        assert!(w <= level + 1e-6);
                    } else {
                        assert!(w > level - 1e-6);
                    }
                }
                // Conservation: satisfied + deprived volumes = capacity.
                let used: f64 =
                    demands[..sat].iter().sum::<f64>() + level * (demands.len() - sat) as f64;
                assert!((used - cap).abs() < 1e-6, "cap {cap}: used {used}");
            }
        }
    }

    // ---- quality_opt ----

    #[test]
    fn underload_satisfies_everything() {
        // 2 GHz, light jobs: all fully processed.
        let jobs = js(vec![
            Job::new(0, ms(0), ms(150), 100.0).unwrap(),
            Job::new(1, ms(30), ms(180), 120.0).unwrap(),
        ]);
        let r = quality_opt(&jobs, 2.0);
        assert!((r.volume(JobId(0)) - 100.0).abs() < 1e-9);
        assert!((r.volume(JobId(1)) - 120.0).abs() < 1e-9);
        // Realized schedule matches the promised volumes.
        let vols = r.schedule.volumes();
        assert!((vols[&JobId(0)] - 100.0).abs() < 0.01);
        assert!((vols[&JobId(1)] - 120.0).abs() < 0.01);
    }

    #[test]
    fn overload_equalizes_deprived_volumes() {
        // 1 GHz core, two identical overlapping jobs that cannot both
        // finish: each should get the same volume (concavity).
        let jobs = js(vec![
            Job::new(0, ms(0), ms(100), 100.0).unwrap(),
            Job::new(1, ms(0), ms(100), 100.0).unwrap(),
        ]);
        let r = quality_opt(&jobs, 1.0);
        // Capacity 100 units split evenly.
        assert!((r.volume(JobId(0)) - 50.0).abs() < 1e-6);
        assert!((r.volume(JobId(1)) - 50.0).abs() < 1e-6);
    }

    #[test]
    fn short_job_satisfied_long_job_deprived() {
        let jobs = js(vec![
            Job::new(0, ms(0), ms(100), 10.0).unwrap(),
            Job::new(1, ms(0), ms(100), 500.0).unwrap(),
        ]);
        let r = quality_opt(&jobs, 1.0); // capacity 100 units
        assert!((r.volume(JobId(0)) - 10.0).abs() < 1e-6);
        assert!((r.volume(JobId(1)) - 90.0).abs() < 1e-6);
    }

    #[test]
    fn equal_split_beats_unequal_for_concave_quality() {
        // The optimality intuition itself: for the paper's quality function,
        // the d-mean split earns more quality than finishing one job fully.
        let q = ExpQuality::PAPER_DEFAULT;
        let even = 2.0 * q.value(50.0);
        let uneven = q.value(100.0) + q.value(0.0);
        assert!(even > uneven);
    }

    #[test]
    fn schedule_is_feasible_and_consistent() {
        let jobs = js(vec![
            Job::new(0, ms(0), ms(120), 150.0).unwrap(),
            Job::new(1, ms(10), ms(160), 90.0).unwrap(),
            Job::new(2, ms(40), ms(190), 300.0).unwrap(),
            Job::new(3, ms(80), ms(230), 60.0).unwrap(),
        ]);
        let speed = 1.5;
        let r = quality_opt(&jobs, speed);
        let m = PolynomialPower::PAPER_SIM;
        Schedule::single(r.schedule.clone())
            .validate_with_tolerance(&jobs, &m, f64::INFINITY, 0.05, 1e-6)
            .unwrap();
        // Every slice runs at the fixed speed.
        for s in r.schedule.slices() {
            assert!((s.speed - speed).abs() < 1e-12);
        }
        // Realized volumes match promised volumes.
        let realized = r.schedule.volumes();
        for (id, &v) in &r.volumes {
            let got = realized.get(id).copied().unwrap_or(0.0);
            assert!((got - v).abs() < 0.05, "{id:?}: promised {v}, got {got}");
        }
    }

    #[test]
    fn volumes_never_exceed_demand_or_capacity() {
        let jobs = js(vec![
            Job::new(0, ms(0), ms(60), 500.0).unwrap(),
            Job::new(1, ms(5), ms(65), 20.0).unwrap(),
            Job::new(2, ms(10), ms(70), 400.0).unwrap(),
        ]);
        let r = quality_opt(&jobs, 1.0);
        let mut total = 0.0;
        for j in jobs.iter() {
            let v = r.volume(j.id);
            assert!(v <= j.demand + 1e-9);
            assert!(v >= 0.0);
            total += v;
        }
        // Total work ≤ capacity of the whole span (70 ms at 1 GHz).
        assert!(total <= 70.0 + 1e-6);
    }

    #[test]
    fn zero_speed_yields_nothing() {
        let jobs = js(vec![Job::new(0, ms(0), ms(100), 50.0).unwrap()]);
        let r = quality_opt(&jobs, 0.0);
        assert_eq!(r.volume(JobId(0)), 0.0);
        assert!(r.schedule.is_empty());
    }

    #[test]
    fn higher_speed_never_lowers_quality() {
        let jobs = js(vec![
            Job::new(0, ms(0), ms(100), 200.0).unwrap(),
            Job::new(1, ms(20), ms(120), 150.0).unwrap(),
            Job::new(2, ms(50), ms(150), 250.0).unwrap(),
        ]);
        let q = ExpQuality::PAPER_DEFAULT;
        let mut prev = -1.0;
        for &s in &[0.5, 1.0, 1.5, 2.0, 3.0] {
            let r = quality_opt(&jobs, s);
            let total: f64 = jobs.iter().map(|j| q.job_quality(j, r.volume(j.id))).sum();
            assert!(total >= prev - 1e-9, "quality dropped at speed {s}");
            prev = total;
        }
    }

    #[test]
    fn staggered_overload_respects_windows() {
        // Later jobs can't borrow capacity from before their release.
        let jobs = js(vec![
            Job::new(0, ms(0), ms(50), 100.0).unwrap(),
            Job::new(1, ms(40), ms(90), 100.0).unwrap(),
        ]);
        let r = quality_opt(&jobs, 1.0);
        let m = PolynomialPower::PAPER_SIM;
        Schedule::single(r.schedule.clone())
            .validate_with_tolerance(&jobs, &m, f64::INFINITY, 0.05, 1e-6)
            .unwrap();
        // Both deprived; totals bounded by the 90 ms span capacity.
        let tot = r.volume(JobId(0)) + r.volume(JobId(1));
        assert!(tot <= 90.0 + 1e-6);
        assert!(tot > 80.0, "should use nearly all capacity, got {tot}");
    }
}
