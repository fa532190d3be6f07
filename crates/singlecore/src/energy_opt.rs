//! **Energy-OPT** — the YDS minimum-energy algorithm (paper §III-A).
//!
//! Given a job set with agreeable deadlines on a single DVFS core with *no*
//! power budget, Energy-OPT completes every job by its deadline with the
//! minimum possible energy under a convex power function. It repeatedly:
//!
//! 1. finds the **critical interval** `I* = [z, z′)` maximizing the
//!    intensity `g(I) = Σ w_j / |I|` over jobs whose whole window lies in
//!    `I` (the *critical group*);
//! 2. schedules the critical group EDF at the constant speed `g(I*)`
//!    inside `I*`;
//! 3. removes `I*` from the timeline (remaining job windows compress) and
//!    recurses.
//!
//! Convexity of the power function makes running each critical group at
//! its average speed optimal; critical speeds are non-increasing across
//! rounds (a property [`EnergyOptResult::round_speeds`] exposes and the
//! tests verify).
//!
//! [`energy_opt_common_release`] is the same recursion specialized to jobs
//! that all share one release — the shape of every online re-solve, where
//! the ready jobs are re-released at `now`. There every candidate interval
//! is a prefix of the deadline order, so a round is one running sum over
//! the remaining jobs, and the schedule comes out bit for bit equal to
//! [`energy_opt`]'s without allocating beyond the returned slices.

use std::collections::BTreeSet;

use qes_core::job::JobSet;
use qes_core::schedule::{CoreSchedule, Slice};
use qes_core::time::SimTime;

use qes_core::job::JobId;

use crate::timeline::{
    compress_point, edf_pack, edf_pack_into, materialize, EdfScratch, VJob, VirtualMap,
};

/// Output of [`energy_opt`].
#[derive(Clone, Debug)]
pub struct EnergyOptResult {
    /// The single-core schedule; every job is fully processed by its
    /// deadline.
    pub schedule: CoreSchedule,
    /// Speed of each extraction round, in order. Non-increasing.
    pub round_speeds: Vec<f64>,
}

impl EnergyOptResult {
    /// Speed of the first (fastest) critical round; 0 for an empty input.
    ///
    /// With all jobs released at a common instant `t`, the YDS speed
    /// profile is non-increasing in time, so this is also the speed — and
    /// hence, through the power model, the power `P_i(t)` — that DES's
    /// budget-free probe reads at `t` (paper §IV-D step 2).
    pub fn initial_speed(&self) -> f64 {
        self.round_speeds.first().copied().unwrap_or(0.0)
    }
}

/// Run Energy-OPT (YDS) on `jobs`.
///
/// Zero-demand jobs are trivially satisfied and receive no slices.
pub fn energy_opt(jobs: &JobSet) -> EnergyOptResult {
    let mut vjobs: Vec<VJob> = Vec::with_capacity(jobs.len());
    let (origin, horizon) = match (jobs.first_release(), jobs.last_deadline()) {
        (Some(r), Some(d)) => (r.as_micros(), d.as_micros() - r.as_micros()),
        _ => {
            return EnergyOptResult {
                schedule: CoreSchedule::default(),
                round_speeds: vec![],
            }
        }
    };
    for j in jobs.iter().filter(|j| j.demand > 0.0) {
        vjobs.push(VJob {
            id: j.id,
            r: j.release.as_micros() - origin,
            d: j.deadline.as_micros() - origin,
            w: j.demand,
        });
    }
    let mut map = VirtualMap::identity(origin, horizon);
    let mut slices: Vec<Slice> = Vec::with_capacity(vjobs.len());
    let mut round_speeds = Vec::new();

    while !vjobs.is_empty() {
        let (a, b, speed) = critical_interval(&vjobs);
        round_speeds.push(speed);
        // Partition the critical group out of the remaining jobs.
        let (mut group, rest): (Vec<VJob>, Vec<VJob>) =
            vjobs.into_iter().partition(|j| j.r >= a && j.d <= b);
        vjobs = rest;
        // EDF within the interval at the critical speed.
        group.sort_by_key(|x| (x.d, x.r, x.id));
        let volumes: Vec<(VJob, f64)> = group.iter().map(|&j| (j, j.w)).collect();
        let vslices = edf_pack(&volumes, speed, a);
        for (id, ra, rb) in materialize(&map, &vslices) {
            slices.push(Slice {
                job: id,
                start: SimTime::from_micros(ra),
                end: SimTime::from_micros(rb),
                speed,
            });
        }
        // Remove the interval; compress remaining windows.
        map.cut(a, b);
        for j in &mut vjobs {
            j.r = compress_point(j.r, a, b);
            j.d = compress_point(j.d, a, b);
        }
    }

    EnergyOptResult {
        schedule: CoreSchedule::new(slices),
        round_speeds,
    }
}

/// Reusable buffers for [`energy_opt_common_release`]. They only amortize
/// allocations: every solve is bitwise independent of the previous ones.
#[derive(Clone, Debug, Default)]
pub struct CommonReleaseScratch {
    /// Positive-demand jobs in `(deadline, id)` order, each paired with its
    /// volume (its demand) as [`edf_pack_into`] takes it; `d` is virtual.
    jobs: Vec<(VJob, f64)>,
    vslices: Vec<(JobId, u64, u64)>,
    edf: EdfScratch,
    round_speeds: Vec<f64>,
}

impl CommonReleaseScratch {
    /// Speed of each extraction round of the last solve, in order — what
    /// [`EnergyOptResult::round_speeds`] holds for the same input.
    pub fn round_speeds(&self) -> &[f64] {
        &self.round_speeds
    }

    /// Speed of the last solve's first round; 0 if it had no work. See
    /// [`EnergyOptResult::initial_speed`].
    pub fn initial_speed(&self) -> f64 {
        self.round_speeds.first().copied().unwrap_or(0.0)
    }
}

/// Energy-OPT over jobs that are all released at `origin`: the same
/// [`CoreSchedule`] as [`energy_opt`] on those jobs, bit for bit, with no
/// allocation besides the returned slices once `scratch` is warm. Finding
/// the critical interval costs O(n) per round, O(n · rounds) per call; the
/// EDF packing of each critical group is the shared packing body.
///
/// `jobs` yields `(id, deadline, demand)` sorted by `(deadline, id)`, every
/// deadline after `origin`. Zero-demand jobs receive no slices.
///
/// Why the general recursion collapses (every step below is exact, so the
/// floats match too):
/// * every virtual release is 0 and stays 0 under compression, so the
///   only candidate intervals are prefixes `[0, b)` over the remaining
///   deadlines;
/// * the jobs due by `b` are a prefix of the `(deadline, id)` order — the
///   order [`energy_opt`]'s `JobSet` sorts a common-release input into —
///   so its filter-sum for `b` is the running left fold read at the last
///   job due at `b`, restarted at each round's first remaining job;
/// * its scan over `b` descending with strict `>` keeps the largest of
///   tied maxima, as the ascending scan with `>=` here does;
/// * the critical group is that prefix, already in the `(d, r, id)` order
///   it would be sorted into, so EDF packing sees identical input;
/// * each round cuts a prefix, so the virtual→real map stays one segment
///   shifted by the cut lengths so far, and compressing a remaining
///   deadline `d` past `[0, b)` gives `d − b`.
pub fn energy_opt_common_release(
    origin: SimTime,
    jobs: impl IntoIterator<Item = (JobId, SimTime, f64)>,
    scratch: &mut CommonReleaseScratch,
) -> CoreSchedule {
    let CommonReleaseScratch {
        jobs: vjobs,
        vslices,
        edf,
        round_speeds,
    } = scratch;
    let origin_us = origin.as_micros();
    vjobs.clear();
    round_speeds.clear();
    for (id, deadline, demand) in jobs {
        debug_assert!(deadline > origin, "job {id:?} is due by the common release");
        if demand > 0.0 {
            let vj = VJob {
                id,
                r: 0,
                d: deadline.as_micros() - origin_us,
                w: demand,
            };
            vjobs.push((vj, demand));
        }
    }
    debug_assert!(
        vjobs
            .windows(2)
            .all(|p| (p[0].0.d, p[0].0.id) < (p[1].0.d, p[1].0.id)),
        "jobs must be sorted by (deadline, id)"
    );
    let mut slices: Vec<Slice> = Vec::with_capacity(vjobs.len());
    // Real start of virtual 0: the origin plus every interval cut so far.
    let mut shift = origin_us;
    let mut first = 0;
    while first < vjobs.len() {
        // Critical prefix: the end `end` and virtual deadline `b` of the
        // densest prefix of the remaining jobs.
        let rest = &vjobs[first..];
        let mut acc = 0.0;
        let (mut end, mut b, mut speed) = (0, 0u64, -1.0f64);
        for (i, &(vj, _)) in rest.iter().enumerate() {
            acc += vj.w;
            if rest.get(i + 1).is_some_and(|next| next.0.d == vj.d) {
                continue; // not yet the last job due at `vj.d`
            }
            // speed (GHz) to do `acc` units in `vj.d` µs: 1 unit = 1 GHz·ms.
            let s = acc * 1000.0 / vj.d as f64;
            if s >= speed {
                (end, b, speed) = (i + 1, vj.d, s);
            }
        }
        round_speeds.push(speed);
        edf_pack_into(&rest[..end], speed, 0, edf, vslices);
        slices.extend(vslices.iter().map(|&(job, va, vb)| Slice {
            job,
            start: SimTime::from_micros(shift + va),
            end: SimTime::from_micros(shift + vb),
            speed,
        }));
        shift += b;
        first += end;
        for (vj, _) in &mut vjobs[first..] {
            vj.d -= b;
        }
    }
    CoreSchedule::new(slices)
}

/// Find the critical interval of `vjobs`: the candidate `[a, b)` (built
/// from release/deadline endpoints) maximizing intensity. Returns
/// `(a, b, speed_ghz)`.
fn critical_interval(vjobs: &[VJob]) -> (u64, u64, f64) {
    let releases: BTreeSet<u64> = vjobs.iter().map(|j| j.r).collect();
    let deadlines: BTreeSet<u64> = vjobs.iter().map(|j| j.d).collect();
    let mut best = (0u64, 0u64, -1.0f64);
    for &a in &releases {
        for &b in deadlines.iter().rev() {
            if b <= a {
                break;
            }
            let w: f64 = vjobs
                .iter()
                .filter(|j| j.r >= a && j.d <= b)
                .map(|j| j.w)
                .sum();
            if w <= 0.0 {
                continue;
            }
            // speed (GHz) to do `w` units in (b−a) µs: 1 unit = 1 GHz·ms.
            let speed = w * 1000.0 / (b - a) as f64;
            if speed > best.2 {
                best = (a, b, speed);
            }
        }
    }
    debug_assert!(
        best.2 > 0.0,
        "critical interval must exist for non-empty job set"
    );
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use qes_core::job::{Job, JobId};
    use qes_core::power::{PolynomialPower, PowerModel};
    use qes_core::schedule::Schedule;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn js(jobs: Vec<Job>) -> JobSet {
        JobSet::new(jobs).unwrap()
    }

    #[test]
    fn empty_set_yields_empty_schedule() {
        let r = energy_opt(&js(vec![]));
        assert!(r.schedule.is_empty());
        assert_eq!(r.initial_speed(), 0.0);
    }

    #[test]
    fn single_job_runs_at_its_average_speed() {
        // 100 units over a 100 ms window → 1 GHz, exactly filling the window.
        let jobs = js(vec![Job::new(0, ms(0), ms(100), 100.0).unwrap()]);
        let r = energy_opt(&jobs);
        assert_eq!(r.round_speeds.len(), 1);
        assert!((r.round_speeds[0] - 1.0).abs() < 1e-9);
        let vols = r.schedule.volumes();
        assert!((vols[&JobId(0)] - 100.0).abs() < 1e-3);
    }

    #[test]
    fn all_jobs_fully_processed() {
        let jobs = js(vec![
            Job::new(0, ms(0), ms(150), 120.0).unwrap(),
            Job::new(1, ms(20), ms(170), 60.0).unwrap(),
            Job::new(2, ms(40), ms(190), 200.0).unwrap(),
            Job::new(3, ms(90), ms(240), 80.0).unwrap(),
        ]);
        let r = energy_opt(&jobs);
        let vols = r.schedule.volumes();
        for j in jobs.iter() {
            let v = vols.get(&j.id).copied().unwrap_or(0.0);
            assert!(
                (v - j.demand).abs() < 0.01,
                "{:?}: {v} vs {}",
                j.id,
                j.demand
            );
        }
        // Schedule is feasible (unbounded budget).
        let m = PolynomialPower::PAPER_SIM;
        Schedule::single(r.schedule.clone())
            .validate_with_tolerance(&jobs, &m, f64::INFINITY, 0.05, 1e-6)
            .unwrap();
    }

    #[test]
    fn critical_speeds_are_non_increasing() {
        let jobs = js(vec![
            Job::new(0, ms(0), ms(50), 100.0).unwrap(), // dense: 2 GHz
            Job::new(1, ms(0), ms(200), 50.0).unwrap(),
            Job::new(2, ms(60), ms(260), 30.0).unwrap(),
            Job::new(3, ms(120), ms(320), 10.0).unwrap(),
        ]);
        let r = energy_opt(&jobs);
        for w in r.round_speeds.windows(2) {
            assert!(
                w[0] >= w[1] - 1e-9,
                "round speeds increased: {:?}",
                r.round_speeds
            );
        }
        assert!((r.initial_speed() - r.round_speeds[0]).abs() < 1e-12);
    }

    #[test]
    fn common_release_gives_non_increasing_speed_profile() {
        // DES's step-2 probe relies on this (§IV-D).
        let jobs = js(vec![
            Job::new(0, ms(0), ms(30), 90.0).unwrap(),
            Job::new(1, ms(0), ms(100), 50.0).unwrap(),
            Job::new(2, ms(0), ms(300), 20.0).unwrap(),
        ]);
        let r = energy_opt(&jobs);
        let plan = r.schedule.speed_plan();
        let mut prev = f64::INFINITY;
        for seg in plan.segments() {
            assert!(seg.speed <= prev + 1e-9);
            prev = seg.speed;
        }
        assert!((plan.speed_at(ms(0)) - r.initial_speed()).abs() < 1e-9);
    }

    #[test]
    fn energy_beats_constant_full_speed() {
        // Running everything at the max needed speed wastes energy; YDS
        // must do no worse than the single-speed alternative.
        let jobs = js(vec![
            Job::new(0, ms(0), ms(50), 80.0).unwrap(),
            Job::new(1, ms(50), ms(300), 40.0).unwrap(),
        ]);
        let m = PolynomialPower::PAPER_SIM;
        let r = energy_opt(&jobs);
        let yds_energy = r.schedule.energy(&m);
        // Constant-speed alternative: run both jobs back-to-back at the
        // speed the denser job needs (80 units / 50 ms = 1.6 GHz).
        let s = 1.6;
        let secs = (80.0 + 40.0) / (s * 1000.0);
        let const_energy = m.dynamic_power(s) * secs;
        assert!(
            yds_energy <= const_energy + 1e-9,
            "YDS {yds_energy} > constant {const_energy}"
        );
    }

    #[test]
    fn zero_demand_jobs_are_skipped() {
        let jobs = js(vec![
            Job::new(0, ms(0), ms(100), 0.0).unwrap(),
            Job::new(1, ms(0), ms(100), 50.0).unwrap(),
        ]);
        let r = energy_opt(&jobs);
        let vols = r.schedule.volumes();
        assert!(!vols.contains_key(&JobId(0)));
        assert!((vols[&JobId(1)] - 50.0).abs() < 0.01);
    }

    #[test]
    fn disjoint_clusters_get_their_own_speeds() {
        // Two well-separated bursts: each is its own critical interval.
        let jobs = js(vec![
            Job::new(0, ms(0), ms(50), 100.0).unwrap(),     // 2 GHz
            Job::new(1, ms(1000), ms(1100), 50.0).unwrap(), // 0.5 GHz
        ]);
        let r = energy_opt(&jobs);
        assert_eq!(r.round_speeds.len(), 2);
        assert!((r.round_speeds[0] - 2.0).abs() < 1e-9);
        assert!((r.round_speeds[1] - 0.5).abs() < 1e-9);
        // Each job runs inside its own window.
        for s in r.schedule.slices() {
            let j = jobs.get(s.job).unwrap();
            assert!(s.start >= j.release && s.end <= j.deadline);
        }
    }

    #[test]
    fn nested_windows_fold_into_one_critical_interval() {
        // A tight job inside a loose job's window: the loose job's work
        // flows around the extracted critical interval. (Not agreeable —
        // YDS itself handles general instances, so bypass the check.)
        let jobs = JobSet::new_unchecked(vec![
            Job::new(0, ms(0), ms(200), 60.0).unwrap(),
            Job::new(1, ms(50), ms(100), 100.0).unwrap(), // 2 GHz critical
        ]);
        let r = energy_opt(&jobs);
        assert!((r.round_speeds[0] - 2.0).abs() < 1e-9);
        let vols = r.schedule.volumes();
        assert!((vols[&JobId(0)] - 60.0).abs() < 0.01);
        assert!((vols[&JobId(1)] - 100.0).abs() < 0.01);
        // Job 1 occupies exactly [50,100); job 0's slices avoid it.
        for s in r.schedule.slices() {
            if s.job == JobId(0) {
                assert!(s.end <= ms(50) || s.start >= ms(100));
            }
        }
    }
}
