//! Sharded cluster front end: one arrival stream, N simulated machines.
//!
//! The paper evaluates DES on a single 16-core machine; a service with
//! "heavy traffic from millions of users" runs many such machines behind
//! a dispatcher. This module scales the *simulation itself* across
//! machines: [`dispatch_protected`] splits a single release-ordered
//! arrival stream over `N` shards under a pluggable [`RoutingPolicy`],
//! and [`ClusterEngine`] runs one independent per-shard simulation (the
//! unmodified `qes-sim` engine with its own policy instance) per shard,
//! fanning the shards out on the rayon thread pool and merging the
//! per-shard [`SimReport`]s into a cluster-level [`ClusterReport`].
//!
//! On top of the healthy path, the engine accepts a deterministic
//! [`FaultPlan`] (crash/brownout windows per shard, see `fault`): the
//! dispatch pre-pass skips crashed shards, strands the jobs caught on a
//! crashing shard and re-releases them to survivors after a retry
//! delay, and each shard's simulation is segmented into capacity
//! epochs (full / browned-out / down). Dropped and retried jobs are
//! surfaced on the [`ClusterReport`].
//!
//! Overload protection (see `admission`) layers three more mechanisms
//! into the same pre-pass, all pure functions of pre-run data:
//! deadline-aware **admission control** (reject hopeless arrivals into
//! a `jobs_rejected` class distinct from the fault path's drops),
//! **retry budgets** with exponential backoff and seeded jitter
//! (stranded jobs give up cleanly into `jobs_dropped` when the budget
//! or the deadline is exhausted), and deterministic **request hedging**
//! (once a slack fraction elapses, dispatch a second copy to the
//! next-best healthy shard; the first copy to finish wins, the loser is
//! charged to energy but not quality). The default
//! [`OverloadPolicy`] — accept all, flat unlimited retries, no hedging
//! — routes exactly like an unprotected front end.
//!
//! # Determinism contract
//!
//! * **Routing is a sequential pre-pass.** Shard assignment — and all
//!   fault handling: stranding, retry re-release, dropping — is computed
//!   by one in-order scan of a single event queue before any simulation
//!   starts, so it cannot depend on thread scheduling. Original
//!   arrivals come from the release-sorted stream; crashes, retries and
//!   hedges wait in one heap. Every event is keyed `(instant µs, class
//!   rank, tie, job id)` with ranks crash 0 < arrival 1 < retry 2 <
//!   hedge 3; `tie` is the shard for a crash and the deadline for a
//!   retry or hedge.
//! * **Lane count is unobservable.** Per-shard simulations are pure
//!   functions of (shard job set, fault epochs, policy, machine config);
//!   the rayon shim's `collect()` returns them in shard order, so a run
//!   under `QES_THREADS=1` is bit-for-bit identical to a fanned-out run
//!   (`tests/cluster_differential.rs` pins this).
//! * **Zero faults ≡ the fault-free path.** Under
//!   [`FaultPlan::none`] every query degenerates (all shards eligible,
//!   one healthy epoch per shard), and each construct is written so the
//!   degenerate case is the fault-free code path *by construction* —
//!   the reports are bitwise identical across the routing matrix.
//! * **One shard degenerates to the plain engine.** With `N = 1` every
//!   job lands on shard 0 and the merged report is the shard's report —
//!   bitwise, including every counter.
//! * **Seed-split RNGs.** Shard `i` owns the derived seed
//!   [`split_seed`]`(base, i)`; the streams are disjoint, so re-seeding
//!   one shard cannot perturb another shard's results. The core
//!   quality/energy path consumes no randomness at all — seeds only feed
//!   the optional per-shard [`PowerMeter`] noise stream (fault plans are
//!   sampled *before* the run by [`FaultPlan::seeded`], never during).
//!
//! # Routing policies
//!
//! The dispatcher tracks, per shard, the jobs routed there whose
//! deadlines have not yet passed (the *in-flight window* — pessimistic:
//! a routed job is assumed to occupy its shard until its deadline).
//! Windows are deadline-sorted; retry re-releases may carry earlier
//! deadlines than the window tail, so insertion keeps the sort (for an
//! agreeable stream with no retries this is a plain push-back).
//! Crashed shards are never eligible; when every shard is crashed the
//! job is dropped. On top of that window:
//!
//! * [`RoutingPolicy::RoundRobin`] — cyclic assignment (skipping
//!   crashed shards without consuming their turn's successor);
//! * [`RoutingPolicy::Random`] — seeded uniform choice among eligible
//!   shards;
//! * [`RoutingPolicy::Jsq`] — join-shortest-queue on the in-flight
//!   count, ties broken toward the lowest shard index (so decisions are
//!   a function of the `(release, deadline)` stream, not of job-id
//!   labels);
//! * [`RoutingPolicy::LeastEnergy`] — power-aware: route where the
//!   DES step-2 power probe (the closed-form max-prefix-density speed
//!   of the shard's in-flight window, priced through the machine's
//!   power model) grows the least; comparisons use `f64::total_cmp`
//!   with ties toward the lowest index, so NaN deltas (degenerate power
//!   models) still produce a deterministic, documented choice;
//! * [`RoutingPolicy::Feedback`] — failover-aware feedback routing:
//!   each shard reports its queue depth (pending in-flight demand) and
//!   health (current capacity fraction from the fault plan); the job
//!   goes to the shard with the lowest depth ÷ capacity score, ties
//!   toward the lowest index. With no faults this is least-pending-work
//!   routing; under brownouts it sheds load away from degraded shards.
//!
//! ## Per-shard state
//!
//! Each shard's scan state is one `ShardState`: its window, a cached
//! queue depth, its routed-copy stream with a liveness flag per stream
//! slot, and two per-slot side tables — twin links and attempt numbers.
//!
//! * **Cached depth.** The depth is `pending_demand`, a left fold of
//!   the window's demands from `-0.0` (Rust's f64 `Sum`). Appending at
//!   the window's back extends that fold by one `+= demand`: the same
//!   additions in the same order, so the cached value is bitwise the
//!   fold of the longer window. Retiring from the front, inserting
//!   mid-window (hedge copies and retries carry older deadlines) or
//!   draining on a crash changes the fold's leading terms, so those drop
//!   the cache (a crash drain sets it to the empty fold), and Feedback,
//!   the hedge target and Backpressure refold it lazily on their next
//!   read. No f64 addition is reordered, so every score is the value a
//!   full re-sum gives; debug builds assert that at every read. Empty
//!   windows score `-0.0`, never `+0.0`: `total_cmp` orders the two, so
//!   a mix would break shard ties differently.
//! * **Twin links.** When a hedge fires, the primary's slot and the
//!   hedge copy's slot point at each other. A crash that strands one of
//!   them cancels it silently iff its twin is still alive; otherwise the
//!   job retries. Copies placed by retries have no twin.
//! * **Attempt numbers.** 0 for an original arrival and its hedge copy;
//!   a retry re-places the stranded copy as attempt `k + 1`, where `k`
//!   is the stranded slot's number, and the retry budget reads it.
//!
//! Fault-plan lookups are cached as well: the eligible set and every
//! shard's capacity fraction are re-read only when the scan crosses a
//! fault-window boundary (`FaultPlan::next_change`).

use std::cell::Cell;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use qes_core::job::{Job, JobId, JobSet};
use qes_core::obs::{Event, NoopObserver, Observer, OutageKind};
use qes_core::power::PowerModel;
use qes_core::quality::QualityFunction;
use qes_core::time::SimTime;
use qes_core::MetricsRegistry;
use qes_multicore::SchedulingPolicy;
use qes_sim::engine::{demand_met, SimConfig, Simulator};
use qes_sim::report::{SimCounters, SimReport};
use qes_sim::trace::{SimTrace, TraceSlice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::admission::{AdmissionPolicy, HedgePolicy, OverloadPolicy};
use crate::fault::{effective_cores, FaultKind, FaultPlan};
use crate::meter::PowerMeter;

/// How the dispatcher picks a shard for each arriving job.
#[derive(Clone, Debug, PartialEq)]
pub enum RoutingPolicy {
    /// Cyclic assignment: job `k` (in release order) goes to shard
    /// `k mod N` (the next eligible shard under faults).
    RoundRobin,
    /// Uniform random shard per job, drawn from a dedicated
    /// deterministic stream.
    Random {
        /// Seed of the routing RNG (independent of the shard seeds).
        seed: u64,
    },
    /// Join-shortest-queue on the in-flight job count; ties go to the
    /// lowest shard index.
    Jsq,
    /// Least-energy-increment: the shard whose step-2 power probe rises
    /// the least when the job is added; ties go to the lowest index.
    LeastEnergy,
    /// Feedback routing on shard-reported queue depth ÷ available
    /// capacity; ties go to the lowest index. Skips crashed shards and
    /// sheds load away from browned-out ones.
    Feedback,
}

impl RoutingPolicy {
    /// Stable lowercase label for report keys and figure rows.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::Random { .. } => "random",
            RoutingPolicy::Jsq => "jsq",
            RoutingPolicy::LeastEnergy => "least-energy",
            RoutingPolicy::Feedback => "feedback",
        }
    }
}

/// Derive shard `lane`'s seed from a cluster base seed (SplitMix64-style
/// mix-and-finalize). Distinct lanes map to distinct, well-separated
/// seeds, so per-shard `StdRng` streams are disjoint in practice;
/// changing one shard's seed leaves every other shard's stream — and
/// report — untouched.
pub fn split_seed(base: u64, lane: u64) -> u64 {
    let mut z = base ^ lane.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The in-flight window of one shard: `(deadline_us, demand, slot)` of
/// routed jobs whose deadlines are still ahead, where `slot` indexes the
/// shard's routed-job stream (so a crash can strand exactly the jobs
/// still in the window). Deadline-sorted by construction; retirement
/// pops from the front and the probe scans prefixes in deadline order.
type InFlight = VecDeque<(u64, f64, u32)>;

/// The step-2 probe speed (GHz) of one in-flight window at `now_us`,
/// optionally with a candidate job appended: the maximum prefix density
/// over deadline-ordered jobs, exactly the closed form the DES policy
/// uses for its per-core power requests (demands are processing units =
/// 1 GHz·ms, hence the factor 1000 against microsecond windows). A
/// window or candidate whose deadline is at or before `now_us` (zero
/// slack) is clamped to a 1 µs floor so the density stays finite
/// instead of underflowing or dividing by zero.
///
/// The running maximum takes a density only when it is strictly
/// greater, which keeps `f64::max`'s NaN handling out of the loop's
/// dependency chain. Both skip a NaN density and keep the same value
/// otherwise; they could differ only on a `-0.0` density, which needs a
/// negative demand (`Job::new` rejects those).
fn probe_speed(window: &InFlight, now_us: u64, candidate: Option<(u64, f64)>) -> f64 {
    let (mut cum, mut speed) = (0.0, 0.0);
    let mut push = |d_us: u64, w: f64| {
        cum += w;
        let density = cum * 1000.0 / d_us.saturating_sub(now_us).max(1) as f64;
        if density > speed {
            speed = density;
        }
    };
    let (front, back) = window.as_slices();
    for part in [front, back] {
        for &(d_us, w, _) in part {
            push(d_us, w);
        }
    }
    if let Some((d_us, w)) = candidate {
        push(d_us, w);
    }
    speed
}

/// Sum of demands still in one shard's in-flight window — the "queue
/// depth" a shard reports to [`RoutingPolicy::Feedback`]. A left fold
/// in window order, starting from `-0.0` (Rust's f64 `Sum`).
fn pending_demand(window: &InFlight) -> f64 {
    window.iter().map(|&(_, w, _)| w).sum()
}

/// [`pending_demand`] of an empty window: `-0.0`, not `+0.0`. Feedback
/// compares scores with `total_cmp`, which orders `-0.0` first, so an
/// empty window must score exactly this or shard ties break differently.
const EMPTY_DEPTH: f64 = -0.0;

/// The [`AdmissionPolicy::SlackFloor`] price of `job` on one shard: the
/// best quality it can still earn there, as a fraction of `q_max`. The
/// shard needs the probe speed of its window plus the job and delivers
/// at most `eff_ghz` (its fault-degraded capacity), so the achievable
/// completed fraction caps at `eff_ghz` / required.
fn slack_ratio(
    quality: &dyn QualityFunction,
    job: &Job,
    window: &InFlight,
    eff_ghz: f64,
    q_max: f64,
) -> f64 {
    let cand = (job.deadline.as_micros(), job.demand);
    let s_req = probe_speed(window, job.release.as_micros(), Some(cand));
    let frac = if s_req > 0.0 {
        (eff_ghz / s_req).clamp(0.0, 1.0)
    } else {
        1.0
    };
    quality.job_quality(job, frac * job.demand) / q_max
}

/// The [`AdmissionPolicy::SlackFloor`] verdict on per-shard ratios,
/// stopping at the first ratio that reaches the floor. It equals the
/// max form `max(0, r_1..r_n) >= floor`: `f64::max` skips a NaN ratio
/// and `NaN >= floor` is false, so the max reaches the floor iff
/// `0 >= floor` or some `r_i >= floor`.
fn clears_floor(mut ratios: impl Iterator<Item = f64>, floor: f64) -> bool {
    0.0 >= floor || ratios.any(|r| r >= floor)
}

/// The candidate with the smallest `key`, the first one on ties. Each
/// key is computed once; `total_cmp` is a total order (NaN sorts above
/// +inf), so even a degenerate key yields a deterministic choice.
fn argmin(candidates: impl Iterator<Item = usize>, key: impl Fn(usize) -> f64) -> Option<usize> {
    candidates
        .map(|s| (s, key(s)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(s, _)| s)
}

/// `v[i] = x`, growing `v` with defaults first. Per-slot side tables
/// ([`ShardState::twins`], [`ShardState::attempts`]) grow only as far as
/// the last slot written, so a run that never hedges or retries keeps
/// them empty.
fn set_slot<T: Copy + Default>(v: &mut Vec<T>, slot: u32, x: T) {
    let i = slot as usize;
    if v.len() <= i {
        v.resize(i + 1, T::default());
    }
    v[i] = x;
}

/// One shard's state in the dispatch scan.
struct ShardState {
    /// Routed jobs whose deadlines are still ahead, deadline-sorted.
    window: InFlight,
    /// [`pending_demand`] of `window`, or `None` once stale. A
    /// back-append extends it in place (see [`ShardState::place`]);
    /// anything else that changes the window clears it, and
    /// [`ShardState::depth`] refolds on the next read.
    cached_depth: Cell<Option<f64>>,
    /// Routed-job stream in routing order, indexed by slot.
    stream: Vec<Job>,
    /// Whether each slot is still alive (not stranded by a crash).
    alive: Vec<bool>,
    /// Twin link per slot: the other copy `(shard, slot)` of a hedged
    /// pair. Written only when a hedge fires; a missing entry is `None`.
    twins: Vec<Option<(u32, u32)>>,
    /// Attempt number per slot: 0 for an original arrival and its hedge
    /// copy, `k` for the copy the `k`-th retry placed. Written only by
    /// retries; a missing entry is 0.
    attempts: Vec<u32>,
    /// Backpressure hysteresis: whether the shard is shedding (its
    /// in-flight demand crossed the cap and has not yet drained to the
    /// resume level). Always false under every other admission policy.
    shedding: bool,
}

impl ShardState {
    fn new() -> Self {
        ShardState {
            window: InFlight::new(),
            cached_depth: Cell::new(Some(EMPTY_DEPTH)),
            stream: Vec::new(),
            alive: Vec::new(),
            twins: Vec::new(),
            attempts: Vec::new(),
            shedding: false,
        }
    }

    /// Pending in-flight demand ([`pending_demand`] of the window): the
    /// cached fold, refolded only when stale.
    fn depth(&self) -> f64 {
        let depth = self.cached_depth.get().unwrap_or_else(|| {
            let d = pending_demand(&self.window);
            self.cached_depth.set(Some(d));
            d
        });
        debug_assert_eq!(
            depth.to_bits(),
            pending_demand(&self.window).to_bits(),
            "cached shard depth differs from a fresh fold of its window"
        );
        depth
    }

    /// Retire every window entry due at or before `now_us`.
    fn retire(&mut self, now_us: u64) {
        let before = self.window.len();
        while self.window.front().is_some_and(|&(d, _, _)| d <= now_us) {
            self.window.pop_front();
        }
        if self.window.len() != before {
            // The fold's first terms are gone; removing them by
            // subtraction would not give the fold's bits back.
            self.cached_depth.set(None);
        }
    }

    /// Append `job` to the stream and to the deadline-sorted window;
    /// returns the job's stream slot.
    fn place(&mut self, job: Job) -> u32 {
        let slot = self.stream.len() as u32;
        self.stream.push(job);
        self.alive.push(true);
        let d_us = job.deadline.as_micros();
        // Deadline-sorted insert; equal deadlines keep arrival order.
        // For an agreeable stream with no retries this is the back.
        let pos = self.window.partition_point(|&(d, _, _)| d <= d_us);
        if pos == self.window.len() {
            // The left fold of the longer window is the old fold plus
            // this demand: the same additions in the same order.
            if let Some(d) = self.cached_depth.get() {
                self.cached_depth.set(Some(d + job.demand));
            }
        } else {
            self.cached_depth.set(None);
        }
        self.window.insert(pos, (d_us, job.demand, slot));
        slot
    }

    /// The other copy of `slot`, if `slot` is one half of a hedged
    /// pair (alive or not).
    fn twin(&self, slot: u32) -> Option<(usize, u32)> {
        self.twins
            .get(slot as usize)
            .copied()
            .flatten()
            .map(|(s, sl)| (s as usize, sl))
    }

    /// The attempt number of the copy in `slot`.
    fn attempt(&self, slot: u32) -> u32 {
        self.attempts.get(slot as usize).copied().unwrap_or(0)
    }
}

/// One hedge dispatch: a second copy of a slow job sent to another
/// shard ([`dispatch_protected`] with [`HedgePolicy::SlackFraction`]).
#[derive(Clone, Copy, Debug)]
pub struct HedgeRecord {
    /// The instant the hedge copy was dispatched.
    pub at: SimTime,
    /// The hedged job (original release and deadline).
    pub job: Job,
    /// Shard holding the primary copy at dispatch time.
    pub from: u32,
    /// Shard the hedge copy went to.
    pub to: u32,
    /// Stream slot of the primary copy on `from`.
    pub primary_slot: u32,
    /// Stream slot of the hedge copy on `to`.
    pub hedge_slot: u32,
    /// True when both copies survived to simulation (neither was
    /// stranded by a later crash): the merged report must settle the
    /// duel with first-wins accounting.
    pub duel: bool,
}

/// The outcome of the dispatch pre-pass ([`dispatch_protected`]).
#[derive(Clone, Debug)]
pub struct DispatchPlan {
    /// Final per-shard job streams: original arrivals plus surviving
    /// retry re-releases and hedge copies, minus stranded copies,
    /// sorted by `(release, deadline, id)`. Retries and hedge copies
    /// keep their original deadline, so the delay eats the job's slack
    /// (streams may lose agreeability; the per-shard engine does not
    /// require it).
    pub shard_jobs: Vec<JobSet>,
    /// Shard of each *original* job in stream order, `u32::MAX` when
    /// the dispatcher dropped it (no eligible shard at release, or a
    /// later stranding with an infeasible retry) or the admission
    /// policy rejected it (the `dropped`/`rejected` lists distinguish
    /// the two).
    pub assignment: Vec<u32>,
    /// Jobs the dispatcher dropped, with the drop instant.
    pub dropped: Vec<(SimTime, Job)>,
    /// Jobs the admission policy rejected at arrival, with the
    /// rejection instant. Always empty under
    /// [`AdmissionPolicy::AcceptAll`].
    pub rejected: Vec<(SimTime, Job)>,
    /// Stranding records `(crash instant, job, crashed shard)`, in
    /// crash order — one per stranded copy, whether or not the retry
    /// later succeeded (a stranded copy of a hedged pair whose twin
    /// survives is recorded here too, then silently cancelled).
    pub redispatches: Vec<(SimTime, JobId, u32)>,
    /// Retry re-releases that were successfully routed to a surviving
    /// shard.
    pub retried: u64,
    /// Hedge dispatches, in fire order.
    pub hedges: Vec<HedgeRecord>,
    /// Per shard, the duel copies it runs as `(job id, index into
    /// hedges)`, sorted by id: two entries per duel, one on each of its
    /// shards. The cluster merge joins a shard's job outcomes against
    /// this list to settle the duels first-wins.
    pub(crate) duel_copies: Vec<Vec<(u32, u32)>>,
    /// Dispatcher-level observability events (admission rejects, retry
    /// re-releases, hedge dispatches) in scan order — timestamps are
    /// non-decreasing, ready to replay into an [`Observer`].
    pub events: Vec<(SimTime, Event)>,
}

/// Event classes of the dispatch scan. The derived order is the
/// same-instant rank: crash 0 < arrival 1 < retry 2 < hedge 3.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Crash,
    Arrival,
    Retry,
    Hedge,
}

/// A queued dispatch event `(instant µs, class, tie, job id, shard,
/// slot)`. The first four fields are unique per event and fix the pop
/// order; `(shard, slot)` locate the copy a retry re-releases or a
/// hedge duplicates (a crash carries its shard in both `tie` and
/// `shard`).
type Queued = (u64, Class, u64, u32, usize, u32);

/// Mutable routing state shared by every event of the dispatch scan.
struct Router<'a> {
    routing: &'a RoutingPolicy,
    model: &'a dyn PowerModel,
    plan: &'a FaultPlan,
    quality: &'a dyn QualityFunction,
    admission: &'a AdmissionPolicy,
    shards: Vec<ShardState>,
    /// Shards outside a crash window at the last [`Router::retire`]
    /// instant, ascending.
    eligible: Vec<usize>,
    /// Each shard's capacity fraction at that instant.
    capacity: Vec<f64>,
    /// The instants `[from, until)` over which no shard's fault state
    /// changes, so `eligible` and `capacity` stay valid.
    fault_span: (SimTime, SimTime),
    rr: usize,
    rng: Option<StdRng>,
}

impl Router<'_> {
    /// Advance to `now`: retire expired in-flight entries everywhere,
    /// so counts and probes see only live work (windows are
    /// deadline-FIFO), and bring [`Router::eligible`] and
    /// [`Router::capacity`] to `now` (re-read from the plan only when
    /// `now` leaves [`Router::fault_span`]).
    fn retire(&mut self, now: SimTime) {
        let now_us = now.as_micros();
        for sh in &mut self.shards {
            sh.retire(now_us);
        }
        let (from, until) = self.fault_span;
        if now < from || now >= until {
            let plan = self.plan;
            let shards = 0..self.shards.len();
            self.eligible.clear();
            self.eligible
                .extend(shards.clone().filter(|&s| !plan.is_crashed(s, now)));
            self.capacity.clear();
            self.capacity
                .extend(shards.clone().map(|s| plan.capacity_fraction(s, now)));
            let until = shards.map(|s| plan.next_change(s, now)).min();
            self.fault_span = (now, until.unwrap_or(SimTime::MAX));
        }
        debug_assert!(
            (0..self.shards.len()).all(|s| {
                self.capacity[s].to_bits() == self.plan.capacity_fraction(s, now).to_bits()
                    && self.eligible.contains(&s) != self.plan.is_crashed(s, now)
            }),
            "cached fault state differs from the plan at {now:?}"
        );
    }

    /// Feedback score of `shard` at the last [`Router::retire`] instant:
    /// pending in-flight demand ÷ capacity fraction, so a shard at half
    /// capacity looks twice as deep.
    fn depth(&self, shard: usize) -> f64 {
        self.shards[shard].depth() / self.capacity[shard]
    }

    /// Overload-admission verdict for one *original* arrival (retries
    /// and hedge copies always bypass admission). Call after
    /// [`Router::retire`] found an eligible shard. Updates the
    /// backpressure hysteresis state as a side effect.
    fn admits(&mut self, job: &Job) -> bool {
        match *self.admission {
            AdmissionPolicy::AcceptAll => true,
            AdmissionPolicy::SlackFloor {
                floor,
                capacity_ghz,
            } => {
                let q_max = self.quality.max_job_quality(job);
                // NaN-safe: a NaN or zero-mass max quality admits.
                if q_max.partial_cmp(&0.0) != Some(Ordering::Greater) {
                    // A zero-mass job can't fall below any floor.
                    return true;
                }
                let this = &*self;
                let ratios = || {
                    this.eligible.iter().map(move |&s| {
                        let eff = capacity_ghz * this.capacity[s];
                        slack_ratio(this.quality, job, &this.shards[s].window, eff, q_max)
                    })
                };
                let admit = clears_floor(ratios(), floor);
                debug_assert_eq!(
                    admit,
                    ratios().fold(0.0, f64::max) >= floor,
                    "first-pass slack-floor verdict differs from the max form"
                );
                admit
            }
            AdmissionPolicy::Backpressure { cap, resume } => {
                for sh in &mut self.shards {
                    let depth = sh.depth();
                    if sh.shedding {
                        if depth <= resume {
                            sh.shedding = false;
                        }
                    } else if depth >= cap {
                        sh.shedding = true;
                    }
                }
                !self.eligible.iter().all(|&s| self.shards[s].shedding)
            }
        }
    }

    /// Route one arrival (original or retry) among the shards
    /// [`Router::retire`] found eligible at its release, and place it.
    /// Returns `(shard, slot)`, or `None` when every shard is crashed.
    fn admit(&mut self, job: Job) -> Option<(usize, u32)> {
        if self.eligible.is_empty() {
            return None;
        }
        let now = job.release;
        let now_us = now.as_micros();
        let eligible = self.eligible.iter().copied();
        let shard = match self.routing {
            RoutingPolicy::RoundRobin => {
                // First eligible shard at or after the cursor,
                // cyclically; with no faults this is the plain cursor.
                let s = self
                    .eligible
                    .iter()
                    .copied()
                    .find(|&s| s >= self.rr)
                    .unwrap_or(self.eligible[0]);
                self.rr = (s + 1) % self.shards.len();
                s
            }
            RoutingPolicy::Random { .. } => {
                let u: f64 = self
                    .rng
                    .as_mut()
                    .expect("random routing carries an rng")
                    .gen();
                let n = self.eligible.len();
                self.eligible[((u * n as f64) as usize).min(n - 1)]
            }
            RoutingPolicy::Jsq => argmin(eligible, |s| self.shards[s].window.len() as f64)?,
            RoutingPolicy::LeastEnergy => {
                let cand = Some((job.deadline.as_micros(), job.demand));
                argmin(eligible, |s| {
                    let w = &self.shards[s].window;
                    let before = self.model.dynamic_power(probe_speed(w, now_us, None));
                    let after = self.model.dynamic_power(probe_speed(w, now_us, cand));
                    after - before
                })?
            }
            RoutingPolicy::Feedback => argmin(eligible, |s| self.depth(s))?,
        };
        Some((shard, self.shards[shard].place(job)))
    }
}

/// Assign every job of the release-sorted stream to a shard, under a
/// fault plan and an overload-protection policy.
///
/// A deterministic sequential pre-pass over one event queue (order and
/// ranks in the module docs). Crashed shards are never eligible; an
/// arrival that finds every shard crashed is dropped. A crash strands
/// every copy still in the crashed shard's in-flight window. On top of
/// that:
///
/// * **Admission** (`overload.admission`): each *original* arrival is
///   screened before routing; a rejected job gets assignment
///   `u32::MAX` and lands in `rejected` (never `dropped` — the two
///   classes stay disjoint). Retries and hedge copies bypass
///   admission: the cluster has already invested in them. The quality
///   function is consulted only by [`AdmissionPolicy::SlackFloor`].
/// * **Retry budget** (`overload.retry`): a stranded copy retries as
///   attempt `k + 1`, where `k` is its own attempt number (0 for an
///   original or hedge copy); past `max_attempts` it gives up into
///   `dropped`. Otherwise it re-releases after
///   [`RetryPolicy::delay_for`](crate::admission::RetryPolicy::delay_for)
///   (the plan's fixed delay by default; exponential backoff, seeded
///   jitter), keeping its original deadline; a re-release at or past
///   the deadline, or past `end`, is dropped instead.
/// * **Hedging** (`overload.hedge`): when an original is routed and
///   the slack-fraction instant lands strictly inside `(release,
///   deadline)` and before the horizon, a hedge copy fires at that
///   instant *iff the primary is still alive*, to the lowest-scoring
///   healthy shard other than the primary's (feedback score: pending
///   demand ÷ capacity fraction). A stranded copy whose twin survives
///   is cancelled silently (recorded in `redispatches`, not retried or
///   dropped); a hedge pair with both copies alive at the end is a
///   *duel* the report merge settles first-wins.
///
/// Conservation: `routed(shard streams) + dropped + rejected =
/// arrivals + duels`.
///
/// # Panics
///
/// On zero shards, a plan covering a different shard count, or an
/// invalid overload policy ([`OverloadPolicy::validate`]).
#[allow(clippy::too_many_arguments)]
pub fn dispatch_protected(
    jobs: &JobSet,
    shards: usize,
    routing: &RoutingPolicy,
    model: &dyn PowerModel,
    quality: &dyn QualityFunction,
    plan: &FaultPlan,
    overload: &OverloadPolicy,
    end: SimTime,
) -> DispatchPlan {
    assert!(shards > 0, "a cluster needs at least one shard");
    assert_eq!(plan.shards(), shards, "fault plan must cover every shard");
    overload.validate();
    let mut router = Router {
        routing,
        model,
        plan,
        quality,
        admission: &overload.admission,
        shards: (0..shards).map(|_| ShardState::new()).collect(),
        eligible: Vec::with_capacity(shards),
        capacity: Vec::with_capacity(shards),
        // Empty: the first `retire` reads the plan.
        fault_span: (SimTime::MAX, SimTime::ZERO),
        rr: 0,
        rng: match routing {
            RoutingPolicy::Random { seed } => Some(StdRng::seed_from_u64(*seed)),
            _ => None,
        },
    };

    let mut arrivals = jobs.iter().copied().peekable();
    let mut queue: BinaryHeap<Reverse<Queued>> = plan
        .crash_starts()
        .into_iter()
        .filter(|&(t, _)| t < end)
        .map(|(t, s)| Reverse((t.as_micros(), Class::Crash, s as u64, 0, s, 0)))
        .collect();

    let mut assignment: Vec<u32> = Vec::with_capacity(jobs.len());
    let mut dropped: Vec<(SimTime, Job)> = Vec::new();
    let mut rejected: Vec<(SimTime, Job)> = Vec::new();
    let mut redispatches: Vec<(SimTime, JobId, u32)> = Vec::new();
    let mut retried = 0u64;
    let mut hedges: Vec<HedgeRecord> = Vec::new();
    let mut events: Vec<(SimTime, Event)> = Vec::new();

    loop {
        let take_arrival = match (arrivals.peek(), queue.peek()) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(j), Some(&Reverse((t, class, ..)))) => {
                (j.release.as_micros(), Class::Arrival) < (t, class)
            }
        };
        if take_arrival {
            let job = arrivals.next().expect("cursor checked above");
            router.retire(job.release);
            if !router.eligible.is_empty() && !router.admits(&job) {
                assignment.push(u32::MAX);
                events.push((
                    job.release,
                    Event::AdmissionReject {
                        job: job.id,
                        policy: overload.admission.label(),
                    },
                ));
                rejected.push((job.release, job));
                continue;
            }
            let Some((s, slot)) = router.admit(job) else {
                assignment.push(u32::MAX);
                dropped.push((job.release, job));
                continue;
            };
            assignment.push(s as u32);
            if let HedgePolicy::SlackFraction { fraction } = overload.hedge {
                let r_us = job.release.as_micros();
                let d_us = job.deadline.as_micros();
                let h_us = r_us + ((d_us - r_us) as f64 * fraction) as u64;
                // Only hedge when the fire instant lies strictly inside
                // the job's window and before the horizon.
                if h_us > r_us && h_us < d_us && SimTime::from_micros(h_us) < end {
                    queue.push(Reverse((h_us, Class::Hedge, d_us, job.id.0, s, slot)));
                }
            }
            continue;
        }

        let Reverse((at_us, class, _, _, shard, slot)) = queue.pop().expect("queue checked above");
        let at = SimTime::from_micros(at_us);
        router.retire(at);
        match class {
            Class::Crash => {
                // Retirement left only jobs due after the crash in the
                // window (the rest completed before it): strand them.
                while let Some((_, _, slot)) = router.shards[shard].window.pop_front() {
                    let sh = &mut router.shards[shard];
                    let job = sh.stream[slot as usize];
                    sh.alive[slot as usize] = false;
                    redispatches.push((at, job.id, shard as u32));
                    if let Some((ts, tsl)) = sh.twin(slot) {
                        if router.shards[ts].alive[tsl as usize] {
                            // The twin copy survives: cancel this
                            // strand silently — no retry, no drop.
                            continue;
                        }
                    }
                    let attempt = router.shards[shard].attempt(slot) + 1;
                    if attempt > overload.retry.max_attempts {
                        // Retry budget exhausted: give up cleanly.
                        dropped.push((at, job));
                        continue;
                    }
                    let delay = overload
                        .retry
                        .delay_for(attempt, plan.retry_delay(), job.id.0);
                    let release = at + delay;
                    if release >= job.deadline || release > end {
                        dropped.push((at, job));
                    } else {
                        let d_us = job.deadline.as_micros();
                        queue.push(Reverse((
                            release.as_micros(),
                            Class::Retry,
                            d_us,
                            job.id.0,
                            shard,
                            slot,
                        )));
                    }
                }
                router.shards[shard].cached_depth.set(Some(EMPTY_DEPTH));
            }
            Class::Retry => {
                // The retry re-releases the stranded copy in
                // `(shard, slot)` and carries its attempt number on.
                let stranded = &router.shards[shard];
                let attempt = stranded.attempt(slot) + 1;
                let job = Job {
                    release: at,
                    ..stranded.stream[slot as usize]
                };
                match router.admit(job) {
                    Some((s, slot)) => {
                        retried += 1;
                        set_slot(&mut router.shards[s].attempts, slot, attempt);
                        events.push((
                            at,
                            Event::Retry {
                                job: job.id,
                                attempt,
                            },
                        ));
                    }
                    None => dropped.push((at, job)),
                }
            }
            Class::Hedge => {
                if !router.shards[shard].alive[slot as usize] {
                    // The primary was stranded before the hedge fired;
                    // the retry path owns the job now.
                    continue;
                }
                // Next-best healthy shard, excluding the primary's, by
                // feedback score.
                let others = router.eligible.iter().copied().filter(|&s| s != shard);
                let Some(to) = argmin(others, |s| router.depth(s)) else {
                    // No healthy twin shard: skip this hedge.
                    continue;
                };
                let job = router.shards[shard].stream[slot as usize];
                let hedge_slot = router.shards[to].place(Job { release: at, ..job });
                set_slot(
                    &mut router.shards[shard].twins,
                    slot,
                    Some((to as u32, hedge_slot)),
                );
                set_slot(
                    &mut router.shards[to].twins,
                    hedge_slot,
                    Some((shard as u32, slot)),
                );
                events.push((
                    at,
                    Event::Hedge {
                        job: job.id,
                        to: to as u32,
                    },
                ));
                hedges.push(HedgeRecord {
                    at,
                    job,
                    from: shard as u32,
                    to: to as u32,
                    primary_slot: slot,
                    hedge_slot,
                    duel: false,
                });
            }
            Class::Arrival => unreachable!("arrivals come from the release-sorted cursor"),
        }
    }

    // A hedge whose both copies survived to simulation is a duel; the
    // merged report settles it first-wins, finding each copy's outcome
    // through its shard's `(id, hedge index)` list.
    let mut duel_copies: Vec<Vec<(u32, u32)>> = vec![Vec::new(); shards];
    for (k, h) in hedges.iter_mut().enumerate() {
        let alive = |s: u32, slot: u32| router.shards[s as usize].alive[slot as usize];
        h.duel = alive(h.from, h.primary_slot) && alive(h.to, h.hedge_slot);
        if h.duel {
            duel_copies[h.from as usize].push((h.job.id.0, k as u32));
            duel_copies[h.to as usize].push((h.job.id.0, k as u32));
        }
    }
    for copies in &mut duel_copies {
        copies.sort_unstable();
    }
    let duels = hedges.iter().filter(|h| h.duel).count();

    let shard_jobs: Vec<JobSet> = router
        .shards
        .into_iter()
        .map(|sh| {
            let survivors: Vec<Job> = sh
                .stream
                .into_iter()
                .zip(sh.alive)
                .filter_map(|(j, a)| a.then_some(j))
                .collect();
            // Retries keep original deadlines, so a shard's stream may
            // not be agreeable; the engine does not require it, and
            // `new_unchecked` applies the same (release, deadline, id)
            // sort as the validated constructor.
            JobSet::new_unchecked(survivors)
        })
        .collect();
    debug_assert_eq!(
        shard_jobs.iter().map(JobSet::len).sum::<usize>() + dropped.len() + rejected.len(),
        jobs.len() + duels,
        "every arrival routed exactly once, rejected, dropped, or duelling"
    );

    DispatchPlan {
        shard_jobs,
        assignment,
        dropped,
        rejected,
        redispatches,
        retried,
        hedges,
        duel_copies,
        events,
    }
}

/// One shard's outcome inside a [`ClusterReport`].
#[derive(Clone, Debug)]
pub struct ShardRun {
    /// Shard index (0-based).
    pub shard: usize,
    /// The shard's derived seed ([`split_seed`] of the cluster base
    /// seed, unless overridden).
    pub seed: u64,
    /// The shard machine's simulation report (fault epochs merged).
    pub report: SimReport,
    /// Metered wall-energy reading of this shard's schedule, when the
    /// engine carries a [`PowerMeter`] (noise stream seeded by
    /// [`ShardRun::seed`]).
    pub measured_energy: Option<f64>,
}

/// The merged outcome of a sharded cluster run.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Routing policy label.
    pub routing: String,
    /// Cluster-level aggregate: quality/energy/max-quality and every
    /// counter summed over shards in shard order. For a 1-shard cluster
    /// this *is* the shard's report (bitwise).
    pub merged: SimReport,
    /// Per-shard reports, indexed by shard.
    pub shards: Vec<ShardRun>,
    /// Jobs the dispatcher dropped: arrivals with no eligible shard,
    /// stranded jobs whose retry re-release was infeasible, or retry
    /// budgets exhausted. Zero on the fault-free path.
    pub jobs_dropped: u64,
    /// Stranded-job re-releases successfully routed to a surviving
    /// shard. Zero on the fault-free path.
    pub jobs_retried: u64,
    /// Jobs the admission policy turned away at arrival — a class
    /// disjoint from `jobs_dropped` (rejection is a *choice*; drops are
    /// capacity/feasibility failures). Zero under
    /// [`AdmissionPolicy::AcceptAll`].
    pub jobs_rejected: u64,
    /// Hedge copies dispatched by the overload policy. Zero under
    /// [`HedgePolicy::Disabled`].
    pub jobs_hedged: u64,
    /// Hedge duels the *hedge copy* won (strictly better quality than
    /// the primary; ties go to the primary).
    pub hedges_won: u64,
    /// Max-quality mass of the dropped jobs — what a healthy cluster
    /// could have earned from them. Feeds
    /// [`ClusterReport::degraded_quality`].
    pub dropped_max_quality: f64,
    /// Max-quality mass of the rejected jobs; like
    /// `dropped_max_quality`, charged against
    /// [`ClusterReport::degraded_quality`] so admission control cannot
    /// inflate delivered quality by shrinking the denominator.
    pub rejected_max_quality: f64,
}

impl ClusterReport {
    /// Total metered energy, if the cluster has shards and every shard
    /// was metered (summed in shard order). An empty shard list was
    /// never metered, so it reports `None`, not `Some(0.0)`.
    pub fn measured_energy(&self) -> Option<f64> {
        if self.shards.is_empty() {
            return None;
        }
        self.shards
            .iter()
            .map(|s| s.measured_energy)
            .try_fold(0.0, |acc, e| e.map(|e| acc + e))
    }

    /// Largest per-shard job count — with [`ClusterReport::min_shard_jobs`]
    /// a quick balance check on the routing policy.
    pub fn max_shard_jobs(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.report.jobs_total())
            .max()
            .unwrap_or(0)
    }

    /// Smallest per-shard job count.
    pub fn min_shard_jobs(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.report.jobs_total())
            .min()
            .unwrap_or(0)
    }

    /// Degraded-mode normalized quality: earned quality over the
    /// quality a fault-free, admit-everything cluster could have earned
    /// *including* the jobs the dispatcher dropped or rejected. Equal
    /// to `merged.normalized_quality()` when nothing was dropped or
    /// rejected. A run with no quality mass at all (e.g. an empty
    /// arrival stream) reports a NaN-free `1.0`.
    pub fn degraded_quality(&self) -> f64 {
        let denom = self.merged.max_quality + self.dropped_max_quality + self.rejected_max_quality;
        if denom > 0.0 {
            self.merged.total_quality / denom
        } else {
            1.0
        }
    }

    /// Export the merged report plus per-shard and fault gauges into a
    /// registry.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        self.merged.export_metrics(reg);
        for s in &self.shards {
            reg.set_gauge(
                format!("cluster.shard{}.quality", s.shard),
                s.report.total_quality,
            );
            reg.set_gauge(
                format!("cluster.shard{}.energy", s.shard),
                s.report.energy_joules,
            );
            reg.set_gauge(
                format!("cluster.shard{}.jobs", s.shard),
                s.report.jobs_total() as f64,
            );
        }
        reg.set_gauge("cluster.jobs_dropped", self.jobs_dropped as f64);
        reg.set_gauge("cluster.jobs_retried", self.jobs_retried as f64);
        reg.set_gauge("cluster.jobs_rejected", self.jobs_rejected as f64);
        reg.set_gauge("cluster.jobs_hedged", self.jobs_hedged as f64);
        reg.set_gauge("cluster.hedges_won", self.hedges_won as f64);
        reg.set_gauge("cluster.degraded_quality", self.degraded_quality());
        if let Some(e) = self.measured_energy() {
            reg.set_gauge("cluster.measured_energy", e);
        }
    }
}

/// Fold one report into another: quality, max-quality and energy sums
/// plus a field-by-field counter sum (destructured so a new
/// [`SimCounters`] field is a compile error here instead of a silent
/// merge bug). Shared by the shard merge and the epoch merge.
fn absorb(into: &mut SimReport, from: &SimReport) {
    into.total_quality += from.total_quality;
    into.max_quality += from.max_quality;
    into.energy_joules += from.energy_joules;
    let SimCounters {
        jobs_total,
        jobs_satisfied,
        jobs_partial,
        jobs_zero,
        jobs_discarded,
        invocations,
        invocations_kept,
        plans_installed,
        plans_kept,
    } = &from.counters;
    let into = &mut into.counters;
    into.jobs_total += jobs_total;
    into.jobs_satisfied += jobs_satisfied;
    into.jobs_partial += jobs_partial;
    into.jobs_zero += jobs_zero;
    into.jobs_discarded += jobs_discarded;
    into.invocations += invocations;
    into.invocations_kept += invocations_kept;
    into.plans_installed += plans_installed;
    into.plans_kept += plans_kept;
}

/// Re-timestamps an epoch simulation's events from epoch-local time to
/// absolute cluster time. With `base == ZERO` (the fault-free single
/// epoch) the mapping is the identity on integer microseconds, so the
/// fault-free event stream is untouched.
struct OffsetObserver<'a, O> {
    inner: &'a mut O,
    base: SimTime,
}

impl<O: Observer> Observer for OffsetObserver<'_, O> {
    const ENABLED: bool = O::ENABLED;

    #[inline]
    fn record(&mut self, at: SimTime, event: Event) {
        self.inner
            .record(self.base + at.saturating_since(SimTime::ZERO), event);
    }
}

/// A cluster of `N` identical simulated machines behind one dispatcher.
///
/// Each shard runs the unmodified [`Simulator`] over its routed slice of
/// the arrival stream with its own policy instance; shards execute in
/// parallel on the rayon pool and merge deterministically (see the
/// module docs for the contract). An optional [`FaultPlan`] injects
/// crash/brownout windows per shard.
#[derive(Clone, Debug)]
pub struct ClusterEngine {
    shards: usize,
    routing: RoutingPolicy,
    seed: u64,
    shard_seeds: Option<Vec<u64>>,
    meter: Option<PowerMeter>,
    fault: FaultPlan,
    overload: OverloadPolicy,
}

impl ClusterEngine {
    /// A cluster of `shards` machines, round-robin routing, base seed 0,
    /// no metering, no faults, no overload protection.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a cluster needs at least one shard");
        ClusterEngine {
            shards,
            routing: RoutingPolicy::RoundRobin,
            seed: 0,
            shard_seeds: None,
            meter: None,
            fault: FaultPlan::none(shards),
            overload: OverloadPolicy::default(),
        }
    }

    /// Builder: routing policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Builder: cluster base seed (shard `i` derives
    /// [`split_seed`]`(seed, i)`).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: explicit per-shard seeds, overriding the derived split.
    /// Must supply exactly one seed per shard.
    pub fn with_shard_seeds(mut self, seeds: Vec<u64>) -> Self {
        assert_eq!(seeds.len(), self.shards, "one seed per shard");
        self.shard_seeds = Some(seeds);
        self
    }

    /// Builder: meter every shard's schedule with a [`PowerMeter`]
    /// (its noise stream re-seeded per shard from the shard seed).
    pub fn with_meter(mut self, meter: PowerMeter) -> Self {
        self.meter = Some(meter);
        self
    }

    /// Builder: inject a deterministic fault plan. The plan must cover
    /// exactly this cluster's shards. [`FaultPlan::none`] (the default)
    /// is bitwise-identical to the fault-free path.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        assert_eq!(
            plan.shards(),
            self.shards,
            "fault plan must cover every shard"
        );
        self.fault = plan;
        self
    }

    /// Builder: full overload-protection policy (admission + retry
    /// budget + hedging). The default policy is bitwise-identical to
    /// running without one.
    pub fn with_overload(mut self, overload: OverloadPolicy) -> Self {
        self.overload = overload;
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The routing policy.
    pub fn routing(&self) -> &RoutingPolicy {
        &self.routing
    }

    /// The injected fault plan ([`FaultPlan::none`] by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault
    }

    /// The seed shard `i` runs with.
    pub fn shard_seed(&self, shard: usize) -> u64 {
        match &self.shard_seeds {
            Some(seeds) => seeds[shard],
            None => split_seed(self.seed, shard as u64),
        }
    }

    /// Run the cluster: route `jobs`, simulate every shard (in parallel)
    /// on a machine configured like `cfg`, merge. `make_policy(i)`
    /// builds shard `i`'s scheduling policy (one fresh instance per
    /// fault epoch).
    pub fn run<F>(&self, cfg: &SimConfig<'_>, jobs: &JobSet, make_policy: F) -> ClusterReport
    where
        F: Fn(usize) -> Box<dyn SchedulingPolicy> + Sync + Send,
    {
        self.run_observed(cfg, jobs, make_policy, |_| NoopObserver)
            .0
    }

    /// [`ClusterEngine::run`] with one observer per shard, built by
    /// `make_observer(i)` and returned in shard order. Each shard's
    /// event stream opens with a shard-tagged
    /// [`Event::ShardAssign`]; fault windows bracket their epochs with
    /// [`Event::ShardDown`]/[`Event::ShardUp`], crashes report their
    /// stranded jobs as [`Event::Redispatch`], and metered runs tag
    /// their [`Event::PowerSample`]s with the shard index. Observers
    /// are passive: the cluster report is bitwise-identical with or
    /// without them.
    pub fn run_observed<O, F, M>(
        &self,
        cfg: &SimConfig<'_>,
        jobs: &JobSet,
        make_policy: F,
        make_observer: M,
    ) -> (ClusterReport, Vec<O>)
    where
        O: Observer + Send,
        F: Fn(usize) -> Box<dyn SchedulingPolicy> + Sync + Send,
        M: Fn(usize) -> O + Sync + Send,
    {
        let dispatch = dispatch_protected(
            jobs,
            self.shards,
            &self.routing,
            cfg.model,
            cfg.quality,
            &self.fault,
            &self.overload,
            cfg.end,
        );
        let shard_jobs = &dispatch.shard_jobs;
        // Group stranding records by crashed shard for event emission.
        let mut redispatched: Vec<Vec<(SimTime, JobId)>> = vec![Vec::new(); self.shards];
        for &(t, job, from) in &dispatch.redispatches {
            redispatched[from as usize].push((t, job));
        }

        let runs: Vec<_> = (0..self.shards)
            .into_par_iter()
            .map(|i| {
                let mut obs = make_observer(i);
                if O::ENABLED {
                    obs.record(
                        SimTime::ZERO,
                        Event::ShardAssign {
                            shard: i as u32,
                            jobs: shard_jobs[i].len() as u32,
                        },
                    );
                }
                let (report, trace, outcomes) = run_shard_epochs(
                    cfg,
                    i,
                    &shard_jobs[i],
                    &self.fault,
                    &redispatched[i],
                    &dispatch.duel_copies[i],
                    &make_policy,
                    self.meter.is_some(),
                    &mut obs,
                );
                let seed = self.shard_seed(i);
                let measured = self.meter.as_ref().map(|m| {
                    let m = PowerMeter { seed, ..m.clone() };
                    measured_shard_energy(
                        &m,
                        cfg.model,
                        cfg.num_cores,
                        cfg.end,
                        &trace,
                        i as u32,
                        &mut obs,
                    )
                });
                let run = ShardRun {
                    shard: i,
                    seed,
                    report,
                    measured_energy: measured,
                };
                ((run, obs), outcomes)
            })
            .collect();

        let ((shards, observers), duel_outcomes): ((Vec<_>, Vec<_>), Vec<_>) =
            runs.into_iter().unzip();

        // Merge in shard order, seeded from shard 0's report so a
        // 1-shard cluster is the plain engine run to the bit.
        let mut merged = shards[0].report.clone();
        for s in &shards[1..] {
            absorb(&mut merged, &s.report);
        }

        // First-wins settlement of hedge duels. Both copies ran and
        // were counted once each by their shards; the cluster delivered
        // the *better* outcome exactly once. The loser's quality,
        // max-quality mass, and job-class count come back out of the
        // merged report; its energy (and the scheduler bookkeeping —
        // invocations, plans, discards) stays, because that work really
        // happened. Quality comparison uses `total_cmp`, ties go to the
        // primary, so the settlement is deterministic.
        let mut hedges_won = 0u64;
        // Each shard's outcomes are sorted by hedge index and the walk
        // below goes in index order, so a shard's next unread outcome
        // is the current duel's copy there, if that copy settled.
        let mut next = vec![0usize; self.shards];
        for (k, h) in dispatch.hedges.iter().enumerate() {
            if !h.duel {
                continue;
            }
            let mut settled = |s: u32| {
                let (outcomes, i) = (&duel_outcomes[s as usize], &mut next[s as usize]);
                let &(hedge, processed, quality) = outcomes.get(*i)?;
                (hedge as usize == k).then(|| {
                    *i += 1;
                    (processed, quality)
                })
            };
            let (Some((pw, pq)), Some((hw, hq))) = (settled(h.from), settled(h.to)) else {
                continue;
            };
            let hedge_wins = hq.total_cmp(&pq) == Ordering::Greater;
            if hedge_wins {
                hedges_won += 1;
            }
            let (lw, lq) = if hedge_wins { (pw, pq) } else { (hw, hq) };
            merged.total_quality -= lq;
            merged.max_quality -= cfg.quality.max_job_quality(&h.job);
            merged.counters.jobs_total -= 1;
            // Re-derive the loser's settle class exactly as the engine
            // classified it (same tolerance, same thresholds).
            if demand_met(lw, h.job.demand) {
                merged.counters.jobs_satisfied -= 1;
            } else if lw > 1e-9 {
                merged.counters.jobs_partial -= 1;
            } else {
                merged.counters.jobs_zero -= 1;
            }
        }

        merged.policy = format!(
            "cluster/{}x/{}/{}",
            self.shards,
            self.routing.label(),
            shards[0].report.policy
        );
        let mass = |jobs: &[(SimTime, Job)]| -> f64 {
            jobs.iter()
                .map(|(_, j)| cfg.quality.max_job_quality(j))
                .sum()
        };

        (
            ClusterReport {
                routing: self.routing.label().to_string(),
                merged,
                shards,
                jobs_dropped: dispatch.dropped.len() as u64,
                jobs_retried: dispatch.retried,
                jobs_rejected: dispatch.rejected.len() as u64,
                jobs_hedged: dispatch.hedges.len() as u64,
                hedges_won,
                dropped_max_quality: mass(&dispatch.dropped),
                rejected_max_quality: mass(&dispatch.rejected),
            },
            observers,
        )
    }
}

/// Run one shard's simulation as a sequence of fault epochs and merge
/// the epoch reports.
///
/// Each epoch runs the plain engine in *epoch-local* time (releases and
/// deadlines shifted by the epoch start, horizon = epoch length) so
/// engine-internal anchors like the quantum tick grid behave exactly as
/// in a fresh run; an [`OffsetObserver`] re-timestamps events and the
/// returned trace slices back to absolute time. Brownout epochs run on
/// [`effective_cores`] and a proportionally reduced power budget; crash
/// epochs run nothing (routing plus stranding guarantee they hold no
/// jobs). Jobs spanning a non-final epoch boundary are truncated at the
/// boundary (drain-on-reconfigure: the shard settles in-flight work
/// when its capacity state changes). With no fault windows this is one
/// healthy epoch over `[0, end)` — bitwise the fault-free path — and
/// the engine runs on `jobs` itself, since rebasing by a zero start
/// with no truncation maps every job to itself.
/// `duels` lists this shard's duel copies as `(job id, hedge index)`,
/// sorted by id ([`DispatchPlan::duel_copies`]): their outcomes are
/// joined against it from the per-epoch detailed stats and returned as
/// `(hedge index, processed, quality)` sorted by hedge index, so the
/// cluster merge can settle first-wins. With an empty list (every
/// default-path run) nothing is harvested — [`Simulator::run_observed`]
/// is itself a thin wrapper over the detailed run, so requesting stats
/// changes no simulation arithmetic.
#[allow(clippy::too_many_arguments)]
fn run_shard_epochs<O, F>(
    cfg: &SimConfig<'_>,
    shard: usize,
    jobs: &JobSet,
    plan: &FaultPlan,
    redispatched: &[(SimTime, JobId)],
    duels: &[(u32, u32)],
    make_policy: &F,
    metered: bool,
    obs: &mut O,
) -> (SimReport, SimTrace, Vec<(u32, f64, f64)>)
where
    O: Observer,
    F: Fn(usize) -> Box<dyn SchedulingPolicy> + Sync + Send,
{
    let epochs = plan.epochs(shard, cfg.end);
    let all = jobs.jobs();
    let mut cursor = 0usize;
    let mut redisp = redispatched.iter().peekable();
    let mut merged: Option<SimReport> = None;
    let mut full_trace = SimTrace::default();
    let mut duel_outcomes = Vec::with_capacity(duels.len());

    for (k, ep) in epochs.iter().enumerate() {
        let is_final = k + 1 == epochs.len();
        if O::ENABLED {
            if let Some(kind) = ep.fault {
                let outage = match kind {
                    FaultKind::Crash => OutageKind::Crash,
                    FaultKind::Brownout { .. } => OutageKind::Brownout,
                };
                obs.record(
                    ep.start,
                    Event::ShardDown {
                        shard: shard as u32,
                        kind: outage,
                    },
                );
            }
        }
        // Epoch membership is by release; the final epoch also takes
        // any arrivals at or past the horizon (the engine screens them
        // exactly as the fault-free path does).
        let hi = if is_final {
            all.len()
        } else {
            cursor + all[cursor..].partition_point(|j| j.release < ep.end)
        };
        let slice = &all[cursor..hi];
        cursor = hi;

        if matches!(ep.fault, Some(FaultKind::Crash)) {
            // Routing never targets a crashed shard and the dispatch
            // pass stranded everything caught by the crash, so a crash
            // epoch holds no simulatable jobs.
            debug_assert!(
                slice.iter().all(|j| j.release >= cfg.end),
                "job released inside a crash epoch"
            );
            if O::ENABLED {
                while let Some(&(t, job)) = redisp.next_if(|&&(t, _)| t == ep.start) {
                    obs.record(
                        t,
                        Event::Redispatch {
                            job,
                            from: shard as u32,
                        },
                    );
                }
            }
        } else {
            let (cores, budget) = match ep.fault {
                Some(FaultKind::Brownout { loss }) => (
                    effective_cores(cfg.num_cores, loss),
                    cfg.budget * (1.0 - loss),
                ),
                _ => (cfg.num_cores, cfg.budget),
            };
            let local_end = SimTime::ZERO + ep.end.saturating_since(ep.start);
            let rebased;
            let local_set = if ep.start == SimTime::ZERO && is_final {
                // One epoch over the whole run: every job maps to itself.
                jobs
            } else {
                rebased = JobSet::new_unchecked(
                    slice
                        .iter()
                        .map(|j| {
                            // Drain-on-reconfigure: a job spanning a
                            // non-final epoch boundary settles (with
                            // whatever quality its processed fraction
                            // earned) when the capacity state changes.
                            let deadline = if !is_final && j.deadline > ep.end {
                                ep.end
                            } else {
                                j.deadline
                            };
                            Job {
                                release: SimTime::ZERO + j.release.saturating_since(ep.start),
                                deadline: SimTime::ZERO + deadline.saturating_since(ep.start),
                                ..*j
                            }
                        })
                        .collect(),
                );
                &rebased
            };
            let scfg = SimConfig {
                num_cores: cores,
                budget,
                model: cfg.model,
                quality: cfg.quality,
                end: local_end,
                record_trace: cfg.record_trace || metered,
                overhead: cfg.overhead,
            };
            let mut policy = make_policy(shard);
            let mut off = OffsetObserver {
                inner: obs,
                base: ep.start,
            };
            let (rep, trace, stats) =
                Simulator::run_detailed_observed(&scfg, policy.as_mut(), local_set, &mut off);
            if !duels.is_empty() {
                for o in stats.outcomes() {
                    if let Ok(i) = duels.binary_search_by_key(&o.id.0, |&(id, _)| id) {
                        duel_outcomes.push((duels[i].1, o.processed, o.quality));
                    }
                }
            }
            for s in trace.slices() {
                full_trace.push(TraceSlice {
                    start: ep.start + s.start.saturating_since(SimTime::ZERO),
                    end: ep.start + s.end.saturating_since(SimTime::ZERO),
                    ..*s
                });
            }
            match &mut merged {
                None => merged = Some(rep),
                Some(m) => absorb(m, &rep),
            }
        }
        if O::ENABLED && ep.fault.is_some() && ep.end < cfg.end {
            obs.record(
                ep.end,
                Event::ShardUp {
                    shard: shard as u32,
                },
            );
        }
    }

    let mut report = merged.unwrap_or_else(|| SimReport {
        // The shard was down for the whole run: an empty report under
        // the policy's name.
        policy: make_policy(shard).name(),
        ..SimReport::default()
    });
    // Epoch horizons are local; the shard's report spans the full run.
    report.sim_seconds = cfg.end.as_secs_f64();
    duel_outcomes.sort_unstable_by_key(|&(hedge, _, _)| hedge);
    (report, full_trace, duel_outcomes)
}

/// Meter one shard's executed schedule: replay the recorded trace as a
/// per-core speed profile, price it through the machine's *dynamic*
/// power curve (matching [`SimReport::energy_joules`]'s scope), and let
/// the shard's [`PowerMeter`] sample it. `PowerSample` events carry the
/// shard index as their node tag. A crashed or browned-out stretch
/// simply has no (or fewer) trace slices, so the metered draw falls
/// with the outage.
fn measured_shard_energy<O: Observer>(
    meter: &PowerMeter,
    model: &dyn PowerModel,
    num_cores: usize,
    end: SimTime,
    trace: &SimTrace,
    shard: u32,
    obs: &mut O,
) -> f64 {
    let mut per_core: Vec<Vec<(SimTime, SimTime, f64)>> = vec![Vec::new(); num_cores];
    for s in trace.slices() {
        if s.core < per_core.len() {
            per_core[s.core].push((s.start, s.end, s.speed));
        }
    }
    for v in &mut per_core {
        v.sort_by_key(|&(start, _, _)| start);
    }
    let speed_at = |slices: &[(SimTime, SimTime, f64)], t: SimTime| -> f64 {
        let idx = slices.partition_point(|&(_, e, _)| e <= t);
        match slices.get(idx) {
            Some(&(s, _, sp)) if s <= t => sp,
            _ => 0.0,
        }
    };
    meter.measure_window_observed(
        shard,
        SimTime::ZERO,
        end,
        |t| {
            per_core
                .iter()
                .map(|slices| model.dynamic_power(speed_at(slices, t)))
                .sum()
        },
        obs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::RetryPolicy;
    use crate::fault::FaultWindow;
    use qes_core::power::PolynomialPower;
    use qes_core::quality::ExpQuality;
    use qes_core::time::SimDuration;

    fn stream(n: usize, gap_ms: u64, demand: f64) -> JobSet {
        let jobs: Vec<Job> = (0..n)
            .map(|i| {
                let at = SimTime::from_millis(i as u64 * gap_ms);
                Job::new(i as u32, at, at + SimDuration::from_millis(150), demand).unwrap()
            })
            .collect();
        JobSet::new(jobs).unwrap()
    }

    /// [`dispatch_protected`] under the default overload policy.
    fn faulted(
        jobs: &JobSet,
        shards: usize,
        routing: &RoutingPolicy,
        plan: &FaultPlan,
        end: SimTime,
    ) -> DispatchPlan {
        dispatch_protected(
            jobs,
            shards,
            routing,
            &PolynomialPower::PAPER_SIM,
            &ExpQuality::PAPER_DEFAULT,
            plan,
            &OverloadPolicy::default(),
            end,
        )
    }

    /// Fault-free shard assignment of every job, default overload policy.
    fn assign(jobs: &JobSet, shards: usize, routing: &RoutingPolicy) -> Vec<u32> {
        faulted(
            jobs,
            shards,
            routing,
            &FaultPlan::none(shards),
            SimTime::MAX,
        )
        .assignment
    }

    #[test]
    fn round_robin_cycles_and_conserves() {
        let jobs = stream(10, 1, 100.0);
        let a = assign(&jobs, 3, &RoutingPolicy::RoundRobin);
        assert_eq!(a, vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0]);
        let split = faulted(
            &jobs,
            3,
            &RoutingPolicy::RoundRobin,
            &FaultPlan::none(3),
            SimTime::MAX,
        )
        .shard_jobs;
        assert_eq!(split.iter().map(JobSet::len).sum::<usize>(), 10);
        assert_eq!(split[0].len(), 4);
    }

    #[test]
    fn jsq_prefers_the_emptier_shard_and_breaks_ties_low() {
        // Two simultaneous arrivals: both shards empty -> shard 0 wins the
        // tie; the second sees shard 0 loaded and goes to shard 1.
        let jobs = JobSet::new(vec![
            Job::new(0, SimTime::ZERO, SimTime::from_millis(150), 100.0).unwrap(),
            Job::new(1, SimTime::ZERO, SimTime::from_millis(150), 100.0).unwrap(),
            Job::new(2, SimTime::from_millis(1), SimTime::from_millis(151), 100.0).unwrap(),
        ])
        .unwrap();
        let a = assign(&jobs, 2, &RoutingPolicy::Jsq);
        // Third arrival: both shards hold one in-flight job; tie -> 0.
        assert_eq!(a, vec![0, 1, 0]);
    }

    #[test]
    fn jsq_retires_expired_windows() {
        // Second arrival lands after the first job's deadline: shard 0 is
        // empty again and wins the tie.
        let jobs = JobSet::new(vec![
            Job::new(0, SimTime::ZERO, SimTime::from_millis(150), 100.0).unwrap(),
            Job::new(
                1,
                SimTime::from_millis(200),
                SimTime::from_millis(350),
                100.0,
            )
            .unwrap(),
        ])
        .unwrap();
        let a = assign(&jobs, 2, &RoutingPolicy::Jsq);
        assert_eq!(a, vec![0, 0]);
    }

    #[test]
    fn least_energy_spreads_simultaneous_load() {
        // The probe is convex in load, so stacking two simultaneous jobs
        // on one shard costs more than spreading them.
        let jobs = JobSet::new(vec![
            Job::new(0, SimTime::ZERO, SimTime::from_millis(150), 300.0).unwrap(),
            Job::new(1, SimTime::ZERO, SimTime::from_millis(150), 300.0).unwrap(),
        ])
        .unwrap();
        let a = assign(&jobs, 2, &RoutingPolicy::LeastEnergy);
        assert_eq!(a, vec![0, 1]);
    }

    #[test]
    fn least_energy_ties_break_to_lowest_index() {
        // Five identical simultaneous jobs over three shards: equal
        // probe deltas tie toward the lowest index, and convexity keeps
        // stacking costlier than spreading — the assignment cycles.
        let jobs = JobSet::new(
            (0..5)
                .map(|i| Job::new(i, SimTime::ZERO, SimTime::from_millis(150), 300.0).unwrap())
                .collect(),
        )
        .unwrap();
        let a = assign(&jobs, 3, &RoutingPolicy::LeastEnergy);
        assert_eq!(a, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn least_energy_survives_nan_power_models() {
        // A degenerate model whose probe deltas are all NaN: total_cmp
        // still yields a deterministic lowest-index choice, no panic.
        struct NanPower;
        impl PowerModel for NanPower {
            fn dynamic_power(&self, _s: f64) -> f64 {
                f64::NAN
            }
            fn static_power(&self) -> f64 {
                0.0
            }
            fn speed_for_dynamic_power(&self, _p: f64) -> f64 {
                0.0
            }
        }
        let jobs = stream(20, 1, 100.0);
        let nan_route = || {
            dispatch_protected(
                &jobs,
                4,
                &RoutingPolicy::LeastEnergy,
                &NanPower,
                &ExpQuality::PAPER_DEFAULT,
                &FaultPlan::none(4),
                &OverloadPolicy::default(),
                SimTime::MAX,
            )
            .assignment
        };
        let a = nan_route();
        assert_eq!(a.len(), jobs.len());
        assert!(a.iter().all(|&s| s < 4));
        assert_eq!(a, nan_route());
        // NaN sorts above every finite delta under total_cmp, so every
        // decision is the all-tie lowest-index pick: shard 0.
        assert!(a.iter().all(|&s| s == 0));
    }

    #[test]
    fn random_routing_is_deterministic_per_seed_and_in_range() {
        let jobs = stream(50, 2, 150.0);
        let r = RoutingPolicy::Random { seed: 9 };
        let a = assign(&jobs, 4, &r);
        let b = assign(&jobs, 4, &r);
        assert_eq!(a, b);
        assert!(a.iter().all(|&s| s < 4));
        let c = assign(&jobs, 4, &RoutingPolicy::Random { seed: 10 });
        assert_ne!(a, c, "different seed should reshuffle some assignment");
    }

    #[test]
    fn feedback_without_faults_routes_least_pending_demand() {
        // Two simultaneous arrivals spread (tie -> 0, then 1); a third
        // goes where pending demand is lowest, not where the count is.
        let jobs = JobSet::new(vec![
            Job::new(0, SimTime::ZERO, SimTime::from_millis(150), 300.0).unwrap(),
            Job::new(1, SimTime::ZERO, SimTime::from_millis(150), 100.0).unwrap(),
            Job::new(2, SimTime::from_millis(1), SimTime::from_millis(151), 100.0).unwrap(),
        ])
        .unwrap();
        let a = assign(&jobs, 2, &RoutingPolicy::Feedback);
        // Shard 0 carries 300 units, shard 1 only 100: the third job
        // joins shard 1 even though the job counts tie.
        assert_eq!(a, vec![0, 1, 1]);
    }

    #[test]
    fn feedback_skips_crashed_and_sheds_from_browned_out_shards() {
        let jobs = stream(12, 1, 100.0);
        let horizon = SimTime::from_secs(1);
        // Shard 0 crashed, shard 1 at 40 % capacity, shard 2 healthy.
        let plan = FaultPlan::none(3)
            .with_window(
                0,
                FaultWindow {
                    start: SimTime::ZERO,
                    end: horizon,
                    kind: FaultKind::Crash,
                },
            )
            .with_window(
                1,
                FaultWindow {
                    start: SimTime::ZERO,
                    end: horizon,
                    kind: FaultKind::Brownout { loss: 0.6 },
                },
            );
        let d = faulted(&jobs, 3, &RoutingPolicy::Feedback, &plan, horizon);
        assert!(d.assignment.iter().all(|&s| s != 0), "crashed shard used");
        let to_healthy = d.assignment.iter().filter(|&&s| s == 2).count();
        let to_browned = d.assignment.iter().filter(|&&s| s == 1).count();
        assert!(
            to_healthy > to_browned,
            "feedback should shed load from the browned-out shard \
             ({to_browned} browned vs {to_healthy} healthy)"
        );
        assert!(d.dropped.is_empty());
    }

    #[test]
    fn crash_strands_and_retries_in_flight_jobs() {
        // Two shards; shard 0 crashes at 50 ms. Jobs arriving before
        // the crash alternate 0/1 (round-robin); jobs on shard 0 with
        // deadlines past the crash are stranded and re-released 10 ms
        // later onto shard 1.
        let jobs = stream(4, 20, 100.0); // releases 0, 20, 40, 60 ms
        let horizon = SimTime::from_secs(1);
        let plan = FaultPlan::none(2)
            .with_window(
                0,
                FaultWindow {
                    start: SimTime::from_millis(50),
                    end: horizon,
                    kind: FaultKind::Crash,
                },
            )
            .with_retry_delay(SimDuration::from_millis(10));
        let d = faulted(&jobs, 2, &RoutingPolicy::RoundRobin, &plan, horizon);
        // Jobs 0 and 2 went to shard 0 and were stranded at 50 ms
        // (deadlines 150/190 ms are past the crash).
        assert_eq!(d.redispatches.len(), 2);
        assert_eq!(d.retried, 2);
        assert!(d.dropped.is_empty());
        // Every survivor lives on shard 1; conservation holds.
        assert_eq!(d.shard_jobs[0].len(), 0);
        assert_eq!(d.shard_jobs[1].len(), 4);
        // Retried copies keep their original deadlines but release at
        // crash + delay.
        let retried: Vec<&Job> = d.shard_jobs[1]
            .iter()
            .filter(|j| j.release == SimTime::from_millis(60) && j.id.0 != 3)
            .collect();
        assert_eq!(retried.len(), 2);
        assert!(retried.iter().all(|j| j.deadline
            == SimTime::from_millis(150) + SimDuration::from_millis(20 * (j.id.0 as u64 / 2) * 2)
            || j.deadline > j.release));
    }

    #[test]
    fn infeasible_retries_and_total_outages_drop_jobs() {
        // One shard, crashed from 10 ms to the horizon: the in-flight
        // job is stranded with nowhere to go, and later arrivals find
        // no eligible shard at all.
        let jobs = stream(3, 20, 100.0); // releases 0, 20, 40 ms
        let horizon = SimTime::from_secs(1);
        let plan = FaultPlan::none(1).with_window(
            0,
            FaultWindow {
                start: SimTime::from_millis(10),
                end: horizon,
                kind: FaultKind::Crash,
            },
        );
        let d = faulted(&jobs, 1, &RoutingPolicy::RoundRobin, &plan, horizon);
        assert_eq!(d.shard_jobs[0].len(), 0);
        assert_eq!(d.dropped.len(), 3, "stranded + 2 blocked arrivals");
        assert_eq!(d.retried, 0);
        assert_eq!(d.assignment, vec![0, u32::MAX, u32::MAX]);
    }

    #[test]
    fn split_seed_is_injective_over_small_lanes() {
        let mut seen = std::collections::HashSet::new();
        for base in [0u64, 1, 42, u64::MAX] {
            for lane in 0..64u64 {
                assert!(
                    seen.insert(split_seed(base, lane)),
                    "collision at {base}/{lane}"
                );
            }
        }
    }

    #[test]
    fn probe_speed_matches_hand_computation() {
        let mut w = InFlight::new();
        // 100 units due in 100 ms, 50 more due in 200 ms (cum 150).
        w.push_back((100_000, 100.0, 0));
        w.push_back((200_000, 50.0, 1));
        let s = probe_speed(&w, 0, None);
        // max(100/100ms, 150/200ms) = max(1.0, 0.75) GHz.
        assert!((s - 1.0).abs() < 1e-12, "{s}");
        let s2 = probe_speed(&w, 0, Some((200_000, 150.0)));
        // cum 300 over 200 ms = 1.5 GHz.
        assert!((s2 - 1.5).abs() < 1e-12, "{s2}");
    }

    #[test]
    fn probe_speed_clamps_zero_slack_windows() {
        // A window entry due exactly "now" used to underflow
        // `d_us - now_us` (debug panic, release wraparound); the clamp
        // prices it over the 1 µs floor instead.
        let mut w = InFlight::new();
        w.push_back((1_000, 100.0, 0));
        let s = probe_speed(&w, 1_000, None);
        assert!(s.is_finite());
        assert!((s - 100_000.0).abs() < 1e-6, "{s}");
        // A candidate whose deadline is already past must not divide by
        // zero or wrap around either.
        let s2 = probe_speed(&w, 2_000, Some((1_500, 50.0)));
        assert!(s2.is_finite());
        assert!(s2 > 0.0);
    }

    #[test]
    fn measured_energy_is_none_for_empty_or_partially_metered_clusters() {
        let base = ClusterReport {
            routing: "jsq".into(),
            merged: SimReport::default(),
            shards: Vec::new(),
            jobs_dropped: 0,
            jobs_retried: 0,
            jobs_rejected: 0,
            jobs_hedged: 0,
            hedges_won: 0,
            dropped_max_quality: 0.0,
            rejected_max_quality: 0.0,
        };
        // An empty cluster was never metered.
        assert_eq!(base.measured_energy(), None);

        let run = |energy: Option<f64>| ShardRun {
            shard: 0,
            seed: 0,
            report: SimReport::default(),
            measured_energy: energy,
        };
        let metered = ClusterReport {
            shards: vec![run(Some(1.5)), run(Some(2.5))],
            ..base.clone()
        };
        assert_eq!(metered.measured_energy(), Some(4.0));
        let partial = ClusterReport {
            shards: vec![run(Some(1.5)), run(None)],
            ..base
        };
        assert_eq!(partial.measured_energy(), None);
    }

    #[test]
    fn degraded_quality_counts_dropped_mass() {
        let mut rep = ClusterReport {
            routing: "feedback".into(),
            merged: SimReport {
                total_quality: 6.0,
                max_quality: 8.0,
                ..SimReport::default()
            },
            shards: Vec::new(),
            jobs_dropped: 2,
            jobs_retried: 1,
            jobs_rejected: 0,
            jobs_hedged: 0,
            hedges_won: 0,
            dropped_max_quality: 2.0,
            rejected_max_quality: 0.0,
        };
        // 6 earned out of (8 simulated + 2 dropped) possible.
        assert!((rep.degraded_quality() - 0.6).abs() < 1e-12);
        // Rejected mass widens the denominator exactly like dropped
        // mass: 6 out of (8 + 2 + 2).
        rep.rejected_max_quality = 2.0;
        assert!((rep.degraded_quality() - 0.5).abs() < 1e-12);
        rep.rejected_max_quality = 0.0;
        rep.dropped_max_quality = 0.0;
        assert!((rep.degraded_quality() - rep.merged.normalized_quality()).abs() < 1e-12);
    }

    #[test]
    fn degraded_quality_is_nan_free_with_no_quality_mass() {
        // Zero arrivals (or an all-rejected stream with no simulated
        // mass) must not divide 0/0.
        let rep = ClusterReport {
            routing: "round-robin".into(),
            merged: SimReport::default(),
            shards: Vec::new(),
            jobs_dropped: 0,
            jobs_retried: 0,
            jobs_rejected: 0,
            jobs_hedged: 0,
            hedges_won: 0,
            dropped_max_quality: 0.0,
            rejected_max_quality: 0.0,
        };
        let q = rep.degraded_quality();
        assert!(q.is_finite());
        assert_eq!(q, 1.0);
    }

    #[test]
    fn slack_floor_rejects_hopeless_arrivals_only() {
        // One 1 GHz shard. The first job fits comfortably (needs
        // ~0.67 GHz); stacking a 4000-unit job behind it would need
        // ~27 GHz, so its achievable fraction is hopeless and it is
        // rejected, not dropped.
        let jobs = JobSet::new(vec![
            Job::new(0, SimTime::ZERO, SimTime::from_millis(150), 100.0).unwrap(),
            Job::new(1, SimTime::ZERO, SimTime::from_millis(150), 4000.0).unwrap(),
        ])
        .unwrap();
        let overload = OverloadPolicy {
            admission: AdmissionPolicy::SlackFloor {
                floor: 0.5,
                capacity_ghz: 1.0,
            },
            ..OverloadPolicy::default()
        };
        let d = dispatch_protected(
            &jobs,
            1,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &ExpQuality::PAPER_DEFAULT,
            &FaultPlan::none(1),
            &overload,
            SimTime::from_secs(1),
        );
        assert_eq!(d.assignment, vec![0, u32::MAX]);
        assert_eq!(d.rejected.len(), 1);
        assert_eq!(d.rejected[0].1.id.0, 1);
        assert!(d.dropped.is_empty(), "rejection is not a drop");
        // The reject surfaced as a dispatcher event.
        assert!(matches!(
            d.events.as_slice(),
            [(_, Event::AdmissionReject { job: JobId(1), .. })]
        ));
    }

    #[test]
    fn backpressure_sheds_above_cap_and_resumes_after_drain() {
        // Cap 250 demand units, resume 100. Two 150-unit jobs fill the
        // single shard past the cap; the third arrival is shed. After
        // the windows retire, a late arrival is admitted again.
        let mk = |id: u32, at_ms: u64| {
            Job::new(
                id,
                SimTime::from_millis(at_ms),
                SimTime::from_millis(at_ms + 100),
                150.0,
            )
            .unwrap()
        };
        let jobs = JobSet::new(vec![mk(0, 0), mk(1, 1), mk(2, 2), mk(3, 500)]).unwrap();
        let overload = OverloadPolicy {
            admission: AdmissionPolicy::Backpressure {
                cap: 250.0,
                resume: 100.0,
            },
            ..OverloadPolicy::default()
        };
        let d = dispatch_protected(
            &jobs,
            1,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &ExpQuality::PAPER_DEFAULT,
            &FaultPlan::none(1),
            &overload,
            SimTime::from_secs(1),
        );
        assert_eq!(d.assignment, vec![0, 0, u32::MAX, 0]);
        assert_eq!(d.rejected.len(), 1);
        assert_eq!(d.rejected[0].1.id.0, 2);
    }

    #[test]
    fn hedging_dispatches_a_twin_to_another_shard() {
        // Two shards, one job with 100 ms of slack, hedge at 50 %.
        let jobs = JobSet::new(vec![Job::new(
            0,
            SimTime::ZERO,
            SimTime::from_millis(100),
            200.0,
        )
        .unwrap()])
        .unwrap();
        let overload = OverloadPolicy {
            hedge: HedgePolicy::SlackFraction { fraction: 0.5 },
            ..OverloadPolicy::default()
        };
        let d = dispatch_protected(
            &jobs,
            2,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &ExpQuality::PAPER_DEFAULT,
            &FaultPlan::none(2),
            &overload,
            SimTime::from_secs(1),
        );
        assert_eq!(d.hedges.len(), 1);
        let h = d.hedges[0];
        assert_eq!(h.at, SimTime::from_millis(50));
        assert_eq!(h.from, 0);
        assert_eq!(h.to, 1);
        assert!(h.duel, "both copies survive a fault-free run");
        // The twin keeps the original deadline but releases at the
        // hedge instant.
        assert_eq!(d.shard_jobs[1].len(), 1);
        let twin = d.shard_jobs[1].iter().next().unwrap();
        assert_eq!(twin.id.0, 0);
        assert_eq!(twin.release, SimTime::from_millis(50));
        assert_eq!(twin.deadline, SimTime::from_millis(100));
        // Conservation with a duel: 1 arrival, 2 stream entries.
        assert_eq!(
            d.shard_jobs.iter().map(JobSet::len).sum::<usize>(),
            jobs.len() + 1
        );
    }

    #[test]
    fn hedge_is_cancelled_when_the_primary_strands_first() {
        // The primary shard crashes before the hedge instant: the
        // pending hedge must not fire (the retry path owns the job).
        let jobs = JobSet::new(vec![Job::new(
            0,
            SimTime::ZERO,
            SimTime::from_millis(200),
            100.0,
        )
        .unwrap()])
        .unwrap();
        let plan = FaultPlan::none(2)
            .with_window(
                0,
                FaultWindow {
                    start: SimTime::from_millis(20),
                    end: SimTime::from_millis(180),
                    kind: FaultKind::Crash,
                },
            )
            .with_retry_delay(SimDuration::from_millis(10));
        let overload = OverloadPolicy {
            hedge: HedgePolicy::SlackFraction { fraction: 0.5 },
            ..OverloadPolicy::default()
        };
        let d = dispatch_protected(
            &jobs,
            2,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &ExpQuality::PAPER_DEFAULT,
            &FaultPlan::none(2),
            &overload,
            SimTime::from_secs(1),
        );
        // Sanity: fault-free, the hedge fires.
        assert_eq!(d.hedges.len(), 1);
        let d2 = dispatch_protected(
            &jobs,
            2,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &ExpQuality::PAPER_DEFAULT,
            &plan,
            &overload,
            SimTime::from_secs(1),
        );
        assert!(d2.hedges.is_empty(), "stranded primary cancels the hedge");
        assert_eq!(d2.retried, 1);
        // The retried copy alone survives: plain conservation.
        assert_eq!(d2.shard_jobs.iter().map(JobSet::len).sum::<usize>(), 1);
    }

    #[test]
    fn retry_budget_drops_after_max_attempts() {
        // Both shards crash in sequence, repeatedly stranding the job.
        // With a 1-attempt budget the second strand gives up.
        let job = Job::new(0, SimTime::ZERO, SimTime::from_millis(400), 100.0).unwrap();
        let jobs = JobSet::new(vec![job]).unwrap();
        let plan = FaultPlan::none(2)
            .with_window(
                0,
                FaultWindow {
                    start: SimTime::from_millis(10),
                    end: SimTime::from_millis(390),
                    kind: FaultKind::Crash,
                },
            )
            .with_window(
                1,
                FaultWindow {
                    start: SimTime::from_millis(30),
                    end: SimTime::from_millis(390),
                    kind: FaultKind::Crash,
                },
            )
            .with_retry_delay(SimDuration::from_millis(10));
        let budgeted = OverloadPolicy {
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..OverloadPolicy::default()
        };
        let d = dispatch_protected(
            &jobs,
            2,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &ExpQuality::PAPER_DEFAULT,
            &plan,
            &budgeted,
            SimTime::from_secs(1),
        );
        // Strand on shard 0 at 10 ms -> retry to shard 1 at 20 ms ->
        // strand again at 30 ms -> budget (1) exhausted -> drop.
        assert_eq!(d.retried, 1);
        assert_eq!(d.dropped.len(), 1);
        assert_eq!(d.redispatches.len(), 2);
        assert_eq!(d.shard_jobs.iter().map(JobSet::len).sum::<usize>(), 0);
        // The unbudgeted default keeps retrying instead (second retry
        // lands at 40 ms, after both crashes started, and both shards
        // are down -> still dropped, but after two routed retries).
        let d2 = dispatch_protected(
            &jobs,
            2,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &ExpQuality::PAPER_DEFAULT,
            &plan,
            &OverloadPolicy::default(),
            SimTime::from_secs(1),
        );
        assert!(d2.retried >= d.retried);
    }

    /// A crash window `[from_ms, to_ms)` on `shard` of `plan`.
    fn crash(plan: FaultPlan, shard: usize, from_ms: u64, to_ms: u64) -> FaultPlan {
        plan.with_window(
            shard,
            FaultWindow {
                start: SimTime::from_millis(from_ms),
                end: SimTime::from_millis(to_ms),
                kind: FaultKind::Crash,
            },
        )
    }

    #[test]
    fn stranded_hedge_twins_cancel_while_the_other_copy_lives() {
        // Three shards, one job due at 400 ms, hedged at 50 % slack.
        // The primary goes to shard 0 (round-robin) and the hedge copy
        // to shard 1 at 200 ms (both others empty: lowest index). Shard
        // 0 crashes at 250 ms: the primary strands while its twin
        // lives, so it is cancelled silently — no retry. Shard 1
        // crashes at 300 ms: the hedge copy strands with no live twin,
        // so the job retries exactly once, as attempt 1, onto shard 2.
        let jobs = JobSet::new(vec![Job::new(
            0,
            SimTime::ZERO,
            SimTime::from_millis(400),
            100.0,
        )
        .unwrap()])
        .unwrap();
        let plan = crash(crash(FaultPlan::none(3), 0, 250, 1000), 1, 300, 1000)
            .with_retry_delay(SimDuration::from_millis(10));
        let overload = OverloadPolicy {
            hedge: HedgePolicy::SlackFraction { fraction: 0.5 },
            ..OverloadPolicy::default()
        };
        let d = dispatch_protected(
            &jobs,
            3,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &ExpQuality::PAPER_DEFAULT,
            &plan,
            &overload,
            SimTime::from_secs(1),
        );
        assert_eq!(d.hedges.len(), 1);
        let h = d.hedges[0];
        assert_eq!((h.from, h.to, h.at), (0, 1, SimTime::from_millis(200)));
        assert!(!h.duel, "a stranded copy never duels");
        assert!(d.duel_copies.iter().all(Vec::is_empty));
        assert_eq!(
            d.redispatches,
            vec![
                (SimTime::from_millis(250), JobId(0), 0),
                (SimTime::from_millis(300), JobId(0), 1),
            ]
        );
        assert_eq!(d.retried, 1);
        assert!(d.dropped.is_empty());
        let retries: Vec<_> = d
            .events
            .iter()
            .filter(|(_, e)| matches!(e, Event::Retry { .. }))
            .collect();
        assert!(
            matches!(
                retries.as_slice(),
                [(at, Event::Retry { job: JobId(0), attempt: 1 })]
                    if *at == SimTime::from_millis(310)
            ),
            "{retries:?}"
        );
        let lens: Vec<usize> = d.shard_jobs.iter().map(JobSet::len).collect();
        assert_eq!(lens, vec![0, 0, 1]);
    }

    #[test]
    fn each_retry_carries_the_attempt_number_on() {
        // Three shards crash in turn at 10, 30 and 50 ms under a
        // 2-attempt budget. Round-robin moves the job 0 -> 1 -> 2: the
        // retries are attempts 1 and 2, and the third strand drops it.
        let jobs = JobSet::new(vec![Job::new(
            0,
            SimTime::ZERO,
            SimTime::from_millis(400),
            100.0,
        )
        .unwrap()])
        .unwrap();
        let plan = [(0, 10), (1, 30), (2, 50)]
            .into_iter()
            .fold(FaultPlan::none(3), |p, (shard, at)| {
                crash(p, shard, at, 390)
            })
            .with_retry_delay(SimDuration::from_millis(10));
        let overload = OverloadPolicy {
            retry: RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            ..OverloadPolicy::default()
        };
        let d = dispatch_protected(
            &jobs,
            3,
            &RoutingPolicy::RoundRobin,
            &PolynomialPower::PAPER_SIM,
            &ExpQuality::PAPER_DEFAULT,
            &plan,
            &overload,
            SimTime::from_secs(1),
        );
        let retries: Vec<(u64, u32)> = d
            .events
            .iter()
            .filter_map(|(at, e)| match e {
                Event::Retry { attempt, .. } => Some((at.as_micros() / 1000, *attempt)),
                _ => None,
            })
            .collect();
        assert_eq!(retries, vec![(20, 1), (40, 2)]);
        assert_eq!(d.retried, 2);
        assert_eq!(d.dropped.len(), 1);
        assert_eq!(d.dropped[0].0, SimTime::from_millis(50));
    }

    #[test]
    fn feedback_ties_empty_windows_to_the_lowest_index_however_they_emptied() {
        // Two shards. Shard `drained` loses its job to a crash drain
        // (the retry lands past the deadline and is dropped); the other
        // shard's job retires at its deadline. At 200 ms both windows
        // are empty, so a tying arrival goes to shard 0 and the next to
        // shard 1 — in both orientations. An empty window must score
        // `-0.0` whichever way it emptied: `total_cmp` orders `-0.0`
        // below `+0.0`.
        for drained in [0usize, 1] {
            let due = |shard: usize| if shard == drained { 150 } else { 100 };
            let job = |id: u32, at_ms: u64, due_ms: u64| {
                Job::new(
                    id,
                    SimTime::from_millis(at_ms),
                    SimTime::from_millis(due_ms),
                    100.0,
                )
                .unwrap()
            };
            let jobs = JobSet::new(vec![
                job(0, 0, due(0)),
                job(1, 0, due(1)),
                job(2, 200, 350),
                job(3, 200, 350),
            ])
            .unwrap();
            let plan = crash(FaultPlan::none(2), drained, 50, 60)
                .with_retry_delay(SimDuration::from_millis(200));
            let d = faulted(
                &jobs,
                2,
                &RoutingPolicy::Feedback,
                &plan,
                SimTime::from_secs(1),
            );
            assert_eq!(d.assignment, vec![0, 1, 0, 1], "drained shard {drained}");
            assert_eq!(d.dropped.len(), 1, "drained shard {drained}");
            assert_eq!(d.redispatches.len(), 1, "drained shard {drained}");
        }
    }

    #[test]
    fn empty_window_depth_is_negative_zero() {
        assert_eq!(
            pending_demand(&InFlight::new()).to_bits(),
            EMPTY_DEPTH.to_bits()
        );
        assert!(EMPTY_DEPTH.is_sign_negative());
        let sh = ShardState::new();
        assert_eq!(sh.depth().to_bits(), EMPTY_DEPTH.to_bits());
    }

    #[test]
    fn cached_depth_matches_a_fresh_fold_through_appends_inserts_and_retirement() {
        let job = |id: u32, due_us: u64, demand: f64| Job {
            id: JobId(id),
            release: SimTime::ZERO,
            deadline: SimTime::from_micros(due_us),
            demand,
            partial: true,
        };
        let mut sh = ShardState::new();
        let same = |sh: &ShardState| sh.depth().to_bits() == pending_demand(&sh.window).to_bits();
        for (i, (due, w)) in [(10, 0.1), (20, 0.2), (30, 1e16), (15, 0.3), (40, 0.7)]
            .into_iter()
            .enumerate()
        {
            sh.place(job(i as u32, due, w));
            assert!(same(&sh), "after placing job {i}");
        }
        sh.retire(15);
        assert_eq!(sh.window.len(), 3);
        assert!(same(&sh));
        sh.retire(100);
        assert_eq!(sh.depth().to_bits(), EMPTY_DEPTH.to_bits());
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn first_pass_slack_floor_matches_the_max_form(
            windows in proptest::collection::vec(
                proptest::collection::vec((0u64..205_000, 1.0f64..800.0), 0..24),
                1..5,
            ),
            fracs in proptest::collection::vec(0.0f64..1.0, 4..5),
            cand in (0u64..205_000, 1.0f64..800.0),
            capacity_ghz in 0.5f64..32.0,
            floor_pick in 0usize..8,
            floor_draw in -0.5f64..1.5,
        ) {
            // Releases at 5 ms; deadlines drawn from [0, 205 ms) put
            // some window entries and candidates at zero slack.
            let now_us = 5_000;
            let job = Job {
                id: JobId(0),
                release: SimTime::from_micros(now_us),
                deadline: SimTime::from_micros(cand.0),
                demand: cand.1,
                partial: true,
            };
            let quality = &ExpQuality::PAPER_DEFAULT;
            let q_max = quality.max_job_quality(&job);
            let floor = [-0.5, -0.0, 0.0, 0.05, 0.5, 1.0, 1.0 + f64::EPSILON, floor_draw][floor_pick];
            let windows: Vec<InFlight> = windows
                .into_iter()
                .map(|mut w| {
                    w.sort_by_key(|&(d, _)| d);
                    w.into_iter().zip(0..).map(|((d, w), slot)| (d, w, slot)).collect()
                })
                .collect();
            let ratios = || {
                windows.iter().zip(&fracs).map(|(w, frac)| {
                    slack_ratio(quality, &job, w, capacity_ghz * frac, q_max)
                })
            };
            let max_form = ratios().fold(0.0, f64::max) >= floor;
            prop_assert_eq!(clears_floor(ratios(), floor), max_form);
        }

        #[test]
        fn first_pass_verdict_matches_the_max_form_on_raw_ratios(
            picks in proptest::collection::vec((0usize..7, 0.0f64..2.0), 0..6),
            floor_pick in 0usize..7,
            floor_draw in -1.0f64..2.0,
        ) {
            // NaN, signed zeros and exact 1.0 ratios included: a NaN
            // ratio never passes, and `0 >= floor` admits on its own.
            let ratio = |(kind, x): (usize, f64)| {
                [f64::NAN, -0.0, 0.0, 1.0, x, -x, f64::INFINITY][kind]
            };
            let floor = [-0.0, 0.0, 1.0, 0.05, -1.0, f64::INFINITY, floor_draw][floor_pick];
            let max_form = picks.iter().copied().map(ratio).fold(0.0, f64::max) >= floor;
            prop_assert_eq!(clears_floor(picks.iter().copied().map(ratio), floor), max_form);
        }
    }

    /// The panic message [`dispatch_protected`] raises on entry for
    /// `overload` over a small two-shard stream, or `None` if it runs.
    fn rejection(overload: OverloadPolicy) -> Option<String> {
        let run = || {
            dispatch_protected(
                &stream(4, 10, 100.0),
                2,
                &RoutingPolicy::Feedback,
                &PolynomialPower::PAPER_SIM,
                &ExpQuality::PAPER_DEFAULT,
                &FaultPlan::none(2),
                &overload,
                SimTime::from_secs(1),
            )
        };
        std::panic::catch_unwind(run).err().map(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        })
    }

    fn slack_floor(floor: f64, capacity_ghz: f64) -> OverloadPolicy {
        OverloadPolicy {
            admission: AdmissionPolicy::SlackFloor {
                floor,
                capacity_ghz,
            },
            ..OverloadPolicy::default()
        }
    }

    #[test]
    fn nan_slack_floor_is_rejected() {
        // `best >= NaN` is false: a NaN floor would reject every arrival.
        let msg = rejection(slack_floor(f64::NAN, 8.0)).expect("NaN floor accepted");
        assert!(msg.contains("slack floor must not be NaN"), "{msg}");
        assert_eq!(rejection(slack_floor(0.0, 8.0)), None);
        assert_eq!(rejection(slack_floor(1.0, 8.0)), None);
    }

    #[test]
    fn non_positive_or_non_finite_capacity_is_rejected() {
        for capacity in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            let msg = rejection(slack_floor(0.5, capacity))
                .unwrap_or_else(|| panic!("capacity {capacity} accepted"));
            assert!(msg.contains("capacity_ghz must be positive"), "{msg}");
        }
        assert_eq!(rejection(slack_floor(0.5, 1e-3)), None);
    }

    #[test]
    fn hedge_fraction_outside_the_open_unit_interval_is_rejected() {
        let hedged = |fraction: f64| OverloadPolicy {
            hedge: HedgePolicy::SlackFraction { fraction },
            ..OverloadPolicy::default()
        };
        for fraction in [0.0, 1.0, -0.5, 1.5, f64::NAN] {
            let msg = rejection(hedged(fraction))
                .unwrap_or_else(|| panic!("fraction {fraction} accepted"));
            assert!(msg.contains("hedge fraction must be in (0, 1)"), "{msg}");
        }
        assert_eq!(rejection(hedged(0.5)), None);
    }

    #[test]
    fn inverted_backpressure_band_is_rejected() {
        let band = |cap: f64, resume: f64| OverloadPolicy {
            admission: AdmissionPolicy::Backpressure { cap, resume },
            ..OverloadPolicy::default()
        };
        let msg = rejection(band(100.0, 200.0)).expect("inverted band accepted");
        assert!(msg.contains("must not exceed cap"), "{msg}");
        // An empty band (resume == cap) is a valid, hysteresis-free valve.
        assert_eq!(rejection(band(100.0, 100.0)), None);
    }

    #[test]
    fn out_of_range_public_retry_fields_are_rejected() {
        // The public fields bypass `RetryPolicy::with_jitter`'s check.
        let retry = |jitter: f64, backoff: f64| OverloadPolicy {
            retry: RetryPolicy {
                jitter,
                backoff,
                ..RetryPolicy::default()
            },
            ..OverloadPolicy::default()
        };
        for jitter in [1.0, -0.1, f64::NAN] {
            let msg =
                rejection(retry(jitter, 1.0)).unwrap_or_else(|| panic!("jitter {jitter} accepted"));
            assert!(msg.contains("jitter must be in [0, 1)"), "{msg}");
        }
        for backoff in [f64::INFINITY, f64::NAN] {
            let msg = rejection(retry(0.0, backoff))
                .unwrap_or_else(|| panic!("backoff {backoff} accepted"));
            assert!(msg.contains("retry backoff must be finite"), "{msg}");
        }
        assert_eq!(rejection(retry(0.5, 2.0)), None);
    }
}
