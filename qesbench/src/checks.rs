//! What one replay delivered, and the checks every replay must pass.
//!
//! A replay that fails any check counts as a failed operation; the
//! benchmark never skips it.

use qes_cluster::ClusterReport;
use qes_sim::report::{SimCounters, SimReport};

/// The simulated outcome of one replay: everything the end-to-end
/// simulated metrics and the output checks read.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Jobs in the offered trace.
    pub offered: u64,
    /// The machine's report; for a cluster, the merged report after
    /// hedge duels are settled.
    pub report: SimReport,
    /// Jobs the cluster dispatcher dropped.
    pub dropped: u64,
    /// Jobs the cluster admission policy rejected.
    pub rejected: u64,
    /// Retry re-releases routed to a surviving shard.
    pub retried: u64,
    /// Hedge copies dispatched.
    pub hedged: u64,
    /// Duels the hedge copy won.
    pub hedges_won: u64,
    /// Delivered quality over the maximum achievable on every offered
    /// job, dropped and rejected ones included.
    pub quality_norm: f64,
    /// Per-shard reports (empty for a single machine).
    pub shards: Vec<SimReport>,
}

impl Outcome {
    /// A single machine's replay of `offered` jobs.
    pub fn single(offered: usize, report: SimReport) -> Outcome {
        Outcome {
            offered: offered as u64,
            quality_norm: report.normalized_quality(),
            report,
            dropped: 0,
            rejected: 0,
            retried: 0,
            hedged: 0,
            hedges_won: 0,
            shards: Vec::new(),
        }
    }

    /// A cluster's replay of `offered` jobs.
    pub fn cluster(offered: usize, rep: ClusterReport) -> Outcome {
        Outcome {
            offered: offered as u64,
            quality_norm: rep.degraded_quality(),
            dropped: rep.jobs_dropped,
            rejected: rep.jobs_rejected,
            retried: rep.jobs_retried,
            hedged: rep.jobs_hedged,
            hedges_won: rep.hedges_won,
            shards: rep.shards.into_iter().map(|s| s.report).collect(),
            report: rep.merged,
        }
    }

    /// Joules per offered job.
    pub fn energy_j_per_job(&self) -> f64 {
        self.report.energy_joules / self.offered as f64
    }

    /// Share of offered jobs not served in full: partly served, never
    /// run, dropped or rejected.
    pub fn unsatisfied_frac(&self) -> f64 {
        let satisfied = self.report.counters.jobs_satisfied as u64;
        (self.offered - satisfied.min(self.offered)) as f64 / self.offered as f64
    }

    /// Every simulated number of the replay as raw bits: two replays
    /// agree bitwise exactly when their fingerprints are equal.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut bits = vec![
            self.offered,
            self.dropped,
            self.rejected,
            self.retried,
            self.hedged,
            self.hedges_won,
            self.quality_norm.to_bits(),
        ];
        for r in std::iter::once(&self.report).chain(&self.shards) {
            bits.extend([
                r.total_quality.to_bits(),
                r.max_quality.to_bits(),
                r.energy_joules.to_bits(),
            ]);
            bits.extend(counter_values(&r.counters));
        }
        bits
    }
}

/// Every [`SimCounters`] field, destructured so a new field cannot be
/// left out of the fingerprint unnoticed.
fn counter_values(c: &SimCounters) -> [u64; 9] {
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
    } = *c;
    [
        jobs_total as u64,
        jobs_satisfied as u64,
        jobs_partial as u64,
        jobs_zero as u64,
        jobs_discarded as u64,
        invocations,
        invocations_kept,
        plans_installed,
        plans_kept,
    ]
}

/// Check one replay on its own: conservation, job classes, and the
/// ranges of quality and energy. Returns every violation found.
pub fn check(o: &Outcome) -> Result<(), String> {
    let mut errs = Vec::new();
    let c = &o.report.counters;
    let simulated = c.jobs_total as u64;
    if simulated + o.dropped + o.rejected != o.offered {
        errs.push(format!(
            "conservation: simulated {simulated} + dropped {} + rejected {} != offered {}",
            o.dropped, o.rejected, o.offered
        ));
    }
    if c.jobs_satisfied + c.jobs_partial + c.jobs_zero != c.jobs_total {
        errs.push(format!(
            "job classes: satisfied {} + partial {} + zero {} != simulated {}",
            c.jobs_satisfied, c.jobs_partial, c.jobs_zero, c.jobs_total
        ));
    }
    if !(0.0..=1.0).contains(&o.quality_norm) {
        errs.push(format!("quality_norm {} outside [0, 1]", o.quality_norm));
    }
    let energy = o.report.energy_joules;
    if !(energy.is_finite() && energy > 0.0) {
        errs.push(format!("energy {energy} J is not finite and positive"));
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs.join("; "))
    }
}

/// Check that `other` reproduces `reference` bitwise.
pub fn check_same(reference: &Outcome, other: &Outcome, what: &str) -> Result<(), String> {
    if reference.fingerprint() == other.fingerprint() {
        Ok(())
    } else {
        Err(format!(
            "{what}: replay differs bitwise from the reference replay"
        ))
    }
}
