//! The benchmark's three workloads: how each generates its arrival
//! trace from the seed and which simulated machine replays it.
//!
//! Every workload is an open-loop arrival trace generated up front and
//! replayed in simulated time. No host-side generator runs during the
//! timed section, so nothing can fall behind the schedule: host speed
//! changes how long a replay takes, never what the replay offers.

use std::time::Instant;

use qes_cluster::{
    AdmissionPolicy, ClusterEngine, FaultPlan, HedgePolicy, OverloadPolicy, RetryPolicy,
    RoutingPolicy,
};
use qes_core::job::JobSet;
use qes_core::power::PolynomialPower;
use qes_core::quality::ExpQuality;
use qes_core::time::{SimDuration, SimTime};
use qes_core::UNITS_PER_GHZ_SECOND;
use qes_sim::engine::SimConfig;
use qes_workload::{BoundedPareto, DiurnalWorkload, WebSearchWorkload};

/// §V-B power model, `P = 5·s²`.
pub const MODEL: PolynomialPower = PolynomialPower::PAPER_SIM;
/// §V-B quality function, `c = 0.003`.
pub const QUALITY: ExpQuality = ExpQuality::PAPER_DEFAULT;
/// Per-core speed the offered-utilisation figures are quoted against
/// (20 W per core under `P = 5·s²`, the paper machine's budget share).
pub const NOMINAL_GHZ: f64 = 2.0;
/// Shards and per-shard machine of both cluster workloads.
const SHARDS: usize = 4;
const SHARD_CORES: usize = 8;
const SHARD_BUDGET_W: f64 = 320.0;

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One paper machine (16 cores, 320 W) running DES over a Poisson
    /// web-search stream at 200 req/s, half the jobs partial.
    SinglePaper,
    /// Four 8-core shards behind feedback routing, a diurnal stream at
    /// ~0.9 utilisation, no faults, default overload policy.
    ClusterDiurnal,
    /// The same cluster at ~2x the load, with seeded crashes and
    /// brownouts, slack-floor admission, retry budgets and hedging.
    ClusterStressed,
}

impl Workload {
    /// Every workload, in the order the `all` run reports them.
    pub const ALL: [Workload; 3] = [
        Workload::SinglePaper,
        Workload::ClusterDiurnal,
        Workload::ClusterStressed,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SinglePaper => "single_paper",
            Workload::ClusterDiurnal => "cluster_diurnal",
            Workload::ClusterStressed => "cluster_stressed",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Offered jobs per replay at benchmark scale.
    pub fn jobs(self) -> usize {
        match self {
            Workload::SinglePaper => 100_000,
            Workload::ClusterDiurnal => 400_000,
            Workload::ClusterStressed => 250_000,
        }
    }

    /// Whether the workload runs behind the cluster front end.
    pub fn is_cluster(self) -> bool {
        self != Workload::SinglePaper
    }

    /// Cores and power budget of one simulated machine.
    fn machine(self) -> (usize, f64) {
        match self {
            Workload::SinglePaper => (16, 320.0),
            _ => (SHARD_CORES, SHARD_BUDGET_W),
        }
    }

    /// Total cores across the workload's machines.
    pub fn total_cores(self) -> usize {
        let (cores, _) = self.machine();
        if self.is_cluster() {
            cores * SHARDS
        } else {
            cores
        }
    }
}

/// Mean arrival rate that offers `util` of `cores` cores at
/// [`NOMINAL_GHZ`], under the paper's demand distribution.
fn rate_for(util: f64, cores: usize) -> f64 {
    let mean_demand = BoundedPareto::paper_default().mean();
    util * cores as f64 * NOMINAL_GHZ * UNITS_PER_GHZ_SECOND / mean_demand
}

/// Which simulated system replays the trace.
pub enum System {
    /// The plain single-machine engine.
    Single,
    /// A configured cluster front end, with a copy of the overload
    /// policy it was built with (the engine does not expose it, and the
    /// traced run calls the dispatch pre-pass with the same arguments).
    Cluster {
        /// The cluster engine.
        engine: Box<ClusterEngine>,
        /// The overload policy inside `engine`.
        overload: OverloadPolicy,
    },
}

/// A workload ready to replay: its trace and the system that runs it.
pub struct Prepared {
    /// The workload this was built from.
    pub workload: Workload,
    /// The generated arrival trace.
    pub jobs: JobSet,
    /// The system replaying it.
    pub system: System,
    /// Simulated horizon: the trace's last deadline.
    pub end: SimTime,
    /// Host seconds spent in trace generation alone.
    pub gen_s: f64,
}

impl Prepared {
    /// One machine's simulation configuration (a shard's, for a cluster).
    pub fn config(&self) -> SimConfig<'static> {
        let (num_cores, budget) = self.workload.machine();
        SimConfig {
            num_cores,
            budget,
            model: &MODEL,
            quality: &QUALITY,
            end: self.end,
            record_trace: false,
            overhead: SimDuration::ZERO,
        }
    }

    /// Offered demand over the trace's release span, as a fraction of
    /// every core running at [`NOMINAL_GHZ`].
    pub fn offered_util(&self) -> f64 {
        let jobs = self.jobs.jobs();
        let (Some(first), Some(last)) = (jobs.first(), jobs.last()) else {
            return 0.0;
        };
        let span = last.release.as_secs_f64() - first.release.as_secs_f64();
        let capacity = self.workload.total_cores() as f64 * NOMINAL_GHZ * UNITS_PER_GHZ_SECOND;
        if span > 0.0 {
            self.jobs.total_demand() / (capacity * span)
        } else {
            0.0
        }
    }
}

/// Generate `n` jobs of `workload` from `seed` and build its system:
/// everything the benchmark's set-up time covers.
pub fn prepare(workload: Workload, n: usize, seed: u64) -> Result<Prepared, String> {
    let t = Instant::now();
    let generated = match workload {
        Workload::SinglePaper => WebSearchWorkload::new(200.0)
            .with_partial_fraction(0.5)
            .generate_exact(n, seed),
        Workload::ClusterDiurnal => {
            DiurnalWorkload::millions_of_users(rate_for(0.9, SHARDS * SHARD_CORES))
                .generate_exact(n, seed)
        }
        Workload::ClusterStressed => {
            DiurnalWorkload::millions_of_users(rate_for(1.8, SHARDS * SHARD_CORES))
                .generate_exact(n, seed)
        }
    };
    let jobs =
        generated.map_err(|e| format!("{}: workload generation failed: {e}", workload.name()))?;
    let gen_s = t.elapsed().as_secs_f64();
    let end = jobs
        .last_deadline()
        .ok_or_else(|| format!("{}: empty trace", workload.name()))?;
    let system = match workload {
        Workload::SinglePaper => System::Single,
        Workload::ClusterDiurnal => System::Cluster {
            engine: Box::new(ClusterEngine::new(SHARDS).with_routing(RoutingPolicy::Feedback)),
            overload: OverloadPolicy::default(),
        },
        Workload::ClusterStressed => {
            let overload = OverloadPolicy {
                // Capacity a shard sustains: 8 cores at the nominal 2 GHz.
                admission: AdmissionPolicy::SlackFloor {
                    floor: 0.05,
                    capacity_ghz: SHARD_CORES as f64 * NOMINAL_GHZ,
                },
                retry: RetryPolicy::exponential(3, SimDuration::from_millis(5)),
                hedge: HedgePolicy::SlackFraction { fraction: 0.5 },
            };
            System::Cluster {
                engine: Box::new(
                    ClusterEngine::new(SHARDS)
                        .with_routing(RoutingPolicy::Feedback)
                        // About one outage per shard per 100 s of simulated
                        // time, half crashes, half brownouts.
                        .with_fault_plan(FaultPlan::try_seeded(SHARDS, end, seed, 97.0, 3.0, 0.5)?)
                        .with_overload(overload.clone()),
                ),
                overload,
            }
        }
    };
    Ok(Prepared {
        workload,
        jobs,
        system,
        end,
        gen_s,
    })
}
