//! Host-clock probes the traced run puts around the program's public
//! entry points. They only read clocks and counters, so a traced
//! replay must stay bitwise identical to an untraced one.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use qes_core::MetricsRegistry;
use qes_multicore::{PolicyDecision, SchedulingPolicy, SystemView, TriggerRequest};

/// What the probes saw on one machine (one shard of a cluster).
#[derive(Debug, Default)]
pub struct ShardProbe {
    /// When the machine's simulation started.
    pub start: Option<Instant>,
    /// When its last policy instance was dropped: the end of its last
    /// simulated epoch.
    pub end: Option<Instant>,
    /// Host time inside `SchedulingPolicy::on_trigger`.
    pub policy_busy: Duration,
    /// Host nanoseconds of each `on_trigger` call.
    pub call_ns: Vec<u64>,
    /// The policy's own counters, summed over its instances (one per
    /// fault epoch).
    pub policy_counters: MetricsRegistry,
}

impl ShardProbe {
    /// Host time from the machine's start to its end.
    pub fn busy(&self) -> Duration {
        match (self.start, self.end) {
            (Some(s), Some(e)) => e.saturating_duration_since(s),
            _ => Duration::ZERO,
        }
    }
}

/// Probes for every machine of one replay, shared with the policy
/// wrappers running on the thread pool.
#[derive(Debug)]
pub struct Probes {
    shards: Vec<Mutex<ShardProbe>>,
}

impl Probes {
    /// Fresh probes for `machines` machines.
    pub fn new(machines: usize) -> Arc<Probes> {
        Arc::new(Probes {
            shards: (0..machines).map(|_| Mutex::default()).collect(),
        })
    }

    /// One machine's probe.
    pub fn shard(&self, i: usize) -> MutexGuard<'_, ShardProbe> {
        self.shards[i].lock().expect("a probe holder panicked")
    }

    /// Mark machine `i` as started now.
    pub fn start(&self, i: usize) {
        self.shard(i).start = Some(Instant::now());
    }

    /// Take every machine's probe, in machine order.
    pub fn take(&self) -> Vec<ShardProbe> {
        (0..self.shards.len())
            .map(|i| std::mem::take(&mut *self.shard(i)))
            .collect()
    }
}

/// A delegating policy that times every `on_trigger` call of the
/// policy it wraps. On drop it hands its timings and the wrapped
/// policy's counters (`SchedulingPolicy::metrics`) to its machine's
/// probe and stamps the machine's end time.
pub struct TimedPolicy {
    inner: Box<dyn SchedulingPolicy>,
    probes: Arc<Probes>,
    shard: usize,
    busy: Duration,
    call_ns: Vec<u64>,
}

impl TimedPolicy {
    /// Wrap `inner`, reporting to machine `shard` of `probes`.
    pub fn new(inner: Box<dyn SchedulingPolicy>, probes: Arc<Probes>, shard: usize) -> Self {
        TimedPolicy {
            inner,
            probes,
            shard,
            busy: Duration::ZERO,
            call_ns: Vec::new(),
        }
    }
}

impl SchedulingPolicy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn triggers(&self) -> TriggerRequest {
        self.inner.triggers()
    }

    fn on_trigger(&mut self, view: &SystemView<'_>) -> PolicyDecision {
        let t = Instant::now();
        let decision = self.inner.on_trigger(view);
        let took = t.elapsed();
        self.busy += took;
        self.call_ns.push(took.as_nanos() as u64);
        decision
    }

    fn metrics(&self, sink: &mut dyn FnMut(&'static str, u64)) {
        self.inner.metrics(sink);
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        let end = Instant::now();
        // Poisoning means another probe holder panicked; the run is
        // already failing, and a panic in drop would abort it.
        let Ok(mut p) = self.probes.shards[self.shard].lock() else {
            return;
        };
        p.end = Some(p.end.map_or(end, |e| e.max(end)));
        p.policy_busy += self.busy;
        p.call_ns.append(&mut self.call_ns);
        let counters = &mut p.policy_counters;
        self.inner
            .metrics(&mut |name, value| counters.inc(name, value));
    }
}
