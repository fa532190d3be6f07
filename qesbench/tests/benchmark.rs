//! The benchmark's own tests: tiny runs of every workload emit exactly
//! the metrics `BENCHMARK.json` names, and the output checks fire on
//! corrupted replays.

use std::process::Command;

use qesbench::bench::{end_to_end, per_layer, replay, RunResult};
use qesbench::checks::{check, check_same, Outcome};
use qesbench::host;
use qesbench::workloads::{prepare, Workload};

/// Jobs per tiny replay.
const TINY: usize = 1_500;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits next to the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body[1..].find("\n  \"").map_or(body.len(), |i| i + 1);
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body[..end]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn emitted(r: &RunResult) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn tiny_untraced_runs_emit_every_end_to_end_metric() {
    let want = listed("end_to_end");
    assert!(want.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in Workload::ALL {
        let r = end_to_end(w, TINY, 7, 0.0);
        assert!(r.correct(), "{}: {:?}", w.name(), r.errors);
        assert_eq!(emitted(&r), want, "{}", w.name());
        assert!(
            r.metrics.iter().all(|m| m.value > 0.0),
            "{}: {:?}",
            w.name(),
            r.metrics
        );
    }
}

#[test]
fn tiny_traced_runs_emit_every_per_layer_metric() {
    let want = listed("per_layer");
    for w in Workload::ALL {
        let r = per_layer(w, TINY, 7, 0.0);
        assert!(r.correct(), "{}: {:?}", w.name(), r.errors);
        assert_eq!(emitted(&r), want, "{}", w.name());
        let get = |name| r.get(name).expect("metric emitted");
        // The probes' time accounting closes by construction...
        let shard_busy = get("cluster.shard_busy_sum_s");
        let split = get("policy.busy_s") + get("engine.self_s");
        assert!((split - shard_busy).abs() <= 1e-9 * shard_busy.max(1.0));
        // ...and the layers cover the whole replay.
        assert!(get("cluster.shard_phase_s") > 0.0 && get("engine.events") > 0.0);
        let wall = get("cluster.wall_s");
        let parts =
            get("dispatch.share") * wall + get("cluster.shard_phase_s") + get("cluster.merge_s");
        let pre_shard = if w.is_cluster() { 0.0 } else { 1e-2 * wall };
        assert!(
            (parts - wall).abs() <= 1e-9 * wall + pre_shard,
            "{}: {parts} vs {wall}",
            w.name()
        );
        assert_eq!(get("workload.jobs"), TINY as f64);
        assert_eq!(get("host.lanes"), host::lanes() as f64);
        let on_path = if w.is_cluster() { 1.0 } else { 0.0 };
        assert_eq!(get("dispatch.share") > 0.0, on_path > 0.0, "{}", w.name());
    }
}

#[test]
fn result_line_is_one_json_object() {
    let r = end_to_end(Workload::SinglePaper, TINY, 7, 0.0);
    let line = r.to_json();
    assert!(!line.contains('\n'));
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(line.contains("\"setup_s\": {\"value\": "));
    assert!(line.ends_with("}}}"));
}

fn tiny_outcome(w: Workload, seed: u64) -> Outcome {
    let p = prepare(w, TINY, seed).expect("tiny workload prepares");
    replay(&p, 1)
}

#[test]
fn checks_pass_on_real_replays_and_fire_on_corrupted_ones() {
    for w in Workload::ALL {
        let good = tiny_outcome(w, 3);
        check(&good).expect("a real replay passes");

        // A job goes missing.
        let mut lost = good.clone();
        lost.report.counters.jobs_total -= 1;
        lost.report.counters.jobs_partial = lost.report.counters.jobs_partial.saturating_sub(1);
        let err = check(&lost).expect_err("a lost job is caught");
        assert!(err.contains("conservation"), "{err}");

        // Job classes no longer add up.
        let mut classes = good.clone();
        classes.report.counters.jobs_zero += 1;
        assert!(check(&classes).expect_err("caught").contains("job classes"));

        // Quality out of range, energy not positive or not finite.
        let mut q = good.clone();
        q.quality_norm = 1.25;
        assert!(check(&q).expect_err("caught").contains("quality_norm"));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut e = good.clone();
            e.report.energy_joules = bad;
            assert!(check(&e).expect_err("caught").contains("energy"));
        }

        // Any simulated bit that moves breaks the bitwise comparison.
        check_same(&good, &good.clone(), "copy").expect("a copy is identical");
        let mut drift = good.clone();
        drift.report.total_quality = f64::from_bits(drift.report.total_quality.to_bits() ^ 1);
        assert!(check_same(&good, &drift, "drift").is_err());
        let mut counter = good.clone();
        counter.report.counters.plans_kept += 1;
        assert!(check_same(&good, &counter, "counter").is_err());
    }
}

#[test]
fn inputs_come_from_the_seed() {
    for w in Workload::ALL {
        let a = tiny_outcome(w, 5).fingerprint();
        assert_eq!(a, tiny_outcome(w, 5).fingerprint(), "{}", w.name());
        assert_ne!(a, tiny_outcome(w, 6).fingerprint(), "{}", w.name());
    }
}

#[test]
fn lane_count_does_not_change_the_outcome() {
    let p = prepare(Workload::ClusterStressed, TINY, 9).expect("prepares");
    assert_eq!(replay(&p, 1).fingerprint(), replay(&p, 2).fingerprint());
}

#[test]
fn bad_command_lines_fail_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_qesbench");
    for args in [
        vec!["--workload", "nope"],
        vec!["--seed", "1"],
        vec!["--workload", "single_paper", "--trace", "2"],
        vec!["--workload", "single_paper", "--seed"],
    ] {
        let out = Command::new(bin).args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
