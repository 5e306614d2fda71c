//! Each workload, run twice with one seed in separate processes, must
//! reproduce every virtual-time metric and every count exactly; a
//! second seed must change `dispatch`'s program mix.

use std::process::Command;

/// Per-layer metrics measured in host time, which legitimately differ
/// between runs. Everything else the traced binary reports is a count
/// or a virtual time.
const HOST_TIMED: [&str; 5] = [
    "client.lower_us_per_program",
    "client.host_share",
    "resource.slice_alloc_us",
    "sim.run_us_per_kernel",
    "trace.host_kernels_per_s",
];

/// End-to-end metrics that must repeat exactly for a seed.
const REPEATABLE: [&str; 5] = [
    "sim_programs_per_s",
    "sim_util",
    "sim_latency_p50_us",
    "sim_latency_tail_us",
    "failed_frac",
];

/// Runs one binary briefly and returns its report line.
fn run(bin: &str, workload: &str, seed: u64) -> String {
    let out = Command::new(bin)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{bin} {workload} failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let line = stdout.lines().last().expect("a report line").to_string();
    assert!(line.contains(r#""correct":true"#), "{workload}: {line}");
    assert!(line.contains(r#""failed":0,"#), "{workload}: {line}");
    line
}

/// `(name, value as printed)` of every metric in a report line.
fn metrics(line: &str) -> Vec<(String, String)> {
    let body = &line[line.find(r#""metrics":{"#).expect("metrics object") + 11..];
    let body = &body[..body.find(r#"},"notes""#).expect("notes follow metrics")];
    body.split(r#"},""#)
        .map(|m| {
            let m = m.trim_start_matches('"');
            let name = &m[..m.find('"').expect("quoted name")];
            let value = &m[m.find(r#""value":"#).expect("a value") + 8..];
            let value = &value[..value.find(',').expect("unit follows value")];
            (name.to_string(), value.to_string())
        })
        .collect()
}

fn value<'a>(all: &'a [(String, String)], name: &str) -> &'a str {
    &all.iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .1
}

fn check_workload(workload: &str) {
    let plain = env!("CARGO_BIN_EXE_perfbench");
    let (a, b) = (
        metrics(&run(plain, workload, 1)),
        metrics(&run(plain, workload, 1)),
    );
    for name in REPEATABLE {
        assert_eq!(value(&a, name), value(&b, name), "{workload}: {name}");
    }
    assert_eq!(value(&a, "failed_frac"), "0.0", "{workload}");

    let traced = env!("CARGO_BIN_EXE_perfbench-traced");
    let (a, b) = (
        metrics(&run(traced, workload, 1)),
        metrics(&run(traced, workload, 1)),
    );
    assert_eq!(a.len(), b.len());
    let mut compared = 0;
    for ((name, x), (name_b, y)) in a.iter().zip(&b) {
        assert_eq!(name, name_b);
        if HOST_TIMED.iter().any(|h| name.starts_with(h)) {
            continue;
        }
        assert_eq!(x, y, "{workload}: {name} is a count and must repeat");
        compared += 1;
    }
    assert!(
        compared >= 25,
        "{workload}: only {compared} counts compared"
    );
    assert_eq!(value(&a, "plaque.live_runs_end"), "0.0", "{workload}");
    assert_eq!(value(&a, "storage.objects_end"), "0.0", "{workload}");
}

#[test]
fn dispatch_repeats_for_a_seed() {
    check_workload("dispatch");
}

#[test]
fn spmd_repeats_for_a_seed() {
    check_workload("spmd");
}

#[test]
fn chain_repeats_for_a_seed() {
    check_workload("chain");
}

#[test]
fn a_second_seed_changes_the_dispatch_mix() {
    let plain = env!("CARGO_BIN_EXE_perfbench");
    let a = metrics(&run(plain, "dispatch", 1));
    let b = metrics(&run(plain, "dispatch", 2));
    assert_ne!(
        value(&a, "sim_latency_p50_us"),
        value(&b, "sim_latency_p50_us"),
        "seed 2 must run a different program mix"
    );
}
