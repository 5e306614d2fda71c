//! Fixture suite: one known-bad snippet per rule asserting the rule
//! fires, and suppressed/clean variants asserting it does not.
//!
//! Fixtures live in `tests/fixtures/` and are analyzed — never
//! compiled — so they can contain deliberately-bad code. Each is
//! linted under a synthetic [`FileCtx`] placing it in a sim-visible
//! crate's `src/`, the strictest scope.

use pathways_lint::rules::{
    LOCK_ACROSS_AWAIT, NONDET_CONTAINER, PANIC_PATH, RAW_THREAD, WALL_CLOCK,
};
use pathways_lint::{lint_source, Allowlist, FileCtx, FileKind, Status, Violation};

/// Lints a fixture as if it were `crates/core/src/<name>` (sim-visible
/// runtime code).
fn lint_fixture(name: &str, allowlist: &Allowlist) -> Vec<Violation> {
    let path = format!("{}/tests/fixtures/{}", env!("CARGO_MANIFEST_DIR"), name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let rel = format!("crates/core/src/{name}");
    let ctx = FileCtx {
        rel_path: &rel,
        crate_name: "core",
        kind: FileKind::Src,
    };
    lint_source(&ctx, &src, allowlist).violations
}

fn errors<'a>(vs: &'a [Violation], rule: &str) -> Vec<&'a Violation> {
    vs.iter()
        .filter(|v| v.rule == rule && v.status == Status::Error)
        .collect()
}

// ------------------------------------------------------ nondet-container

#[test]
fn nondet_container_fires_on_every_shape() {
    let vs = lint_fixture("nondet_container_bad.rs", &Allowlist::default());
    let hits = errors(&vs, NONDET_CONTAINER);
    // use-path, use-group, qualified return type, qualified call.
    assert_eq!(hits.len(), 4, "{hits:#?}");
    assert!(hits.iter().any(|v| v.message.contains("FxHashSet")));
    assert!(hits.iter().any(|v| v.message.contains("FxHashMap")));
}

#[test]
fn nondet_container_spares_deterministic_hashers_and_strings() {
    let vs = lint_fixture("nondet_container_ok.rs", &Allowlist::default());
    assert!(errors(&vs, NONDET_CONTAINER).is_empty(), "{vs:#?}");
}

#[test]
fn nondet_container_suppressions_silence() {
    let vs = lint_fixture("nondet_container_suppressed.rs", &Allowlist::default());
    assert!(errors(&vs, NONDET_CONTAINER).is_empty(), "{vs:#?}");
    // The violations are still visible, just downgraded.
    assert_eq!(
        vs.iter()
            .filter(|v| v.rule == NONDET_CONTAINER && v.status == Status::Suppressed)
            .count(),
        2,
        "{vs:#?}"
    );
}

#[test]
fn nondet_container_only_applies_to_sim_visible_crates() {
    let src = "use std::collections::HashMap;";
    let ctx = FileCtx {
        rel_path: "crates/lint/src/x.rs",
        crate_name: "lint",
        kind: FileKind::Src,
    };
    let vs = lint_source(&ctx, src, &Allowlist::default()).violations;
    assert!(vs.is_empty(), "{vs:#?}");
}

// ------------------------------------------------------------ wall-clock

#[test]
fn wall_clock_fires_on_every_shape() {
    let vs = lint_fixture("wall_clock_bad.rs", &Allowlist::default());
    let hits = errors(&vs, WALL_CLOCK);
    // use Instant, use-group SystemTime, qualified Instant::now,
    // std::thread::sleep, SystemTime::now's import already counted —
    // plus thread::sleep and thread_rng.
    assert_eq!(hits.len(), 6, "{hits:#?}");
    assert!(hits.iter().any(|v| v.message.contains("thread_rng")));
    assert!(hits.iter().any(|v| v.message.contains("thread::sleep")));
}

#[test]
fn wall_clock_suppression_and_duration_are_clean() {
    let vs = lint_fixture("wall_clock_suppressed.rs", &Allowlist::default());
    assert!(errors(&vs, WALL_CLOCK).is_empty(), "{vs:#?}");
}

#[test]
fn wall_clock_exempts_the_bench_wall_time_module() {
    let src = "use std::time::Instant;\nfn m() { let t = Instant::now(); }";
    let ctx = FileCtx {
        rel_path: "crates/bench/src/scale.rs",
        crate_name: "bench",
        kind: FileKind::Src,
    };
    let vs = lint_source(&ctx, src, &Allowlist::default()).violations;
    assert!(vs.is_empty(), "{vs:#?}");
}

// ----------------------------------------------------- lock-across-await

#[test]
fn lock_across_await_fires_on_held_guards() {
    let vs = lint_fixture("lock_across_await_bad.rs", &Allowlist::default());
    let hits = errors(&vs, LOCK_ACROSS_AWAIT);
    // named guard, rwlock write guard, temporary in same statement.
    assert_eq!(hits.len(), 3, "{hits:#?}");
    assert!(hits.iter().any(|v| v.message.contains("`guard`")));
    assert!(hits.iter().any(|v| v.message.contains("same statement")));
}

#[test]
fn lock_across_await_spares_released_guards() {
    let vs = lint_fixture("lock_across_await_ok.rs", &Allowlist::default());
    assert!(errors(&vs, LOCK_ACROSS_AWAIT).is_empty(), "{vs:#?}");
}

#[test]
fn lock_across_await_suppression_silences() {
    let vs = lint_fixture("lock_across_await_suppressed.rs", &Allowlist::default());
    assert!(errors(&vs, LOCK_ACROSS_AWAIT).is_empty(), "{vs:#?}");
}

// ------------------------------------------------------------ panic-path

#[test]
fn panic_path_fires_outside_tests_only() {
    let vs = lint_fixture("panic_path_bad.rs", &Allowlist::default());
    let hits = errors(&vs, PANIC_PATH);
    // unwrap, expect, panic! — and nothing from the #[cfg(test)] mod
    // or the unwrap_or/unwrap_or_default relatives.
    assert_eq!(hits.len(), 3, "{hits:#?}");
    assert!(hits.iter().all(|v| v.line < 22), "{hits:#?}");
}

#[test]
fn panic_path_honors_suppression_and_allowlist() {
    let allowlist = Allowlist::parse(
        "# fixture allowlist\ncrates/core/src/panic_path_suppressed.rs::allowlisted\n",
    );
    let vs = lint_fixture("panic_path_suppressed.rs", &allowlist);
    assert!(errors(&vs, PANIC_PATH).is_empty(), "{vs:#?}");
    assert_eq!(
        vs.iter().filter(|v| v.status == Status::Suppressed).count(),
        1
    );
    assert_eq!(
        vs.iter()
            .filter(|v| v.status == Status::Allowlisted)
            .count(),
        1
    );
}

// ------------------------------------------------------------ raw-thread

#[test]
fn raw_thread_fires_on_every_shape() {
    let vs = lint_fixture("raw_thread_bad.rs", &Allowlist::default());
    let hits = errors(&vs, RAW_THREAD);
    // use Mutex, use-group Condvar + RwLock, std::thread::spawn,
    // std::thread::Builder, bare thread::spawn, qualified Mutex return
    // type, qualified Mutex::new call.
    assert_eq!(hits.len(), 8, "{hits:#?}");
    assert!(hits.iter().any(|v| v.message.contains("Condvar")));
    assert!(hits.iter().any(|v| v.message.contains("thread::spawn")));
    assert!(hits.iter().any(|v| v.message.contains("thread::Builder")));
}

#[test]
fn raw_thread_spares_nonblocking_sync_and_test_code() {
    let vs = lint_fixture("raw_thread_ok.rs", &Allowlist::default());
    assert!(errors(&vs, RAW_THREAD).is_empty(), "{vs:#?}");
}

#[test]
fn raw_thread_suppression_silences() {
    let vs = lint_fixture("raw_thread_suppressed.rs", &Allowlist::default());
    assert!(errors(&vs, RAW_THREAD).is_empty(), "{vs:#?}");
    assert_eq!(
        vs.iter()
            .filter(|v| v.rule == RAW_THREAD && v.status == Status::Suppressed)
            .count(),
        2,
        "{vs:#?}"
    );
}

#[test]
fn raw_thread_exempts_the_executor_module() {
    let src = "use std::sync::{Condvar, Mutex};\nfn w() { std::thread::spawn(|| {}); }";
    for rel in [
        "crates/sim/src/exec/deterministic.rs",
        "crates/sim/src/exec/mod.rs",
    ] {
        let ctx = FileCtx {
            rel_path: rel,
            crate_name: "sim",
            kind: FileKind::Src,
        };
        let vs = lint_source(&ctx, src, &Allowlist::default()).violations;
        assert!(vs.iter().all(|v| v.rule != RAW_THREAD), "{rel}: {vs:#?}");
    }
    // The same source anywhere else fires.
    let ctx = FileCtx {
        rel_path: "crates/core/src/runtime.rs",
        crate_name: "core",
        kind: FileKind::Src,
    };
    let vs = lint_source(&ctx, src, &Allowlist::default()).violations;
    assert_eq!(errors(&vs, RAW_THREAD).len(), 3, "{vs:#?}");
}

#[test]
fn panic_path_skips_non_audited_scopes() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    for (rel, crate_name, kind) in [
        // Integration tests of an audited crate: fine.
        ("crates/core/tests/chaos.rs", "core", FileKind::Tests),
        // Bench harness code: not part of the audited runtime.
        ("crates/bench/src/micro.rs", "bench", FileKind::Src),
        // Examples: user-facing demos may unwrap.
        ("examples/quickstart.rs", "pathways", FileKind::Examples),
    ] {
        let ctx = FileCtx {
            rel_path: rel,
            crate_name,
            kind,
        };
        let vs = lint_source(&ctx, src, &Allowlist::default()).violations;
        assert!(vs.is_empty(), "{rel}: {vs:#?}");
    }
}
