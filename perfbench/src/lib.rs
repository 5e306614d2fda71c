//! # perfbench
//!
//! The repository's benchmark: three closed-loop workloads driven
//! through the public API of `pathways-core` on the deterministic
//! (single-threaded, virtual-time) backend.
//!
//! * `dispatch` — eight tenants each trace and lower a fresh chained
//!   program per iteration (client, scheduler, PLAQUE and store
//!   bookkeeping dominate the host work).
//! * `spmd` — one prepared 512-device gang train step resubmitted with
//!   two steps in flight (per-shard fan-out and gang rendezvous).
//! * `chain` — chains of eight dependent single-kernel programs
//!   alternating between two islands over DCN, with a tiered store that
//!   spills, demotes and checkpoints (storage engine and input
//!   bindings).
//!
//! A *trial* builds the runtime (timed as set-up), runs the workload to
//! quiescence (timed as the run) and checks its outputs. The untraced
//! binary repeats trials for the requested host time and reports
//! medians; the traced binary additionally times and counts the calls
//! into each layer from outside (see [`alloc`]) and reports per-layer
//! figures. Every virtual-time figure is a pure function of the seed.
//! `perfbench/README.md` documents the workloads and metrics.

// Host wall-clock time is what this crate measures.
#![allow(clippy::disallowed_types)]

pub mod alloc;
mod chain;
mod dispatch;
pub mod report;
mod spmd;
pub mod stats;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use pathways_core::{PathwaysRuntime, RunResult, SchedulerHandle};
use pathways_net::{DeviceId, FxHashMap};
use pathways_sim::{
    contention_profile, reset_contention_profile, JoinHandle, RunOutcome, Sim, SimTime, TraceLog,
};

use crate::alloc::AllocSnapshot;
use crate::report::{Metric, Report};
use crate::stats::{median, percentile, reference_s, tail_percentile, REFERENCE_NOMINAL_S};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Eight tenants lowering fresh programs of 1..=32 computations.
    Dispatch,
    /// A 512-device gang train step, two steps in flight.
    Spmd,
    /// Eight-stage two-island chains through a tiered store.
    Chain,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [Workload::Dispatch, Workload::Spmd, Workload::Chain];

    /// The workload called `name` on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Dispatch => "dispatch",
            Workload::Spmd => "spmd",
            Workload::Chain => "chain",
        }
    }
}

/// Host time and allocations spent inside one kind of call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Cost {
    ns: u64,
    allocs: u64,
    bytes: u64,
    calls: u64,
}

impl Cost {
    /// Runs `f` and counts the call; when `traced`, also charges its
    /// host time and allocations here.
    pub(crate) fn charge<R>(&mut self, traced: bool, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !traced {
            return f();
        }
        let a0 = AllocSnapshot::now();
        let t0 = Instant::now();
        let out = f();
        self.ns += t0.elapsed().as_nanos() as u64;
        let a = AllocSnapshot::now().since(a0);
        self.allocs += a.allocs;
        self.bytes += a.bytes;
        out
    }

    fn add(&mut self, other: Cost) {
        self.ns += other.ns;
        self.allocs += other.allocs;
        self.bytes += other.bytes;
        self.calls += other.calls;
    }
}

/// Program-size buckets for the `dispatch` split, by computation count.
const BUCKETS: [(&str, u32, u32); 3] = [("le4", 1, 4), ("mid", 5, 15), ("ge16", 16, u32::MAX)];

fn bucket(comps: u32) -> usize {
    BUCKETS
        .iter()
        .position(|&(_, lo, hi)| (lo..=hi).contains(&comps))
        .expect("buckets cover every positive size")
}

/// One submitted program, as its client saw it.
#[derive(Debug, Clone)]
pub(crate) struct ProgramRecord {
    /// Computations in the program (each runs one kernel per shard).
    comps: u32,
    /// Devices every computation runs on, in slice order.
    devices: Arc<[DeviceId]>,
    /// Position in its chain (`chain` only; 0 elsewhere).
    stage: u32,
    submit: SimTime,
    finish: SimTime,
    /// When the island scheduler received it (traced runs only).
    arrival: Option<SimTime>,
    /// The run or one of its sink `ObjectRef`s resolved to an error.
    failed: bool,
}

impl ProgramRecord {
    /// A record of a program submitted at `submit` and finished at
    /// `finish`, before its outputs are checked.
    pub(crate) fn new(
        comps: u32,
        devices: &Arc<[DeviceId]>,
        stage: u32,
        submit: SimTime,
        finish: SimTime,
    ) -> Self {
        ProgramRecord {
            comps,
            devices: Arc::clone(devices),
            stage,
            submit,
            finish,
            arrival: None,
            failed: false,
        }
    }

    fn kernels(&self) -> u64 {
        u64::from(self.comps) * self.devices.len() as u64
    }
}

/// Everything one closed-loop client did in a trial.
#[derive(Debug, Default)]
pub(crate) struct ClientLog {
    /// The client's trace label (device spans carry it).
    label: String,
    records: Vec<ProgramRecord>,
    /// Lowering cost during the run, per [`BUCKETS`] entry.
    lower: [Cost; 3],
    /// `SchedulerHandle::arrival_time` calls made; each takes the
    /// scheduler's state lock once, which the lock count discounts.
    arrival_queries: u64,
}

impl ClientLog {
    pub(crate) fn new(label: &str) -> Self {
        ClientLog {
            label: label.to_string(),
            ..ClientLog::default()
        }
    }

    /// Lowers one program of `comps` computations through `f`.
    pub(crate) fn lower<R>(&mut self, traced: bool, comps: u32, f: impl FnOnce() -> R) -> R {
        self.lower[bucket(comps)].charge(traced, f)
    }

    /// Checks a finished run's sink refs and records it; when `traced`,
    /// asks `sched` when the run arrived.
    pub(crate) async fn settle(
        &mut self,
        traced: bool,
        sched: &SchedulerHandle,
        result: RunResult,
        mut record: ProgramRecord,
    ) {
        for (_, r) in result.refs() {
            record.failed |= r.ready().await.is_err();
        }
        if traced {
            self.arrival_queries += 1;
            record.arrival = sched.arrival_time(result.run());
        }
        self.records.push(record);
    }
}

/// A workload built and ready to run.
pub(crate) struct Staged {
    sim: Sim,
    rt: PathwaysRuntime,
    jobs: Vec<JoinHandle<ClientLog>>,
    /// Union of the workload's slices.
    devices: Vec<DeviceId>,
    /// Lowering done while setting up (programs prepared once).
    setup_lower: Cost,
    /// `Client::virtual_slice` calls.
    slice_alloc: Cost,
}

/// Which programs a `dispatch` trial draws (the full mix, or one
/// size bucket for the traced split).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mix {
    Full,
    Small,
    Large,
}

fn stage(workload: Workload, seed: u64, traced: bool, mix: Mix) -> Staged {
    match workload {
        Workload::Dispatch => dispatch::stage(seed, traced, mix),
        Workload::Spmd => spmd::stage(seed, traced),
        Workload::Chain => chain::stage(seed, traced),
    }
}

/// The virtual-time outcome of a trial: identical for equal seeds.
#[derive(Debug, Clone, PartialEq)]
struct SimSummary {
    programs_per_s: f64,
    util: f64,
    latency_p50_us: f64,
    latency_tail_us: f64,
    tail_pct: u32,
    tail_beyond: usize,
    failed_frac: f64,
}

/// What the traced binary reads from each layer in one trial.
#[derive(Debug, Clone)]
struct LayerCounts {
    lower: [Cost; 3],
    setup_lower: Cost,
    slice_alloc: Cost,
    arrival_lags_ns: Vec<u64>,
    queue_ns: Vec<u64>,
    locks: BTreeMap<String, u64>,
    polls: u64,
    run_allocs: AllocSnapshot,
    run_ns: u64,
    trace_spans: u64,
    spills: u64,
    demotions: u64,
    checkpoints: u64,
    spill_log_len: u64,
    objects_end: u64,
    live_runs_end: u64,
    heap_live_bytes: i64,
}

/// One trial's measurements.
struct Trial {
    /// How slow the machine ran around this trial: the reference loop's
    /// time before and after it, over [`REFERENCE_NOMINAL_S`]. Host
    /// times are divided by it.
    speed: f64,
    /// Host seconds of each set-up timed before the trial.
    setups: Vec<f64>,
    run_s: f64,
    programs: u64,
    failed: u64,
    kernels: u64,
    device_kernels: u64,
    sim: SimSummary,
    layers: LayerCounts,
    errors: Vec<String>,
}

impl Trial {
    /// Kernels per host second of the timed run, scaled to the nominal
    /// machine.
    fn kernels_per_s(&self) -> f64 {
        self.kernels as f64 / self.run_s * self.speed
    }

    /// `ns` host nanoseconds in microseconds, scaled to the nominal
    /// machine.
    fn us(&self, ns: u64) -> f64 {
        ns as f64 / 1e3 / self.speed
    }

    /// Host nanoseconds inside `Sim::run` outside the client calls.
    fn sim_ns(&self) -> u64 {
        let client: u64 = self.layers.lower.iter().map(|b| b.ns).sum();
        self.layers.run_ns.saturating_sub(client)
    }

    /// Allocations inside `Sim::run` outside the client calls.
    fn sim_allocs(&self) -> u64 {
        let client: u64 = self.layers.lower.iter().map(|b| b.allocs).sum();
        self.layers.run_allocs.allocs - client
    }
}

/// Builds, runs and checks one trial of `workload`.
fn trial(workload: Workload, seed: u64, traced: bool, mix: Mix) -> Trial {
    let reference_before = reference_s();
    let setups = (0..SETUPS_PER_TRIAL)
        .map(|_| {
            let t0 = Instant::now();
            let staged = stage(workload, seed, false, mix);
            let s = t0.elapsed().as_secs_f64();
            drop(staged);
            s
        })
        .collect();
    let heap0 = AllocSnapshot::now();
    let Staged {
        mut sim,
        rt,
        jobs,
        devices,
        setup_lower,
        slice_alloc,
    } = stage(workload, seed, traced, mix);

    reset_contention_profile();
    let polls0 = sim.poll_count();
    let a0 = AllocSnapshot::now();
    let t1 = Instant::now();
    let outcome = sim.run();
    let run = t1.elapsed();
    let speed = (reference_before + reference_s()) / 2.0 / REFERENCE_NOMINAL_S;
    let run_allocs = AllocSnapshot::now().since(a0);
    let polls = sim.poll_count() - polls0;
    let heap_live_bytes = AllocSnapshot::now().live - heap0.live;
    let profile = contention_profile();

    let mut errors = Vec::new();
    if let RunOutcome::Deadlock { time, stuck_tasks } = &outcome {
        errors.push(format!("wedged at {time}: {stuck_tasks:?}"));
    }
    let logs: Vec<ClientLog> = jobs
        .iter()
        .map(|j| j.try_take())
        .collect::<Option<_>>()
        .unwrap_or_else(|| {
            errors.push("a client did not finish".into());
            Vec::new()
        });
    let records: Vec<&ProgramRecord> = logs.iter().flat_map(|l| &l.records).collect();
    if records.is_empty() {
        errors.push("no program completed".into());
    }

    // Device-layer checks: every submitted kernel ran, on the slices.
    let core = rt.core();
    let kernels: u64 = records.iter().map(|r| r.kernels()).sum();
    let device_kernels: u64 = core.devices.values().map(|d| d.stats().kernels).sum();
    if device_kernels != kernels {
        errors.push(format!(
            "devices ran {device_kernels} kernels, {kernels} were submitted"
        ));
    }
    let busy_ns: u64 = devices
        .iter()
        .map(|d| core.devices[d].stats().busy.as_nanos())
        .sum();

    // Everything drained: no live run, no object left in the store.
    let live_runs_end = core.plaque.live_runs() as u64;
    let objects_end = core.store.len() as u64;
    if live_runs_end != 0 {
        errors.push(format!("{live_runs_end} runs still live after drain"));
    }
    if objects_end != 0 {
        errors.push(format!(
            "{objects_end} objects left in the store after drain"
        ));
    }
    let tiers = core.store.tier_stats();
    let spill_log_len = core.store.spill_events().len() as u64;

    let trace = sim.take_trace();
    let spans = match attribute(&trace, &logs) {
        Ok(spans) => spans,
        Err(e) => {
            errors.push(e);
            Vec::new()
        }
    };
    if workload == Workload::Chain {
        check_chain_order(&records, &spans, &mut errors);
    }

    let failed = records.iter().filter(|r| r.failed).count() as u64;
    let sim_summary = summarize(&records, busy_ns, devices.len(), failed);

    let arrival_queries: u64 = logs.iter().map(|l| l.arrival_queries).sum();
    let mut locks: BTreeMap<String, u64> =
        profile.into_iter().map(|p| (p.name, p.acquires)).collect();
    if let Some(acq) = locks.get_mut(SCHED_LOCK) {
        *acq -= arrival_queries;
    }
    let mut arrival_lags_ns = Vec::new();
    let mut queue_ns = Vec::new();
    if traced {
        for (r, &(first_start, _)) in records.iter().zip(&spans) {
            match r.arrival {
                Some(arrival) => {
                    arrival_lags_ns.push(arrival.duration_since(r.submit).as_nanos());
                    queue_ns.push(first_start.saturating_duration_since(arrival).as_nanos());
                }
                None => errors.push("a run's scheduler arrival was not recorded".into()),
            }
        }
        arrival_lags_ns.sort_unstable();
        queue_ns.sort_unstable();
    }
    let mut lower = [Cost::default(); 3];
    for l in &logs {
        for (total, c) in lower.iter_mut().zip(&l.lower) {
            total.add(*c);
        }
    }

    let layers = LayerCounts {
        lower,
        setup_lower,
        slice_alloc,
        arrival_lags_ns,
        queue_ns,
        locks,
        polls,
        run_allocs,
        run_ns: run.as_nanos() as u64,
        trace_spans: trace.len() as u64,
        spills: tiers.spills,
        demotions: tiers.demotions,
        checkpoints: tiers.checkpoints,
        spill_log_len,
        objects_end,
        live_runs_end,
        heap_live_bytes,
    };
    Trial {
        speed,
        setups,
        run_s: run.as_secs_f64(),
        programs: records.len() as u64,
        failed,
        kernels,
        device_kernels,
        sim: sim_summary,
        layers,
        errors,
    }
}

/// Name of the island scheduler's state lock in the contention profile.
const SCHED_LOCK: &str = "core.sched.state";

fn summarize(records: &[&ProgramRecord], busy_ns: u64, devices: usize, failed: u64) -> SimSummary {
    let start = records
        .iter()
        .map(|r| r.submit)
        .min()
        .unwrap_or(SimTime::ZERO);
    let end = records
        .iter()
        .map(|r| r.finish)
        .max()
        .unwrap_or(SimTime::ZERO);
    let makespan = end.saturating_duration_since(start).as_secs_f64();
    let mut latencies: Vec<u64> = records
        .iter()
        .map(|r| r.finish.saturating_duration_since(r.submit).as_nanos())
        .collect();
    latencies.sort_unstable();
    let n = latencies.len();
    let (tail_pct, tail_beyond) = tail_percentile(n);
    let us = |ns: u64| ns as f64 / 1e3;
    SimSummary {
        programs_per_s: n as f64 / makespan,
        util: busy_ns as f64 / 1e9 / (devices as f64 * makespan),
        latency_p50_us: if n == 0 {
            0.0
        } else {
            us(percentile(&latencies, 50))
        },
        latency_tail_us: if n == 0 {
            0.0
        } else {
            us(percentile(&latencies, tail_pct))
        },
        tail_pct,
        tail_beyond,
        failed_frac: if n == 0 {
            1.0
        } else {
            failed as f64 / n as f64
        },
    }
}

/// Device-trace track of `device` (the device model's naming).
fn track(device: DeviceId) -> String {
    format!("d{:04}", device.0)
}

/// The first span start and last span end of every program, in
/// `logs` order.
///
/// Spans carry their client's label, not the run, so they are matched
/// by order: an island scheduler never reorders one client's programs
/// and a device runs its queue in order, so on each device the spans
/// with one client's label belong to that client's programs in submit
/// order, one per computation. Any span left over or missing is an
/// error.
fn attribute(trace: &TraceLog, logs: &[ClientLog]) -> Result<Vec<(SimTime, SimTime)>, String> {
    let mut by_row: FxHashMap<(&str, &str), Vec<(SimTime, SimTime)>> = FxHashMap::default();
    for s in trace.spans() {
        by_row
            .entry((s.track.as_str(), s.label.as_str()))
            .or_default()
            .push((s.start, s.end));
    }
    let mut tracks: FxHashMap<DeviceId, String> = FxHashMap::default();
    let mut out = Vec::new();
    for log in logs {
        let mut cursor: FxHashMap<DeviceId, usize> = FxHashMap::default();
        for r in &log.records {
            let mut first = SimTime::MAX;
            let mut last = SimTime::ZERO;
            for &d in r.devices.iter() {
                let name = tracks.entry(d).or_insert_with(|| track(d));
                let row = by_row
                    .get(&(name.as_str(), log.label.as_str()))
                    .map_or(&[][..], Vec::as_slice);
                let at = cursor.entry(d).or_default();
                let take = r.comps as usize;
                let spans = row.get(*at..*at + take).ok_or_else(|| {
                    format!("{name}: fewer spans than kernels for client {}", log.label)
                })?;
                *at += take;
                for &(s, e) in spans {
                    first = first.min(s);
                    last = last.max(e);
                }
            }
            out.push((first, last));
        }
        for (d, at) in cursor {
            let len = by_row
                .get(&(tracks[&d].as_str(), log.label.as_str()))
                .map_or(0, Vec::len);
            if at != len {
                return Err(format!(
                    "{}: {len} spans for client {}, {at} kernels submitted",
                    tracks[&d], log.label
                ));
            }
        }
    }
    Ok(out)
}

/// No consumer kernel starts before its producer's last span ends.
fn check_chain_order(
    records: &[&ProgramRecord],
    spans: &[(SimTime, SimTime)],
    errors: &mut Vec<String>,
) {
    for (i, r) in records.iter().enumerate().skip(1) {
        if r.stage == 0 || spans.len() <= i {
            continue;
        }
        let (consumer_start, _) = spans[i];
        let (_, producer_end) = spans[i - 1];
        if consumer_start < producer_end {
            errors.push(format!(
                "chain stage {} started at {consumer_start} before its producer ended at {producer_end}",
                r.stage
            ));
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Trials run before measuring, so lazy set-up and cache warm-up do
/// not land in the first sample.
const WARMUP_TRIALS: usize = 1;
/// Fewest measured trials per run, however long each takes.
const MIN_TRIALS: usize = 3;
/// Set-ups timed before each trial. Set-up is short next to a run, so
/// `setup_s` is the median of these: each stages the workload and drops
/// it unrun, spread over the run between the trials.
const SETUPS_PER_TRIAL: usize = 4;

/// Runs `workload` for `seconds` of host time and reports its metrics:
/// the end-to-end set untraced, the per-layer set traced.
pub fn measure(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::new(workload.name(), seed, traced);
    for _ in 0..WARMUP_TRIALS {
        let warm = trial(workload, seed, traced, Mix::Full);
        report
            .errors
            .extend(warm.errors.iter().map(|e| format!("warm-up: {e}")));
    }
    let start = Instant::now();
    let mut trials = Vec::new();
    while trials.len() < MIN_TRIALS || start.elapsed().as_secs_f64() < seconds {
        trials.push(trial(workload, seed, traced, Mix::Full));
    }

    report.trials = trials.len();
    for (i, t) in trials.iter().enumerate() {
        report.attempted += t.programs;
        report.failed += t.failed;
        report
            .errors
            .extend(t.errors.iter().map(|e| format!("trial {i}: {e}")));
        if t.sim != trials[0].sim {
            report.errors.push(format!(
                "trial {i}: virtual-time results differ from trial 0"
            ));
        }
    }
    let first = &trials[0];
    report.note("programs_per_trial", first.programs as f64);
    report.note("kernels_per_trial", first.kernels as f64);
    report.note("sim_latency_tail_percentile", f64::from(first.sim.tail_pct));
    report.note(
        "sim_latency_tail_samples_beyond",
        first.sim.tail_beyond as f64,
    );

    let host_kps = median(&trials.iter().map(Trial::kernels_per_s).collect::<Vec<_>>());
    report.note(
        "machine_speed",
        median(&trials.iter().map(|t| t.speed).collect::<Vec<_>>()),
    );
    report.note(
        "host_kernels_per_s_unscaled",
        median(
            &trials
                .iter()
                .map(|t| t.kernels as f64 / t.run_s)
                .collect::<Vec<_>>(),
        ),
    );
    if traced {
        report.metrics.push(Metric::new(
            "trace.host_kernels_per_s",
            host_kps,
            "kernels/s",
        ));
        layer_metrics(workload, seed, &trials, &mut report);
    } else {
        let s = &first.sim;
        report.metrics.extend([
            Metric::new(
                "setup_s",
                median(
                    &trials
                        .iter()
                        .flat_map(|t| t.setups.iter().map(|s| s / t.speed))
                        .collect::<Vec<_>>(),
                ),
                "s",
            ),
            Metric::new("host_kernels_per_s", host_kps, "kernels/s"),
            Metric::new("sim_programs_per_s", s.programs_per_s, "programs/s"),
            Metric::new("sim_util", s.util, "ratio"),
            Metric::new("sim_latency_p50_us", s.latency_p50_us, "us"),
            Metric::new("sim_latency_tail_us", s.latency_tail_us, "us"),
            Metric::new("failed_frac", s.failed_frac, "ratio"),
        ]);
        match peak_rss_mb() {
            Some(mb) => report.metrics.push(Metric::new("peak_rss_mb", mb, "MB")),
            None => report
                .errors
                .push("cannot read VmHWM from /proc/self/status".into()),
        }
    }
    report
}

fn per(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n / d
    }
}

/// The per-layer metrics of a traced run. Counts come from the first
/// measured trial (they repeat exactly for a seed); host times are
/// medians over all measured trials, scaled to the nominal machine.
fn layer_metrics(workload: Workload, seed: u64, trials: &[Trial], report: &mut Report) {
    let first = &trials[0];
    let c = &first.layers;
    let programs = first.programs as f64;
    let kernels = first.kernels as f64;
    let med = |f: &dyn Fn(&Trial) -> f64| median(&trials.iter().map(f).collect::<Vec<_>>());
    let lowering = |t: &Trial| {
        let mut all = t.layers.setup_lower;
        t.layers.lower.iter().for_each(|b| all.add(*b));
        all
    };
    let acq = |name: &str| per(*c.locks.get(name).unwrap_or(&0) as f64, kernels);
    let run_client_bytes: u64 = c.lower.iter().map(|b| b.bytes).sum();
    let sim_us = |v: &[u64], pct: u32| {
        if v.is_empty() {
            0.0
        } else {
            percentile(v, pct) as f64 / 1e3
        }
    };
    report.metrics.extend([
        Metric::new(
            "client.lower_us_per_program",
            med(&|t| t.us(lowering(t).ns)) / programs,
            "us/program",
        ),
        Metric::new(
            "client.lower_allocs_per_program",
            lowering(first).allocs as f64 / programs,
            "allocs/program",
        ),
        Metric::new(
            "client.host_share",
            med(&|t| lowering(t).ns as f64 / (t.layers.run_ns + t.layers.setup_lower.ns) as f64),
            "ratio",
        ),
        Metric::new(
            "resource.slice_alloc_us",
            med(&|t| {
                per(
                    t.us(t.layers.slice_alloc.ns),
                    t.layers.slice_alloc.calls as f64,
                )
            }),
            "us",
        ),
        Metric::new(
            "sched.arrival_lag_sim_us_p50",
            sim_us(&c.arrival_lags_ns, 50),
            "us",
        ),
        Metric::new("sched.queue_sim_us_p99", sim_us(&c.queue_ns, 99), "us"),
        Metric::new("sched.state_acq", acq(SCHED_LOCK), "acq/kernel"),
        Metric::new(
            "plaque.shard_map_acq",
            acq("plaque.shard_map"),
            "acq/kernel",
        ),
        Metric::new("plaque.runs_acq", acq("plaque.runs"), "acq/kernel"),
        Metric::new("plaque.live_runs_end", c.live_runs_end as f64, "count"),
        Metric::new(
            "exec.input_slots_acq",
            acq("core.input_slots"),
            "acq/kernel",
        ),
        Metric::new("exec.bindings_acq", acq("core.bindings"), "acq/kernel"),
        Metric::new("storage.store_acq", acq("core.store"), "acq/kernel"),
        Metric::new(
            "storage.spills_per_program",
            c.spills as f64 / programs,
            "1/program",
        ),
        Metric::new(
            "storage.demotions_per_program",
            c.demotions as f64 / programs,
            "1/program",
        ),
        Metric::new(
            "storage.checkpoints_per_program",
            c.checkpoints as f64 / programs,
            "1/program",
        ),
        Metric::new("storage.spill_log_len", c.spill_log_len as f64, "count"),
        Metric::new("storage.objects_end", c.objects_end as f64, "count"),
        Metric::new("device.kernels", first.device_kernels as f64, "count"),
        Metric::new(
            "device.rendezvous_acq",
            acq("device.rendezvous"),
            "acq/kernel",
        ),
        Metric::new("net.fabric_acq", acq("net.fabric.faults"), "acq/kernel"),
        Metric::new(
            "sim.polls_per_kernel",
            c.polls as f64 / kernels,
            "polls/kernel",
        ),
        Metric::new(
            "sim.allocs_per_kernel",
            first.sim_allocs() as f64 / kernels,
            "allocs/kernel",
        ),
        Metric::new(
            "sim.alloc_bytes_per_kernel",
            (c.run_allocs.bytes - run_client_bytes) as f64 / kernels,
            "B/kernel",
        ),
        Metric::new(
            "sim.run_us_per_kernel",
            med(&|t| t.us(t.sim_ns()) / t.kernels as f64),
            "us/kernel",
        ),
        Metric::new(
            "sim.trace_spans_per_kernel",
            c.trace_spans as f64 / kernels,
            "spans/kernel",
        ),
        Metric::new(
            "heap.live_mb_end",
            c.heap_live_bytes as f64 / (1024.0 * 1024.0),
            "MB",
        ),
    ]);
    bucket_metrics(workload, seed, trials, report);
}

/// Repetitions of each single-bucket `dispatch` trial.
const BUCKET_TRIALS: usize = 5;

/// The `dispatch` split by program size. `client.*` comes from the
/// mixed trials, attributed per program; `sim.*` from extra trials that
/// draw only one bucket's sizes, since the simulator's work cannot be
/// attributed to one program from outside. Other workloads have no such
/// mix and report zeros.
fn bucket_metrics(workload: Workload, seed: u64, trials: &[Trial], report: &mut Report) {
    for (name, mix) in [("le4", Mix::Small), ("ge16", Mix::Large)] {
        let b = BUCKETS
            .iter()
            .position(|&(n, _, _)| n == name)
            .expect("named bucket exists");
        let mut vals = [0.0; 5];
        if workload == Workload::Dispatch {
            let lowered = trials[0].layers.lower[b].calls as f64;
            vals[0] = median(
                &trials
                    .iter()
                    .map(|t| per(t.us(t.layers.lower[b].ns), lowered))
                    .collect::<Vec<_>>(),
            );
            vals[1] = per(trials[0].layers.lower[b].allocs as f64, lowered);
            let sub: Vec<Trial> = (0..BUCKET_TRIALS)
                .map(|_| trial(workload, seed, true, mix))
                .collect();
            for t in &sub {
                report
                    .errors
                    .extend(t.errors.iter().map(|e| format!("{name} trial: {e}")));
            }
            let s = &sub[0];
            let kernels = s.kernels as f64;
            vals[2] = median(
                &sub.iter()
                    .map(|t| t.us(t.sim_ns()) / t.kernels as f64)
                    .collect::<Vec<_>>(),
            );
            vals[3] = s.layers.polls as f64 / kernels;
            vals[4] = s.sim_allocs() as f64 / kernels;
        }
        report.metrics.extend([
            Metric::new(
                &format!("client.lower_us_per_program.{name}"),
                vals[0],
                "us/program",
            ),
            Metric::new(
                &format!("client.lower_allocs_per_program.{name}"),
                vals[1],
                "allocs/program",
            ),
            Metric::new(
                &format!("sim.run_us_per_kernel.{name}"),
                vals[2],
                "us/kernel",
            ),
            Metric::new(
                &format!("sim.polls_per_kernel.{name}"),
                vals[3],
                "polls/kernel",
            ),
            Metric::new(
                &format!("sim.allocs_per_kernel.{name}"),
                vals[4],
                "allocs/kernel",
            ),
        ]);
    }
}

/// Entry point shared by both binaries: parses
/// `--workload <name> --seed <n> --seconds <s>`, measures, and prints
/// the report as one JSON line.
pub fn cli_main(traced: bool) -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next();
        match (flag.as_str(), value) {
            ("--workload", Some(v)) => workload = Workload::parse(v),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s >= 0.0),
            _ => {
                workload = None;
                break;
            }
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        eprintln!("usage: perfbench --workload <dispatch|spmd|chain> --seed <u64> --seconds <s>");
        return std::process::ExitCode::from(2);
    };
    let report = measure(workload, seed, seconds, traced);
    println!("{}", report.to_json());
    std::process::ExitCode::SUCCESS
}
