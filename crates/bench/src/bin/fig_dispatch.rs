//! Controller dispatch throughput: programs and kernels per wall-clock
//! second pushed through one `PathwaysRuntime`.
//!
//! Usage: `fig_dispatch [CLIENTS [PROGRAMS_PER_CLIENT [KERNELS]]]` —
//! defaults to `8 64 8`. Writes `BENCH_fig_dispatch.json` at the repo
//! root (override the directory with `BENCH_OUT_DIR`).

use pathways_bench::dispatch::{dispatch_point, DEVICES_PER_ISLAND};
use pathways_bench::perf::{BenchReport, ClusterShape};

fn main() {
    let args: Vec<u32> = std::env::args()
        .skip(1)
        .map(|a| a.parse().unwrap_or_else(|_| panic!("bad count {a:?}")))
        .collect();
    let clients = args.first().copied().unwrap_or(8);
    let programs = args.get(1).copied().unwrap_or(64);
    let kernels = args.get(2).copied().unwrap_or(8);

    println!(
        "Dispatch throughput: {clients} clients x {programs} programs x {kernels} kernels \
         (one client per {DEVICES_PER_ISLAND}-device island)"
    );
    println!(
        "{:>8} {:>9} {:>8} {:>12} {:>12}",
        "programs", "kernels", "wall_s", "prog/s", "kern/s"
    );
    let s = dispatch_point(clients, programs, kernels);
    println!(
        "{:>8} {:>9} {:>8.4} {:>12.0} {:>12.0}",
        s.programs,
        s.kernels,
        s.wall_secs,
        s.programs_per_sec(),
        s.kernels_per_sec(),
    );

    BenchReport::new(
        "fig_dispatch",
        ClusterShape {
            islands: clients,
            hosts_per_island: 1,
            devices_per_host: DEVICES_PER_ISLAND,
        },
    )
    .metric("det_programs_per_sec", s.programs_per_sec())
    .metric("det_kernels_per_sec", s.kernels_per_sec())
    .write_or_warn();
}
