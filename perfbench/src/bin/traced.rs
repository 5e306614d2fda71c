//! Traced benchmark run: the per-layer metrics of one workload, with
//! every heap allocation counted.
//!
//! `perfbench-traced --workload <dispatch|spmd|chain> --seed <n> --seconds <s>`

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::cli_main(true)
}
