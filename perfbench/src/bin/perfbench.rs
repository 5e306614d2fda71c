//! Untraced benchmark run: the end-to-end metrics of one workload.
//!
//! `perfbench --workload <dispatch|spmd|chain> --seed <n> --seconds <s>`

fn main() -> std::process::ExitCode {
    perfbench::cli_main(false)
}
