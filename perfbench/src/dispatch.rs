//! `dispatch`: eight tenants, each tracing and lowering a fresh chained
//! program every iteration with one program outstanding.
//!
//! Two clients share each of four single-host 4-device islands, so the
//! island schedulers arbitrate between tenants. Program sizes come from
//! the seed: each client runs shuffled rounds of 1..=32 computations,
//! so every seed does the same number of kernels in a different
//! interleaving. Compute is trivial (about 2 us per kernel, drawn per
//! program) and modeled latencies are the defaults, which
//! leaves client lowering, scheduling and PLAQUE/exec/store bookkeeping
//! as nearly all of the host work.

use std::sync::Arc;

use pathways_core::{FnSpec, PathwaysConfig, PathwaysRuntime, SliceRequest};
use pathways_net::{ClusterSpec, DeviceId, HostId, IslandId, NetworkParams};
use pathways_sim::{Sim, SimDuration};

use crate::stats::SplitMix;
use crate::{ClientLog, Cost, Mix, ProgramRecord, Staged};

const ISLANDS: u32 = 4;
const CLIENTS_PER_ISLAND: u32 = 2;
const DEVICES: u32 = 4;
/// Device time of each computation, drawn per program from this range
/// (nanoseconds): trivial next to the controller's per-kernel work.
const COMPUTE_NS: (u64, u64) = (1_500, 2_500);
/// Bytes each computation hands the next one.
const EDGE_BYTES: u64 = 8;

/// The programs client `client` runs, in order: computation count and
/// the device time of each computation.
pub(crate) fn programs(seed: u64, client: u32, mix: Mix) -> Vec<(u32, SimDuration)> {
    let (deck, rounds): (Vec<u32>, usize) = match mix {
        Mix::Full => ((1..=32).collect(), 2),
        Mix::Small => ((1..=4).collect(), 16),
        Mix::Large => ((16..=32).collect(), 1),
    };
    let mut rng = SplitMix::new(seed, u64::from(client));
    let sizes = rng.shuffled_rounds(&deck, rounds);
    let (lo, hi) = COMPUTE_NS;
    sizes
        .into_iter()
        .map(|comps| (comps, SimDuration::from_nanos(lo + rng.below(hi - lo + 1))))
        .collect()
}

pub(crate) fn stage(seed: u64, traced: bool, mix: Mix) -> Staged {
    let sim = Sim::new(seed);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::islands_of(ISLANDS, 1, DEVICES),
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    );
    let mut slice_alloc = Cost::default();
    let mut jobs = Vec::new();
    let mut all_devices = Vec::new();
    for i in 0..ISLANDS * CLIENTS_PER_ISLAND {
        let island = IslandId(i / CLIENTS_PER_ISLAND);
        let client = rt.client(HostId(island.0));
        let slice = slice_alloc
            .charge(traced, || {
                client.virtual_slice(SliceRequest::devices(DEVICES).in_island(island))
            })
            .expect("island fits a 4-device slice");
        let devices: Arc<[DeviceId]> = slice.physical_devices().into();
        all_devices.extend(devices.iter().copied());
        let sched = rt.scheduler(island).clone();
        let programs = programs(seed, i, mix);
        let h = client.handle().clone();
        jobs.push(sim.spawn(format!("dispatch-{i}"), async move {
            let mut log = ClientLog::new(client.label());
            for (p, &(comps, compute)) in programs.iter().enumerate() {
                let prepared = log.lower(traced, comps, || {
                    let mut b = client.trace(format!("d{i}-{p}"));
                    let mut prev = None;
                    for k in 0..comps {
                        let c =
                            b.computation(FnSpec::compute_only(format!("k{k}"), compute), &slice);
                        if let Some(pr) = prev {
                            b.edge(pr, c, EDGE_BYTES);
                        }
                        prev = Some(c);
                    }
                    client.prepare(&b.build().expect("a chain of computations is valid"))
                });
                let submit = h.now();
                let result = client.submit(&prepared).await.finish().await;
                let record = ProgramRecord::new(comps, &devices, 0, submit, h.now());
                log.settle(traced, &sched, result, record).await;
            }
            log
        }));
    }
    all_devices.sort_unstable();
    all_devices.dedup();
    Staged {
        sim,
        rt,
        jobs,
        devices: all_devices,
        setup_lower: Cost::default(),
        slice_alloc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_second_seed_changes_the_mix_but_not_the_work() {
        let a = programs(1, 0, Mix::Full);
        let b = programs(2, 0, Mix::Full);
        assert_ne!(a, b, "the seed must change which sizes run when");
        let kernels = |p: &[(u32, SimDuration)]| p.iter().map(|&(c, _)| c).sum::<u32>();
        assert_eq!(kernels(&a), 2 * (1..=32).sum::<u32>());
        assert_eq!(kernels(&a), kernels(&b));
        assert_eq!(a, programs(1, 0, Mix::Full), "the seed alone fixes the mix");
        assert!(programs(1, 0, Mix::Small).iter().all(|&(c, _)| c <= 4));
        assert!(programs(1, 0, Mix::Large).iter().all(|&(c, _)| c >= 16));
    }
}
