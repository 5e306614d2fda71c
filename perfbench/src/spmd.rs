//! `spmd`: one client resubmits one prepared 512-device gang train step
//! (compute plus AllReduce) on an island of 128 hosts x 4 devices,
//! keeping two steps in flight.
//!
//! Lowering happens once, in set-up; the run's host cost is per-shard
//! fan-out through PLAQUE, the device model and gang rendezvous, which
//! grows with gang width. The seed moves the step's compute time within
//! 1%, so virtual-time figures differ by seed but stay comparable.

use std::collections::VecDeque;
use std::sync::Arc;

use pathways_core::{FnSpec, PathwaysConfig, PathwaysRuntime, Run, SliceRequest};
use pathways_net::{ClusterSpec, DeviceId, HostId, IslandId, NetworkParams};
use pathways_sim::{Sim, SimDuration, SimTime};

use crate::stats::SplitMix;
use crate::{ClientLog, Cost, ProgramRecord, Staged};

const HOSTS: u32 = 128;
const DEVICES_PER_HOST: u32 = 4;
const GANG: u32 = HOSTS * DEVICES_PER_HOST;
/// Steps per trial.
const STEPS: usize = 64;
/// Steps submitted and not yet finished.
const IN_FLIGHT: usize = 2;
/// Step compute time before the seeded jitter.
const COMPUTE_US: u64 = 2000;
const JITTER_US: u64 = 20;
/// Per-shard gradient bytes all-reduced each step.
const ALLREDUCE_BYTES: u64 = 4 << 20;

pub(crate) fn stage(seed: u64, traced: bool) -> Staged {
    let sim = Sim::new(seed);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::islands_of(1, HOSTS, DEVICES_PER_HOST),
        NetworkParams::tpu_cluster(),
        PathwaysConfig::default(),
    );
    let client = rt.client(HostId(0));
    let mut slice_alloc = Cost::default();
    let slice = slice_alloc
        .charge(traced, || {
            client.virtual_slice(SliceRequest::devices(GANG).in_island(IslandId(0)))
        })
        .expect("the island fits the gang");
    let devices: Arc<[DeviceId]> = slice.physical_devices().into();
    let compute =
        SimDuration::from_micros(COMPUTE_US + SplitMix::new(seed, 0).below(JITTER_US + 1));
    let mut setup_lower = Cost::default();
    let step = setup_lower.charge(traced, || {
        let mut b = client.trace("train_step");
        b.computation(
            FnSpec::compute_only("train_step", compute).with_allreduce(ALLREDUCE_BYTES),
            &slice,
        );
        client.prepare(&b.build().expect("a one-computation program is valid"))
    });
    let sched = rt.scheduler(IslandId(0)).clone();
    let h = client.handle().clone();
    let job_devices = Arc::clone(&devices);
    let job = sim.spawn("spmd", async move {
        let mut log = ClientLog::new(client.label());
        let mut in_flight: VecDeque<(Run, SimTime)> = VecDeque::with_capacity(IN_FLIGHT);
        for s in 0..STEPS + IN_FLIGHT {
            if s >= IN_FLIGHT {
                let (run, submit) = in_flight.pop_front().expect("a full window");
                let result = run.finish().await;
                let record = ProgramRecord::new(1, &job_devices, 0, submit, h.now());
                log.settle(traced, &sched, result, record).await;
            }
            if s < STEPS {
                let submit = h.now();
                in_flight.push_back((client.submit(&step).await, submit));
            }
        }
        log
    });
    Staged {
        sim,
        rt,
        jobs: vec![job],
        devices: devices.to_vec(),
        setup_lower,
        slice_alloc,
    }
}
