//! `chain`: one client submits chains of eight dependent single-kernel
//! programs up front, binding each stage's input to the previous
//! stage's output `ObjectRef`, and keeps two chains in flight. Stages
//! alternate between two islands of 2 hosts x 4 devices, so every
//! hand-off reshards across DCN.
//!
//! Output shards are several MiB and the last sixteen chain outputs
//! stay retained (with the lineage that keeps their inputs alive), so
//! under the small HBM and DRAM budgets below the store both spills and
//! demotes while delta checkpoints run every few milliseconds: the
//! storage engine's writes run beside its reads of spilled inputs. The
//! seed picks each stage's compute time from four values, shuffled so
//! every seed does the same total work.

use std::collections::VecDeque;
use std::sync::Arc;

use pathways_core::{
    Client, CompId, FnSpec, InputSpec, ObjectRef, PathwaysConfig, PathwaysRuntime, PreparedProgram,
    RunResult, SliceRequest, TierConfig, VirtualSlice,
};
use pathways_net::{ClusterSpec, DeviceId, HostId, IslandId, NetworkParams};
use pathways_sim::{JoinHandle, Sim, SimDuration, SimTime};

use crate::stats::SplitMix;
use crate::{ClientLog, Cost, ProgramRecord, Staged};

const ISLANDS: usize = 2;
const HOSTS_PER_ISLAND: u32 = 2;
const DEVICES_PER_HOST: u32 = 4;
/// Shards of every stage (one 4-device slice per island).
const SHARDS: u32 = 4;
const STAGES: usize = 8;
/// Chains per trial.
const CHAINS: usize = 64;
/// Chains submitted and not yet finished.
const CHAINS_IN_FLIGHT: usize = 2;
/// Chain outputs kept alive after their chain finishes.
const RETAINED: usize = 16;
const SHARD_BYTES: u64 = 4 << 20;
/// Stage compute times the seed draws from.
const COMPUTE_US: [u64; 4] = [200, 300, 400, 500];
const HBM_PER_DEVICE: u64 = 48 << 20;
const DRAM_PER_HOST: u64 = 64 << 20;
const CHECKPOINT_EVERY: SimDuration = SimDuration::from_millis(2);

/// A submitted stage: the watcher resolving to its result and finish
/// time, when it was submitted, and its island.
type Watched = (JoinHandle<(RunResult, SimTime)>, SimTime, usize);

/// One prepared stage program.
struct Stage {
    prepared: PreparedProgram,
    /// The external input, absent on a chain's head.
    input: Option<CompId>,
    sink: CompId,
}

fn prepare_stage(client: &Client, slice: &VirtualSlice, compute_us: u64, head: bool) -> Stage {
    let mut b = client.trace(if head { "head" } else { "stage" });
    let input = (!head).then(|| b.input(InputSpec::new("prev", SHARDS)));
    let sink = b.computation(
        FnSpec::compute_only("stage", SimDuration::from_micros(compute_us))
            .with_output_bytes(SHARD_BYTES),
        slice,
    );
    if let Some(x) = input {
        b.reshard_edge(x, sink, SHARD_BYTES);
    }
    Stage {
        prepared: client.prepare(&b.build().expect("a stage program is valid")),
        input,
        sink,
    }
}

pub(crate) fn stage(seed: u64, traced: bool) -> Staged {
    let sim = Sim::new(seed);
    let rt = PathwaysRuntime::new(
        &sim,
        ClusterSpec::islands_of(ISLANDS as u32, HOSTS_PER_ISLAND, DEVICES_PER_HOST),
        NetworkParams::tpu_cluster(),
        PathwaysConfig {
            hbm_per_device: HBM_PER_DEVICE,
            tiers: Some(TierConfig {
                dram_per_host: DRAM_PER_HOST,
                checkpoint_interval: Some(CHECKPOINT_EVERY),
                ..TierConfig::default()
            }),
            ..PathwaysConfig::default()
        },
    );
    let client = rt.client(HostId(0));
    let mut slice_alloc = Cost::default();
    let slices: Vec<VirtualSlice> = (0..ISLANDS)
        .map(|i| {
            slice_alloc
                .charge(traced, || {
                    client
                        .virtual_slice(SliceRequest::devices(SHARDS).in_island(IslandId(i as u32)))
                })
                .expect("each island fits a stage slice")
        })
        .collect();
    let devices: Vec<Arc<[DeviceId]>> =
        slices.iter().map(|s| s.physical_devices().into()).collect();

    // Heads run on island 0; bodies on the island of their stage.
    let mut setup_lower = Cost::default();
    let mut lower = |island: usize, compute_us: u64, head: bool| {
        setup_lower.charge(traced, || {
            prepare_stage(&client, &slices[island], compute_us, head)
        })
    };
    let heads: Vec<Stage> = COMPUTE_US.iter().map(|&c| lower(0, c, true)).collect();
    let bodies: Vec<Vec<Stage>> = (0..ISLANDS)
        .map(|i| COMPUTE_US.iter().map(|&c| lower(i, c, false)).collect())
        .collect();
    let variants = SplitMix::new(seed, 0).shuffled_rounds(
        &(0..COMPUTE_US.len()).collect::<Vec<_>>(),
        CHAINS * STAGES / COMPUTE_US.len(),
    );

    let scheds: Vec<_> = (0..ISLANDS)
        .map(|i| rt.scheduler(IslandId(i as u32)).clone())
        .collect();
    let h = client.handle().clone();
    let job_devices = devices.clone();
    let job = sim.spawn("chain", async move {
        let mut log = ClientLog::new(client.label());
        let mut retained: VecDeque<ObjectRef> = VecDeque::with_capacity(RETAINED + 1);
        let mut open: VecDeque<Vec<Watched>> = VecDeque::with_capacity(CHAINS_IN_FLIGHT);
        let chains: Vec<&[usize]> = variants.chunks(STAGES).collect();
        for c in 0..chains.len() + CHAINS_IN_FLIGHT {
            if c >= CHAINS_IN_FLIGHT {
                let runs = open.pop_front().expect("a full window");
                for (k, (watch, submit, island)) in runs.into_iter().enumerate() {
                    let (result, finish) = watch.await;
                    let record =
                        ProgramRecord::new(1, &job_devices[island], k as u32, submit, finish);
                    log.settle(traced, &scheds[island], result, record).await;
                }
            }
            let Some(chain) = chains.get(c) else { continue };
            // Submit the whole chain before awaiting any of it; a
            // watcher per run stamps its finish time.
            let mut runs = Vec::with_capacity(STAGES);
            let mut prev: Option<ObjectRef> = None;
            for (k, &v) in chain.iter().enumerate() {
                let island = k % ISLANDS;
                let submit = h.now();
                let (run, sink) = match prev.take() {
                    None => (client.submit(&heads[v].prepared).await, heads[v].sink),
                    Some(input) => {
                        let body = &bodies[island][v];
                        let x = body.input.expect("bodies take an input");
                        let run = client
                            .submit_with(&body.prepared, &[(x, input)])
                            .await
                            .expect("the bound output matches the input's sharding");
                        (run, body.sink)
                    }
                };
                prev = run.object_ref(sink);
                let hw = h.clone();
                let watch = h.spawn("chain-run", async move {
                    let result = run.finish().await;
                    (result, hw.now())
                });
                runs.push((watch, submit, island));
            }
            retained.push_back(prev.expect("the chain's tail has a sink"));
            if retained.len() > RETAINED {
                retained.pop_front();
            }
            open.push_back(runs);
        }
        log
    });
    Staged {
        sim,
        rt,
        jobs: vec![job],
        devices: devices.iter().flat_map(|d| d.iter().copied()).collect(),
        setup_lower,
        slice_alloc,
    }
}
