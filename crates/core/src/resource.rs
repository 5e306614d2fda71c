//! The centralized resource manager (§4.1).
//!
//! Owns every device across all islands, hands out *virtual slices*
//! whose virtual devices map 1:1 onto physical devices, and supports
//! dynamic attach/detach of backend resources. The virtual→physical
//! layer of indirection is what lets the single controller remap a
//! client's computation without the client's cooperation: a slice can be
//! remapped and programs simply re-lower.
//!
//! ## Accounting invariant
//!
//! The manager keeps one use-count per physical device — exactly the
//! number of live slices whose current mapping contains it (with
//! multiplicity). Every mapping change moves counts atomically:
//! [`ResourceManager::allocate`] charges, [`ResourceManager::release`]
//! uncharges, and [`ResourceManager::remap`] / [`ResourceManager::heal`]
//! / [`ResourceManager::rebalance`] uncharge the old devices and charge
//! the new ones. Counts live in a ledger that spans *all* devices of the
//! topology, attached or not, so a detach/attach cycle can never reset
//! the load a detached device still carries from live slices. Underflow
//! is a `debug_assert` — drift is caught in tests, never silently
//! saturated away.
//!
//! ## Elasticity
//!
//! [`ResourceManager::heal`] closes the fault loop: given a set of dead
//! devices it remaps every live slice touching them onto spare attached
//! capacity, honoring the slice's original island and contiguity
//! constraints (contiguity is validated against real torus adjacency,
//! not id order). [`ResourceManager::rebalance`] is the churn
//! defragmenter: after attach/detach cycles it re-places slices whose
//! mapping is strictly worse than a fresh placement, compacting load
//! back onto the least-loaded attached devices.

use pathways_sim::Lock;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use pathways_net::{ClientId, DeviceId, IslandId, Topology};

/// Identifier of an allocated virtual slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SliceId(pub u64);

impl fmt::Display for SliceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slice{}", self.0)
    }
}

/// Constraints a client may put on a slice request (§4.1: "virtual
/// slices with specific 2D or 3D mesh shapes ... interconnect topology,
/// memory capacity, etc.").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceRequest {
    /// Number of virtual devices.
    pub devices: u32,
    /// Require all devices in this island (collectives need one island).
    pub island: Option<IslandId>,
    /// Require the devices to form a connected submesh of the torus (a
    /// "mesh shaped" slice rather than scattered devices).
    pub contiguous: bool,
}

impl SliceRequest {
    /// A request for `devices` devices anywhere in one island.
    pub fn devices(devices: u32) -> Self {
        SliceRequest {
            devices,
            island: None,
            contiguous: false,
        }
    }

    /// Pins the request to an island (builder style).
    #[must_use]
    pub fn in_island(mut self, island: IslandId) -> Self {
        self.island = Some(island);
        self
    }

    /// Requires torus-contiguous devices (builder style).
    #[must_use]
    pub fn contiguous(mut self) -> Self {
        self.contiguous = true;
        self
    }
}

/// Errors from slice allocation and healing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResourceError {
    /// No island has enough attached devices.
    InsufficientDevices {
        /// Devices requested.
        requested: u32,
        /// Largest island's attached device count.
        largest_island: u32,
    },
    /// The requested island does not exist, or is excluded from
    /// placement (e.g. its scheduler died). An existing island whose
    /// devices are all detached reports `InsufficientDevices` instead.
    UnknownIsland {
        /// The island asked for.
        island: IslandId,
    },
    /// Enough devices are attached, but no torus-connected window of the
    /// requested size survives the current detach pattern.
    Fragmented {
        /// Devices requested (contiguously).
        requested: u32,
    },
    /// A zero-device slice was requested.
    EmptyRequest,
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::InsufficientDevices {
                requested,
                largest_island,
            } => write!(
                f,
                "requested {requested} devices but the largest island has {largest_island}"
            ),
            ResourceError::UnknownIsland { island } => write!(f, "unknown {island}"),
            ResourceError::Fragmented { requested } => write!(
                f,
                "no torus-connected window of {requested} attached devices (fragmented)"
            ),
            ResourceError::EmptyRequest => write!(f, "slice request for zero devices"),
        }
    }
}

impl std::error::Error for ResourceError {}

/// The shared, remappable state behind a slice: the current physical
/// mapping plus a generation counter bumped on every remap, so lowered
/// programs can detect staleness and re-lower.
#[derive(Debug)]
struct MappingState {
    devices: Vec<DeviceId>,
    generation: u64,
}

/// A slice of virtual devices with their current physical mapping.
///
/// Cloneable; all clones observe remappings (the mapping is shared).
#[derive(Clone)]
pub struct VirtualSlice {
    id: SliceId,
    state: Arc<Lock<MappingState>>,
}

impl fmt::Debug for VirtualSlice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VirtualSlice")
            .field("id", &self.id)
            .field("devices", &self.state.lock().devices.len())
            .field("generation", &self.state.lock().generation)
            .finish()
    }
}

impl VirtualSlice {
    fn new(id: SliceId, devices: Vec<DeviceId>) -> Self {
        VirtualSlice {
            id,
            state: Arc::new(Lock::new(MappingState {
                devices,
                generation: 0,
            })),
        }
    }

    /// The slice id.
    pub fn id(&self) -> SliceId {
        self.id
    }

    /// Number of virtual devices.
    pub fn len(&self) -> usize {
        self.state.lock().devices.len()
    }

    /// True if the slice has no devices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current physical device for each virtual device.
    pub fn physical_devices(&self) -> Vec<DeviceId> {
        self.state.lock().devices.clone()
    }

    /// The mapping generation: starts at 0 and is bumped by every
    /// [`ResourceManager::remap`] / [`ResourceManager::heal`] /
    /// [`ResourceManager::rebalance`] that moves this slice. A program
    /// lowered against generation `g` is stale once the slice's
    /// generation differs — [`Client::submit_with`](crate::Client)
    /// re-lowers automatically.
    pub fn generation(&self) -> u64 {
        self.state.lock().generation
    }

    /// Test-only constructor with a fixed mapping.
    #[doc(hidden)]
    pub fn for_tests(devices: Vec<DeviceId>) -> Self {
        VirtualSlice::new(SliceId(u64::MAX), devices)
    }
}

struct Allocation {
    owner: ClientId,
    request: SliceRequest,
    state: Arc<Lock<MappingState>>,
}

/// Outcome of one [`ResourceManager::try_replace`] transaction.
enum Replace {
    /// The slice was moved onto this new mapping.
    Moved(Vec<DeviceId>),
    /// The candidate placement was declined; the old mapping stands.
    Kept,
    /// No placement was possible; the old mapping stands.
    Failed(ResourceError),
}

/// What healing did to one slice that touched dead hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealEvent {
    /// The affected slice.
    pub slice: SliceId,
    /// Its owning client (to notify for re-lower + resubmit).
    pub owner: ClientId,
    /// The mapping before healing (contains dead devices).
    pub from: Vec<DeviceId>,
    /// The new mapping, or why no placement was possible (the slice
    /// keeps its broken mapping and future submits fail fast).
    pub to: Result<Vec<DeviceId>, ResourceError>,
}

impl HealEvent {
    /// True if the slice was successfully remapped onto live capacity.
    pub fn healed(&self) -> bool {
        self.to.is_ok()
    }
}

/// The global resource manager.
///
/// Alongside the authoritative ledger it maintains three derived
/// indexes so the placement and healing hot paths scale with the blast
/// radius of a change rather than the cluster size:
///
/// * `island_load` — per-island sum of *attached* devices' use-counts,
///   the island ranking key (`place` used to re-sum every island's
///   devices on every allocation);
/// * `by_load` — each island's attached devices ordered by
///   `(use-count, id)`, so least-loaded selection reads the first `w`
///   entries instead of sorting the whole island;
/// * `dev_slices` — which live slices map each device (with
///   multiplicity), so `heal` visits only the slices touching dead
///   hardware instead of filtering every live slice.
///
/// All three are updated at the ledger's single choke points
/// (`charge`/`uncharge`/`detach_device`/`attach_device`), and the
/// `prop_resource` suite checks them against a naive linear-scan model.
///
/// Where several of these locks are held at once they are taken in
/// field order (`attached`, `use_counts`, ..., `dev_slices`); any other
/// order can deadlock on the threaded backend.
pub struct ResourceManager {
    topo: Arc<Topology>,
    /// Attached devices per island (placement candidates).
    attached: Lock<BTreeMap<IslandId, BTreeSet<DeviceId>>>,
    /// Use-count ledger covering every device of the topology, attached
    /// or not: `counts[d]` == live slices currently mapping `d`.
    use_counts: Lock<BTreeMap<DeviceId, u32>>,
    slices: Lock<BTreeMap<SliceId, Allocation>>,
    next_slice: Lock<u64>,
    /// Sum of attached devices' use-counts, per island.
    island_load: Lock<BTreeMap<IslandId, u64>>,
    /// Attached devices of each island in `(use-count, id)` order.
    by_load: Lock<BTreeMap<IslandId, BTreeSet<(u32, DeviceId)>>>,
    /// Live slices mapping each device, with multiplicity (a remap may
    /// map the same physical device more than once).
    dev_slices: Lock<BTreeMap<DeviceId, BTreeMap<SliceId, u32>>>,
}

impl fmt::Debug for ResourceManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResourceManager")
            .field("islands", &self.attached.lock().len())
            .field("live_slices", &self.slices.lock().len())
            .field("total_load", &self.total_load())
            .finish()
    }
}

impl ResourceManager {
    /// Creates a manager with every device of `topo` attached.
    pub fn new(topo: Arc<Topology>) -> Self {
        let mut attached = BTreeMap::new();
        let mut use_counts = BTreeMap::new();
        let mut island_load = BTreeMap::new();
        let mut by_load = BTreeMap::new();
        for island in topo.islands() {
            let devs: BTreeSet<DeviceId> = topo.devices_of_island(island).collect();
            for d in &devs {
                use_counts.insert(*d, 0);
            }
            island_load.insert(island, 0u64);
            by_load.insert(island, devs.iter().map(|d| (0u32, *d)).collect());
            attached.insert(island, devs);
        }
        ResourceManager {
            topo,
            attached: Lock::new(attached),
            use_counts: Lock::new(use_counts),
            slices: Lock::named("core.rm.slices", BTreeMap::new()),
            next_slice: Lock::new(0),
            island_load: Lock::new(island_load),
            by_load: Lock::new(by_load),
            dev_slices: Lock::named("core.rm.slices", BTreeMap::new()),
        }
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// Total attached devices.
    pub fn attached_devices(&self) -> u32 {
        self.attached.lock().values().map(|m| m.len() as u32).sum()
    }

    /// True if `device` is currently attached (a placement candidate).
    pub fn is_attached(&self, device: DeviceId) -> bool {
        let island = self.topo.island_of_device(device);
        self.attached
            .lock()
            .get(&island)
            .is_some_and(|m| m.contains(&device))
    }

    /// Detaches a device (maintenance or death); existing slices keep
    /// their mapping (and the device keeps the use-count they charge)
    /// until they are remapped or released — see
    /// [`ResourceManager::heal`] / [`ResourceManager::rebalance`] for
    /// moving them off.
    pub fn detach_device(&self, device: DeviceId) {
        let island = self.topo.island_of_device(device);
        if let Some(m) = self.attached.lock().get_mut(&island) {
            if m.remove(&device) {
                let count = self.use_counts.lock()[&device];
                *self
                    .island_load
                    .lock()
                    .get_mut(&island)
                    .expect("island indexed") -= u64::from(count);
                self.by_load
                    .lock()
                    .get_mut(&island)
                    .expect("island indexed")
                    .remove(&(count, device));
            }
        }
    }

    /// Re-attaches a device. The device re-enters placement with the
    /// use-count it still carries from live slices (counts are never
    /// reset by detach/attach cycles).
    ///
    /// # Panics
    ///
    /// Panics if `device` is not part of the topology.
    pub fn attach_device(&self, device: DeviceId) {
        let island = self.topo.island_of_device(device);
        if self
            .attached
            .lock()
            .entry(island)
            .or_default()
            .insert(device)
        {
            let count = self.use_counts.lock()[&device];
            *self.island_load.lock().entry(island).or_insert(0) += u64::from(count);
            self.by_load
                .lock()
                .entry(island)
                .or_default()
                .insert((count, device));
        }
    }

    /// Allocates a virtual slice for `client`.
    ///
    /// The placement heuristic is the paper's "simple heuristic that
    /// attempts to statically balance load by spreading computations
    /// across all available devices": devices with the lowest use-count
    /// are preferred, and islands are tried from least-loaded to
    /// most-loaded. Virtual devices map 1:1 onto physical devices.
    /// Contiguous requests only accept windows that form a connected
    /// submesh of the island's torus — after a detach, an id-consecutive
    /// window can span a torus gap and is skipped.
    ///
    /// # Errors
    ///
    /// See [`ResourceError`].
    pub fn allocate(
        &self,
        client: ClientId,
        request: SliceRequest,
    ) -> Result<VirtualSlice, ResourceError> {
        let chosen = {
            let attached = self.attached.lock();
            let counts = self.use_counts.lock();
            self.place(&request, &attached, &counts, &[])?
        };
        let id = {
            let mut next = self.next_slice.lock();
            let id = SliceId(*next);
            *next += 1;
            id
        };
        self.charge(id, &chosen);
        let slice = VirtualSlice::new(id, chosen);
        self.slices.lock().insert(
            id,
            Allocation {
                owner: client,
                request,
                state: Arc::clone(&slice.state),
            },
        );
        Ok(slice)
    }

    /// Releases a slice, decrementing device use-counts.
    pub fn release(&self, slice: &VirtualSlice) {
        self.release_id(slice.id());
    }

    fn release_id(&self, id: SliceId) {
        if let Some(alloc) = self.slices.lock().remove(&id) {
            let devices = alloc.state.lock().devices.clone();
            self.uncharge(id, &devices);
        }
    }

    /// Releases every slice owned by `client` (used when a client fails).
    pub fn release_client(&self, client: ClientId) {
        let ids: Vec<SliceId> = self
            .slices
            .lock()
            .iter()
            .filter(|(_, a)| a.owner == client)
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            self.release_id(id);
        }
    }

    /// Remaps a slice's virtual devices onto new physical devices (the
    /// suspend/resume and migration hook enabled by the virtual-device
    /// indirection). Existing clones of the slice observe the change;
    /// programs lowered against the old mapping become stale (the
    /// generation bumps) and re-lower on their next submit.
    ///
    /// Use-counts move with the mapping: the old devices are uncharged
    /// and the new ones charged.
    ///
    /// # Panics
    ///
    /// Panics if the new mapping's length differs from the slice size.
    pub fn remap(&self, slice: &VirtualSlice, new_devices: Vec<DeviceId>) {
        assert_eq!(
            new_devices.len(),
            slice.len(),
            "remap must preserve slice size"
        );
        // Only live (tracked) slices are charged in the ledger; test
        // slices built with `for_tests` are not.
        if self.slices.lock().contains_key(&slice.id()) {
            let old = slice.state.lock().devices.clone();
            self.uncharge(slice.id(), &old);
            self.adopt_mapping(slice.id(), &slice.state, new_devices);
        } else {
            Self::set_mapping(&slice.state, new_devices);
        }
    }

    /// Installs `new` as a tracked slice's mapping: charges the new
    /// devices (the caller has already uncharged the old mapping) and
    /// bumps the generation so lowered programs go stale. The single
    /// place where a mapping change and the ledger meet — `remap`,
    /// `heal` and `rebalance` all move slices through here.
    fn adopt_mapping(&self, id: SliceId, state: &Arc<Lock<MappingState>>, new: Vec<DeviceId>) {
        self.charge(id, &new);
        Self::set_mapping(state, new);
    }

    fn set_mapping(state: &Arc<Lock<MappingState>>, new: Vec<DeviceId>) {
        let mut st = state.lock();
        st.devices = new;
        st.generation += 1;
    }

    /// One ledger-safe re-placement transaction, shared by `heal` and
    /// `rebalance`: uncharges the slice (so its own load does not skew
    /// placement), places `request` against the remaining load, and
    /// either adopts the new mapping (when `accept` approves it) or
    /// recharges the old one. The uncharge/recharge pairing lives only
    /// here — the ledger is exact on every exit path.
    ///
    /// `accept` sees the old mapping, the candidate, and the use-counts
    /// *with this slice's own charge removed*.
    fn try_replace(
        &self,
        id: SliceId,
        state: &Arc<Lock<MappingState>>,
        request: &SliceRequest,
        excluded_islands: &[IslandId],
        accept: impl FnOnce(&[DeviceId], &[DeviceId], &BTreeMap<DeviceId, u32>) -> bool,
    ) -> Replace {
        let from = state.lock().devices.clone();
        self.uncharge(id, &from);
        let placed = {
            let attached = self.attached.lock();
            let counts = self.use_counts.lock();
            self.place(request, &attached, &counts, excluded_islands)
        };
        match placed {
            Ok(to) => {
                let accepted = {
                    let counts = self.use_counts.lock();
                    accept(&from, &to, &counts)
                };
                if accepted {
                    self.adopt_mapping(id, state, to.clone());
                    Replace::Moved(to)
                } else {
                    self.charge(id, &from);
                    Replace::Kept
                }
            }
            Err(e) => {
                self.charge(id, &from);
                Replace::Failed(e)
            }
        }
    }

    /// Remaps every live slice that touches any of `dead` onto spare
    /// attached capacity (the dead devices are detached first), honoring
    /// each slice's original island and contiguity constraints. Islands
    /// in `excluded_islands` are never chosen as a new home (the fault
    /// injector passes islands whose scheduler died).
    ///
    /// Slices are healed in id order (deterministic). A slice that
    /// cannot be placed keeps its broken mapping — future submits on it
    /// fail fast with a typed error — and its [`HealEvent::to`] carries
    /// the placement error. Either way, accounting stays exact: a healed
    /// slice's counts move to its new devices; an unhealable slice keeps
    /// charging its old ones until released.
    pub fn heal(&self, dead: &[DeviceId], excluded_islands: &[IslandId]) -> Vec<HealEvent> {
        for d in dead {
            self.detach_device(*d);
        }
        // Blast radius only: the reverse index names the slices touching
        // dead hardware; no scan over the live-slice table. The BTreeSet
        // union preserves heal's deterministic id order.
        let victims: Vec<SliceId> = {
            let dev_slices = self.dev_slices.lock();
            let mut ids = BTreeSet::new();
            for d in dead {
                if let Some(owners) = dev_slices.get(d) {
                    ids.extend(owners.keys().copied());
                }
            }
            ids.into_iter().collect()
        };
        let mut events = Vec::new();
        for id in victims {
            let found = self
                .slices
                .lock()
                .get(&id)
                .map(|a| (a.owner, a.request, Arc::clone(&a.state)));
            // On the threaded backend the owner may release the slice
            // after the snapshot above; a released slice needs no heal.
            let Some((owner, request, state)) = found else {
                continue;
            };
            let from = state.lock().devices.clone();
            let to = match self.try_replace(id, &state, &request, excluded_islands, |_, _, _| true)
            {
                Replace::Moved(to) => Ok(to),
                Replace::Failed(e) => Err(e),
                Replace::Kept => unreachable!("heal accepts every successful placement"),
            };
            events.push(HealEvent {
                slice: id,
                owner,
                from,
                to,
            });
        }
        events
    }

    /// Churn defragmenter: re-places each live slice (in id order) and
    /// adopts the fresh placement when it is strictly less loaded than
    /// the current one, or when the current mapping uses detached
    /// devices and an equally-loaded attached placement exists. Returns
    /// the number of slices moved.
    ///
    /// Call at a safe point (between runs): moved slices bump their
    /// generation, so affected programs re-lower on their next submit.
    pub fn rebalance(&self) -> usize {
        let ids: Vec<SliceId> = self.slices.lock().keys().copied().collect();
        let mut moved = 0;
        for id in ids {
            let (request, state) = {
                let slices = self.slices.lock();
                let a = &slices[&id];
                (a.request, Arc::clone(&a.state))
            };
            let outcome = self.try_replace(id, &state, &request, &[], |from, to, counts| {
                if Self::same_devices(to, from) {
                    return false;
                }
                let cur: u64 = from.iter().map(|d| u64::from(counts[d])).sum();
                let new: u64 = to.iter().map(|d| u64::from(counts[d])).sum();
                let off_detached = from.iter().any(|d| !self.is_attached(*d));
                new < cur || (off_detached && new <= cur)
            });
            if matches!(outcome, Replace::Moved(_)) {
                moved += 1;
            }
        }
        moved
    }

    fn same_devices(a: &[DeviceId], b: &[DeviceId]) -> bool {
        let mut a: Vec<DeviceId> = a.to_vec();
        let mut b: Vec<DeviceId> = b.to_vec();
        a.sort();
        b.sort();
        a == b
    }

    /// Current use-count of a device (how many live slices map to it,
    /// whether or not the device is attached).
    pub fn device_load(&self, device: DeviceId) -> u32 {
        self.use_counts.lock().get(&device).copied().unwrap_or(0)
    }

    /// Sum of all device use-counts. Zero exactly when no live slice
    /// exists — the drain invariant chaos tests assert.
    pub fn total_load(&self) -> u64 {
        self.use_counts.lock().values().map(|c| u64::from(*c)).sum()
    }

    /// Number of live (unreleased) slices.
    pub fn live_slice_count(&self) -> usize {
        self.slices.lock().len()
    }

    /// Asserts that every incremental index (`island_load`, `by_load`,
    /// `dev_slices`) agrees with a naive linear-scan recomputation from
    /// the ground-truth ledger and live slices. Test-only hook for the
    /// resource-manager property tests; panics on any drift.
    #[doc(hidden)]
    pub fn assert_indexes_consistent(&self) {
        let attached = self.attached.lock();
        let counts = self.use_counts.lock();
        let slices = self.slices.lock();

        // island_load / by_load: recompute from attached devices' counts.
        for (island, devs) in attached.iter() {
            let want_load: u64 = devs.iter().map(|d| u64::from(counts[d])).sum();
            let got_load = self.island_load.lock().get(island).copied().unwrap_or(0);
            assert_eq!(got_load, want_load, "island_load drift on {island}");
            let want_order: BTreeSet<(u32, DeviceId)> =
                devs.iter().map(|d| (counts[d], *d)).collect();
            let got_order = self.by_load.lock().get(island).cloned().unwrap_or_default();
            assert_eq!(got_order, want_order, "by_load drift on {island}");
        }

        // dev_slices: recompute device -> slice multiplicities from the
        // live slices' current mappings.
        let mut want: BTreeMap<DeviceId, BTreeMap<SliceId, u32>> = BTreeMap::new();
        for (id, alloc) in slices.iter() {
            for d in &alloc.state.lock().devices {
                *want.entry(*d).or_default().entry(*id).or_insert(0) += 1;
            }
        }
        assert_eq!(
            *self.dev_slices.lock(),
            want,
            "dev_slices reverse index drift"
        );
    }

    fn charge(&self, slice: SliceId, devs: &[DeviceId]) {
        let attached = self.attached.lock();
        let mut counts = self.use_counts.lock();
        let mut island_load = self.island_load.lock();
        let mut by_load = self.by_load.lock();
        let mut dev_slices = self.dev_slices.lock();
        for d in devs {
            let c = counts.get_mut(d).expect("device is in the topology");
            let old = *c;
            *c += 1;
            *dev_slices.entry(*d).or_default().entry(slice).or_insert(0) += 1;
            let island = self.topo.island_of_device(*d);
            if attached.get(&island).is_some_and(|m| m.contains(d)) {
                *island_load.get_mut(&island).expect("island indexed") += 1;
                let order = by_load.get_mut(&island).expect("island indexed");
                order.remove(&(old, *d));
                order.insert((old + 1, *d));
            }
        }
    }

    fn uncharge(&self, slice: SliceId, devs: &[DeviceId]) {
        let attached = self.attached.lock();
        let mut counts = self.use_counts.lock();
        let mut island_load = self.island_load.lock();
        let mut by_load = self.by_load.lock();
        let mut dev_slices = self.dev_slices.lock();
        for d in devs {
            let c = counts.get_mut(d).expect("device is in the topology");
            // A hard invariant in every profile: saturating here would
            // mask accounting drift in release builds and let by_load /
            // island_load diverge from the true ledger.
            assert!(*c > 0, "use-count underflow on {d}: accounting drift");
            let old = *c;
            *c -= 1;
            if let Some(owners) = dev_slices.get_mut(d) {
                if let Some(mult) = owners.get_mut(&slice) {
                    *mult -= 1;
                    if *mult == 0 {
                        owners.remove(&slice);
                    }
                }
                if owners.is_empty() {
                    dev_slices.remove(d);
                }
            }
            let island = self.topo.island_of_device(*d);
            if attached.get(&island).is_some_and(|m| m.contains(d)) {
                *island_load.get_mut(&island).expect("island indexed") -= 1;
                let order = by_load.get_mut(&island).expect("island indexed");
                order.remove(&(old, *d));
                order.insert((old - 1, *d));
            }
        }
    }

    /// Pure placement: picks devices for `request` against the given
    /// attach/ledger snapshot, without mutating anything.
    fn place(
        &self,
        request: &SliceRequest,
        attached: &BTreeMap<IslandId, BTreeSet<DeviceId>>,
        counts: &BTreeMap<DeviceId, u32>,
        excluded_islands: &[IslandId],
    ) -> Result<Vec<DeviceId>, ResourceError> {
        if request.devices == 0 {
            return Err(ResourceError::EmptyRequest);
        }
        let candidates: Vec<IslandId> = match request.island {
            Some(i) => {
                if !attached.contains_key(&i) || excluded_islands.contains(&i) {
                    return Err(ResourceError::UnknownIsland { island: i });
                }
                vec![i]
            }
            None => attached
                .keys()
                .copied()
                .filter(|i| !excluded_islands.contains(i))
                .collect(),
        };
        // Islands with enough attached devices, least-loaded first (ties
        // broken by id for determinism). Loads come from the maintained
        // per-island index — O(candidates), not O(devices).
        let mut ranked: Vec<(u64, IslandId)> = {
            let island_load = self.island_load.lock();
            candidates
                .into_iter()
                .filter(|i| attached[i].len() as u32 >= request.devices)
                .map(|i| (island_load.get(&i).copied().unwrap_or(0), i))
                .collect()
        };
        ranked.sort();
        if ranked.is_empty() {
            let largest = attached.values().map(|m| m.len() as u32).max().unwrap_or(0);
            return Err(ResourceError::InsufficientDevices {
                requested: request.devices,
                largest_island: largest,
            });
        }
        for (_, island) in &ranked {
            if let Some(devs) = self.place_in_island(request, *island, &attached[island], counts) {
                return Ok(devs);
            }
        }
        // Capacity exists but no valid (torus-connected) window does.
        Err(ResourceError::Fragmented {
            requested: request.devices,
        })
    }

    fn place_in_island(
        &self,
        request: &SliceRequest,
        island: IslandId,
        devs: &BTreeSet<DeviceId>,
        counts: &BTreeMap<DeviceId, u32>,
    ) -> Option<Vec<DeviceId>> {
        let w = request.devices as usize;
        if request.contiguous {
            // Windows over the attached ids in torus order, keeping only
            // those that are a connected submesh of the real torus, then
            // the one with the lowest aggregate load (ties: lowest
            // start, for determinism). Window loads are prefix-sum
            // differences — O(n) total instead of O(n·w) re-summing.
            let ids: Vec<DeviceId> = devs.iter().copied().collect();
            let mut prefix = Vec::with_capacity(ids.len() + 1);
            let mut sum = 0u64;
            prefix.push(sum);
            for d in &ids {
                sum += u64::from(counts[d]);
                prefix.push(sum);
            }
            let mut best: Option<(u64, usize)> = None;
            for start in 0..=(ids.len() - w) {
                let win = &ids[start..start + w];
                if !self.topo.is_connected_submesh(win) {
                    continue;
                }
                let load = prefix[start + w] - prefix[start];
                if best.is_none_or(|(bl, _)| load < bl) {
                    best = Some((load, start));
                }
            }
            best.map(|(_, start)| ids[start..start + w].to_vec())
        } else {
            // Least-used devices first; ties broken by id — read
            // straight off the maintained `(use-count, id)` order, no
            // per-allocation sort.
            let by_load = self.by_load.lock();
            let order = by_load.get(&island).expect("island indexed");
            debug_assert_eq!(order.len(), devs.len(), "by_load index drift");
            Some(order.iter().take(w).map(|(_, d)| *d).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathways_net::ClusterSpec;

    fn rm(spec: ClusterSpec) -> ResourceManager {
        ResourceManager::new(Arc::new(spec.build()))
    }

    #[test]
    fn allocates_least_loaded_devices() {
        let rm = rm(ClusterSpec::config_b(2)); // 16 devices
        let c = ClientId(0);
        let s1 = rm.allocate(c, SliceRequest::devices(8)).unwrap();
        let s2 = rm.allocate(c, SliceRequest::devices(8)).unwrap();
        // The two slices should not overlap: load balancing spreads them.
        let d1 = s1.physical_devices();
        let d2 = s2.physical_devices();
        assert!(d1.iter().all(|d| !d2.contains(d)));
    }

    #[test]
    fn oversubscription_shares_devices() {
        let rm = rm(ClusterSpec::config_b(1)); // 8 devices
        let c = ClientId(0);
        let s1 = rm.allocate(c, SliceRequest::devices(8)).unwrap();
        let s2 = rm.allocate(c, SliceRequest::devices(8)).unwrap();
        // Time-multiplexing: both slices cover the same 8 devices.
        assert_eq!(s1.physical_devices(), s2.physical_devices());
        assert_eq!(rm.device_load(DeviceId(0)), 2);
    }

    #[test]
    #[should_panic(expected = "use-count underflow")]
    fn uncharge_underflow_is_a_hard_invariant_in_release() {
        let rm = rm(ClusterSpec::config_b(1));
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(2)).unwrap();
        let devs = s.physical_devices();
        rm.uncharge(s.id(), &devs);
        // The ledger is at zero for these devices; a second uncharge
        // must abort in every build profile (this suite runs in release
        // on CI) rather than saturate and silently drift by_load.
        rm.uncharge(s.id(), &devs);
    }

    #[test]
    fn island_constraint_is_respected() {
        let rm = rm(ClusterSpec::config_c());
        let c = ClientId(0);
        let s = rm
            .allocate(c, SliceRequest::devices(32).in_island(IslandId(2)))
            .unwrap();
        for d in s.physical_devices() {
            assert_eq!(rm.topology().island_of_device(d), IslandId(2));
        }
    }

    #[test]
    fn slice_never_spans_islands() {
        let rm = rm(ClusterSpec::config_c()); // 4 islands x 32
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(32)).unwrap();
        let islands: std::collections::BTreeSet<_> = s
            .physical_devices()
            .iter()
            .map(|d| rm.topology().island_of_device(*d))
            .collect();
        assert_eq!(islands.len(), 1);
        // Bigger than any island: refused.
        assert!(matches!(
            rm.allocate(c, SliceRequest::devices(33)),
            Err(ResourceError::InsufficientDevices { .. })
        ));
    }

    #[test]
    fn contiguous_slices_are_torus_windows() {
        let rm = rm(ClusterSpec::config_b(4)); // 32 devices
        let c = ClientId(0);
        let s = rm
            .allocate(c, SliceRequest::devices(4).contiguous())
            .unwrap();
        let devs = s.physical_devices();
        for w in devs.windows(2) {
            assert_eq!(w[1].0, w[0].0 + 1, "not contiguous: {devs:?}");
        }
        assert!(rm.topology().is_connected_submesh(&devs));
    }

    #[test]
    fn contiguous_skips_windows_spanning_detach_gaps() {
        // 4x8 torus. Detaching device 1 leaves [0, 2, 3, 4, ...]: the
        // id-window {0, 2, 3, 4} is NOT a connected submesh (0 = (0,0)
        // and 2 = (0,2) are two hops apart), so the allocator must skip
        // it rather than hand out a slice with a torus gap.
        let rm = rm(ClusterSpec::config_b(4));
        rm.detach_device(DeviceId(1));
        let c = ClientId(0);
        let s = rm
            .allocate(c, SliceRequest::devices(4).contiguous())
            .unwrap();
        let devs = s.physical_devices();
        assert!(
            rm.topology().is_connected_submesh(&devs),
            "allocator returned a disconnected 'contiguous' slice: {devs:?}"
        );
        assert!(!devs.contains(&DeviceId(1)));
    }

    #[test]
    fn contiguous_reports_fragmentation() {
        // 2x4 torus (8 devices). Detach every other device: plenty of
        // capacity for 2, but no two attached devices are adjacent.
        let rm = rm(ClusterSpec::config_b(1));
        for d in [1u32, 3, 4, 6] {
            rm.detach_device(DeviceId(d));
        }
        // Attached: {0, 2, 5, 7}. 0=(0,0), 2=(0,2), 5=(1,1), 7=(1,3):
        // pairwise non-adjacent.
        let err = rm
            .allocate(ClientId(0), SliceRequest::devices(2).contiguous())
            .unwrap_err();
        assert_eq!(err, ResourceError::Fragmented { requested: 2 });
        // Non-contiguous requests still succeed on the scattered devices.
        assert!(rm.allocate(ClientId(0), SliceRequest::devices(2)).is_ok());
    }

    #[test]
    fn release_returns_capacity() {
        let rm = rm(ClusterSpec::config_b(1));
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(8)).unwrap();
        assert_eq!(rm.device_load(DeviceId(0)), 1);
        rm.release(&s);
        assert_eq!(rm.device_load(DeviceId(0)), 0);
        assert_eq!(rm.total_load(), 0);
    }

    #[test]
    fn release_client_frees_everything() {
        let rm = rm(ClusterSpec::config_b(1));
        let c0 = ClientId(0);
        let c1 = ClientId(1);
        let _s0 = rm.allocate(c0, SliceRequest::devices(4)).unwrap();
        let _s1 = rm.allocate(c0, SliceRequest::devices(4)).unwrap();
        let _s2 = rm.allocate(c1, SliceRequest::devices(4)).unwrap();
        rm.release_client(c0);
        let total_load: u32 = (0..8).map(|d| rm.device_load(DeviceId(d))).sum();
        assert_eq!(total_load, 4); // only c1's slice remains
    }

    #[test]
    fn remap_is_visible_through_clones() {
        let rm = rm(ClusterSpec::config_b(2));
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(2)).unwrap();
        let clone = s.clone();
        assert_eq!(clone.generation(), 0);
        let new = vec![DeviceId(14), DeviceId(15)];
        rm.remap(&s, new.clone());
        assert_eq!(clone.physical_devices(), new);
        assert_eq!(clone.generation(), 1);
    }

    #[test]
    fn remap_moves_use_counts() {
        let rm = rm(ClusterSpec::config_b(2)); // 16 devices
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(2)).unwrap();
        let old = s.physical_devices();
        assert_eq!(old, vec![DeviceId(0), DeviceId(1)]);
        rm.remap(&s, vec![DeviceId(14), DeviceId(15)]);
        // Old devices are no longer charged; new devices are.
        assert_eq!(rm.device_load(DeviceId(0)), 0);
        assert_eq!(rm.device_load(DeviceId(1)), 0);
        assert_eq!(rm.device_load(DeviceId(14)), 1);
        assert_eq!(rm.device_load(DeviceId(15)), 1);
        // A fresh allocation prefers the now-idle original devices.
        let s2 = rm.allocate(c, SliceRequest::devices(2)).unwrap();
        assert_eq!(s2.physical_devices(), vec![DeviceId(0), DeviceId(1)]);
        // Release decrements the *post-remap* devices, exactly once.
        rm.release(&s);
        rm.release(&s2);
        assert_eq!(rm.total_load(), 0);
    }

    #[test]
    fn detach_attach_preserves_use_counts() {
        let rm = rm(ClusterSpec::config_b(1));
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(8)).unwrap();
        rm.detach_device(DeviceId(0));
        assert_eq!(rm.device_load(DeviceId(0)), 1, "count survives detach");
        rm.attach_device(DeviceId(0));
        assert_eq!(rm.device_load(DeviceId(0)), 1, "count survives re-attach");
        rm.release(&s);
        assert_eq!(rm.device_load(DeviceId(0)), 0, "no underflow, no drift");
        assert_eq!(rm.total_load(), 0);
    }

    #[test]
    fn detach_prevents_new_allocations_on_device() {
        let rm = rm(ClusterSpec::config_b(1)); // 8 devices
        for d in 0..4 {
            rm.detach_device(DeviceId(d));
        }
        assert_eq!(rm.attached_devices(), 4);
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(4)).unwrap();
        assert!(s.physical_devices().iter().all(|d| d.0 >= 4));
        assert!(rm.allocate(c, SliceRequest::devices(5)).is_err());
        rm.attach_device(DeviceId(0));
        assert!(rm.allocate(c, SliceRequest::devices(5)).is_ok());
    }

    #[test]
    fn heal_remaps_off_dead_devices() {
        let rm = rm(ClusterSpec::config_b(1)); // 8 devices, one island
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(4)).unwrap();
        assert_eq!(
            s.physical_devices(),
            vec![DeviceId(0), DeviceId(1), DeviceId(2), DeviceId(3)]
        );
        let events = rm.heal(&[DeviceId(2)], &[]);
        assert_eq!(events.len(), 1);
        assert!(events[0].healed());
        assert_eq!(events[0].slice, s.id());
        let new = s.physical_devices();
        assert!(!new.contains(&DeviceId(2)), "dead device still mapped");
        assert_eq!(new.len(), 4);
        assert_eq!(s.generation(), 1);
        // Accounting: dead device uncharged, new devices charged once.
        assert_eq!(rm.device_load(DeviceId(2)), 0);
        for d in &new {
            assert_eq!(rm.device_load(*d), 1);
        }
        rm.release(&s);
        assert_eq!(rm.total_load(), 0);
    }

    #[test]
    fn heal_honors_contiguity() {
        let rm = rm(ClusterSpec::config_b(4)); // 4x8 torus
        let c = ClientId(0);
        let s = rm
            .allocate(c, SliceRequest::devices(4).contiguous())
            .unwrap();
        let events = rm.heal(&[s.physical_devices()[1]], &[]);
        assert!(events[0].healed());
        assert!(
            rm.topology().is_connected_submesh(&s.physical_devices()),
            "healed mapping must stay a connected submesh"
        );
        rm.release(&s);
        assert_eq!(rm.total_load(), 0);
    }

    #[test]
    fn heal_unplaceable_keeps_charge_and_reports_error() {
        let rm = rm(ClusterSpec::config_b(1)); // 8 devices, one island
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(8)).unwrap();
        // Killing one device leaves only 7 attached: an 8-wide slice
        // cannot be healed in place.
        let events = rm.heal(&[DeviceId(5)], &[]);
        assert_eq!(events.len(), 1);
        assert!(!events[0].healed());
        assert!(matches!(
            events[0].to,
            Err(ResourceError::InsufficientDevices { .. })
        ));
        // The broken mapping still charges its devices (no leak, no
        // double-free on release).
        assert_eq!(rm.device_load(DeviceId(5)), 1);
        rm.release(&s);
        assert_eq!(rm.total_load(), 0);
    }

    #[test]
    fn heal_respects_excluded_islands() {
        let rm = rm(ClusterSpec::islands_of(2, 1, 8));
        let c = ClientId(0);
        let s = rm
            .allocate(c, SliceRequest::devices(8).in_island(IslandId(0)))
            .unwrap();
        // Island 0 cannot re-fit the slice once a device dies; the
        // request is pinned there and island 1 is excluded anyway.
        let events = rm.heal(&[DeviceId(0)], &[IslandId(0)]);
        assert!(!events[0].healed());
        assert_eq!(
            events[0].to,
            Err(ResourceError::UnknownIsland {
                island: IslandId(0)
            })
        );
        // An unpinned slice moves to the other island instead.
        let s2 = rm.allocate(c, SliceRequest::devices(4)).unwrap();
        let first = s2.physical_devices();
        let dead = first[0];
        let events = rm.heal(&[dead], &[rm.topology().island_of_device(dead)]);
        let healed_ev = events.iter().find(|e| e.slice == s2.id()).unwrap();
        assert!(healed_ev.healed());
        let other = rm.topology().island_of_device(s2.physical_devices()[0]);
        assert_ne!(other, rm.topology().island_of_device(dead));
        rm.release(&s);
        rm.release(&s2);
        assert_eq!(rm.total_load(), 0);
    }

    #[test]
    fn rebalance_compacts_after_churn() {
        let rm = rm(ClusterSpec::config_b(1)); // 8 devices
        let c = ClientId(0);
        // Detach half the island, forcing both slices onto devices 4-7.
        for d in 0..4 {
            rm.detach_device(DeviceId(d));
        }
        let s1 = rm.allocate(c, SliceRequest::devices(4)).unwrap();
        let s2 = rm.allocate(c, SliceRequest::devices(4)).unwrap();
        assert_eq!(rm.device_load(DeviceId(4)), 2);
        // Capacity returns; rebalance spreads the load back out.
        for d in 0..4 {
            rm.attach_device(DeviceId(d));
        }
        let moved = rm.rebalance();
        assert_eq!(moved, 1, "exactly one slice needs to move");
        let max_load = (0..8).map(|d| rm.device_load(DeviceId(d))).max().unwrap();
        assert_eq!(max_load, 1, "load is compacted to one slice per device");
        rm.release(&s1);
        rm.release(&s2);
        assert_eq!(rm.total_load(), 0);
    }

    #[test]
    fn rebalance_moves_slices_off_detached_devices() {
        let rm = rm(ClusterSpec::config_b(1));
        let c = ClientId(0);
        let s = rm.allocate(c, SliceRequest::devices(2)).unwrap();
        assert_eq!(s.physical_devices(), vec![DeviceId(0), DeviceId(1)]);
        // Maintenance detach without a fault: heal is not involved, but
        // rebalance migrates the slice onto attached capacity.
        rm.detach_device(DeviceId(0));
        let moved = rm.rebalance();
        assert_eq!(moved, 1);
        assert!(!s.physical_devices().contains(&DeviceId(0)));
        assert_eq!(rm.device_load(DeviceId(0)), 0);
        rm.release(&s);
        assert_eq!(rm.total_load(), 0);
    }

    #[test]
    fn rebalance_is_stable_when_balanced() {
        let rm = rm(ClusterSpec::config_b(2));
        let c = ClientId(0);
        let s1 = rm.allocate(c, SliceRequest::devices(8)).unwrap();
        let s2 = rm.allocate(c, SliceRequest::devices(8)).unwrap();
        assert_eq!(rm.rebalance(), 0, "balanced layout must not churn");
        assert_eq!(s1.generation(), 0);
        assert_eq!(s2.generation(), 0);
    }

    #[test]
    fn zero_device_request_rejected() {
        let rm = rm(ClusterSpec::config_b(1));
        assert!(matches!(
            rm.allocate(ClientId(0), SliceRequest::devices(0)),
            Err(ResourceError::EmptyRequest)
        ));
    }
}
