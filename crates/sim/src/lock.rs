//! Interior mutability for runtime state, on both executor backends.
//!
//! [`Lock`] is the workspace's one sanctioned interior-mutability
//! primitive outside the executor itself (the pathlint `raw-thread`
//! rule bans direct `std::sync::Mutex`/`RwLock`/`Condvar` elsewhere).
//! It is a mutex with two additions tuned for this codebase:
//!
//! * **Re-entrancy detection.** The deterministic backend runs every
//!   task on one thread, where a re-entrant `lock()` would silently
//!   deadlock (the `RefCell` it replaced would have panicked). `Lock`
//!   tracks the owning thread and panics with the lock's name instead
//!   of deadlocking, preserving the fail-fast behavior golden tests
//!   rely on.
//! * **Contention profiling.** Locks created with [`Lock::named`]
//!   share one counter record per name in a process-wide table (so
//!   the table is bounded by the number of distinct names, however
//!   many runtimes are built); every acquisition and every contended
//!   acquisition (the fast-path `try_lock` lost) is counted.
//!   [`contention_profile`] snapshots the table — this is what
//!   `fig_dispatch`'s lock-contention profile reports.
//!
//! Counting is skipped entirely for anonymous locks, so fine-grained
//! per-object state pays only the owner-tracking store.

use std::collections::BTreeMap;
use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, MutexGuard};

/// Monotonic per-thread id used for re-entrancy detection (0 = no owner).
fn current_thread_token() -> u64 {
    use std::cell::Cell;
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: Cell<u64> = const { Cell::new(0) };
    }
    TOKEN.with(|t| {
        let mut v = t.get();
        if v == 0 {
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            t.set(v);
        }
        v
    })
}

/// Acquisition counters shared by every [`Lock`] created under one
/// name.
#[derive(Debug)]
pub struct LockStats {
    name: &'static str,
    acquires: AtomicU64,
    contended: AtomicU64,
}

/// Process-wide registry of named-lock stats: one entry per name.
fn registry() -> &'static Mutex<BTreeMap<&'static str, Arc<LockStats>>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, Arc<LockStats>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// One row of [`contention_profile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockProfile {
    /// The name given to [`Lock::named`].
    pub name: String,
    /// Total acquisitions since the last [`reset_contention_profile`].
    pub acquires: u64,
    /// Acquisitions that lost the uncontended fast path and blocked.
    pub contended: u64,
}

/// Snapshot of every named lock's counters, aggregated by name and
/// sorted by contended count (most contended first).
pub fn contention_profile() -> Vec<LockProfile> {
    let mut out: Vec<LockProfile> = registry()
        .lock()
        .values()
        .map(|s| LockProfile {
            name: s.name.to_string(),
            acquires: s.acquires.load(Ordering::Relaxed),
            contended: s.contended.load(Ordering::Relaxed),
        })
        .collect();
    out.sort_by(|a, b| b.contended.cmp(&a.contended).then(a.name.cmp(&b.name)));
    out
}

/// Zeroes every named lock's counters (the locks stay registered).
pub fn reset_contention_profile() {
    for s in registry().lock().values() {
        s.acquires.store(0, Ordering::Relaxed);
        s.contended.store(0, Ordering::Relaxed);
    }
}

/// A mutex with re-entrancy detection and optional contention counting.
///
/// Replaces the `RefCell`s the runtime used when it was single-threaded
/// only: semantics under the deterministic backend are identical
/// (including panicking on re-entrant acquisition, where a plain mutex
/// would deadlock), and under the threaded backend it is an ordinary
/// blocking mutex.
#[derive(Default)]
pub struct Lock<T: ?Sized> {
    stats: Option<Arc<LockStats>>,
    /// Thread token of the current owner (0 when unlocked). Written
    /// only by the owner, read by would-be acquirers for re-entrancy
    /// diagnosis.
    owner: AtomicU64,
    inner: Mutex<T>,
}

impl<T> Lock<T> {
    /// Creates an anonymous lock (no contention counting).
    pub fn new(value: T) -> Self {
        Lock {
            stats: None,
            owner: AtomicU64::new(0),
            inner: Mutex::new(value),
        }
    }

    /// Creates a named lock registered in the contention profile.
    ///
    /// Use for the runtime's shared hot structures (store, scheduler
    /// state, fabric) so `fig_dispatch` can report where the threaded
    /// backend contends.
    pub fn named(name: &'static str, value: T) -> Self {
        let stats = Arc::clone(registry().lock().entry(name).or_insert_with(|| {
            Arc::new(LockStats {
                name,
                acquires: AtomicU64::new(0),
                contended: AtomicU64::new(0),
            })
        }));
        Lock {
            stats: Some(stats),
            owner: AtomicU64::new(0),
            inner: Mutex::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: Clone> Clone for Lock<T> {
    /// Clones the current value into a fresh, anonymous, unlocked lock.
    fn clone(&self) -> Self {
        Lock::new(self.lock().clone())
    }
}

impl<T: ?Sized> Lock<T> {
    /// Acquires the lock.
    ///
    /// # Panics
    ///
    /// Panics (instead of deadlocking) if the calling thread already
    /// holds this lock — the moral equivalent of `RefCell`'s
    /// borrow-while-borrowed panic.
    pub fn lock(&self) -> LockGuard<'_, T> {
        let me = current_thread_token();
        let guard = match self.inner.try_lock() {
            Some(g) => g,
            None => {
                if self.owner.load(Ordering::Relaxed) == me {
                    panic!(
                        "re-entrant Lock::lock on {:?} (would deadlock; the RefCell this \
                         replaced would have panicked here too)",
                        self.stats.as_ref().map_or("<anonymous>", |s| s.name)
                    );
                }
                if let Some(s) = &self.stats {
                    s.contended.fetch_add(1, Ordering::Relaxed);
                }
                self.inner.lock()
            }
        };
        if let Some(s) = &self.stats {
            s.acquires.fetch_add(1, Ordering::Relaxed);
        }
        self.owner.store(me, Ordering::Relaxed);
        LockGuard {
            lock: self,
            guard: ManuallyDrop::new(guard),
        }
    }

    /// Attempts to acquire without blocking.
    pub fn try_lock(&self) -> Option<LockGuard<'_, T>> {
        let g = self.inner.try_lock()?;
        if let Some(s) = &self.stats {
            s.acquires.fetch_add(1, Ordering::Relaxed);
        }
        self.owner.store(current_thread_token(), Ordering::Relaxed);
        Some(LockGuard {
            lock: self,
            guard: ManuallyDrop::new(g),
        })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Lock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Lock").field(&&*g).finish(),
            None => f.write_str("Lock(<locked>)"),
        }
    }
}

/// RAII guard returned by [`Lock::lock`].
pub struct LockGuard<'a, T: ?Sized> {
    lock: &'a Lock<T>,
    guard: ManuallyDrop<MutexGuard<'a, T>>,
}

impl<T: ?Sized> Drop for LockGuard<'_, T> {
    fn drop(&mut self) {
        // Clear ownership before releasing: between the store and the
        // unlock other threads merely see "locked by nobody" and block
        // normally.
        self.lock.owner.store(0, Ordering::Relaxed);
        // SAFETY: dropped exactly once, here.
        unsafe { ManuallyDrop::drop(&mut self.guard) };
    }
}

impl<T: ?Sized> Deref for LockGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for LockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for LockGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_guards_exclusive_access() {
        let l = Lock::new(1u32);
        {
            let mut g = l.lock();
            *g += 1;
            assert!(l.try_lock().is_none());
        }
        assert_eq!(*l.lock(), 2);
    }

    #[test]
    #[should_panic(expected = "re-entrant")]
    fn reentrant_lock_panics_not_deadlocks() {
        let l = Lock::named("reentry-test", ());
        let _g = l.lock();
        let _g2 = l.lock();
    }

    #[test]
    fn named_locks_count_acquisitions() {
        let l = Lock::named("count-test", 0u32);
        let before = contention_profile()
            .into_iter()
            .find(|p| p.name == "count-test")
            .map_or(0, |p| p.acquires);
        *l.lock() += 1;
        *l.lock() += 1;
        let after = contention_profile()
            .into_iter()
            .find(|p| p.name == "count-test")
            .unwrap();
        assert_eq!(after.acquires - before, 2);
    }

    #[test]
    fn contended_acquisition_is_counted() {
        let l = std::sync::Arc::new(Lock::named("contend-test", ()));
        let l2 = std::sync::Arc::clone(&l);
        let g = l.lock();
        let t = std::thread::spawn(move || {
            let _g = l2.lock();
        });
        // Give the spawned thread time to lose the fast path.
        while contention_profile()
            .iter()
            .find(|p| p.name == "contend-test")
            .map_or(0, |p| p.contended)
            == 0
        {
            std::thread::yield_now();
        }
        drop(g);
        t.join().unwrap();
    }

    #[test]
    fn named_locks_share_one_registry_entry_per_name() {
        let locks: Vec<Lock<()>> = (0..10_000).map(|_| Lock::named("x", ())).collect();
        for l in &locks {
            drop(l.lock());
        }
        let entries = registry().lock().values().filter(|s| s.name == "x").count();
        assert_eq!(entries, 1);
        let x = contention_profile()
            .into_iter()
            .find(|p| p.name == "x")
            .expect("x is registered");
        assert_eq!(x.acquires, 10_000);
    }

    #[test]
    fn get_mut_and_into_inner() {
        let mut l = Lock::new(5u32);
        *l.get_mut() = 7;
        assert_eq!(l.into_inner(), 7);
    }
}
