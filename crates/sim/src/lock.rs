//! Interior mutability for runtime state.
//!
//! [`Lock`] is the workspace's one sanctioned interior-mutability
//! primitive outside the executor itself (the pathlint `raw-thread`
//! rule bans direct `std::sync::Mutex`/`RwLock`/`Condvar` elsewhere).
//! It is a mutex with two additions tuned for this codebase:
//!
//! * **Re-entrancy detection.** Every task runs on the executor's one
//!   thread, so a lock is never contended: a `lock()` that finds it
//!   held is a re-entrant acquisition, which a plain mutex would turn
//!   into a silent deadlock. `Lock` panics with the lock's name
//!   instead, as the `RefCell` it replaced did, preserving the
//!   fail-fast behavior golden tests rely on.
//! * **Acquisition profiling.** Locks created with [`Lock::named`]
//!   share one counter per name in a process-wide table (so the table
//!   is bounded by the number of distinct names, however many runtimes
//!   are built), and every acquisition is counted.
//!   [`contention_profile`] snapshots the table — this is what
//!   `fig_dispatch` and the benchmark's per-layer lock counts report.
//!
//! Counting is skipped entirely for anonymous locks.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, MutexGuard};

/// Acquisition counter shared by every [`Lock`] created under one name.
#[derive(Debug)]
pub struct LockStats {
    name: &'static str,
    acquires: AtomicU64,
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
}

/// Snapshot of every named lock's acquisition count, sorted by name.
pub fn contention_profile() -> Vec<LockProfile> {
    registry()
        .lock()
        .values()
        .map(|s| LockProfile {
            name: s.name.to_string(),
            acquires: s.acquires.load(Ordering::Relaxed),
        })
        .collect()
}

/// Zeroes every named lock's counter (the locks stay registered).
pub fn reset_contention_profile() {
    for s in registry().lock().values() {
        s.acquires.store(0, Ordering::Relaxed);
    }
}

/// A mutex that panics on re-entrant acquisition and optionally counts
/// acquisitions.
///
/// Replaces the `RefCell`s the runtime used before its state had to be
/// `Send`, with the same semantics: acquiring a lock the executor
/// thread already holds panics rather than deadlocking.
#[derive(Default)]
pub struct Lock<T: ?Sized> {
    stats: Option<Arc<LockStats>>,
    inner: Mutex<T>,
}

impl<T> Lock<T> {
    /// Creates an anonymous lock (no acquisition counting).
    pub fn new(value: T) -> Self {
        Lock {
            stats: None,
            inner: Mutex::new(value),
        }
    }

    /// Creates a named lock registered in the contention profile.
    ///
    /// Use for the runtime's shared hot structures (store, scheduler
    /// state, fabric) so the benchmarks can report acquisitions per
    /// kernel.
    pub fn named(name: &'static str, value: T) -> Self {
        let stats = Arc::clone(registry().lock().entry(name).or_insert_with(|| {
            Arc::new(LockStats {
                name,
                acquires: AtomicU64::new(0),
            })
        }));
        Lock {
            stats: Some(stats),
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
    /// Panics (instead of deadlocking) if the lock is already held —
    /// with every task on one thread that can only be a re-entrant
    /// acquisition, the moral equivalent of `RefCell`'s
    /// borrow-while-borrowed panic.
    pub fn lock(&self) -> LockGuard<'_, T> {
        self.try_lock().unwrap_or_else(|| {
            panic!(
                "re-entrant Lock::lock on {:?} (would deadlock; the RefCell this \
                 replaced would have panicked here too)",
                self.stats.as_ref().map_or("<anonymous>", |s| s.name)
            )
        })
    }

    /// Attempts to acquire without blocking.
    pub fn try_lock(&self) -> Option<LockGuard<'_, T>> {
        let guard = self.inner.try_lock()?;
        if let Some(s) = &self.stats {
            s.acquires.fetch_add(1, Ordering::Relaxed);
        }
        Some(LockGuard { guard })
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
    guard: MutexGuard<'a, T>,
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
