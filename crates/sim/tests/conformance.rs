//! Executor-conformance suite: the contract the executor must honor.
//!
//! The ready queue is FIFO, timers fire in `(deadline, registration
//! order)`, every spawned task runs, channel order is preserved, a run
//! replays bit-identically, and dropped/aborted tasks release their
//! state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pathways_sim::channel::channel;
use pathways_sim::sync::Notify;
use pathways_sim::{Lock, Sim, SimDuration, SimTime};

// --------------------------------------------------------- spawn ordering

/// Every spawned task runs exactly once; the ready queue is FIFO, so
/// first-poll order equals spawn order.
#[test]
fn spawn_runs_every_task_fifo_when_deterministic() {
    let mut ex = Sim::new(7);
    let order: Arc<Lock<Vec<usize>>> = Arc::new(Lock::new(Vec::new()));
    for i in 0..16 {
        let order = Arc::clone(&order);
        ex.spawn(format!("t{i}"), async move {
            order.lock().push(i);
        });
    }
    assert!(ex.run().is_quiescent());
    assert_eq!(*order.lock(), (0..16).collect::<Vec<_>>());
}

/// Tasks spawned from inside tasks also run to completion.
#[test]
fn nested_spawns_complete() {
    let mut ex = Sim::new(7);
    let count = Arc::new(Lock::new(0u32));
    let h = ex.handle();
    let count2 = Arc::clone(&count);
    ex.spawn("outer", async move {
        let mut inner = Vec::new();
        for i in 0..8 {
            let count = Arc::clone(&count2);
            inner.push(h.spawn(format!("inner{i}"), async move {
                *count.lock() += 1;
            }));
        }
        pathways_sim::join_all(inner).await;
        *count2.lock() += 100;
    });
    assert!(ex.run().is_quiescent());
    assert_eq!(*count.lock(), 108);
}

// -------------------------------------------------------- timer behavior

/// Timers sharing one deadline all fire at exactly the deadline, in
/// registration order, and the run ends at that instant.
#[test]
fn timer_coalescing_shared_deadline() {
    let mut ex = Sim::new(7);
    let deadline = SimDuration::from_millis(1);
    let woke: Arc<Lock<Vec<(usize, SimTime)>>> = Arc::new(Lock::new(Vec::new()));
    for i in 0..8 {
        let h = ex.handle();
        let woke = Arc::clone(&woke);
        ex.spawn(format!("timer{i}"), async move {
            h.sleep(deadline).await;
            woke.lock().push((i, h.now()));
        });
    }
    let outcome = ex.run();
    assert!(outcome.is_quiescent(), "{outcome:?}");
    let woke = woke.lock().clone();
    let exact = SimTime::ZERO + deadline;
    let order: Vec<usize> = woke.iter().map(|&(i, _)| i).collect();
    assert_eq!(order, (0..8).collect::<Vec<_>>(), "registration order");
    assert!(woke.iter().all(|&(_, at)| at == exact), "{woke:?}");
    assert_eq!(outcome.time(), exact);
}

/// Distinct deadlines fire in deadline order.
#[test]
fn timers_fire_in_deadline_order() {
    let mut ex = Sim::new(7);
    let woke: Arc<Lock<Vec<u64>>> = Arc::new(Lock::new(Vec::new()));
    // Spawn in reverse-deadline order to rule out spawn-order luck.
    for ms in [8u64, 4, 2, 1] {
        let h = ex.handle();
        let woke = Arc::clone(&woke);
        ex.spawn(format!("sleep{ms}ms"), async move {
            h.sleep(SimDuration::from_millis(ms)).await;
            woke.lock().push(ms);
        });
    }
    assert!(ex.run().is_quiescent());
    assert_eq!(*woke.lock(), vec![1, 2, 4, 8]);
}

/// A `sleep_until` a deadline already in the past resolves without
/// arming a timer, and time never runs backward across it.
#[test]
fn past_deadline_sleep_resolves_immediately() {
    let mut ex = Sim::new(7);
    let h = ex.handle();
    let done = ex.spawn("past", async move {
        h.sleep(SimDuration::from_millis(1)).await;
        let before = h.now();
        h.sleep_until(SimTime::ZERO).await;
        let after = h.now();
        assert!(
            after >= before,
            "time ran backward: {before:?} -> {after:?}"
        );
        true
    });
    assert!(ex.run().is_quiescent());
    assert_eq!(done.try_take(), Some(true));
}

// ------------------------------------------------------- channel fairness

/// With several senders racing one receiver: nothing is lost or
/// duplicated, each sender's messages arrive in its send order, and
/// the full interleaving replays bit-identically across runs.
#[test]
fn channel_fairness_and_per_sender_order() {
    const SENDERS: usize = 4;
    const PER_SENDER: usize = 16;

    let run = || -> Vec<(usize, usize)> {
        let mut ex = Sim::new(7);
        let (tx, mut rx) = channel::<(usize, usize)>();
        for s in 0..SENDERS {
            let h = ex.handle();
            let tx = tx.clone();
            ex.spawn(format!("sender{s}"), async move {
                for k in 0..PER_SENDER {
                    tx.send((s, k)).expect("receiver alive");
                    // Yield between sends so senders interleave.
                    h.yield_now().await;
                }
            });
        }
        drop(tx);
        let received = ex.spawn("receiver", async move {
            let mut got = Vec::new();
            while let Some(msg) = rx.recv().await {
                got.push(msg);
            }
            got
        });
        assert!(ex.run().is_quiescent());
        received.try_take().expect("receiver finished")
    };

    let got = run();
    assert_eq!(got.len(), SENDERS * PER_SENDER);
    // Per-sender FIFO: each sender's k values form 0..PER_SENDER in
    // order within the merged stream.
    for s in 0..SENDERS {
        let ks: Vec<usize> = got
            .iter()
            .filter(|(fs, _)| *fs == s)
            .map(|&(_, k)| k)
            .collect();
        assert_eq!(ks, (0..PER_SENDER).collect::<Vec<_>>(), "sender {s}");
    }
    assert_eq!(got, run(), "the interleaving must replay");
}

// ------------------------------------------------------- drop-on-shutdown

/// Sets its flag when dropped — stands in for any resource a task owns.
struct DropFlag(Arc<AtomicBool>);

impl Drop for DropFlag {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// A task parked forever is reported as stuck, and dropping the
/// executor drops the task's future (its owned state is released, not
/// leaked).
#[test]
fn shutdown_drops_pending_tasks() {
    let mut ex = Sim::new(7);
    let dropped = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(Notify::new());
    let flag = DropFlag(Arc::clone(&dropped));
    let gate2 = Arc::clone(&gate);
    ex.spawn("parked-forever", async move {
        let _flag = flag;
        gate2.notified().await;
    });
    let outcome = ex.run();
    assert!(outcome.is_deadlock(), "{outcome:?}");
    assert!(
        !dropped.load(Ordering::SeqCst),
        "future dropped while executor still owns it"
    );
    drop(ex);
    assert!(
        dropped.load(Ordering::SeqCst),
        "shutdown leaked the pending task's state"
    );
}

/// `JoinHandle::abort` removes the task: it never runs again and its
/// owned state is dropped.
#[test]
fn abort_drops_task_state() {
    let mut ex = Sim::new(7);
    let dropped = Arc::new(AtomicBool::new(false));
    let ran = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(Notify::new());
    let flag = DropFlag(Arc::clone(&dropped));
    let (gate2, ran2) = (Arc::clone(&gate), Arc::clone(&ran));
    let victim = ex.spawn("victim", async move {
        let _flag = flag;
        gate2.notified().await;
        ran2.store(true, Ordering::SeqCst);
    });
    victim.abort();
    gate.notify_one();
    let outcome = ex.run();
    assert!(outcome.is_quiescent(), "{outcome:?}");
    assert!(
        dropped.load(Ordering::SeqCst),
        "aborted task's state not dropped"
    );
    assert!(
        !ran.load(Ordering::SeqCst),
        "aborted task ran past its park point"
    );
}
