//! The deterministic virtual-time backend.
//!
//! A [`Sim`] owns a set of tasks and a virtual clock. Tasks are ordinary
//! Rust futures that sleep on virtual timers via
//! [`SimHandle::sleep`](super::SimHandle::sleep) and communicate through
//! the channels in [`crate::channel`] and the primitives in
//! [`crate::sync`]. Everything runs on the calling thread; futures are
//! `Send` only so the identical code also runs on the threaded backend.
//!
//! Execution is deterministic: the ready queue is FIFO, timers fire in
//! `(deadline, registration order)`, and the only randomness available
//! to tasks is the seeded RNG in
//! [`SimHandle::rng_u64`](super::SimHandle::rng_u64). Running the same
//! program twice produces identical traces, which is what makes the
//! paper's trace figures (Figure 9/10/12) exactly reproducible.
//!
//! # Task storage and wakeups
//!
//! Tasks live in a slab: a `Vec` of slots reused through a free list.
//! Each spawn builds the task's [`Waker`] once; it carries the task's
//! slot index and [`TaskId`], and waking it appends that pair to the
//! ready queue (its own small mutex, so a wake never touches the
//! executor state). A poll takes the task out of its slot, polls it
//! with the stored waker, and puts it back — no allocation, and no
//! hash-map traffic. A wake whose id no longer matches its slot's
//! occupant (the task finished and the slot was reused) is dropped.
//!
//! The run loop swaps the whole ready queue out and polls that batch in
//! order, so tasks woken meanwhile queue behind it: the same FIFO order
//! as popping one id at a time. A task woken twice before it runs is
//! polled twice. The clock and the poll counter are atomics, read
//! without the state lock.
//!
//! # Examples
//!
//! ```
//! use pathways_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(42);
//! let h = sim.handle();
//! let task = sim.spawn("worker", async move {
//!     h.sleep(SimDuration::from_micros(10)).await;
//!     h.now()
//! });
//! let outcome = sim.run();
//! assert!(outcome.is_quiescent());
//! assert_eq!(task.try_take().unwrap().as_nanos(), 10_000);
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Wake, Waker};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::time::SimTime;
use crate::trace::TraceLog;
use crate::wheel::TimerWheel;

use super::{
    Backend, ExecutorBackend, ExecutorRef, IdleToken, JoinHandle, RunOutcome, SimHandle,
    TaskFuture, TaskId, TaskName,
};

/// A woken task: its slab slot and the id of the task it was woken for.
type Wakeup = (usize, TaskId);

/// Queue of woken tasks awaiting a poll.
///
/// Kept outside the main state mutex so wakers never contend with (or
/// re-enter) a locked executor: `wake` only ever touches this queue.
#[derive(Default)]
struct ReadyQueue {
    queue: Mutex<VecDeque<Wakeup>>,
}

impl ReadyQueue {
    fn push(&self, wakeup: Wakeup) {
        self.queue.lock().push_back(wakeup);
    }

    /// Moves every queued wakeup into the empty `batch`, in order. The
    /// two buffers trade places, so neither reallocates once warm.
    fn take_into(&self, batch: &mut VecDeque<Wakeup>) {
        debug_assert!(batch.is_empty());
        std::mem::swap(&mut *self.queue.lock(), batch);
    }
}

/// A task's waker, built once at spawn.
struct TaskWaker {
    slot: usize,
    id: TaskId,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push((self.slot, self.id));
    }
}

struct Task {
    name: TaskName,
    future: TaskFuture,
    idle: Option<IdleToken>,
    waker: Waker,
}

/// One slab entry. `task` is `None` while the slot is free (it is then
/// on the free list) and while its task is being polled.
struct Slot {
    /// The current (or last) occupant.
    id: TaskId,
    task: Option<Task>,
}

struct DetState {
    timers: TimerWheel<Waker>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Spawned tasks that have neither finished nor been aborted.
    live: usize,
    next_task: u64,
    next_seq: u64,
    rng: StdRng,
    trace: TraceLog,
}

impl DetState {
    fn register_timer(&mut self, deadline: SimTime, waker: Waker) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.timers.insert(deadline, seq, waker);
    }

    /// Frees a slot whose task finished or was aborted.
    fn release(&mut self, slot: usize) {
        self.free.push(slot);
        self.live -= 1;
    }
}

/// Shared core: the backend object handles point at.
struct DetCore {
    state: Mutex<DetState>,
    ready: Arc<ReadyQueue>,
    /// Virtual time in nanoseconds; written only by the run loop.
    now: AtomicU64,
    /// Total number of task polls performed (for introspection/benches).
    polls: AtomicU64,
}

impl DetCore {
    fn clock(&self) -> SimTime {
        // Relaxed: a clock reading publishes no other data.
        SimTime::from_nanos(self.now.load(Ordering::Relaxed))
    }
}

impl ExecutorBackend for DetCore {
    fn backend(&self) -> Backend {
        Backend::Deterministic
    }

    fn now(&self) -> SimTime {
        self.clock()
    }

    fn spawn_task(&self, name: TaskName, idle: Option<IdleToken>, future: TaskFuture) -> TaskId {
        let wakeup = {
            let mut st = self.state.lock();
            let id = TaskId(st.next_task);
            st.next_task += 1;
            let slot = st.free.pop().unwrap_or(st.slots.len());
            let waker = Waker::from(Arc::new(TaskWaker {
                slot,
                id,
                ready: Arc::clone(&self.ready),
            }));
            let task = Some(Task {
                name,
                future,
                idle,
                waker,
            });
            match st.slots.get_mut(slot) {
                Some(s) => *s = Slot { id, task },
                None => st.slots.push(Slot { id, task }),
            }
            st.live += 1;
            (slot, id)
        };
        self.ready.push(wakeup);
        wakeup.1
    }

    fn abort_task(&self, id: TaskId) {
        // A task being polled is not in its slot, so aborting oneself
        // is a no-op. Aborts model process death and are rare, so a
        // slab scan beats an id index every spawn would have to
        // maintain. The future is dropped outside the lock: its
        // destructors may wake or spawn tasks.
        let aborted = {
            let mut st = self.state.lock();
            let found = st.slots.iter().position(|s| s.id == id && s.task.is_some());
            found.and_then(|slot| {
                let task = st.slots[slot].task.take();
                st.release(slot);
                task
            })
        };
        drop(aborted);
    }

    fn register_timer(&self, deadline: SimTime, waker: Waker) {
        self.state.lock().register_timer(deadline, waker);
    }

    fn rng_u64(&self) -> u64 {
        self.state.lock().rng.random()
    }

    fn rng_range(&self, bound: u64) -> u64 {
        self.state.lock().rng.random_range(0..bound)
    }

    fn with_trace_log(&self, f: &mut dyn FnMut(&mut TraceLog)) {
        f(&mut self.state.lock().trace)
    }

    fn poll_count(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }
}

/// A deterministic discrete-event simulation.
///
/// See the module documentation for an overview and example.
pub struct Sim {
    core: Arc<DetCore>,
    /// The ready batch being polled; kept across runs so draining the
    /// ready queue allocates nothing once warm.
    batch: VecDeque<Wakeup>,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.core.state.lock();
        f.debug_struct("Sim")
            .field("now", &self.core.clock())
            .field("live_tasks", &st.live)
            .field("pending_timers", &st.timers.len())
            .finish()
    }
}

impl Sim {
    /// Creates a simulation whose RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Sim {
            core: Arc::new(DetCore {
                state: Mutex::new(DetState {
                    timers: TimerWheel::new(),
                    slots: Vec::new(),
                    free: Vec::new(),
                    live: 0,
                    next_task: 0,
                    next_seq: 0,
                    rng: StdRng::seed_from_u64(seed),
                    trace: TraceLog::new(),
                }),
                ready: Arc::new(ReadyQueue::default()),
                now: AtomicU64::new(SimTime::ZERO.as_nanos()),
                polls: AtomicU64::new(0),
            }),
            batch: VecDeque::new(),
        }
    }

    /// Returns a cloneable handle for use inside tasks.
    pub fn handle(&self) -> SimHandle {
        let weak: Weak<DetCore> = Arc::downgrade(&self.core);
        SimHandle::from_backend(weak)
    }

    /// Spawns a task and returns a handle to its eventual output.
    ///
    /// The `name` is used in deadlock reports and traces.
    pub fn spawn<T: Send + 'static>(
        &self,
        name: impl Into<TaskName>,
        future: impl Future<Output = T> + Send + 'static,
    ) -> JoinHandle<T> {
        self.handle().spawn(name, future)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.clock()
    }

    /// Number of task polls performed so far.
    pub fn poll_count(&self) -> u64 {
        self.core.polls.load(Ordering::Relaxed)
    }

    /// Takes the accumulated trace events, leaving the log empty.
    pub fn take_trace(&self) -> TraceLog {
        std::mem::take(&mut self.core.state.lock().trace)
    }

    /// Runs until every task completes or no further progress is possible.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until_time(SimTime::MAX)
    }

    /// Runs until quiescence, deadlock, or the clock reaching `limit`
    /// (whichever comes first). Timers beyond `limit` are left pending.
    pub fn run_until_time(&mut self, limit: SimTime) -> RunOutcome {
        // One waker buffer for the whole run: `pop_batch_into` refills
        // it in place, so advancing time allocates nothing.
        let mut wakers = Vec::new();
        loop {
            self.drain_ready();
            // Advance virtual time to the next deadline, taking *every*
            // timer that shares it in one batch pop (one wheel operation
            // per simulated instant instead of one heap pop per timer).
            let fired = {
                let mut st = self.core.state.lock();
                match st.timers.pop_batch_into(limit, &mut wakers) {
                    Some(deadline) => {
                        let now = self.core.clock();
                        debug_assert!(deadline >= now, "timer in the past");
                        self.core
                            .now
                            .store(deadline.max(now).as_nanos(), Ordering::Relaxed);
                        true
                    }
                    None => false,
                }
            };
            if !fired {
                break;
            }
            // Wake each timer and drain the ready queue before the
            // next waker fires — the exact interleaving of the old
            // pop-per-timer loop. Nothing can join this batch
            // mid-drain: `Sleep` never registers a timer at
            // `deadline == now`.
            for waker in wakers.drain(..) {
                waker.wake();
                self.drain_ready();
            }
        }
        let now = self.core.clock();
        let st = self.core.state.lock();
        if st.live == 0 || !st.timers.is_empty() {
            // All done, or stopped by the time limit with timers pending.
            RunOutcome::Quiescent { time: now }
        } else {
            let mut stuck: Vec<String> = st
                .slots
                .iter()
                .filter_map(|s| s.task.as_ref())
                .filter(|t| !t.idle.as_ref().is_some_and(IdleToken::is_idle))
                .map(|t| t.name.to_string())
                .collect();
            stuck.sort();
            if stuck.is_empty() {
                // Only parked service tasks remain: quiescent.
                RunOutcome::Quiescent { time: now }
            } else {
                RunOutcome::Deadlock {
                    time: now,
                    stuck_tasks: stuck,
                }
            }
        }
    }

    /// Runs the simulation and panics with the stuck-task list if it
    /// deadlocks. Convenient in tests and examples.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks.
    pub fn run_to_quiescence(&mut self) -> SimTime {
        match self.run() {
            RunOutcome::Quiescent { time } => time,
            RunOutcome::Deadlock { time, stuck_tasks } => {
                panic!("simulation deadlocked at {time} with stuck tasks: {stuck_tasks:?}")
            }
        }
    }

    /// Polls woken tasks in FIFO order until none is left.
    fn drain_ready(&mut self) {
        let mut batch = std::mem::take(&mut self.batch);
        loop {
            self.core.ready.take_into(&mut batch);
            if batch.is_empty() {
                break;
            }
            while let Some((slot, id)) = batch.pop_front() {
                self.poll_task(slot, id);
            }
        }
        self.batch = batch;
    }

    fn poll_task(&self, slot: usize, id: TaskId) {
        // Take the task out so the state lock is released while
        // polling; the polled future may spawn tasks or register timers.
        let task = {
            let mut st = self.core.state.lock();
            match st.slots.get_mut(slot) {
                Some(s) if s.id == id => s.task.take(),
                // Stale wake: the slot now holds a newer task.
                _ => None,
            }
        };
        let Some(mut task) = task else {
            return; // already completed (or running); stale wake
        };
        self.core.polls.fetch_add(1, Ordering::Relaxed);
        let mut cx = Context::from_waker(&task.waker);
        if task.future.as_mut().poll(&mut cx).is_ready() {
            self.core.state.lock().release(slot);
        } else {
            self.core.state.lock().slots[slot].task = Some(task);
        }
    }
}

impl ExecutorRef for Sim {
    fn executor_handle(&self) -> SimHandle {
        self.handle()
    }
}

#[cfg(test)]
mod tests {
    use super::super::join_all;
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn empty_sim_is_quiescent_at_zero() {
        let mut sim = Sim::new(0);
        let outcome = sim.run();
        assert_eq!(
            outcome,
            RunOutcome::Quiescent {
                time: SimTime::ZERO
            }
        );
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        sim.spawn("sleeper", async move {
            h.sleep(SimDuration::from_millis(5)).await;
        });
        let t = sim.run_to_quiescence();
        assert_eq!(t, SimTime::ZERO + SimDuration::from_millis(5));
    }

    #[test]
    fn sleeps_compose_sequentially() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let jh = sim.spawn("seq", async move {
            h.sleep(SimDuration::from_micros(3)).await;
            let mid = h.now();
            h.sleep(SimDuration::from_micros(4)).await;
            (mid, h.now())
        });
        sim.run_to_quiescence();
        let (mid, end) = jh.try_take().unwrap();
        assert_eq!(mid.as_nanos(), 3_000);
        assert_eq!(end.as_nanos(), 7_000);
    }

    #[test]
    fn concurrent_tasks_interleave_by_deadline() {
        let mut sim = Sim::new(0);
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, delay) in [("b", 20u64), ("a", 10), ("c", 30)] {
            let h = sim.handle();
            let order = Arc::clone(&order);
            sim.spawn(name, async move {
                h.sleep(SimDuration::from_micros(delay)).await;
                order.lock().push(name);
            });
        }
        sim.run_to_quiescence();
        assert_eq!(*order.lock(), vec!["a", "b", "c"]);
    }

    #[test]
    fn join_handle_returns_output() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let inner = sim.spawn("inner", async move {
            h.sleep(SimDuration::from_micros(1)).await;
            41
        });
        let outer = sim.spawn("outer", async move { inner.await + 1 });
        sim.run_to_quiescence();
        assert_eq!(outer.try_take(), Some(42));
    }

    #[test]
    fn deadlock_is_detected_and_reports_task_names() {
        let mut sim = Sim::new(0);
        let (_tx, mut rx) = crate::channel::channel::<u32>();
        sim.spawn("waiter", async move {
            // _tx is never used to send and never dropped before run, so
            // this blocks forever.
            let _ = rx.recv().await;
        });
        match sim.run() {
            RunOutcome::Deadlock { stuck_tasks, .. } => {
                assert_eq!(stuck_tasks, vec!["waiter".to_string()]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn abort_removes_task() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let flag = Arc::new(Mutex::new(false));
        let flag2 = Arc::clone(&flag);
        let jh = sim.spawn("doomed", async move {
            h.sleep(SimDuration::from_secs(1)).await;
            *flag2.lock() = true;
        });
        jh.abort();
        let outcome = sim.run();
        assert!(outcome.is_quiescent());
        assert!(!*flag.lock());
        assert!(!jh.is_finished());
    }

    #[test]
    fn run_until_time_stops_early() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        sim.spawn("late", async move {
            h.sleep(SimDuration::from_secs(10)).await;
        });
        let out = sim.run_until_time(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(out.is_quiescent());
        assert_eq!(sim.now(), SimTime::ZERO);
        // Resuming without a limit finishes the task.
        assert!(sim.run().is_quiescent());
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(10));
    }

    #[test]
    fn yield_now_round_robins_ready_tasks() {
        let mut sim = Sim::new(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        for name in ["x", "y"] {
            let h = sim.handle();
            let log = Arc::clone(&log);
            sim.spawn(name, async move {
                for i in 0..2 {
                    log.lock().push(format!("{name}{i}"));
                    h.yield_now().await;
                }
            });
        }
        sim.run_to_quiescence();
        assert_eq!(*log.lock(), vec!["x0", "y0", "x1", "y1"]);
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let draw = |seed| {
            let sim = Sim::new(seed);
            let h = sim.handle();
            (h.rng_u64(), h.rng_range(100))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7).0, draw(8).0);
    }

    #[test]
    fn join_all_collects_in_order() {
        let mut sim = Sim::new(0);
        let mut handles = Vec::new();
        for i in 0..5u64 {
            let h = sim.handle();
            handles.push(sim.spawn(format!("t{i}"), async move {
                // Later tasks finish earlier; join_all must preserve order.
                h.sleep(SimDuration::from_micros(10 - i)).await;
                i
            }));
        }
        let joined = sim.spawn("join", async move { join_all(handles).await });
        sim.run_to_quiescence();
        assert_eq!(joined.try_take().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    /// Logs each poll under its name and stays pending, publishing the
    /// waker it was polled with.
    struct Probe {
        name: &'static str,
        log: Arc<Mutex<Vec<&'static str>>>,
        waker: Arc<Mutex<Option<Waker>>>,
        finish: bool,
    }

    impl Probe {
        fn new(name: &'static str, log: &Arc<Mutex<Vec<&'static str>>>, finish: bool) -> Self {
            Probe {
                name,
                log: Arc::clone(log),
                waker: Arc::default(),
                finish,
            }
        }
    }

    impl Future for Probe {
        type Output = ();

        fn poll(self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> std::task::Poll<()> {
            self.log.lock().push(self.name);
            *self.waker.lock() = Some(cx.waker().clone());
            if self.finish {
                std::task::Poll::Ready(())
            } else {
                std::task::Poll::Pending
            }
        }
    }

    #[test]
    fn stale_wake_does_not_poll_the_slot_reuser() {
        let mut sim = Sim::new(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let done = Probe::new("done", &log, true);
        let stale = Arc::clone(&done.waker);
        sim.handle().spawn_detached("done", done);
        sim.run_to_quiescence();
        // The next task reuses the finished task's slot.
        sim.handle()
            .spawn_detached("next", Probe::new("next", &log, false));
        assert!(sim.run().is_deadlock());
        assert_eq!(sim.core.state.lock().slots.len(), 1, "slot was reused");
        let polls = sim.poll_count();
        stale.lock().take().expect("waker captured").wake();
        assert!(sim.run().is_deadlock());
        assert_eq!(sim.poll_count(), polls);
        assert_eq!(*log.lock(), vec!["done", "next"]);
    }

    #[test]
    fn abort_during_own_poll_is_a_no_op() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        let me: Arc<Mutex<Option<JoinHandle<()>>>> = Arc::default();
        let me2 = Arc::clone(&me);
        let finished = Arc::new(Mutex::new(false));
        let finished2 = Arc::clone(&finished);
        let jh = sim.spawn("self-abort", async move {
            me2.lock().take().expect("handle published").abort();
            h.yield_now().await;
            *finished2.lock() = true;
        });
        *me.lock() = Some(jh);
        assert!(sim.run().is_quiescent());
        assert!(*finished.lock());
    }

    #[test]
    fn double_wake_polls_twice_in_fifo_order() {
        let mut sim = Sim::new(0);
        let log = Arc::new(Mutex::new(Vec::new()));
        let x = Probe::new("x", &log, false);
        let y = Probe::new("y", &log, false);
        let (wx, wy) = (Arc::clone(&x.waker), Arc::clone(&y.waker));
        sim.handle().spawn_detached("x", x);
        sim.handle().spawn_detached("y", y);
        assert!(sim.run().is_deadlock());
        let wx = wx.lock().clone().expect("x polled");
        let wy = wy.lock().clone().expect("y polled");
        wx.wake_by_ref();
        wy.wake_by_ref();
        wx.wake_by_ref();
        assert!(sim.run().is_deadlock());
        assert_eq!(*log.lock(), vec!["x", "y", "x", "y", "x"]);
    }

    #[test]
    fn zero_duration_sleep_completes_without_time_advance() {
        let mut sim = Sim::new(0);
        let h = sim.handle();
        sim.spawn("zero", async move {
            h.sleep(SimDuration::ZERO).await;
        });
        assert_eq!(sim.run_to_quiescence(), SimTime::ZERO);
    }
}
