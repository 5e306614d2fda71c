//! The executor: one spawn/timer/channel/event surface over the
//! deterministic virtual-time scheduler.
//!
//! Everything in the runtime — hosts, schedulers, device models, shard
//! drivers, clients — is an async task talking to the [`Sim`] through
//! a [`SimHandle`]. Time advances only when every runnable task has
//! yielded; the ready queue is FIFO; timers fire in `(deadline,
//! registration order)`. Running the same program twice produces
//! bit-identical traces, which every golden trace, chaos matrix and
//! figure relies on. See [`deterministic`] for the scheduler itself.
//!
//! Every task runs on the thread that drives the [`Sim`]. Spawned
//! futures must still be `Send`: the bound keeps runtime state behind
//! thread-safe types and keeps a [`Sim`] itself `Send`.

pub mod deterministic;

use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Waker};

use parking_lot::Mutex;

use crate::time::{SimDuration, SimTime};
use crate::trace::TraceLog;

use deterministic::DetCore;
pub use deterministic::Sim;

/// Identifier of a spawned task within one executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Boxed task body as stored by the executor.
pub type TaskFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Renders a [`TaskName::lazy`] name from its packed arguments.
pub type RenderName = fn(&[u64; 4], &mut fmt::Formatter<'_>) -> fmt::Result;

/// A task's name, rendered only when a report needs it.
///
/// Names appear in deadlock reports and nowhere on the hot path, so a
/// spawn should not pay to format one. A `&'static str` or `String`
/// converts directly; a name built from ids uses [`TaskName::lazy`],
/// which stores the ids and a render function inline — no formatting
/// and no heap allocation per spawn.
#[derive(Clone)]
pub struct TaskName(NameRepr);

#[derive(Clone)]
enum NameRepr {
    Static(&'static str),
    Owned(String),
    Lazy { args: [u64; 4], render: RenderName },
}

impl TaskName {
    /// A name rendered on demand by `render` from up to four ids.
    ///
    /// ```
    /// use pathways_sim::TaskName;
    ///
    /// let name = TaskName::lazy([7, 3, 0, 0], |a, f| write!(f, "driver-{}-{}", a[0], a[1]));
    /// assert_eq!(name.to_string(), "driver-7-3");
    /// ```
    pub const fn lazy(args: [u64; 4], render: RenderName) -> Self {
        TaskName(NameRepr::Lazy { args, render })
    }
}

impl fmt::Display for TaskName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            NameRepr::Static(s) => f.write_str(s),
            NameRepr::Owned(s) => f.write_str(s),
            NameRepr::Lazy { args, render } => render(args, f),
        }
    }
}

impl fmt::Debug for TaskName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.to_string())
    }
}

impl From<&'static str> for TaskName {
    fn from(s: &'static str) -> Self {
        TaskName(NameRepr::Static(s))
    }
}

impl From<String> for TaskName {
    fn from(s: String) -> Self {
        TaskName(NameRepr::Owned(s))
    }
}

/// Marker a long-running service task uses to tell the executor it is
/// parked waiting for work (as opposed to stuck mid-operation).
///
/// Quiescence detection treats a pending task whose token reads *idle*
/// as finished: an accelerator waiting for its next kernel is not a
/// deadlock, but an accelerator blocked inside a gang collective is.
#[derive(Debug, Clone, Default)]
pub struct IdleToken {
    idle: Arc<AtomicBool>,
}

impl IdleToken {
    /// Creates a token in the *busy* state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the owning task idle (parked awaiting work).
    pub fn set_idle(&self) {
        self.idle.store(true, Ordering::SeqCst);
    }

    /// Marks the owning task busy (processing an operation).
    pub fn set_busy(&self) {
        self.idle.store(false, Ordering::SeqCst);
    }

    /// Reads the current state.
    pub fn is_idle(&self) -> bool {
        self.idle.load(Ordering::SeqCst)
    }
}

/// Outcome of running an executor to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every spawned task ran to completion (or is parked idle).
    Quiescent {
        /// Time when the last event fired.
        time: SimTime,
    },
    /// Some tasks are still pending but nothing can wake them: the
    /// system is deadlocked (or waiting on an external stimulus that
    /// will never arrive). The names of the stuck tasks are reported
    /// for diagnosis.
    Deadlock {
        /// Time at which progress stopped.
        time: SimTime,
        /// Names of tasks that can never be woken again.
        stuck_tasks: Vec<String>,
    },
}

impl RunOutcome {
    /// Returns true if the run ended with all tasks completed.
    pub fn is_quiescent(&self) -> bool {
        matches!(self, RunOutcome::Quiescent { .. })
    }

    /// Returns true if the run ended in a deadlock.
    pub fn is_deadlock(&self) -> bool {
        matches!(self, RunOutcome::Deadlock { .. })
    }

    /// Time at which the run stopped.
    pub fn time(&self) -> SimTime {
        match self {
            RunOutcome::Quiescent { time } | RunOutcome::Deadlock { time, .. } => *time,
        }
    }
}

/// Cloneable handle to an executor, usable from inside tasks.
#[derive(Clone)]
pub struct SimHandle {
    core: Weak<DetCore>,
}

impl fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimHandle")
            .field("now", &self.now())
            .finish()
    }
}

impl SimHandle {
    pub(crate) fn new(core: Weak<DetCore>) -> Self {
        SimHandle { core }
    }

    fn upgrade(&self) -> Arc<DetCore> {
        self.core
            .upgrade()
            .expect("SimHandle used after its executor was dropped")
    }

    /// Current virtual time.
    ///
    /// # Panics
    ///
    /// Panics if the owning executor has been dropped.
    pub fn now(&self) -> SimTime {
        self.upgrade().clock()
    }

    /// Returns a future that resolves after `duration`.
    pub fn sleep(&self, duration: SimDuration) -> Sleep {
        Sleep {
            handle: self.clone(),
            deadline: None,
            duration,
        }
    }

    /// Returns a future that resolves at the given instant (immediately
    /// if `deadline` is in the past).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            handle: self.clone(),
            deadline: Some(deadline),
            duration: SimDuration::ZERO,
        }
    }

    /// Yields to other ready tasks once.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Spawns a task onto the executor.
    pub fn spawn<T: Send + 'static>(
        &self,
        name: impl Into<TaskName>,
        future: impl Future<Output = T> + Send + 'static,
    ) -> JoinHandle<T> {
        self.spawn_inner(name, None, future)
    }

    /// Spawns a long-running service task carrying an [`IdleToken`].
    ///
    /// Clone the token into the future and call
    /// [`IdleToken::set_idle`]/[`IdleToken::set_busy`] around its
    /// wait-for-work point; an idle service task does not count as a
    /// deadlock when the rest of the system drains.
    pub fn spawn_service<T: Send + 'static>(
        &self,
        name: impl Into<TaskName>,
        token: &IdleToken,
        future: impl Future<Output = T> + Send + 'static,
    ) -> JoinHandle<T> {
        self.spawn_inner(name, Some(token.clone()), future)
    }

    /// Spawns a fire-and-forget task: no [`JoinHandle`], so no shared
    /// join state is allocated. For short message-delivery tasks whose
    /// completion nothing awaits.
    pub fn spawn_detached(
        &self,
        name: impl Into<TaskName>,
        future: impl Future<Output = ()> + Send + 'static,
    ) {
        self.upgrade()
            .spawn_task(name.into(), None, Box::pin(future));
    }

    fn spawn_inner<T: Send + 'static>(
        &self,
        name: impl Into<TaskName>,
        idle: Option<IdleToken>,
        future: impl Future<Output = T> + Send + 'static,
    ) -> JoinHandle<T> {
        let state = Arc::new(Mutex::new(JoinState {
            result: None,
            waker: None,
            finished: false,
        }));
        let state2 = Arc::clone(&state);
        let wrapped = async move {
            let out = future.await;
            let waker = {
                let mut st = state2.lock();
                st.result = Some(out);
                st.finished = true;
                st.waker.take()
            };
            if let Some(w) = waker {
                w.wake();
            }
        };
        let id = self
            .upgrade()
            .spawn_task(name.into(), idle, Box::pin(wrapped));
        JoinHandle {
            state,
            id,
            core: Weak::clone(&self.core),
        }
    }

    /// Draws a uniformly random `u64` from the executor's seeded RNG.
    pub fn rng_u64(&self) -> u64 {
        self.upgrade().rng_u64()
    }

    /// Draws a uniformly random value in `[0, bound)` from the seeded RNG.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn rng_range(&self, bound: u64) -> u64 {
        assert!(bound > 0, "rng_range bound must be positive");
        self.upgrade().rng_range(bound)
    }

    /// Records a span on the shared trace log.
    pub fn trace_span(
        &self,
        track: impl Into<String>,
        label: impl Into<String>,
        start: SimTime,
        end: SimTime,
    ) {
        let (track, label) = (track.into(), label.into());
        self.with_trace(move |t| t.record(track, label, start, end));
    }

    /// Runs `f` with mutable access to the trace log.
    pub fn with_trace<R>(&self, f: impl FnOnce(&mut TraceLog) -> R) -> R {
        self.upgrade().with_trace(f)
    }

    pub(crate) fn register_timer(&self, deadline: SimTime, waker: Waker) {
        self.upgrade().register_timer(deadline, waker);
    }
}

/// Future returned by [`SimHandle::sleep`].
#[derive(Debug)]
pub struct Sleep {
    handle: SimHandle,
    deadline: Option<SimTime>,
    duration: SimDuration,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let now = self.handle.now();
        match self.deadline {
            None => {
                // First poll: register the timer.
                let deadline = now + self.duration;
                self.deadline = Some(deadline);
                if deadline <= now {
                    return Poll::Ready(());
                }
                self.handle.register_timer(deadline, cx.waker().clone());
                Poll::Pending
            }
            Some(deadline) => {
                if now >= deadline {
                    Poll::Ready(())
                } else {
                    self.handle.register_timer(deadline, cx.waker().clone());
                    Poll::Pending
                }
            }
        }
    }
}

/// Future returned by [`SimHandle::yield_now`].
#[derive(Debug)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
    finished: bool,
}

/// Handle to the output of a spawned task.
///
/// Awaiting the handle yields the task's output. Dropping it detaches
/// the task (the task keeps running).
pub struct JoinHandle<T> {
    state: Arc<Mutex<JoinState<T>>>,
    id: TaskId,
    core: Weak<DetCore>,
}

impl<T> fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JoinHandle")
            .field("task", &self.id)
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl<T> JoinHandle<T> {
    /// Returns true if the task has run to completion.
    pub fn is_finished(&self) -> bool {
        self.state.lock().finished
    }

    /// Takes the output if the task has completed and the output has
    /// not been taken yet.
    pub fn try_take(&self) -> Option<T> {
        self.state.lock().result.take()
    }

    /// Forcibly removes the task from the executor.
    ///
    /// Used to model abrupt client/program failure: the task simply
    /// never runs again, exactly like a process that was killed. Safe
    /// to call on completed tasks (it is then a no-op).
    pub fn abort(&self) {
        if let Some(core) = self.core.upgrade() {
            core.abort_task(self.id);
        }
    }

    /// The id of the underlying task.
    pub fn id(&self) -> TaskId {
        self.id
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.lock();
        if let Some(v) = st.result.take() {
            Poll::Ready(v)
        } else if st.finished {
            panic!("JoinHandle polled after output was taken");
        } else {
            st.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Awaits every handle in `handles`, returning outputs in order.
///
/// Concurrency comes from the tasks themselves (they were already
/// spawned); this helper merely collects their results.
pub async fn join_all<T>(handles: Vec<JoinHandle<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await);
    }
    out
}

/// Anything that can hand out a [`SimHandle`]: a [`Sim`] or a
/// `SimHandle` itself. Lets runtime constructors accept either.
pub trait ExecutorRef {
    /// A handle onto the underlying executor.
    fn executor_handle(&self) -> SimHandle;
}

impl ExecutorRef for SimHandle {
    fn executor_handle(&self) -> SimHandle {
        self.clone()
    }
}

impl<E: ExecutorRef + ?Sized> ExecutorRef for &E {
    fn executor_handle(&self) -> SimHandle {
        (**self).executor_handle()
    }
}
