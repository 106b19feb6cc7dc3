//! A hand-rolled session pool — the scheduling substrate under the
//! serving front end. No external runtime: plain `std::thread` workers
//! coordinated with a `Mutex`/`Condvar` pair.
//!
//! # Shape
//!
//! One **bounded FIFO admission queue** behind one mutex, paired with
//! the wake-up condvar. Every worker pops from its front, so whichever
//! worker is free runs the oldest waiting job, and a push wakes exactly
//! one sleeping worker. That is deliberate: jobs here are whole
//! simulator runs (micro- to milliseconds), so queue transfer cost is
//! noise, and a single queue under a single lock keeps the sleep/wake
//! protocol — and the drain-on-shutdown proof — trivially correct.
//!
//! Each worker owns a long-lived **session** of type `S`, built on the
//! worker's own thread by the pool's `make` closure and handed by
//! `&mut` to every job it executes — engine scratch and plan buffers
//! are reused across jobs instead of rebuilt per request.
//!
//! # Completion and backpressure
//!
//! [`Pool::try_submit`] returns a [`Ticket`] — a future-like handle
//! resolved by the worker that executes the job ([`Ticket::poll`] /
//! [`Ticket::wait`] / [`Ticket::wait_timeout`]). A ticket is the
//! receiving end of a one-shot channel; the job carries the sending
//! end and sends exactly once: the result, the caught panic's message,
//! or — when the job is dropped without running — a "dropped"
//! message. Dropping a ticket drops the receiver, so a late outcome is
//! discarded by its failed send. The same send can run a wake hook,
//! which is how the wire writer learns of completions without polling.
//!
//! Work beyond the queue capacity is refused with
//! [`SubmitError::QueueFull`] instead of queued unboundedly;
//! [`Pool::shutdown`] drains every queued job before the workers exit,
//! so accepted tickets always resolve.

use std::cell::OnceCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar};
use std::time::Duration;

use crate::fault::{self, FaultPlan, WorkerFault};
use crate::locks::{self, ClassedMutex, LockClass};

/// The boxed closure a worker runs against its session.
type BoxedRun<S> = Box<dyn FnOnce(&mut S) + Send>;

/// A queued unit of work: runs on a worker against its session. `tag`
/// is the pool-wide job sequence number keying the fault plan; always
/// 0 when no plan is installed (the counter is skipped entirely).
struct Job<S> {
    run: BoxedRun<S>,
    tag: u64,
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is at capacity; the job was **not** queued.
    QueueFull {
        /// Jobs waiting in the queue at the moment of refusal.
        queue_depth: usize,
        /// The configured admission capacity.
        capacity: usize,
    },
    /// [`Pool::shutdown`] has begun; no new work is admitted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull {
                queue_depth,
                capacity,
            } => write!(
                f,
                "admission queue full: {queue_depth} job(s) queued, capacity {capacity}"
            ),
            SubmitError::ShuttingDown => write!(f, "pool is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The scheduler state all workers share, behind one lock.
struct Sched<S> {
    /// The admission queue; its length is the bounded-admission gauge.
    queue: VecDeque<Job<S>>,
    shutting_down: bool,
    /// Workers whose session constructed and whose loop is (or will
    /// be) serving. A `make` closure that panics decrements this; at
    /// zero the pool is dead — admission closes and queued jobs are
    /// dropped (resolving their tickets as panicked) rather than
    /// stranded.
    alive: usize,
    /// The next job sequence number, advanced only when a fault plan
    /// is installed (see [`Job::tag`]).
    next_tag: u64,
}

/// Pool state shared by the handle and every worker thread.
struct Core<S> {
    sched: ClassedMutex<Sched<S>>,
    /// Signalled on every submission and on shutdown.
    work: Condvar,
    capacity: usize,
    /// The installed fault plan; `None` (the default) costs nothing —
    /// jobs are not even tagged.
    faults: Option<Arc<FaultPlan>>,
    /// Per-worker restart counts, maintained by the supervisor path.
    /// Indexed by worker; the budget is [`Core::max_restarts`] each.
    supervisor: ClassedMutex<Vec<u32>>,
    /// Restart budget per worker before it is abandoned for good.
    max_restarts: u32,
    /// Total restarts granted across all workers (monitoring).
    restarts_total: AtomicU64,
}

impl<S> Core<S> {
    /// Queues `run` at the back of the queue, enforcing the admission
    /// capacity.
    fn push(&self, run: BoxedRun<S>) -> Result<(), SubmitError> {
        let mut sched = self.sched.lock();
        // A dead pool (every worker's session construction panicked)
        // refuses like a shut-down one: accepting would strand the
        // ticket — nothing is left to run the job.
        if sched.shutting_down || sched.alive == 0 {
            return Err(SubmitError::ShuttingDown);
        }
        if sched.queue.len() >= self.capacity {
            return Err(SubmitError::QueueFull {
                queue_depth: sched.queue.len(),
                capacity: self.capacity,
            });
        }
        // Tag only under an installed plan: the fault hook is free
        // when off.
        let tag = if self.faults.is_some() {
            let tag = sched.next_tag;
            sched.next_tag += 1;
            tag
        } else {
            0
        };
        sched.queue.push_back(Job { run, tag });
        drop(sched);
        // Any worker can run any job, so one wake-up is enough.
        self.work.notify_one();
        Ok(())
    }

    /// The worker loop: execute until shutdown **and** the queue is
    /// empty — shutdown drains, it never abandons queued jobs.
    fn run_worker(&self, session: &mut S) {
        loop {
            let job = {
                let mut sched = self.sched.lock();
                loop {
                    if let Some(job) = sched.queue.pop_front() {
                        break Some(job);
                    }
                    if sched.shutting_down {
                        break None;
                    }
                    sched = locks::wait(&self.work, sched);
                }
            };
            match job {
                Some(job) => {
                    let run = self.apply_worker_fault(job);
                    (run.run)(session);
                }
                None => return,
            }
        }
    }

    /// The pool-side fault hook: consults the plan (when installed)
    /// for the popped job's tag. A `Delay` spins and a `Hold` waits for
    /// its gate before returning the job; a `KillWorker` **re-queues
    /// the job at the front first** — it was accepted, so its ticket
    /// must still resolve, and it keeps its place ahead of later
    /// submissions — and then panics the worker thread with no lock
    /// held, handing control to the supervisor path in [`supervise`].
    fn apply_worker_fault(&self, job: Job<S>) -> Job<S> {
        let Some(plan) = &self.faults else {
            return job;
        };
        match plan.take_worker_fault(job.tag) {
            None => job,
            Some(WorkerFault::Delay { spins }) => {
                fault::spin(spins);
                job
            }
            Some(WorkerFault::Hold) => {
                plan.hold(job.tag);
                job
            }
            Some(WorkerFault::KillWorker) => {
                self.sched.lock().queue.push_front(job);
                self.work.notify_one();
                // cfva-lint: allow(L002, reason = "the injected kill IS the fault being tested; it fires outside every lock and the supervisor path recovers it")
                panic!("injected fault: worker killed by FaultPlan");
            }
        }
    }

    /// Records a restart for `worker` against its budget. `true` grants
    /// the restart (and counts it); `false` means the budget is spent
    /// and the worker must bow out through [`Core::abandon_worker`].
    fn note_restart(&self, worker: usize) -> bool {
        {
            let mut ledger = self.supervisor.lock();
            if ledger[worker] >= self.max_restarts {
                return false;
            }
            ledger[worker] += 1;
        }
        self.restarts_total.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// A worker that will never serve again (its `make` closure
    /// panicked, or its restart budget is spent). The last live worker
    /// to fall takes every queued job down with it — dropping a job
    /// resolves its ticket as panicked (see [`Resolver`]), so waiters
    /// get an outcome, not a hang. While any worker remains alive,
    /// queued jobs are simply left for it to pop.
    fn abandon_worker(&self) {
        let orphans = {
            let mut sched = self.sched.lock();
            sched.alive -= 1;
            if sched.alive > 0 {
                VecDeque::new()
            } else {
                std::mem::take(&mut sched.queue)
            }
        };
        // Dropped outside the scheduler lock: each orphan's resolver
        // sends its ticket the "dropped" outcome and runs its wake hook.
        drop(orphans);
    }

    fn begin_shutdown(&self) {
        self.sched.lock().shutting_down = true;
        self.work.notify_all();
    }

    fn queue_depth(&self) -> usize {
        self.sched.lock().queue.len()
    }
}

/// What a take found: the job's result, or the message of the panic
/// that ended it (including a job dropped before it could run).
pub(crate) type Outcome<R> = Result<R, String>;

/// A hook run once a job's outcome is on its ticket — the completion
/// push an event-driven caller (the wire writer) sleeps on.
pub(crate) type Wake = Box<dyn FnOnce() + Send>;

/// The outcome of a job destroyed without running.
const DROPPED: &str = "job dropped before it could run (every pool worker died or \
                       its session construction panicked)";

/// A future-like completion handle for one submitted job.
///
/// Resolved exactly once by the worker that executes the job; the
/// result is **taken** by whichever of [`poll`](Ticket::poll) /
/// [`wait`](Ticket::wait) / [`wait_timeout`](Ticket::wait_timeout)
/// observes it first. If the job panicked on its worker, the panic is
/// re-raised (with its message) at the take site — a pool worker never
/// dies with the panic. Dropping a ticket abandons the job's result:
/// the job still runs (it was accepted), and its outcome is discarded
/// when it completes.
#[must_use = "a Ticket is the only handle to the request's result; drop it and the result is lost"]
pub struct Ticket<R> {
    /// The job side's one-shot channel; `None` once the outcome has
    /// been taken, and for a ticket born resolved.
    rx: Option<Receiver<Outcome<R>>>,
    /// The outcome, once [`is_ready`](Ticket::is_ready) received it
    /// off `rx` (or born resolved), until taken. Boxed to keep the
    /// ticket small.
    outcome: OnceCell<Box<Outcome<R>>>,
}

impl<R> std::fmt::Debug for Ticket<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl<R> Ticket<R> {
    /// A ticket born resolved — the serving layer's cache-hit path:
    /// the result is already known, so no worker is involved and
    /// `wait`/`poll` return immediately.
    pub(crate) fn ready(result: R) -> Self {
        Ticket {
            rx: None,
            outcome: OnceCell::from(Box::new(Ok(result))),
        }
    }

    /// Whether the job has finished (the result — or its panic — is
    /// ready to take).
    pub fn is_ready(&self) -> bool {
        if self.outcome.get().is_none() {
            if let Some(Ok(outcome)) = self.rx.as_ref().map(Receiver::try_recv) {
                let _ = self.outcome.set(Box::new(outcome));
            }
        }
        self.outcome.get().is_some()
    }

    /// Non-blocking take: `Some(result)` once the job has finished,
    /// `None` while it is still queued or running (and after the
    /// result has already been taken).
    ///
    /// # Panics
    ///
    /// Re-raises the job's panic if it panicked on its worker.
    pub fn poll(&mut self) -> Option<R> {
        self.poll_outcome().map(reraise)
    }

    /// Blocks until the job finishes and returns its result.
    ///
    /// # Panics
    ///
    /// Re-raises the job's panic if it panicked on its worker, and
    /// panics if the result was already taken through
    /// [`poll`](Ticket::poll).
    pub fn wait(self) -> R {
        reraise(self.wait_outcome())
    }

    /// Like [`wait`](Ticket::wait), but gives up after `timeout`,
    /// handing the still-pending ticket back as `Err` so the caller
    /// can keep polling or waiting.
    #[must_use = "on timeout the still-pending ticket comes back in the Err; dropping it loses the result"]
    pub fn wait_timeout(self, timeout: Duration) -> Result<R, Ticket<R>> {
        self.wait_timeout_outcome(timeout).map(reraise)
    }

    /// [`poll`](Ticket::poll) that hands a job panic back as `Err`
    /// instead of re-raising it.
    pub(crate) fn poll_outcome(&mut self) -> Option<Outcome<R>> {
        let outcome = match self.outcome.take() {
            Some(outcome) => *outcome,
            None => self.rx.as_ref()?.try_recv().ok()?,
        };
        self.rx = None;
        Some(outcome)
    }

    /// [`wait`](Ticket::wait) that hands a job panic back as `Err`
    /// instead of re-raising it. Still panics on a double take.
    pub(crate) fn wait_outcome(mut self) -> Outcome<R> {
        if let Some(outcome) = self.outcome.take() {
            return *outcome;
        }
        match &self.rx {
            Some(rx) => rx.recv().unwrap_or_else(|_| Err(DROPPED.to_string())),
            // cfva-lint: allow(L002, reason = "documented # Panics contract: double-take is a caller bug, not a load condition")
            None => panic!("ticket result already taken by poll()"),
        }
    }

    /// [`wait_timeout`](Ticket::wait_timeout) that hands a job panic
    /// back as `Ok(Err(message))` instead of re-raising it.
    pub(crate) fn wait_timeout_outcome(
        mut self,
        timeout: Duration,
    ) -> Result<Outcome<R>, Ticket<R>> {
        if let Some(outcome) = self.outcome.take() {
            return Ok(*outcome);
        }
        let Some(rx) = &self.rx else {
            // Already taken: nothing will ever arrive.
            return Err(self);
        };
        match rx.recv_timeout(timeout) {
            Ok(outcome) => Ok(outcome),
            Err(RecvTimeoutError::Timeout) => Err(self),
            Err(RecvTimeoutError::Disconnected) => Ok(Err(DROPPED.to_string())),
        }
    }
}

/// Re-raises a job's panic at the take site, per the [`Ticket`]
/// contract.
fn reraise<R>(outcome: Outcome<R>) -> R {
    // cfva-lint: allow(L002, reason = "deliberate re-raise of the job's own panic at the take site, per the Ticket contract")
    outcome.unwrap_or_else(|msg| panic!("pool job panicked: {msg}"))
}

/// The job side of a ticket: sends its one outcome, then runs the wake
/// hook. A job destroyed without running (a dead pool dropping its
/// queue, or a refused submission) resolves from `Drop` with the
/// [`DROPPED`] message, so no waiter blocks on a ticket nothing will
/// complete. A send to a dropped ticket fails, discarding the outcome.
struct Resolver<R> {
    tx: Option<SyncSender<Outcome<R>>>,
    wake: Option<Wake>,
}

impl<R> Resolver<R> {
    fn resolve(&mut self, outcome: Outcome<R>) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(outcome);
            if let Some(wake) = self.wake.take() {
                wake();
            }
        }
    }
}

impl<R> Drop for Resolver<R> {
    fn drop(&mut self) {
        if self.tx.is_some() {
            self.resolve(Err(DROPPED.to_string()));
        }
    }
}

/// Wraps a result-returning job into a queueable closure plus the
/// [`Ticket`] that observes it. Panics are caught on the worker and
/// re-raised at the ticket, so one bad request cannot kill a worker
/// (the session is handed back; `BatchRunner` scratch is rebuilt on
/// the next measurement, so a torn session state is harmless).
fn package<S, R, F>(job: F, wake: Option<Wake>) -> (BoxedRun<S>, Ticket<R>)
where
    F: FnOnce(&mut S) -> R + Send + 'static,
    R: Send + 'static,
{
    let (tx, rx) = mpsc::sync_channel(1);
    let mut resolver = Resolver { tx: Some(tx), wake };
    let boxed: BoxedRun<S> = Box::new(move |session: &mut S| {
        let outcome = catch_unwind(AssertUnwindSafe(|| job(session)));
        resolver.resolve(outcome.map_err(|payload| panic_message(payload.as_ref())));
    });
    let ticket = Ticket {
        rx: Some(rx),
        outcome: OnceCell::new(),
    };
    (boxed, ticket)
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Long-lived pool knobs beyond worker count and queue capacity —
/// fault injection and the supervisor's restart budget.
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// The fault plan to inject from, or `None` (the default) for a
    /// clean pool with zero-cost hooks.
    pub faults: Option<Arc<FaultPlan>>,
    /// Restart budget **per worker** before the supervisor gives the
    /// worker up (defaults to
    /// [`PoolOptions::DEFAULT_MAX_RESTARTS`]; a zero budget disables
    /// supervision entirely).
    pub max_restarts: u32,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions::new()
    }
}

impl PoolOptions {
    /// Default per-worker restart budget: generous enough for any
    /// plausible chaos schedule, small enough to bound a crash loop.
    pub const DEFAULT_MAX_RESTARTS: u32 = 16;

    /// Options with no fault plan and the default restart budget.
    pub fn new() -> Self {
        PoolOptions {
            faults: None,
            max_restarts: Self::DEFAULT_MAX_RESTARTS,
        }
    }

    /// Installs a fault plan.
    #[must_use]
    pub fn faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Replaces the per-worker restart budget.
    #[must_use]
    pub fn max_restarts(mut self, budget: u32) -> Self {
        self.max_restarts = budget;
        self
    }
}

/// A long-lived pool whose workers each own a session of type `S`,
/// built on the worker's own thread, and serve one shared FIFO queue.
///
/// See the [module docs](self) for the scheduling shape. Dropping the
/// pool shuts it down and **drains**: every already-accepted job runs
/// to completion first.
///
/// # Supervision
///
/// A worker thread that dies *outside* a job (job panics are caught at
/// the job boundary — only an injected kill or a substrate bug gets
/// here) is *supervised*: the dying thread records the restart against
/// its per-worker budget ([`PoolOptions::max_restarts`]), spawns a
/// replacement that rebuilds the session from scratch, and joins it —
/// so [`Pool::shutdown`]'s join of the original handle transitively
/// joins the whole restart chain. The queue is shared scheduler state,
/// so the replacement (or any peer) finishes the backlog: every
/// accepted ticket still resolves. Past the budget the worker bows out
/// through the same abandonment path as a worker whose session never
/// constructed.
pub struct Pool<S: 'static> {
    core: Arc<Core<S>>,
    handles: ClassedMutex<Vec<std::thread::JoinHandle<()>>>,
    workers: usize,
}

impl<S> std::fmt::Debug for Pool<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .field("capacity", &self.core.capacity)
            .field("queue_depth", &self.core.queue_depth())
            .field("restarts", &self.restarts())
            .finish()
    }
}

impl<S: 'static> Pool<S> {
    /// Spawns `workers` threads, each building its session with
    /// `make(worker_index)` on its own thread. `capacity` bounds the
    /// admission queue.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `capacity == 0`.
    pub fn new<F>(workers: usize, capacity: usize, make: F) -> Self
    where
        F: Fn(usize) -> S + Send + Sync + 'static,
    {
        Pool::with_options(workers, capacity, PoolOptions::new(), make)
    }

    /// [`new`](Self::new) with explicit [`PoolOptions`] — fault
    /// injection and the supervisor's restart budget.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `capacity == 0`.
    pub fn with_options<F>(workers: usize, capacity: usize, options: PoolOptions, make: F) -> Self
    where
        F: Fn(usize) -> S + Send + Sync + 'static,
    {
        assert!(workers >= 1, "a pool needs at least one worker");
        assert!(capacity >= 1, "admission capacity must be at least 1");
        let core = Arc::new(Core {
            sched: ClassedMutex::new(
                LockClass::Sched,
                Sched {
                    queue: VecDeque::new(),
                    shutting_down: false,
                    alive: workers,
                    next_tag: 0,
                },
            ),
            work: Condvar::new(),
            capacity,
            faults: options.faults,
            supervisor: ClassedMutex::new(LockClass::Supervisor, vec![0; workers]),
            max_restarts: options.max_restarts,
            restarts_total: AtomicU64::new(0),
        });
        let make = Arc::new(make);
        let handles = (0..workers)
            .map(|worker| {
                let core = Arc::clone(&core);
                let make = Arc::clone(&make);
                std::thread::spawn(move || supervise(core, make, worker))
            })
            .collect();
        Pool {
            core,
            handles: ClassedMutex::new(LockClass::Handles, handles),
            workers,
        }
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Worker restarts the supervisor has performed so far.
    pub fn restarts(&self) -> u64 {
        self.core.restarts_total.load(Ordering::Relaxed)
    }

    /// The admission-queue capacity.
    pub fn capacity(&self) -> usize {
        self.core.capacity
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.core.queue_depth()
    }

    /// Queues `job` at the back of the admission queue; the next free
    /// worker runs it. Refused with [`SubmitError::QueueFull`] when
    /// `capacity` jobs are already waiting, or
    /// [`SubmitError::ShuttingDown`] after [`shutdown`](Self::shutdown)
    /// has begun (or once every worker has died for good).
    #[must_use = "the Ticket inside is the only handle to the job's result"]
    pub fn try_submit<R, F>(&self, job: F) -> Result<Ticket<R>, SubmitError>
    where
        F: FnOnce(&mut S) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.try_submit_waking(job, None)
    }

    /// [`try_submit`](Self::try_submit) with a [`Wake`] hook, run once
    /// the job's outcome is on the ticket — including the "dropped"
    /// outcome of a job that never runs, and of a refused submission.
    pub(crate) fn try_submit_waking<R, F>(
        &self,
        job: F,
        wake: Option<Wake>,
    ) -> Result<Ticket<R>, SubmitError>
    where
        F: FnOnce(&mut S) -> R + Send + 'static,
        R: Send + 'static,
    {
        let (job, ticket) = package(job, wake);
        self.core.push(job).map(|()| ticket)
    }

    /// Graceful shutdown: no new work is admitted (further submission
    /// fails with [`SubmitError::ShuttingDown`]), every queued job is
    /// drained, in-flight jobs finish, then the workers exit and are
    /// joined. Every accepted ticket has resolved by the time this
    /// returns.
    ///
    /// Takes `&self` so a shared pool (e.g. behind an `Arc`) can be
    /// shut down while other handles still hold it. Exactly one caller
    /// performs the join; a *concurrent* second call stops admission
    /// too but may return before the drain completes.
    pub fn shutdown(&self) {
        self.core.begin_shutdown();
        let handles: Vec<_> = std::mem::take(&mut *self.handles.lock());
        for handle in handles {
            // cfva-lint: allow(L002, reason = "job panics are caught at the job boundary, so a dead worker thread means a cfva-serve bug; surfacing it beats swallowing it")
            handle.join().expect("pool worker panicked outside a job");
        }
    }
}

/// One supervised worker lifetime: build the session, serve, and —
/// should the thread die *outside* a job — restart on a fresh thread
/// within the per-worker budget (see [`Pool`]'s Supervision docs).
///
/// A panicking session **constructor** is not a supervised death: it
/// bows the worker out through the alive count (exactly the pre-
/// supervision behavior), because a constructor that panics once will
/// usually panic forever and the restart budget is better spent on
/// mid-service deaths.
fn supervise<S, F>(core: Arc<Core<S>>, make: Arc<F>, worker: usize)
where
    S: 'static,
    F: Fn(usize) -> S + Send + Sync + 'static,
{
    let served = catch_unwind(AssertUnwindSafe(|| {
        match catch_unwind(AssertUnwindSafe(|| make(worker))) {
            Ok(mut session) => core.run_worker(&mut session),
            Err(_) => core.abandon_worker(),
        }
    }));
    if served.is_err() {
        // The worker died mid-service: job panics are caught at the
        // job boundary, so this is an injected kill or a substrate
        // bug. The queue is shared scheduler state — the replacement
        // (or any peer) picks the backlog up, so every accepted ticket
        // still resolves.
        if core.note_restart(worker) {
            let (respawn_core, respawn_make) = (Arc::clone(&core), Arc::clone(&make));
            let chain = std::thread::spawn(move || supervise(respawn_core, respawn_make, worker));
            // Chain-join: `Pool::shutdown` joins the original thread,
            // which transitively joins every link of the restart
            // chain — the drain guarantee survives any number of
            // restarts. The chain link itself never propagates a
            // panic (its own death re-enters this path).
            let _ = chain.join();
        } else {
            core.abandon_worker();
        }
    }
}

impl<S: 'static> Drop for Pool<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Test shorthand: every pool here is sized so admission succeeds.
    fn submit<S: 'static, R: Send + 'static>(
        pool: &Pool<S>,
        job: impl FnOnce(&mut S) -> R + Send + 'static,
    ) -> Ticket<R> {
        pool.try_submit(job).expect("queue has room")
    }

    #[test]
    fn submit_and_wait_round_trip() {
        let pool = Pool::new(2, 16, |worker| worker);
        let t = submit(&pool, |session: &mut usize| *session + 100);
        let value = t.wait();
        assert!(value == 100 || value == 101);
        pool.shutdown();
    }

    #[test]
    fn tickets_resolve_in_any_submission_pattern() {
        let pool = Pool::new(3, 64, |_| ());
        let tickets: Vec<Ticket<u64>> = (0..50u64)
            .map(|i| submit(&pool, move |(): &mut ()| i * i))
            .collect();
        let results: Vec<u64> = tickets.into_iter().map(Ticket::wait).collect();
        assert_eq!(results, (0..50u64).map(|i| i * i).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn poll_is_none_until_done_then_takes_once() {
        let pool = Pool::new(1, 4, |_| ());
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let stall = submit(&pool, move |(): &mut ()| gate_rx.recv().unwrap());
        let mut t = submit(&pool, |(): &mut ()| 7u32);
        assert!(!t.is_ready());
        assert_eq!(t.poll(), None);
        gate_tx.send(()).unwrap();
        stall.wait();
        // The only worker is free now; the job completes promptly.
        let mut t = match t.wait_timeout(Duration::from_secs(10)) {
            Ok(v) => {
                assert_eq!(v, 7);
                return;
            }
            Err(t) => t,
        };
        // Timed out (absurd on a 10 s budget, but poll must still work).
        while t.poll().is_none() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn wait_after_poll_took_the_result_panics_already_taken() {
        let pool = Pool::new(1, 4, |_| ());
        let mut t = submit(&pool, |(): &mut ()| 7u32);
        let taken = loop {
            if let Some(v) = t.poll() {
                break v;
            }
            std::thread::yield_now();
        };
        assert_eq!(taken, 7);
        assert_eq!(t.poll(), None, "a taken result is gone");
        let outcome = catch_unwind(AssertUnwindSafe(move || t.wait()));
        let msg = panic_message(outcome.expect_err("double take panics").as_ref());
        assert!(msg.contains("already taken"), "{msg}");
        pool.shutdown();
    }

    #[test]
    fn wake_runs_once_the_outcome_is_on_the_ticket() {
        let pool = Pool::new(1, 4, |_| ());
        let (woke_tx, woke_rx) = mpsc::channel();
        let wake: Wake = Box::new(move || woke_tx.send(()).unwrap());
        let mut t = pool
            .try_submit_waking(|(): &mut ()| 5u8, Some(wake))
            .expect("room");
        woke_rx.recv().expect("the hook runs");
        assert_eq!(t.poll(), Some(5), "the outcome lands before the wake");
        pool.shutdown();

        // A job the dead pool drops unrun wakes too, with the
        // "dropped" outcome already on its ticket.
        let plan = Arc::new(FaultPlan::new().kill_worker_at(0));
        let options = PoolOptions::new().faults(plan).max_restarts(0);
        let pool = Pool::with_options(1, 8, options, |_| ());
        let (woke_tx, woke_rx) = mpsc::channel();
        let wake: Wake = Box::new(move || woke_tx.send(()).unwrap());
        let mut t = pool
            .try_submit_waking(|(): &mut ()| 1u32, Some(wake))
            .expect("room");
        woke_rx.recv().expect("the hook runs for a dropped job");
        match t.poll_outcome() {
            Some(Err(msg)) => assert!(msg.contains("dropped"), "{msg}"),
            other => panic!("expected the dropped outcome, got {other:?}"),
        }
        pool.shutdown();
    }

    #[test]
    fn wait_timeout_returns_ticket_on_pending_job() {
        let pool = Pool::new(1, 4, |_| ());
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let stall = submit(&pool, move |(): &mut ()| gate_rx.recv().unwrap());
        let t = submit(&pool, |(): &mut ()| 1u8);
        let t = t
            .wait_timeout(Duration::from_millis(10))
            .expect_err("worker is stalled; the job cannot have run");
        gate_tx.send(()).unwrap();
        stall.wait();
        assert_eq!(t.wait(), 1);
    }

    #[test]
    fn panicking_job_resolves_ticket_and_spares_the_worker() {
        let pool = Pool::new(1, 4, |_| ());
        let t = submit(&pool, |(): &mut ()| -> () { panic!("bad request") });
        let outcome = catch_unwind(AssertUnwindSafe(move || t.wait()));
        let msg = panic_message(outcome.expect_err("job panicked").as_ref());
        assert!(msg.contains("bad request"), "{msg}");
        // The worker survived and still serves.
        assert_eq!(submit(&pool, |(): &mut ()| 3u8).wait(), 3);
        pool.shutdown();
    }

    #[test]
    fn outcome_takes_hand_a_job_panic_back_instead_of_raising() {
        let pool = Pool::new(1, 4, |_| ());
        let t = submit(&pool, |(): &mut ()| -> u8 { panic!("typed boom") });
        match t.wait_outcome() {
            Err(msg) => assert!(msg.contains("typed boom"), "{msg}"),
            Ok(v) => panic!("expected the panic message, got {v}"),
        }
        pool.shutdown();
    }

    #[test]
    fn dead_long_lived_pool_refuses_or_panics_but_never_strands() {
        let pool: Pool<()> = Pool::new(2, 8, |_| panic!("make boom"));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match pool.try_submit(|(): &mut ()| 1u32) {
                // Accepted before the workers died: the dropped job
                // resolves the ticket as panicked.
                Ok(ticket) => ticket.wait(),
                // The pool was already dead at submission.
                Err(e) => {
                    assert_eq!(e, SubmitError::ShuttingDown);
                    panic!("refused: {e}")
                }
            }
        }));
        assert!(outcome.is_err(), "a dead pool must panic, not hang");
        pool.shutdown();
    }

    #[test]
    fn capacity_accessors_report_configuration() {
        let pool: Pool<()> = Pool::new(2, 5, |_| ());
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.capacity(), 5);
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn abandoned_ticket_discards_result_but_job_still_runs() {
        use std::sync::atomic::AtomicU32;
        let ran = Arc::new(AtomicU32::new(0));
        let pool = Pool::new(1, 8, |_| ());
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let stall = submit(&pool, move |(): &mut ()| gate_rx.recv().unwrap());
        let counted = Arc::clone(&ran);
        // Dropped before it can run: the job still executes (accepted
        // work always runs), and its send to the dropped ticket fails,
        // discarding the now-unwanted result.
        drop(submit(&pool, move |(): &mut ()| {
            counted.fetch_add(1, Ordering::Relaxed)
        }));
        gate_tx.send(()).unwrap();
        stall.wait();
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 1, "abandoned job must run");
    }

    #[test]
    fn injected_kill_restarts_worker_and_job_still_resolves() {
        let plan = Arc::new(FaultPlan::new().kill_worker_at(0));
        let options = PoolOptions::new().faults(plan);
        let pool = Pool::with_options(1, 8, options, |_| ());
        // Tag 0: the first accepted job. Its pop trips KillWorker — the
        // job is re-queued, the worker thread dies, the supervisor
        // restarts it, and the restarted worker serves the job.
        let t = submit(&pool, |(): &mut ()| 41u32 + 1);
        assert_eq!(t.wait(), 42);
        assert_eq!(pool.restarts(), 1);
        pool.shutdown();
    }

    #[test]
    fn killed_job_is_requeued_ahead_of_later_submissions() {
        let plan = Arc::new(FaultPlan::new().kill_worker_at(0));
        let options = PoolOptions::new().faults(plan);
        let pool = Pool::with_options(1, 8, options, |_| ());
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let tickets: Vec<Ticket<()>> = (0..4u32)
            .map(|i| {
                let order = Arc::clone(&order);
                submit(&pool, move |(): &mut ()| order.lock().unwrap().push(i))
            })
            .collect();
        tickets.into_iter().for_each(Ticket::wait);
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(pool.restarts(), 1);
        pool.shutdown();
    }

    #[test]
    fn exhausted_restart_budget_abandons_instead_of_looping() {
        // A kill against a zero restart budget: the killed worker is
        // abandoned outright. With every worker gone the pool drops
        // its orphans, so the ticket resolves (panicked) rather than
        // stranding the caller.
        let plan = Arc::new(FaultPlan::new().kill_worker_at(0));
        let options = PoolOptions::new().faults(plan).max_restarts(0);
        let pool = Pool::with_options(1, 8, options, |_| ());
        let t = submit(&pool, |(): &mut ()| 1u32);
        let outcome = catch_unwind(AssertUnwindSafe(move || t.wait()));
        assert!(outcome.is_err(), "orphaned ticket must resolve by panic");
        assert_eq!(pool.restarts(), 0);
        pool.shutdown();
    }

    #[test]
    fn panic_during_shutdown_drain_still_resolves_every_ticket() {
        let pool = Pool::new(1, 32, |_| ());
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let stall = submit(&pool, move |(): &mut ()| gate_rx.recv().unwrap());
        let panicker = submit(&pool, |(): &mut ()| -> u32 { panic!("mid-drain boom") });
        let tickets: Vec<Ticket<u64>> = (0..10u64)
            .map(|i| submit(&pool, move |(): &mut ()| i))
            .collect();
        std::thread::scope(|scope| {
            let drainer = scope.spawn(|| pool.shutdown());
            gate_tx.send(()).unwrap();
            stall.wait();
            let outcome = catch_unwind(AssertUnwindSafe(move || panicker.wait()));
            assert!(outcome.is_err(), "the panicking job resolves by re-raise");
            for (i, t) in tickets.into_iter().enumerate() {
                assert_eq!(t.wait(), i as u64, "drained jobs resolve normally");
            }
            drainer.join().expect("shutdown survives a draining panic");
        });
    }

    #[test]
    fn injected_kill_during_shutdown_drain_recovers_and_drains() {
        // Kill the worker mid-drain (tag 3 is popped while shutdown is
        // draining the queue): the supervisor must restart it and the
        // restarted worker must finish the drain.
        let plan = Arc::new(FaultPlan::new().kill_worker_at(3));
        let options = PoolOptions::new().faults(plan);
        let pool = Pool::with_options(1, 32, options, |_| ());
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let stall = submit(&pool, move |(): &mut ()| gate_rx.recv().unwrap());
        let tickets: Vec<Ticket<u64>> = (0..10u64)
            .map(|i| submit(&pool, move |(): &mut ()| i))
            .collect();
        std::thread::scope(|scope| {
            let drainer = scope.spawn(|| pool.shutdown());
            gate_tx.send(()).unwrap();
            stall.wait();
            for (i, t) in tickets.into_iter().enumerate() {
                assert_eq!(t.wait(), i as u64);
            }
            drainer.join().expect("shutdown joins the restart chain");
        });
        assert_eq!(pool.restarts(), 1);
    }

    #[test]
    fn delay_fault_only_slows_the_job_down() {
        let plan = Arc::new(FaultPlan::new().delay_at(0, 64));
        let options = PoolOptions::new().faults(plan.clone());
        let pool = Pool::with_options(1, 8, options, |_| ());
        assert_eq!(submit(&pool, |(): &mut ()| 5u8).wait(), 5);
        assert_eq!(plan.injected(), 1);
        assert_eq!(pool.restarts(), 0);
        pool.shutdown();
    }
}
