//! Deterministic fault injection for the serving substrate.
//!
//! A [`FaultPlan`] is a *seeded, reproducible* schedule of failures:
//! it decides **up front** — from a `u64` seed or an explicit builder —
//! which pool jobs die, which are artificially delayed, which service
//! submissions panic on their worker, where queue-pressure bursts land
//! and when the result cache is poisoned. Nothing here consults the
//! wall clock or an ambient RNG (the schedule is a pure function of
//! the seed, same discipline cfva-lint's L003 enforces on the engine
//! crates), so a chaos run replays bit-identically: the same seed
//! produces the same faults at the same submission indices on every
//! machine.
//!
//! # Wiring
//!
//! * [`ServiceConfig::fault_plan`](crate::service::ServiceConfig) hands
//!   one plan to both the service (submission-indexed faults,
//!   [`SubmitFault`]) and its pool (job-indexed faults,
//!   [`WorkerFault`]).
//! * When no plan is installed the hooks cost nothing: the pool skips
//!   even the per-job sequence counter, and the service's per-submit
//!   check is a `None` branch.
//! * A [`WorkerFault::Hold`] parks its job's worker until the test
//!   holding the plan's [`Gate`] releases it — a wedge with no time
//!   margin. The worker reports that it is parked, and waits for the
//!   release, over one-shot channels of the kind tickets use.
//! * Every scheduled fault fires **at most once** (an atomic
//!   take-once flag per scheduled index): a job re-queued after an
//!   injected worker kill, or retried after an injected panic, runs
//!   clean on its second attempt — which is what makes bounded retry a
//!   sound recovery strategy under injection.
//!
//! The injector is the *proof harness* for the self-healing machinery
//! in [`pool`](crate::pool) and [`service`](crate::service): the chaos
//! suite (`tests/chaos.rs`) asserts that under any seeded plan every
//! accepted ticket still resolves, shutdown still drains, and results
//! stay bit-identical to the fault-free run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};

/// A fault the pool injects at one of its job sequence numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Kill the worker thread that popped the job: the job is re-queued
    /// first (it must still resolve), then the worker panics outside
    /// every lock — exercising the supervisor's restart path.
    KillWorker,
    /// Spin the worker for `spins` busy-loop iterations before running
    /// the job — a stuck-job stand-in that needs no wall clock.
    Delay {
        /// Busy-loop iterations (`std::hint::spin_loop`).
        spins: u32,
    },
    /// Park the worker that popped the job until the [`Gate`] returned
    /// by [`FaultPlan::hold_at`] is released or dropped, then run the
    /// job — a stuck job that ends exactly when the test says so.
    Hold,
}

/// A fault the service injects at one of its submission indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitFault {
    /// The submission's first execution attempt panics on its worker —
    /// exercising retry-with-backoff (the retry runs clean).
    PanicJob,
    /// Flood the admission queue with `jobs` no-op jobs right before
    /// this submission — queue-pressure exercising backpressure
    /// ([`ServeError::Overloaded`](crate::api::ServeError::Overloaded)).
    QueueBurst {
        /// Number of no-op filler jobs.
        jobs: u32,
    },
    /// Drop every entry of the result cache before this submission —
    /// a poisoned/invalidated cache must only cost recomputation,
    /// never correctness.
    PoisonCache,
}

/// A scheduled fault that fires at most once.
#[derive(Debug)]
struct Armed<F> {
    fault: F,
    fired: AtomicBool,
}

impl<F: Copy> Armed<F> {
    fn new(fault: F) -> Self {
        Armed {
            fault,
            fired: AtomicBool::new(false),
        }
    }

    /// The fault, the first time only.
    fn take(&self) -> Option<F> {
        (!self.fired.swap(true, Ordering::Relaxed)).then_some(self.fault)
    }
}

/// A deterministic schedule of injected faults. See the
/// [module docs](self).
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Pool job sequence number → fault.
    worker: HashMap<u64, Armed<WorkerFault>>,
    /// Service submission index → fault.
    submit: HashMap<u64, Armed<SubmitFault>>,
    /// Pool job sequence number of a [`WorkerFault::Hold`] → the
    /// channel its worker sends its release channel on once parked.
    holds: HashMap<u64, SyncSender<SyncSender<()>>>,
    /// Faults actually fired so far (worker + submit).
    injected: AtomicU64,
}

impl FaultPlan {
    /// An empty plan to grow with the `*_at` builder methods.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// A pseudo-random plan over the first `horizon` indices, derived
    /// entirely from `seed` (SplitMix64 — no ambient RNG): roughly one
    /// index in six gets a fault, with every [`WorkerFault`] and
    /// [`SubmitFault`] kind represented in the mix. Worker and
    /// submission schedules are drawn independently, so pool-side and
    /// service-side faults interleave freely.
    pub fn seeded(seed: u64, horizon: u64) -> Self {
        let mut plan = FaultPlan::new();
        for i in 0..horizon {
            let w = splitmix64(seed ^ 0x9e37_79b9_7f4a_7c15, i);
            if w.is_multiple_of(6) {
                let fault = match (w >> 8) % 3 {
                    0 => WorkerFault::KillWorker,
                    _ => WorkerFault::Delay {
                        spins: 1 + (w >> 16) as u32 % 4096,
                    },
                };
                plan.worker.insert(i, Armed::new(fault));
            }
            let s = splitmix64(seed ^ 0x2545_f491_4f6c_dd1d, i);
            if s.is_multiple_of(6) {
                let fault = match (s >> 8) % 4 {
                    0 => SubmitFault::PoisonCache,
                    1 => SubmitFault::QueueBurst {
                        jobs: 1 + (s >> 16) as u32 % 8,
                    },
                    _ => SubmitFault::PanicJob,
                };
                plan.submit.insert(i, Armed::new(fault));
            }
        }
        plan
    }

    /// Schedules a [`WorkerFault::KillWorker`] at pool job `seq`.
    #[must_use]
    pub fn kill_worker_at(mut self, seq: u64) -> Self {
        self.worker.insert(seq, Armed::new(WorkerFault::KillWorker));
        self
    }

    /// Schedules a [`WorkerFault::Delay`] of `spins` at pool job `seq`.
    #[must_use]
    pub fn delay_at(mut self, seq: u64, spins: u32) -> Self {
        self.worker
            .insert(seq, Armed::new(WorkerFault::Delay { spins }));
        self
    }

    /// Schedules a [`WorkerFault::Hold`] at pool job `seq`, and returns
    /// the [`Gate`] that releases it.
    #[must_use]
    pub fn hold_at(mut self, seq: u64) -> (Self, Gate) {
        let (parked, held) = mpsc::sync_channel(1);
        self.worker.insert(seq, Armed::new(WorkerFault::Hold));
        self.holds.insert(seq, parked);
        (
            self,
            Gate {
                held,
                release: None,
            },
        )
    }

    /// Parks the calling worker, which popped pool job `seq`, until the
    /// job's [`Gate`] is released or dropped. Returns at once when no
    /// hold is scheduled there or the gate is already gone.
    pub(crate) fn hold(&self, seq: u64) {
        let Some(parked) = self.holds.get(&seq) else {
            return;
        };
        let (release, released) = mpsc::sync_channel(1);
        if parked.send(release).is_ok() {
            // A release or a dropped gate both end the wait.
            let _ = released.recv();
        }
    }

    /// Schedules a [`SubmitFault::PanicJob`] at submission `index`.
    #[must_use]
    pub fn panic_at(mut self, index: u64) -> Self {
        self.submit.insert(index, Armed::new(SubmitFault::PanicJob));
        self
    }

    /// Schedules a [`SubmitFault::QueueBurst`] at submission `index`.
    #[must_use]
    pub fn burst_at(mut self, index: u64, jobs: u32) -> Self {
        self.submit
            .insert(index, Armed::new(SubmitFault::QueueBurst { jobs }));
        self
    }

    /// Schedules a [`SubmitFault::PoisonCache`] at submission `index`.
    #[must_use]
    pub fn poison_cache_at(mut self, index: u64) -> Self {
        self.submit
            .insert(index, Armed::new(SubmitFault::PoisonCache));
        self
    }

    /// The fault scheduled for pool job `seq`, fired at most once.
    pub fn take_worker_fault(&self, seq: u64) -> Option<WorkerFault> {
        let fault = self.worker.get(&seq).and_then(Armed::take);
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// The fault scheduled for submission `index`, fired at most once.
    pub fn take_submit_fault(&self, index: u64) -> Option<SubmitFault> {
        let fault = self.submit.get(&index).and_then(Armed::take);
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// Faults fired so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Faults scheduled (fired or not): worker-side, submit-side.
    pub fn scheduled(&self) -> (usize, usize) {
        (self.worker.len(), self.submit.len())
    }
}

/// The test's side of a [`WorkerFault::Hold`]: learns when the held
/// job's worker is parked, and lets the job run when released or
/// dropped.
#[derive(Debug)]
pub struct Gate {
    /// Where the parked worker sends its release channel.
    held: Receiver<SyncSender<()>>,
    /// The parked worker's release channel, once it has arrived.
    release: Option<SyncSender<()>>,
}

impl Gate {
    /// Blocks until the worker that popped the held job is parked at
    /// the gate: from then on the job runs only after
    /// [`release`](Gate::release). Returns early if the plan is dropped
    /// before the job is popped.
    pub fn wait_held(&mut self) {
        if self.release.is_none() {
            self.release = self.held.recv().ok();
        }
    }

    /// Lets the held job run (dropping the gate does too).
    pub fn release(self) {}
}

/// SplitMix64 of `seed` advanced `n` steps — the plan's only source of
/// randomness, chosen for its tiny, dependency-free, stable definition.
fn splitmix64(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(n.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Busy-spins for `spins` iterations — the deterministic stand-in for
/// "this job is slow" (no `thread::sleep`, no wall clock).
pub fn spin(spins: u32) {
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(42, 256);
        let b = FaultPlan::seeded(42, 256);
        for i in 0..256 {
            assert_eq!(a.take_worker_fault(i), b.take_worker_fault(i), "seq {i}");
            assert_eq!(a.take_submit_fault(i), b.take_submit_fault(i), "idx {i}");
        }
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn seeded_plans_cover_every_fault_kind() {
        // One generous horizon must exercise every variant — otherwise
        // the chaos suite would silently stop testing a recovery path.
        let plan = FaultPlan::seeded(7, 4096);
        let (mut kills, mut delays, mut panics, mut bursts, mut poisons) = (0, 0, 0, 0, 0);
        for i in 0..4096 {
            match plan.take_worker_fault(i) {
                Some(WorkerFault::KillWorker) => kills += 1,
                Some(WorkerFault::Delay { .. }) => delays += 1,
                Some(WorkerFault::Hold) | None => {}
            }
            match plan.take_submit_fault(i) {
                Some(SubmitFault::PanicJob) => panics += 1,
                Some(SubmitFault::QueueBurst { .. }) => bursts += 1,
                Some(SubmitFault::PoisonCache) => poisons += 1,
                None => {}
            }
        }
        assert!(
            kills > 0 && delays > 0 && panics > 0 && bursts > 0 && poisons > 0,
            "kinds: {kills} kills, {delays} delays, {panics} panics, {bursts} bursts, {poisons} poisons"
        );
    }

    #[test]
    fn faults_fire_exactly_once() {
        let plan = FaultPlan::new().kill_worker_at(3).panic_at(5);
        assert_eq!(plan.take_worker_fault(3), Some(WorkerFault::KillWorker));
        assert_eq!(plan.take_worker_fault(3), None, "fired already");
        assert_eq!(plan.take_submit_fault(5), Some(SubmitFault::PanicJob));
        assert_eq!(plan.take_submit_fault(5), None, "fired already");
        assert_eq!(plan.take_worker_fault(4), None, "never scheduled");
        assert_eq!(plan.injected(), 2);
        assert_eq!(plan.scheduled(), (1, 1));
    }

    #[test]
    fn builder_kinds_round_trip() {
        let plan = FaultPlan::new()
            .delay_at(0, 17)
            .burst_at(1, 9)
            .poison_cache_at(2);
        assert_eq!(
            plan.take_worker_fault(0),
            Some(WorkerFault::Delay { spins: 17 })
        );
        assert_eq!(
            plan.take_submit_fault(1),
            Some(SubmitFault::QueueBurst { jobs: 9 })
        );
        assert_eq!(plan.take_submit_fault(2), Some(SubmitFault::PoisonCache));
        spin(17); // the delay helper itself must be callable and finite
    }

    #[test]
    fn a_held_job_waits_for_its_gate() {
        let (plan, mut gate) = FaultPlan::new().hold_at(2);
        let plan = std::sync::Arc::new(plan);
        let (done_tx, done) = mpsc::sync_channel(1);
        let worker = {
            let plan = std::sync::Arc::clone(&plan);
            std::thread::spawn(move || {
                assert_eq!(plan.take_worker_fault(2), Some(WorkerFault::Hold));
                plan.hold(2);
                done_tx.send(()).expect("the test waits for it");
            })
        };
        gate.wait_held();
        assert!(done.try_recv().is_err(), "parked until released");
        gate.release();
        done.recv().expect("released jobs run");
        worker.join().expect("the worker exits");
        assert_eq!(plan.injected(), 1);
        plan.hold(3); // nothing scheduled there: returns at once
    }
}
