//! Lock classes and the debug-build lock-order checker.
//!
//! # The hierarchy: every lock is a leaf
//!
//! The serving layer owns eight lock classes ([`LockClass`]): the
//! scheduler ([`Sched`](LockClass::Sched)), the worker-handle registry
//! ([`Handles`](LockClass::Handles)), the spec table
//! ([`SpecTable`](LockClass::SpecTable)), the result-cache shards
//! ([`CacheShard`](LockClass::CacheShard)), the pool supervisor's
//! restart ledger ([`Supervisor`](LockClass::Supervisor)), the wire
//! front end's connection registry
//! ([`WireConns`](LockClass::WireConns)), the wire codec's
//! `&'static str` intern pool
//! ([`WireIntern`](LockClass::WireIntern)) and each wire connection's
//! write half ([`WireSink`](LockClass::WireSink)) — the last three
//! acquired only by `cfva-wire`, which reuses this module rather than
//! growing a second lock discipline. The concurrency design keeps the
//! hierarchy deliberately **flat**: a thread holds at most one of
//! them at a time.
//!
//! * Workers pop a job under `Sched`, release, *then* run it. Tickets
//!   resolve through one-shot channels, not a lock.
//! * Cache lookups and population (`CacheShard`) happen before
//!   submission or after completion, never under `Sched`.
//! * `SpecTable` guards the service's raw-spec → resolved-entry map.
//!   A submit holds it for one hash probe plus an `Arc` clone, or for
//!   one insert; the spec parse and map build of a first touch run
//!   between two acquisitions, never under it.
//! * `Handles` is touched only by `shutdown`, after admission closes.
//! * `Supervisor` is touched only on the worker-death path: a dying
//!   worker thread records its restart (and reads the restart budget)
//!   *after* every scheduler guard is gone — the respawn itself, and
//!   any subsequent `Sched` acquisition by the replacement, happens
//!   strictly outside the ledger lock.
//! * `WireConns` guards the wire server's list of live connection
//!   handles. The acceptor swaps out finished handles and pushes the
//!   new one under the lock, and joins the finished ones after
//!   releasing it; drain-on-shutdown swaps the list out under the
//!   lock and joins the per-connection threads strictly after
//!   releasing it (a joined thread may be blocked acquiring `Sched`,
//!   so joining under `WireConns` would nest by proxy).
//! * `WireIntern` guards the codec's append-only pool of leaked
//!   `&'static str` values (decoding `ConfigError` needs statics).
//!   Interning is pure string work; no other lock is reachable from
//!   inside it.
//! * `WireSink` guards one connection's socket write half and its
//!   queued frames, shared by the connection's reader (which answers
//!   cache hits, stats and rejections itself) and its writer (which
//!   reaps pending tickets). It is held only to encode a frame or to
//!   flush: every service call (submit, ticket poll, stats) and every
//!   decode, which may intern under `WireIntern`, happens before the
//!   acquisition, so it stays a leaf. A flush under it blocks for at
//!   most the socket's short write timeout.
//!
//! So any nested acquisition is a bug by definition: either a latent
//! deadlock (two threads nesting in opposite orders) or an accidental
//! extension of a critical section. Two checkers enforce this, one
//! static and one dynamic:
//!
//! * `cfva-lint`'s **L001** rejects nested guard scopes at the token
//!   level, in CI, without running anything;
//! * this module's [`ClassedMutex`] maintains a thread-local stack of
//!   held classes in **debug builds** and panics at the acquisition
//!   site of any second lock — catching at runtime whatever shape the
//!   static scan cannot see (locks passed across functions, guards
//!   stored in temporaries). Release builds compile the bookkeeping
//!   out entirely: `lock()` is a plain `Mutex::lock` plus an enum tag.
//!
//! Poisoning is handled here, once: every lock in this crate guards
//! state that is only ever mutated in small, panic-free critical
//! sections (jobs run *outside* the locks, with panics caught at the
//! job boundary), so a poisoned lock means a bug in this crate itself,
//! not a bad request — unrecoverable by design.

use std::sync::{Condvar, Mutex, MutexGuard};

/// The serve-layer lock classes. See the [module docs](self) for what
/// each guards and why they never nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockClass {
    /// The pool scheduler: the admission queue, behind one lock.
    Sched,
    /// The pool's worker `JoinHandle` registry.
    Handles,
    /// The service's spec table: raw spec string → resolved entry.
    SpecTable,
    /// One shard of the canonical result cache.
    CacheShard,
    /// The pool supervisor's per-worker restart ledger.
    Supervisor,
    /// The wire server's live-connection registry (`cfva-wire`).
    WireConns,
    /// The wire codec's `&'static str` intern pool (`cfva-wire`).
    WireIntern,
    /// One wire connection's write half and queued frames
    /// (`cfva-wire`).
    WireSink,
}

/// A `Mutex` that knows which [`LockClass`] it belongs to and, in
/// debug builds, enforces the leaf discipline on every acquisition.
#[derive(Debug)]
pub struct ClassedMutex<T> {
    class: LockClass,
    inner: Mutex<T>,
}

impl<T> ClassedMutex<T> {
    /// Wraps `value` in a mutex of the given class.
    pub fn new(class: LockClass, value: T) -> Self {
        ClassedMutex {
            class,
            inner: Mutex::new(value),
        }
    }

    /// Locks, panicking in debug builds if *any* serve lock is already
    /// held by this thread (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned — see the module docs for why
    /// poisoning is unrecoverable by design here.
    pub fn lock(&self) -> ClassedGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = order::acquire(self.class);
        // cfva-lint: allow(L002, reason = "the single poison point for every serve lock: critical sections are panic-free, so poison means a cfva-serve bug (see module docs)")
        let inner = self.inner.lock().expect("cfva-serve lock poisoned");
        ClassedGuard {
            inner,
            class: self.class,
            #[cfg(debug_assertions)]
            _held: held,
        }
    }

    /// The class this mutex was registered under.
    pub fn class(&self) -> LockClass {
        self.class
    }
}

/// The guard of a [`ClassedMutex`]; releases the debug-build held
/// token when dropped.
pub struct ClassedGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    class: LockClass,
    #[cfg(debug_assertions)]
    _held: order::Held,
}

impl<'a, T> ClassedGuard<'a, T> {
    /// Rewraps a raw guard handed back by a condvar, re-registering the
    /// class with the debug checker.
    fn renew(class: LockClass, inner: MutexGuard<'a, T>) -> Self {
        ClassedGuard {
            inner,
            class,
            #[cfg(debug_assertions)]
            _held: order::acquire(class),
        }
    }

    /// Unwraps the raw guard, dropping the debug held token *now*.
    ///
    /// This must be an explicit `drop`: a `ClassedGuard { inner, .. }`
    /// destructure keeps the ignored fields alive to the end of the
    /// enclosing scope, so the token would still be registered while a
    /// condvar wait believes the lock is released — and `renew` on
    /// wake-up would trip the checker on the lock's own class.
    fn into_inner(self) -> MutexGuard<'a, T> {
        #[cfg(debug_assertions)]
        drop(self._held);
        self.inner
    }
}

impl<T> std::fmt::Debug for ClassedGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassedGuard")
            .field("class", &self.class)
            .finish_non_exhaustive()
    }
}

impl<T> std::ops::Deref for ClassedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for ClassedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// `Condvar::wait` over a classed guard. The held token is released
/// for the duration of the wait — the condvar unlocks the mutex, so
/// the thread genuinely holds nothing — and re-acquired on wake-up.
///
/// # Panics
///
/// Panics if the lock is poisoned (see the [module docs](self)).
pub fn wait<'a, T>(cv: &Condvar, guard: ClassedGuard<'a, T>) -> ClassedGuard<'a, T> {
    let class = guard.class;
    // The wait releases the mutex, so the checker must see the held
    // token released too — before the wait, not at end of scope.
    let inner = guard.into_inner();
    // cfva-lint: allow(L002, reason = "same single poison point as ClassedMutex::lock")
    let inner = cv.wait(inner).expect("cfva-serve lock poisoned");
    ClassedGuard::renew(class, inner)
}

/// The debug-build checker: a thread-local stack of held classes.
/// Compiled out entirely in release builds.
#[cfg(debug_assertions)]
mod order {
    use super::LockClass;
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<LockClass>> = const { RefCell::new(Vec::new()) };
    }

    /// Proof of a registered acquisition; pops the stack when dropped.
    pub(super) struct Held {
        class: LockClass,
    }

    /// Registers an acquisition, panicking if this thread already
    /// holds any serve lock — the leaf discipline.
    pub(super) fn acquire(class: LockClass) -> Held {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&outer) = held.last() {
                // cfva-lint: allow(L002, reason = "the dynamic checker's whole job is to panic at the violating acquisition in debug builds")
                panic!(
                    "lock-order violation: acquiring {class:?} while {outer:?} is held — \
                     cfva-serve locks are leaves and must not nest (see cfva_serve::locks)"
                );
            }
            held.push(class);
        });
        Held { class }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|held| {
                let popped = held.borrow_mut().pop();
                debug_assert_eq!(popped, Some(self.class), "lock release order corrupted");
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_acquisitions_are_fine() {
        let a = ClassedMutex::new(LockClass::Sched, 1u32);
        let b = ClassedMutex::new(LockClass::Handles, 2u32);
        assert_eq!(*a.lock(), 1);
        assert_eq!(*b.lock(), 2);
        assert_eq!(*a.lock(), 1); // re-lock after release is fine too
        assert_eq!(a.class(), LockClass::Sched);
    }

    #[test]
    fn guard_mutation_round_trips() {
        let m = ClassedMutex::new(LockClass::SpecTable, vec![1u32]);
        m.lock().push(2);
        assert_eq!(*m.lock(), vec![1, 2]);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn nested_distinct_classes_panic_in_debug() {
        let outcome = std::panic::catch_unwind(|| {
            let a = ClassedMutex::new(LockClass::Sched, ());
            let b = ClassedMutex::new(LockClass::CacheShard, ());
            let _g1 = a.lock();
            let _g2 = b.lock(); // leaf discipline: any second lock is a bug
        });
        let msg = match outcome {
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default(),
            Ok(()) => String::new(),
        };
        assert!(
            msg.contains("lock-order violation")
                && msg.contains("CacheShard")
                && msg.contains("Sched"),
            "expected a lock-order panic naming both classes, got: {msg}"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn nested_same_class_panics_in_debug() {
        // Same class nested is a self-deadlock on a std Mutex; the
        // checker rejects it before the deadlock.
        let outcome = std::panic::catch_unwind(|| {
            let a = ClassedMutex::new(LockClass::Handles, ());
            let b = ClassedMutex::new(LockClass::Handles, ());
            let _g1 = a.lock();
            let _g2 = b.lock();
        });
        assert!(outcome.is_err());
    }

    #[test]
    fn threads_track_held_locks_independently() {
        // The checker is per-thread: two threads may each hold one
        // lock concurrently without tripping it.
        let a = std::sync::Arc::new(ClassedMutex::new(LockClass::Sched, 0u32));
        let b = std::sync::Arc::new(ClassedMutex::new(LockClass::CacheShard, 0u32));
        let (a2, b2) = (std::sync::Arc::clone(&a), std::sync::Arc::clone(&b));
        let t = std::thread::spawn(move || {
            for _ in 0..100 {
                *a2.lock() += 1;
            }
            *b2.lock() += 1;
        });
        for _ in 0..100 {
            *b.lock() += 1;
        }
        t.join().expect("checker thread must not panic");
        assert_eq!(*a.lock(), 100);
        assert_eq!(*b.lock(), 101);
    }
}
