//! Pool semantics the serving layer depends on: bounded admission
//! rejects under a stalled worker, shutdown drains every accepted
//! job, and a free worker serves the shared queue behind a stalled
//! peer in submission order.

use std::sync::mpsc;
use std::time::Duration;

use cfva_serve::pool::{Pool, SubmitError, Ticket};

/// A job that blocks its worker until the test releases the gate.
fn stall_job(rx: mpsc::Receiver<()>) -> impl FnOnce(&mut usize) -> usize + Send {
    move |worker: &mut usize| {
        rx.recv().expect("gate sender dropped");
        *worker
    }
}

#[test]
fn bounded_queue_rejects_with_typed_overload_under_a_stalled_worker() {
    let pool = Pool::new(1, 2, |worker| worker);
    let (gate, gate_rx) = mpsc::channel();
    let stalled = pool
        .try_submit(stall_job(gate_rx))
        .expect("empty queue admits");
    // Give the worker a beat to pick the stall job up, so the two
    // fillers below are genuinely *queued*, not racing for the pop.
    while pool.queue_depth() > 0 {
        std::thread::yield_now();
    }

    let filler_a = pool.try_submit(|_: &mut usize| 1u32).expect("depth 0 of 2");
    let filler_b = pool.try_submit(|_: &mut usize| 2u32).expect("depth 1 of 2");
    let err = pool
        .try_submit(|_: &mut usize| 3u32)
        .expect_err("queue is at capacity");
    assert_eq!(
        err,
        SubmitError::QueueFull {
            queue_depth: 2,
            capacity: 2
        }
    );
    // Typed, recoverable backpressure: release the worker and the pool
    // serves again — including the very submission it just refused.
    gate.send(()).unwrap();
    assert_eq!(stalled.wait(), 0);
    assert_eq!(filler_a.wait(), 1);
    assert_eq!(filler_b.wait(), 2);
    assert_eq!(
        pool.try_submit(|_: &mut usize| 3u32)
            .expect("room again")
            .wait(),
        3
    );
    pool.shutdown();
}

#[test]
fn shutdown_drains_every_accepted_job() {
    let pool = Pool::new(2, 1024, |worker| worker);
    let tickets: Vec<Ticket<u64>> = (0..200u64)
        .map(|i| {
            pool.try_submit(move |_: &mut usize| i * 3)
                .expect("queue has room")
        })
        .collect();
    // Shutdown must block until queued AND in-flight jobs finish; by
    // the time it returns, every ticket has resolved.
    pool.shutdown();
    for (i, mut ticket) in tickets.into_iter().enumerate() {
        let value = ticket
            .poll()
            .expect("shutdown returned, so the job must have completed");
        assert_eq!(value, i as u64 * 3);
    }
}

#[test]
fn submission_after_shutdown_begins_is_refused_and_accepted_work_drains() {
    let pool = Pool::new(1, 64, |worker| worker);
    let (gate, gate_rx) = mpsc::channel();
    let stalled = pool
        .try_submit(stall_job(gate_rx))
        .expect("empty queue admits");

    std::thread::scope(|scope| {
        let pool = &pool;
        // Shutdown from another thread: it flips the admission flag
        // immediately, then blocks joining the stalled worker.
        let shutdown = scope.spawn(move || pool.shutdown());

        // Keep submitting until the typed refusal arrives. Requests
        // accepted in the meantime (and QueueFull bounces off the
        // still-stalled worker) are both legitimate interleavings.
        let mut accepted = Vec::new();
        loop {
            match pool.try_submit(|worker: &mut usize| *worker) {
                Ok(ticket) => accepted.push(ticket),
                Err(SubmitError::ShuttingDown) => break,
                Err(SubmitError::QueueFull { .. }) => {}
            }
            std::thread::yield_now();
        }

        gate.send(()).unwrap();
        shutdown.join().expect("shutdown thread panicked");
        // Shutdown drains: everything accepted before the flag flipped
        // has resolved.
        for mut ticket in accepted {
            assert_eq!(ticket.poll(), Some(0));
        }
    });
    assert_eq!(stalled.wait(), 0);
}

#[test]
fn a_free_worker_serves_the_queue_behind_a_gated_peer_in_order() {
    // Sessions are the worker index, so each job reports who ran it.
    let pool = Pool::new(2, 64, |worker| worker);
    let (gate, gate_rx) = mpsc::channel();
    let (holder_tx, holder_rx) = mpsc::channel();

    // Gate whichever worker pops the first job; it reports its index
    // before blocking.
    let gated = pool
        .try_submit(move |worker: &mut usize| {
            holder_tx.send(*worker).expect("test alive");
            gate_rx.recv().expect("gate sender dropped");
            *worker
        })
        .expect("empty queue admits");
    let holder = holder_rx.recv().expect("gate job started");
    let free = 1 - holder;

    // Everything queued behind the gated job can only be popped by the
    // free worker, one job at a time from the front of the queue.
    let (order_tx, order_rx) = mpsc::channel();
    let backlog: Vec<Ticket<usize>> = (0..8u32)
        .map(|i| {
            let order_tx = order_tx.clone();
            pool.try_submit(move |worker: &mut usize| {
                order_tx.send(i).expect("test alive");
                *worker
            })
            .expect("queue has room")
        })
        .collect();

    let mut ran_on: Vec<usize> = Vec::new();
    for ticket in backlog {
        match ticket.wait_timeout(Duration::from_secs(30)) {
            Ok(worker) => ran_on.push(worker),
            Err(_) => panic!("a job queued behind a gated worker never ran"),
        }
    }
    assert!(
        ran_on.iter().all(|&w| w == free),
        "worker {holder} was gated; every queued job must have run on \
         worker {free}, got {ran_on:?}"
    );
    let order: Vec<u32> = order_rx.try_iter().collect();
    assert_eq!(order, (0..8).collect::<Vec<_>>(), "FIFO: submission order");

    gate.send(()).unwrap();
    assert_eq!(gated.wait(), holder);
    pool.shutdown();
}
