//! One memory module: service stage plus bounded input/output queues.

use std::collections::VecDeque;

use crate::system::Request;

/// A single memory module.
///
/// Pipeline: `input queue (q) → service (T cycles) → output queue (q')`.
/// A module accepts one request into service per `T` cycles; when its
/// output queue is full at completion time the finished request blocks
/// the service stage (back-pressure), exactly like a real bank whose
/// read latch has not been drained.
///
/// This is the model the per-cycle oracle ([`Engine::Cycle`](crate::Engine::Cycle))
/// and the work-conserving multi-stream arbiter tick.
#[derive(Debug, Clone)]
pub struct MemModule {
    t_cycles: u64,
    q_in_cap: usize,
    q_out_cap: usize,
    in_q: VecDeque<Request>,
    /// Request in service and the cycle its service completes.
    service: Option<(Request, u64)>,
    out_q: VecDeque<Request>,
    // Statistics.
    busy_cycles: u64,
    served: u64,
    queued_conflicts: u64,
    max_in_q: usize,
}

impl MemModule {
    /// Creates an idle module with the given service time and queue
    /// capacities.
    pub fn new(t_cycles: u64, q_in_cap: usize, q_out_cap: usize) -> Self {
        MemModule {
            t_cycles,
            q_in_cap,
            q_out_cap,
            in_q: VecDeque::with_capacity(q_in_cap),
            service: None,
            out_q: VecDeque::with_capacity(q_out_cap),
            busy_cycles: 0,
            served: 0,
            queued_conflicts: 0,
            max_in_q: 0,
        }
    }

    /// Returns the module to its just-constructed idle state, keeping
    /// the queue allocations for reuse (the batch-runner hot path resets
    /// a long-lived module array instead of reallocating it).
    pub fn reset(&mut self) {
        self.in_q.clear();
        self.service = None;
        self.out_q.clear();
        self.busy_cycles = 0;
        self.served = 0;
        self.queued_conflicts = 0;
        self.max_in_q = 0;
    }

    /// Whether the input queue can accept another request.
    pub fn can_accept(&self) -> bool {
        self.in_q.len() < self.q_in_cap
    }

    /// Enqueues a request into the input buffer.
    ///
    /// # Panics
    ///
    /// Panics if the input queue is full; callers check
    /// [`can_accept`](Self::can_accept) first (the processor stalls
    /// instead of overflowing the buffer).
    pub fn accept(&mut self, req: Request) {
        assert!(self.can_accept(), "input queue overflow");
        self.in_q.push_back(req);
        self.max_in_q = self.max_in_q.max(self.in_q.len());
    }

    /// Phase 1 of a cycle: completes the in-service request if its time
    /// has come and the output queue has space.
    pub fn tick_complete(&mut self, cycle: u64) {
        if let Some((req, ready_at)) = self.service {
            if cycle >= ready_at && self.out_q.len() < self.q_out_cap {
                self.out_q.push_back(req);
                self.service = None;
            }
        }
    }

    /// Phase 4 of a cycle: starts serving the next queued request if the
    /// service stage is free.
    pub fn tick_start(&mut self, cycle: u64) {
        if self.service.is_none() {
            if let Some(req) = self.in_q.pop_front() {
                if cycle > req.issue_cycle {
                    self.queued_conflicts += 1;
                }
                self.service = Some((req, cycle + self.t_cycles));
                self.busy_cycles += self.t_cycles;
                self.served += 1;
            }
        }
    }

    /// Completion cycle of the oldest finished request waiting on the
    /// return bus, if any.
    pub fn output_ready(&self) -> Option<u64> {
        self.out_q.front().map(|r| r.issue_cycle)
    }

    /// Whether the output queue holds at least one finished request.
    pub fn has_output(&self) -> bool {
        !self.out_q.is_empty()
    }

    /// The request currently in service, if any.
    pub fn in_service(&self) -> Option<&Request> {
        self.service.as_ref().map(|(req, _)| req)
    }

    /// Removes and returns the oldest finished request (bus grant).
    pub fn take_output(&mut self) -> Option<Request> {
        self.out_q.pop_front()
    }

    /// Whether the module still holds work (queued, in service, or
    /// waiting on the bus).
    pub fn is_active(&self) -> bool {
        !self.in_q.is_empty() || self.service.is_some() || !self.out_q.is_empty()
    }

    /// Total cycles the service stage was occupied.
    pub const fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Requests served by this module.
    pub const fn served(&self) -> u64 {
        self.served
    }

    /// Requests that had to wait in the input queue before service — the
    /// simulator's per-module conflict count.
    pub const fn queued_conflicts(&self) -> u64 {
        self.queued_conflicts
    }

    /// Highest input-queue occupancy observed.
    pub const fn max_in_q(&self) -> usize {
        self.max_in_q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfva_core::{Addr, ModuleId};

    fn req(element: u64, cycle: u64) -> Request {
        Request {
            element,
            addr: Addr::new(element),
            module: ModuleId::new(0),
            issue_cycle: cycle,
        }
    }

    #[test]
    fn service_takes_t_cycles() {
        let mut m = MemModule::new(4, 1, 1);
        m.accept(req(0, 0));
        m.tick_complete(0);
        m.tick_start(0); // service 0..4
        for c in 1..4 {
            m.tick_complete(c);
            assert!(!m.has_output(), "not done at cycle {c}");
            m.tick_start(c);
        }
        m.tick_complete(4);
        assert!(m.has_output());
        assert_eq!(m.take_output().unwrap().element, 0);
    }

    #[test]
    fn back_to_back_service() {
        let mut m = MemModule::new(2, 2, 2);
        m.accept(req(0, 0));
        m.tick_complete(0);
        m.tick_start(0);
        m.accept(req(1, 1));
        // Cycle 2: first completes, second starts immediately.
        m.tick_complete(2);
        m.tick_start(2);
        assert!(m.has_output());
        m.tick_complete(4);
        m.take_output();
        assert!(m.has_output());
        assert_eq!(m.take_output().unwrap().element, 1);
        assert_eq!(m.served(), 2);
        assert_eq!(m.busy_cycles(), 4);
    }

    #[test]
    fn queued_request_counts_as_conflict() {
        let mut m = MemModule::new(4, 2, 2);
        m.accept(req(0, 0));
        m.tick_complete(0);
        m.tick_start(0);
        m.accept(req(1, 1)); // arrives while busy
        for c in 1..=4 {
            m.tick_complete(c);
            m.tick_start(c);
        }
        // Request 1 started at cycle 4 > issue 1: one conflict.
        assert_eq!(m.queued_conflicts(), 1);
    }

    #[test]
    fn output_backpressure_blocks_service() {
        let mut m = MemModule::new(2, 2, 1);
        m.accept(req(0, 0));
        m.tick_complete(0);
        m.tick_start(0);
        m.accept(req(1, 0));
        // Cycle 2: 0 completes into out_q; 1 starts.
        m.tick_complete(2);
        m.tick_start(2);
        // Cycle 4: 1 wants to complete but out_q still holds 0.
        m.tick_complete(4);
        m.tick_start(4);
        assert_eq!(m.out_q.len(), 1);
        assert!(m.service.is_some(), "service stage blocked, not freed");
        // Drain the bus, then completion proceeds.
        m.take_output();
        m.tick_complete(5);
        assert!(m.has_output());
        assert_eq!(m.take_output().unwrap().element, 1);
    }

    #[test]
    fn can_accept_respects_capacity() {
        let mut m = MemModule::new(4, 1, 1);
        assert!(m.can_accept());
        m.accept(req(0, 0));
        assert!(!m.can_accept());
        assert!(m.is_active());
        assert_eq!(m.max_in_q(), 1);
    }

    #[test]
    #[should_panic(expected = "input queue overflow")]
    fn overflow_panics() {
        let mut m = MemModule::new(4, 1, 1);
        m.accept(req(0, 0));
        m.accept(req(1, 0));
    }
}
