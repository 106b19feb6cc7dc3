//! One memory module: service stage plus bounded input/output queues.

use std::collections::VecDeque;

/// A single memory module of the cycle oracle
/// ([`MemorySystem::run_cycle`](crate::MemorySystem)). Requests are
/// the run's request indices.
///
/// Pipeline: `input queue (q) → service (T cycles) → output queue (q')`.
/// A module accepts one request into service per `T` cycles; when its
/// output queue is full at completion time the finished request blocks
/// the service stage (back-pressure), exactly like a real bank whose
/// read latch has not been drained.
#[derive(Debug, Clone)]
pub(crate) struct MemModule {
    t_cycles: u64,
    q_in_cap: usize,
    q_out_cap: usize,
    in_q: VecDeque<usize>,
    /// Request in service and the cycle its service completes.
    service: Option<(usize, u64)>,
    out_q: VecDeque<usize>,
    /// Highest input-queue occupancy observed.
    max_in_q: usize,
}

impl MemModule {
    /// Creates an idle module with the given service time and queue
    /// capacities.
    pub(crate) fn new(t_cycles: u64, q_in_cap: usize, q_out_cap: usize) -> Self {
        MemModule {
            t_cycles,
            q_in_cap,
            q_out_cap,
            in_q: VecDeque::with_capacity(q_in_cap),
            service: None,
            out_q: VecDeque::with_capacity(q_out_cap),
            max_in_q: 0,
        }
    }

    /// Returns the module to its just-constructed idle state, keeping
    /// the queue allocations for reuse.
    pub(crate) fn reset(&mut self) {
        self.in_q.clear();
        self.service = None;
        self.out_q.clear();
        self.max_in_q = 0;
    }

    /// Whether the input queue can accept another request.
    pub(crate) fn can_accept(&self) -> bool {
        self.in_q.len() < self.q_in_cap
    }

    /// Enqueues a request into the input buffer.
    ///
    /// # Panics
    ///
    /// Panics if the input queue is full; callers check
    /// [`can_accept`](Self::can_accept) first (the processor stalls
    /// instead of overflowing the buffer).
    pub(crate) fn accept(&mut self, id: usize) {
        assert!(self.can_accept(), "input queue overflow");
        self.in_q.push_back(id);
        self.max_in_q = self.max_in_q.max(self.in_q.len());
    }

    /// Phase 1 of a cycle: completes the in-service request if its time
    /// has come and the output queue has space, and returns it.
    pub(crate) fn tick_complete(&mut self, cycle: u64) -> Option<usize> {
        let (id, ready_at) = self.service?;
        if cycle < ready_at || self.out_q.len() >= self.q_out_cap {
            return None;
        }
        self.out_q.push_back(id);
        self.service = None;
        Some(id)
    }

    /// Phase 4 of a cycle: starts serving the next queued request if the
    /// service stage is free, and returns it.
    pub(crate) fn tick_start(&mut self, cycle: u64) -> Option<usize> {
        if self.service.is_some() {
            return None;
        }
        let id = self.in_q.pop_front()?;
        self.service = Some((id, cycle + self.t_cycles));
        Some(id)
    }

    /// The oldest finished request waiting on the return bus, if any.
    pub(crate) fn output(&self) -> Option<usize> {
        self.out_q.front().copied()
    }

    /// Removes and returns the oldest finished request (bus grant).
    pub(crate) fn take_output(&mut self) -> Option<usize> {
        self.out_q.pop_front()
    }

    /// Whether the module still holds work (queued, in service, or
    /// waiting on the bus).
    pub(crate) fn is_active(&self) -> bool {
        !self.in_q.is_empty() || self.service.is_some() || !self.out_q.is_empty()
    }

    /// Highest input-queue occupancy observed.
    pub(crate) const fn max_in_q(&self) -> usize {
        self.max_in_q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_takes_t_cycles() {
        let mut m = MemModule::new(4, 1, 1);
        m.accept(0);
        assert_eq!(m.tick_complete(0), None);
        assert_eq!(m.tick_start(0), Some(0)); // service 0..4
        for c in 1..4 {
            assert_eq!(m.tick_complete(c), None, "not done at cycle {c}");
            assert_eq!(m.tick_start(c), None);
        }
        assert_eq!(m.tick_complete(4), Some(0));
        assert_eq!(m.take_output(), Some(0));
    }

    #[test]
    fn back_to_back_service() {
        let mut m = MemModule::new(2, 2, 2);
        m.accept(0);
        m.tick_complete(0);
        m.tick_start(0);
        m.accept(1);
        // Cycle 2: first completes, second starts immediately.
        assert_eq!(m.tick_complete(2), Some(0));
        assert_eq!(m.tick_start(2), Some(1));
        assert_eq!(m.tick_complete(4), Some(1));
        assert_eq!(m.take_output(), Some(0));
        assert_eq!(m.take_output(), Some(1));
        assert!(!m.is_active());
    }

    #[test]
    fn output_backpressure_blocks_service() {
        let mut m = MemModule::new(2, 2, 1);
        m.accept(0);
        m.tick_complete(0);
        m.tick_start(0);
        m.accept(1);
        // Cycle 2: 0 completes into out_q; 1 starts.
        assert_eq!(m.tick_complete(2), Some(0));
        assert_eq!(m.tick_start(2), Some(1));
        // Cycle 4: 1 wants to complete but out_q still holds 0.
        assert_eq!(m.tick_complete(4), None);
        assert_eq!(m.tick_start(4), None, "service stage blocked, not freed");
        // Drain the bus, then completion proceeds.
        assert_eq!(m.take_output(), Some(0));
        assert_eq!(m.tick_complete(5), Some(1));
        assert_eq!(m.output(), Some(1));
    }

    #[test]
    fn can_accept_respects_capacity() {
        let mut m = MemModule::new(4, 1, 1);
        assert!(m.can_accept());
        m.accept(0);
        assert!(!m.can_accept());
        assert!(m.is_active());
        assert_eq!(m.max_in_q(), 1);
    }

    #[test]
    #[should_panic(expected = "input queue overflow")]
    fn overflow_panics() {
        let mut m = MemModule::new(4, 1, 1);
        m.accept(0);
        m.accept(1);
    }
}
