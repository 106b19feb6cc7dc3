//! Access statistics reported by the simulator.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Per-element arrival cycles: an immutable, reference-counted buffer
/// that derefs to `[u64]`.
///
/// Cloning is a reference-count bump, so a cloned [`AccessStats`] (a
/// response handed to a caller, an entry in a result cache) shares the
/// cycles instead of copying them. `Eq`, `Hash` and `Debug` work on the
/// values, as for a `Vec<u64>`.
///
/// An engine refills the buffer in place when no clone shares it, and
/// starts a fresh one when a clone is still alive, so a handed-out
/// clone never changes and a run whose statistics nobody keeps
/// allocates nothing once warm.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Arrivals(Arc<Vec<u64>>);

impl Arrivals {
    /// The buffer refilled with `n` copies of `fill`, for an engine to
    /// write in place: the allocation is reused when no clone shares it
    /// and it holds `n` cycles, and a fresh one of exactly `n` is
    /// started otherwise.
    pub(crate) fn reset(&mut self, n: usize, fill: u64) -> &mut [u64] {
        match Arc::get_mut(&mut self.0) {
            Some(buf) if buf.capacity() >= n => {
                buf.clear();
                buf.resize(n, fill);
            }
            _ => self.0 = Arc::new(vec![fill; n]),
        }
        self.make_mut()
    }

    /// The cycles for an engine to amend after [`reset`](Self::reset)
    /// (a no-op share check: the buffer is unique by then).
    pub(crate) fn make_mut(&mut self) -> &mut [u64] {
        Arc::<Vec<u64>>::make_mut(&mut self.0)
    }

    /// A handle for a caller to keep: a clone (a reference-count bump)
    /// when the buffer is exactly its length, and otherwise a copy that
    /// is, so the spare capacity a longer earlier run left behind does
    /// not ride along with a kept result.
    #[must_use]
    pub fn kept(&self) -> Arrivals {
        if self.0.capacity() == self.0.len() {
            self.clone()
        } else {
            Arrivals::from(self.0.to_vec())
        }
    }

    /// Whether `self` and `other` share one buffer.
    pub fn ptr_eq(&self, other: &Arrivals) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for Arrivals {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a Arrivals {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Takes ownership of the vector: no copy of its elements.
impl From<Vec<u64>> for Arrivals {
    fn from(cycles: Vec<u64>) -> Self {
        Arrivals(Arc::new(cycles))
    }
}

impl fmt::Debug for Arrivals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq<Vec<u64>> for Arrivals {
    fn eq(&self, other: &Vec<u64>) -> bool {
        **self == **other
    }
}

impl PartialEq<Arrivals> for Vec<u64> {
    fn eq(&self, other: &Arrivals) -> bool {
        **self == **other
    }
}

/// Measurements of one simulated vector access.
///
/// Doubles as a reusable buffer:
/// [`MemorySystem::run_plan_into`](crate::MemorySystem::run_plan_into)
/// refills the per-element and per-module vectors in place. Cloning
/// shares the arrival cycles ([`Arrivals`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Total latency in processor cycles: from the cycle the first
    /// address is sent until the cycle the last element is received,
    /// inclusive (the paper's Section 2 definition, `T + L + 1` for a
    /// conflict-free access).
    pub latency: u64,
    /// Number of elements transferred.
    pub elements: u64,
    /// Cycles the processor spent stalled because the target module's
    /// input buffer was full.
    pub stall_cycles: u64,
    /// Requests that had to wait in an input queue before service
    /// (zero ⇔ the access was conflict free in the paper's sense).
    pub conflicts: u64,
    /// Per-element arrival cycle, indexed by element number; shared,
    /// not copied, when the statistics are cloned.
    pub arrival: Arrivals,
    /// Per-module busy cycles.
    pub module_busy: Vec<u64>,
    /// Highest input-queue occupancy observed on any module.
    pub max_in_q: usize,
}

impl AccessStats {
    /// Elements delivered per cycle over the whole access,
    /// `L / latency`. The steady-state maximum is just below 1.
    ///
    /// Returns 0.0 for an empty access (zero elements, or a
    /// default-constructed record whose latency is still zero), never
    /// `NaN` or `inf`.
    pub fn throughput(&self) -> f64 {
        if self.elements == 0 || self.latency == 0 {
            return 0.0;
        }
        self.elements as f64 / self.latency as f64
    }

    /// The conflict-free minimum latency for this access under module
    /// service time `t_cycles`: `T + L + 1` (paper Section 2). The
    /// single formula [`efficiency`](Self::efficiency) and
    /// [`excess_latency`](Self::excess_latency) are both defined
    /// against.
    pub const fn min_latency(&self, t_cycles: u64) -> u64 {
        t_cycles + self.elements + 1
    }

    /// Efficiency relative to the **single-port** conflict-free
    /// minimum [`min_latency`](Self::min_latency) (= 1.0 when the
    /// access is conflict free).
    ///
    /// Returns 0.0 for an empty access, and is clamped to at most 1.0
    /// so that a mismatched `t_cycles` (a value other than the one the
    /// access was simulated with) cannot silently poison downstream
    /// averages with an "efficiency" above unity. The clamp also means
    /// a multi-port access that legitimately beats the single-port
    /// floor saturates at 1.0 — this metric is a single-port-model
    /// quantity (the paper's Section 5B `η`); compare multi-port
    /// configurations with [`throughput`](Self::throughput) instead.
    pub fn efficiency(&self, t_cycles: u64) -> f64 {
        if self.elements == 0 || self.latency == 0 {
            return 0.0;
        }
        (self.min_latency(t_cycles) as f64 / self.latency as f64).min(1.0)
    }

    /// Whether the access ran without any queueing or stalls.
    pub fn is_conflict_free(&self) -> bool {
        self.conflicts == 0 && self.stall_cycles == 0
    }

    /// Extra cycles over the conflict-free minimum
    /// [`min_latency`](Self::min_latency); zero when the access ran at
    /// (or, with a mismatched `t_cycles`, below) the floor.
    pub fn excess_latency(&self, t_cycles: u64) -> u64 {
        self.latency.saturating_sub(self.min_latency(t_cycles))
    }
}

impl fmt::Display for AccessStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} elements in {} cycles ({} stalls, {} conflicts)",
            self.elements, self.latency, self.stall_cycles, self.conflicts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> AccessStats {
        AccessStats {
            latency: 73,
            elements: 64,
            stall_cycles: 0,
            conflicts: 0,
            arrival: Arrivals::default(),
            module_busy: vec![],
            max_in_q: 1,
        }
    }

    #[test]
    fn clones_share_arrivals_and_a_shared_buffer_is_never_rewritten() {
        let mut s = stats();
        s.arrival.reset(4, 7).copy_from_slice(&[5, 6, 8, 14]);
        let kept = s.clone();
        assert!(
            kept.arrival.ptr_eq(&s.arrival),
            "a clone is a refcount bump"
        );
        assert_eq!(format!("{:?}", kept.arrival), "[5, 6, 8, 14]");

        // The engine refills `s` while `kept` is alive: a fresh buffer.
        s.arrival.reset(2, 0);
        assert_eq!(kept.arrival, vec![5, 6, 8, 14]);
        assert_eq!(s.arrival, vec![0, 0]);

        // Nothing shares it now, so the next refill reuses it.
        let before = s.arrival.as_ptr();
        s.arrival.reset(2, 1);
        assert_eq!(s.arrival.as_ptr(), before, "a unique buffer is reused");
        assert_eq!(s.arrival, Arrivals::from(vec![1, 1]));

        // A short result kept from a long run's buffer is copied tight.
        s.arrival.reset(1, 9);
        assert_eq!(s.arrival.as_ptr(), before, "a shorter run reuses it too");
        let kept = s.arrival.kept();
        assert!(!kept.ptr_eq(&s.arrival));
        assert_eq!(kept, vec![9]);
        s.arrival.reset(2, 9);
        assert!(s.arrival.kept().ptr_eq(&s.arrival));
    }

    #[test]
    fn throughput_and_efficiency() {
        let s = stats();
        assert!((s.throughput() - 64.0 / 73.0).abs() < 1e-12);
        assert_eq!(s.efficiency(8), 1.0);
        assert!(s.is_conflict_free());
        assert_eq!(s.excess_latency(8), 0);
    }

    #[test]
    fn excess_latency_counts_overrun() {
        let mut s = stats();
        s.latency = 80;
        s.conflicts = 3;
        assert_eq!(s.excess_latency(8), 7);
        assert!(!s.is_conflict_free());
        assert!(s.efficiency(8) < 1.0);
    }

    #[test]
    fn empty_access_has_zero_throughput_and_efficiency() {
        // A zero-element plan or a default-constructed record must not
        // produce NaN (0/0) or inf ((T+1)/0).
        let empty = AccessStats::default();
        assert_eq!(empty.elements, 0);
        assert_eq!(empty.latency, 0);
        assert_eq!(empty.throughput(), 0.0);
        assert_eq!(empty.efficiency(8), 0.0);
        assert!(empty.throughput().is_finite());
        assert!(empty.efficiency(8).is_finite());

        // A simulated empty plan reports latency 1 and zero elements.
        let ran_empty = AccessStats {
            latency: 1,
            ..Default::default()
        };
        assert_eq!(ran_empty.throughput(), 0.0);
        assert_eq!(ran_empty.efficiency(8), 0.0);
        assert_eq!(ran_empty.excess_latency(8), 0);
    }

    #[test]
    fn efficiency_is_clamped_at_one() {
        // Caller passes the wrong t_cycles (here 16 instead of the 8
        // the access was simulated with): the minimum-latency formula
        // exceeds the measured latency, which must clamp, not report
        // an efficiency > 1.
        let s = stats();
        assert!(s.min_latency(16) > s.latency);
        assert_eq!(s.efficiency(16), 1.0);
        // And excess_latency agrees on the same formula: saturates at 0.
        assert_eq!(s.excess_latency(16), 0);
    }

    #[test]
    fn efficiency_and_excess_latency_share_the_minimum_formula() {
        let mut s = stats();
        s.latency = 100;
        assert_eq!(s.min_latency(8), 73);
        assert_eq!(s.excess_latency(8), 100 - 73);
        assert!((s.efficiency(8) - 73.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(
            stats().to_string(),
            "64 elements in 73 cycles (0 stalls, 0 conflicts)"
        );
    }
}
