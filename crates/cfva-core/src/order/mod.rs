//! Element request orders.
//!
//! The paper's central idea is that the *order* in which the `L` elements
//! of a register-length vector are requested is a degree of freedom: the
//! processor may request them out of order and let the register file
//! reassemble them (it stores element `i` in slot `i` whenever it
//! arrives). Three orders are provided:
//!
//! * [`canonical_order`] — in element order; the baseline every prior
//!   scheme uses.
//! * [`subseq`] — the Section 3.1 ordering (Figure 4): walk the Lemma
//!   2/4 subsequences one after another. Each subsequence is conflict
//!   free on its own; the whole vector is *almost* conflict free
//!   (latency at most `2T + L` with two input buffers per module).
//! * [`replay`] — the Section 3.2/4.2 ordering: request every
//!   subsequence in the *same* module/supermodule/section order as the
//!   first one, which makes the whole access conflict free (`T + L + 1`
//!   cycles, no memory buffers needed).
//!
//! All orders are permutations of `0..L`, represented as `Vec<u64>` of
//! element indices in request order.

pub mod greedy;
pub mod replay;
pub mod subseq;

pub use greedy::{conflict_free_order_exists, greedy_conflict_free_order, SearchResult};
pub use replay::{replay_order, replay_order_into, ReplayKey, ReplayScratch};
pub use subseq::{subseq_order, subseq_order_into, SubseqStructure};

/// The canonical (in element order) request order: `0, 1, …, L−1`.
///
/// # Examples
///
/// ```
/// use cfva_core::order::canonical_order;
/// assert_eq!(canonical_order(4), vec![0, 1, 2, 3]);
/// ```
pub fn canonical_order(len: u64) -> Vec<u64> {
    (0..len).collect()
}

/// Checks that `order` is a permutation of `0..len` — every element
/// requested exactly once. All orders produced by this module satisfy
/// this; the check is used by validators and tests.
pub fn is_permutation(order: &[u64], len: u64) -> bool {
    if order.len() as u64 != len {
        return false;
    }
    let mut seen = vec![false; order.len()];
    for &e in order {
        if e >= len || seen[e as usize] {
            return false;
        }
        seen[e as usize] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_is_identity() {
        assert_eq!(canonical_order(0), Vec::<u64>::new());
        assert_eq!(canonical_order(5), vec![0, 1, 2, 3, 4]);
        assert!(is_permutation(&canonical_order(64), 64));
    }

    #[test]
    fn permutation_checker() {
        assert!(is_permutation(&[2, 0, 1], 3));
        assert!(!is_permutation(&[0, 1], 3)); // wrong length
        assert!(!is_permutation(&[0, 0, 1], 3)); // duplicate
        assert!(!is_permutation(&[0, 1, 3], 3)); // out of range
        assert!(is_permutation(&[], 0));
    }
}
