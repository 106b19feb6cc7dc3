//! Latency by family and strategy (Sections 2, 3.1, 3.2).

use cfva_core::plan::{Planner, Strategy};
use cfva_core::{mapping::XorMatched, Stride, VectorSpec};
use cfva_memsim::MemConfig;

use crate::runner::BatchRunner;
use crate::table::Table;

/// Measures latency per family under the three request orders, matched
/// memory `L = 128, M = T = 8, s = 4`:
///
/// * canonical order on the bufferless memory;
/// * Section 3.1 subsequence order with `q = 2, q' = 1` (paper bound:
///   `≤ 2T + L`);
/// * Section 3.2 replay order on the bufferless memory (exactly
///   `T + L + 1` inside the window).
pub fn latency() -> String {
    let len = 128u64;
    let mem_plain = MemConfig::new(3, 3).expect("valid");
    let mem_buffered = MemConfig::new(3, 3)
        .expect("valid")
        .with_queues(2, 1)
        .expect("valid queues");
    // Two long-lived sessions (one per memory configuration), reused
    // across every family × strategy measurement.
    let mut plain = BatchRunner::new(
        Planner::matched(XorMatched::new(3, 4).expect("valid")),
        mem_plain,
    );
    let mut buffered = BatchRunner::new(
        Planner::matched(XorMatched::new(3, 4).expect("valid")),
        mem_buffered,
    );

    let t_cycles = mem_plain.t_cycles();
    let min_latency = t_cycles + len + 1;
    let subseq_bound = 2 * t_cycles + len;

    let mut table = Table::new(&[
        "x",
        "stride",
        "canonical",
        "subseq (q=2)",
        "replay",
        "T+L+1",
        "2T+L",
    ]);

    let mut bound_ok = true;
    let mut replay_ok = true;
    for x in 0..=6u32 {
        let stride = Stride::from_parts(3, x).expect("odd sigma");
        let vec = VectorSpec::with_stride(16u64.into(), stride, len).expect("valid");

        let canonical = plain
            .measure(&vec, Strategy::Canonical)
            .map(|s| s.latency)
            .expect("canonical always plans");

        let subseq = buffered
            .measure(&vec, Strategy::Subsequence)
            .map(|s| s.latency);
        if let Some(lat) = subseq {
            if lat > subseq_bound {
                bound_ok = false;
            }
        }

        let replay = plain
            .measure(&vec, Strategy::ConflictFree)
            .map(|s| s.latency);
        if x <= 4 && replay != Some(min_latency) {
            replay_ok = false;
        }

        table.row_owned(vec![
            x.to_string(),
            stride.get().to_string(),
            canonical.to_string(),
            subseq.map_or("-".into(), |l| l.to_string()),
            replay.map_or("-".into(), |l| l.to_string()),
            min_latency.to_string(),
            subseq_bound.to_string(),
        ]);
    }

    format!(
        "Latency by stride family (σ = 3, A1 = 16, L = 128, M = T = 8, s = 4)\n\n{}\n\
         Replay order hits the minimum T+L+1 = {min_latency} for every window family (x ≤ 4): {}\n\
         Subsequence order stays within the Section 3.1 bound 2T+L = {subseq_bound}: {}\n\
         Canonical order degrades by up to ~2^(s-x) inside the window —\n\
         the gap the out-of-order scheme removes.\n",
        table.render(),
        if replay_ok { "YES" } else { "NO" },
        if bound_ok { "YES" } else { "NO" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_report_verifies_bounds() {
        let r = latency();
        assert!(r.contains("for every window family (x ≤ 4): YES"), "{r}");
        assert!(r.contains("bound 2T+L = 144: YES"), "{r}");
    }
}
