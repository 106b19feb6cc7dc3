//! Co-run wave planning for [`Request::MultiStream`]: partition a set
//! of streams into waves that run concurrently on the multi-stream
//! engine, scoring stream pairs with the occupancy-signature conflict
//! predictor ([`conflict_score`](cfva_core::equiv::conflict_score)).
//!
//! [`Request::MultiStream`]: crate::api::Request::MultiStream

use cfva_core::equiv::OccupancySignature;

use crate::api::SchedulePlan;

/// One pairwise predicted-conflict score, in milli-units: the
/// [`conflict_score`](cfva_core::equiv::conflict_score) of the two
/// streams (module count × signature overlap), ×1000, rounded.
pub(crate) fn score_milli(
    module_count: f64,
    a: &OccupancySignature,
    b: &OccupancySignature,
) -> u64 {
    (module_count * a.overlap(b) * 1000.0).round() as u64
}

/// Partitions `n` streams into co-run waves under `schedule` — the
/// pure planning core of [`Request::MultiStream`] execution, exercised
/// directly by the unit tests below.
///
/// * [`Together`](SchedulePlan::Together): one wave of everything.
/// * [`FifoWaves`](SchedulePlan::FifoWaves): arrival-order chunks of
///   `width` — the baseline that ignores conflicts.
/// * [`ConflictAware`](SchedulePlan::ConflictAware): greedy coloring —
///   each stream joins the first wave with room whose members all
///   score within `max_score_milli` against it, else opens a new wave.
///
/// `score_milli(i, j)` is only consulted for `i > j` with both indices
/// in range. Wave order and within-wave order both follow arrival
/// order, so the partition is deterministic.
///
/// [`Request::MultiStream`]: crate::api::Request::MultiStream
pub(crate) fn plan_waves(
    n: usize,
    schedule: SchedulePlan,
    mut score_milli: impl FnMut(usize, usize) -> u64,
) -> Vec<Vec<usize>> {
    match schedule {
        SchedulePlan::Together => {
            if n == 0 {
                Vec::new()
            } else {
                vec![(0..n).collect()]
            }
        }
        SchedulePlan::FifoWaves { width } => {
            let width = width.max(1) as usize;
            (0..n)
                .collect::<Vec<usize>>()
                .chunks(width)
                .map(<[usize]>::to_vec)
                .collect()
        }
        SchedulePlan::ConflictAware {
            width,
            max_score_milli,
        } => {
            let width = width.max(1) as usize;
            let threshold = u64::from(max_score_milli);
            let mut waves: Vec<Vec<usize>> = Vec::new();
            for i in 0..n {
                let slot = waves.iter_mut().find(|wave| {
                    wave.len() < width && wave.iter().all(|&j| score_milli(i, j) <= threshold)
                });
                match slot {
                    Some(wave) => wave.push(i),
                    None => waves.push(vec![i]),
                }
            }
            waves
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(waves: &[Vec<usize>]) -> Vec<usize> {
        let mut all: Vec<usize> = waves.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn together_is_one_wave() {
        assert_eq!(
            plan_waves(4, SchedulePlan::Together, |_, _| 0),
            vec![vec![0, 1, 2, 3]]
        );
        assert!(plan_waves(0, SchedulePlan::Together, |_, _| 0).is_empty());
    }

    #[test]
    fn fifo_waves_chunk_in_arrival_order() {
        let waves = plan_waves(5, SchedulePlan::FifoWaves { width: 2 }, |_, _| {
            unreachable!("FIFO never scores")
        });
        assert_eq!(waves, vec![vec![0, 1], vec![2, 3], vec![4]]);
        // A zero width is clamped, not a panic or an infinite loop.
        let clamped = plan_waves(3, SchedulePlan::FifoWaves { width: 0 }, |_, _| 0);
        assert_eq!(clamped.len(), 3);
    }

    #[test]
    fn conflict_aware_separates_conflicting_streams() {
        // Streams 0/1 conflict, 2/3 conflict; cross pairs are free.
        // Greedy coloring pairs {0,2} and {1,3} — FIFO width 2 would
        // have paired the conflicting neighbors.
        let score = |i: usize, j: usize| {
            let (lo, hi) = (i.min(j), i.max(j));
            u64::from((lo, hi) == (0, 1) || (lo, hi) == (2, 3)) * 5000
        };
        let waves = plan_waves(
            4,
            SchedulePlan::ConflictAware {
                width: 2,
                max_score_milli: 0,
            },
            score,
        );
        assert_eq!(waves, vec![vec![0, 2], vec![1, 3]]);
        assert_eq!(flat(&waves), vec![0, 1, 2, 3], "every stream runs once");
    }

    #[test]
    fn conflict_aware_respects_width_and_threshold() {
        // All-compatible streams still split by width…
        let waves = plan_waves(
            5,
            SchedulePlan::ConflictAware {
                width: 2,
                max_score_milli: 0,
            },
            |_, _| 0,
        );
        assert!(waves.iter().all(|w| w.len() <= 2));
        assert_eq!(flat(&waves), vec![0, 1, 2, 3, 4]);
        // …and an all-conflicting set degenerates to singletons.
        let solo = plan_waves(
            3,
            SchedulePlan::ConflictAware {
                width: 4,
                max_score_milli: 999,
            },
            |_, _| 1000,
        );
        assert_eq!(solo, vec![vec![0], vec![1], vec![2]]);
    }
}
