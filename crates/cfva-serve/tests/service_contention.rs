//! The throughput-under-contention contract: on an adversarial
//! arrival order, the conflict-aware wave planner must beat naive FIFO
//! pairing by a real margin (≥ 1.3× in simulated makespan — measured
//! ≈ 2× on this workload), and co-running predicted-disjoint streams
//! must beat running them sequentially. These are the acceptance
//! numbers behind the `serve_contended` bench; this test pins them so
//! a scheduling regression fails CI even on noisy machines where
//! wall-clock benches cannot.

use cfva_core::plan::Strategy;
use cfva_core::VectorSpec;
use cfva_memsim::IssuePolicy;
use cfva_serve::api::{Request, Response, SchedulePlan};
use cfva_serve::service::{Service, ServiceConfig};

/// Eight stride-2 streams on `interleaved:m=3` (eight modules): even
/// bases cover the even modules, odd bases the odd ones. Neighbours in
/// this order share a parity, so FIFO width-2 waves all clash while a
/// re-pairing planner can make every wave conflict-free.
fn adversarial_streams(len: u64) -> Vec<VectorSpec> {
    [0u64, 2, 1, 3, 4, 6, 5, 7]
        .into_iter()
        .map(|base| VectorSpec::new(base, 2, len).expect("valid"))
        .collect()
}

fn co_run(service: &Service, streams: &[VectorSpec], schedule: SchedulePlan) -> (u64, u64, u64) {
    let outcome = match service
        .submit_uncached(Request::MultiStream {
            spec: "interleaved:m=3".into(),
            streams: streams.to_vec(),
            strategy: Strategy::Auto,
            policy: IssuePolicy::RoundRobin,
            schedule,
        })
        .expect("queue has room")
        .wait()
    {
        Ok(Response::MultiStream(outcome)) => outcome,
        other => panic!("unexpected response {other:?}"),
    };
    (
        outcome.makespan,
        outcome.sequential_baseline,
        outcome.actual_conflicts,
    )
}

#[test]
fn conflict_aware_beats_fifo_by_at_least_1_3x() {
    let service = Service::new(ServiceConfig::with_workers(1));
    for len in [256u64, 1024, 4096] {
        let streams = adversarial_streams(len);
        let (fifo, _, fifo_conflicts) =
            co_run(&service, &streams, SchedulePlan::FifoWaves { width: 2 });
        let (aware, sequential, aware_conflicts) = co_run(
            &service,
            &streams,
            SchedulePlan::ConflictAware {
                width: 2,
                max_score_milli: 0,
            },
        );
        // Throughput is work over makespan; same work, so the ratio of
        // makespans IS the throughput ratio. Integer-exact 1.3× bound.
        assert!(
            aware * 13 <= fifo * 10,
            "len {len}: conflict-aware makespan {aware} must be ≥1.3× better than FIFO {fifo}"
        );
        assert_eq!(aware_conflicts, 0, "len {len}: re-paired waves are CF");
        assert!(fifo_conflicts > 0, "len {len}: FIFO co-runs clashing pairs");
        // And the point of co-running at all: conflict-free pairs beat
        // one-at-a-time sequential service.
        assert!(
            aware < sequential,
            "len {len}: co-run {aware} must beat sequential {sequential}"
        );
    }
    service.shutdown();
}
