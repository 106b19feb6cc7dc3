//! Plan/measure-as-a-service in a dozen lines: stand up the
//! session pool behind a [`Service`], submit typed
//! requests against maps named by registry spec strings, and reap the
//! tickets — including the backpressure path a production client must
//! handle.
//!
//! ```text
//! cargo run --release --example serve_quickstart
//! ```

use cfva::core::plan::Strategy;
use cfva::VectorSpec;
use cfva_serve::api::{Estimator, Request, Response, ServeError};
use cfva_serve::service::{Service, ServiceConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two workers, each owning long-lived per-spec sessions; at most
    // eight requests may wait in the admission queue before clients
    // are told to back off.
    let service = Service::new(ServiceConfig::with_workers(2).queue_capacity(8));

    // Fire a mixed burst: measurements on two different maps plus an
    // efficiency estimate, queued FIFO for whichever worker is free.
    // Tickets are reaped later, in any order.
    let measure = service.submit(Request::Measure {
        spec: "xor-matched:t=3,s=3".into(),
        vec: VectorSpec::new(16, 12, 64)?,
        strategy: Strategy::Auto,
    })?;
    let sweep = service.submit(Request::FamilySweep {
        spec: "skewed:m=3,d=1".into(),
        len: 64,
        max_x: 4,
        sigma: 3,
    })?;
    let eta = service.submit(Request::Efficiency {
        spec: "xor-matched:t=3,s=3".into(),
        strategy: Strategy::Auto,
        len: 64,
        estimator: Estimator::Stratified {
            max_x: 8,
            per_family: 4,
        },
        seed: 1992,
    })?;

    if let Response::Measured(Some(stats)) = measure.wait()? {
        // Stride 12 is inside the matched window: minimum latency.
        println!("stride 12 latency: {} cycles (T + L + 1)", stats.latency);
        assert_eq!(stats.latency, 8 + 64 + 1);
    }
    if let Response::FamilySweep(rows) = sweep.wait()? {
        for row in rows {
            println!(
                "skewed map, family {}: stride {:>3} -> {} cycles ({} conflicts)",
                row.x, row.stride, row.latency, row.conflicts
            );
        }
    }
    if let Response::Efficiency(value) = eta.wait()? {
        println!("xor-matched efficiency (stratified): {value:.3}");
    }

    // Backpressure is a typed, recoverable signal — a full admission
    // queue rejects instead of queueing unboundedly.
    let burst: Vec<_> = (0..64)
        .map(|i| {
            service.submit(Request::Measure {
                spec: "interleaved:m=3".into(),
                vec: VectorSpec::new(i, 8, 4096).expect("valid"),
                strategy: Strategy::Auto,
            })
        })
        .collect();
    let rejected = burst
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Overloaded { .. })))
        .count();
    println!("burst of 64 against a queue of 8: {rejected} rejected with Overloaded");
    for ticket in burst.into_iter().flatten() {
        ticket.wait()?;
    }

    // Drains everything still in flight, then joins the workers.
    service.shutdown();
    println!("service drained and shut down cleanly");
    Ok(())
}
