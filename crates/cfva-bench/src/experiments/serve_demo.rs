//! `serve-demo`: drive the plan/measure service with a mixed
//! multi-client workload and report throughput, latency percentiles
//! and backpressure rejections.
//!
//! Each client runs a closed loop with a small in-flight window:
//! submit until the window is full, then reap the oldest ticket,
//! recording submit→response latency. The request mix spans every
//! [`Request`] variant across all registered map specs, so every
//! worker's per-spec session cache and the shared admission queue are
//! exercised. An over-capacity run (small `--queue`, many clients)
//! must *reject* with `Overloaded` — never deadlock — which the
//! summary reports and CI asserts via `--require-rejections`.
//!
//! The mix has deliberate **temporal locality**: every client submits
//! one pinned request at iterations 0 and 1 and again every 30
//! iterations. The result cache admits a key on its second miss, so a
//! client's second submission either hits or is admitted, and a run
//! long enough to repeat it (`--requests` ≥ 31, window < 30) is
//! *guaranteed* to hit the service's result cache, with any number of
//! clients. The report prints the final
//! [`Service::stats`] snapshot (cache hits/misses/evictions, hit
//! rate), and CI asserts a nonzero hit rate via `--require-cache-hits`.
//!
//! With `--tcp` the same workload runs over the loopback wire instead:
//! the service is fronted by a [`WireServer`] on `127.0.0.1:0` and each
//! client thread drives its own [`WireClient`] connection. Admission
//! behaves identically — `Overloaded` arrives as a typed reply frame
//! (counted at reap time rather than submit time) — and the report adds
//! the server's `wire_*` counters. `--require-no-loss` asserts the
//! conservation law `completed + rejected + failed == attempted`, i.e.
//! the drain path flushed every accepted ticket.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfva_core::mapping::Registry;
use cfva_core::plan::Strategy;
use cfva_core::{Stride, VectorSpec};
use cfva_serve::api::{Estimator, Request, ServeError};
use cfva_serve::service::{ServeTicket, Service, ServiceConfig, ServiceStats};
use cfva_wire::client::{WireClient, WireTicket};
use cfva_wire::server::{WireServer, WireServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::Table;

/// Demo sizing, straight from the `serve-demo` CLI flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemoConfig {
    /// Service workers.
    pub workers: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client attempts.
    pub requests_per_client: usize,
    /// Admission-queue bound.
    pub queue_capacity: usize,
    /// Per-client in-flight window (tickets held before reaping).
    pub window: usize,
    /// Chaos seed (`--inject-faults`): installs a seeded
    /// [`FaultPlan`](cfva_serve::fault::FaultPlan) — worker kills, job
    /// panics, queue bursts, cache poisoning — which the hardened
    /// service must absorb without losing a single accepted ticket.
    pub fault_seed: Option<u64>,
    /// Run the workload over the loopback wire (`--tcp`): a
    /// [`WireServer`] fronts the service and every client thread opens
    /// its own [`WireClient`] connection.
    pub tcp: bool,
}

impl Default for DemoConfig {
    fn default() -> Self {
        DemoConfig {
            workers: ServiceConfig::default().workers,
            clients: 3,
            requests_per_client: 60,
            queue_capacity: ServiceConfig::default().queue_capacity,
            window: 8,
            fault_seed: None,
            tcp: false,
        }
    }
}

/// What the demo measured (the caller renders or asserts on it).
#[derive(Debug, Clone, PartialEq)]
pub struct DemoOutcome {
    /// Requests that completed with a response.
    pub completed: u64,
    /// Requests rejected with [`ServeError::Overloaded`].
    pub rejected: u64,
    /// Requests that resolved to a non-overload error (should be 0 —
    /// the demo only submits valid requests).
    pub failed: u64,
    /// The service's final [`Service::stats`] snapshot (taken after
    /// every client finished, before shutdown) — queue depth, in-flight
    /// gauge and result-cache counters. In `--tcp` mode this is the
    /// [`WireServer::stats`] snapshot, so the `wire_*` counters are
    /// live rather than zero.
    pub stats: ServiceStats,
    /// The rendered report.
    pub report: String,
}

/// Whether a client's `iteration` submits [`pinned_request`]:
/// iterations 0 and 1 and every 30 after. This is the demo's temporal
/// locality, and the guarantee behind `--require-cache-hits`: the cache
/// admits a key on its second miss, so a client's iteration-1
/// submission hits or is admitted; an admitted response is inserted
/// before its ticket resolves, and by iteration 30 the client has
/// reaped that ticket (the in-flight window is far smaller than 30),
/// so the result cache holds it whatever the other clients do.
fn is_pinned(iteration: usize) -> bool {
    iteration == 1 || iteration.is_multiple_of(30)
}

/// The request every client submits on [`is_pinned`] iterations.
fn pinned_request(specs: &[String]) -> Request {
    Request::FamilySweep {
        spec: specs[0].clone(),
        len: 128,
        max_x: 5,
        sigma: 3,
    }
}

/// One client's sampled request: every variant appears in the mix, all
/// specs drawn from the live registry.
fn sample_request<R: Rng + ?Sized>(rng: &mut R, specs: &[String]) -> Request {
    let spec = specs[rng.gen_range(0..specs.len())].clone();
    // Conflicted-leaning strides: high families collide on most maps.
    let sigma = 2 * rng.gen_range(0i64..8) + 1;
    let x = rng.gen_range(0u32..7);
    let stride = Stride::from_parts(sigma, x).expect("odd sigma, bounded x");
    match rng.gen_range(0u32..10) {
        0..=5 => Request::Measure {
            spec,
            vec: VectorSpec::with_stride(rng.gen_range(0u64..1 << 20).into(), stride, 512)
                .expect("bounded base cannot overflow"),
            strategy: Strategy::Auto,
        },
        6..=7 => Request::MeasureBatch {
            spec,
            accesses: (0..4)
                .map(|i| {
                    (
                        VectorSpec::new(16 + 8 * i, stride.get(), 256).expect("valid"),
                        Strategy::Auto,
                    )
                })
                .collect(),
        },
        8 => Request::Efficiency {
            spec,
            strategy: Strategy::Auto,
            len: 64,
            estimator: Estimator::Stratified {
                max_x: 6,
                per_family: 2,
            },
            seed: rng.gen_range(0..u64::MAX),
        },
        _ => Request::FamilySweep {
            spec,
            len: 128,
            max_x: 5,
            sigma,
        },
    }
}

/// One client's closed loop against the in-process [`Service`]:
/// `Overloaded` is counted at submit time, everything else at reap.
fn direct_client_loop(
    service: &Service,
    client: usize,
    config: &DemoConfig,
    specs: &[String],
) -> (Vec<Duration>, u64, u64) {
    let mut rng = StdRng::seed_from_u64(0x5e11_0000 + client as u64);
    let mut window: Vec<(Instant, ServeTicket)> = Vec::new();
    let mut latencies = Vec::with_capacity(config.requests_per_client);
    let (mut rejected, mut failed) = (0u64, 0u64);
    let reap =
        |w: &mut Vec<(Instant, ServeTicket)>, latencies: &mut Vec<Duration>, failed: &mut u64| {
            let (submitted, ticket) = w.remove(0);
            match ticket.wait() {
                Ok(_) => latencies.push(submitted.elapsed()),
                Err(_) => *failed += 1,
            }
        };
    for i in 0..config.requests_per_client {
        let request = if is_pinned(i) {
            pinned_request(specs)
        } else {
            sample_request(&mut rng, specs)
        };
        match service.submit(request) {
            Ok(ticket) => window.push((Instant::now(), ticket)),
            Err(ServeError::Overloaded { .. }) => rejected += 1,
            Err(e) => panic!("demo submitted an invalid request: {e}"),
        }
        if window.len() >= config.window {
            reap(&mut window, &mut latencies, &mut failed);
        }
    }
    while !window.is_empty() {
        reap(&mut window, &mut latencies, &mut failed);
    }
    (latencies, rejected, failed)
}

/// The same closed loop over one loopback [`WireClient`] connection.
/// On the wire a submission always succeeds at the transport level;
/// service-level rejections come back as the ticket's *result*, so
/// `Overloaded` is counted at reap time instead — the conservation law
/// `completed + rejected + failed == attempted` holds either way.
fn wire_client_loop(
    addr: SocketAddr,
    client: usize,
    config: &DemoConfig,
    specs: &[String],
) -> (Vec<Duration>, u64, u64) {
    fn reap(
        conn: &mut WireClient,
        w: &mut Vec<(Instant, WireTicket)>,
        latencies: &mut Vec<Duration>,
        rejected: &mut u64,
        failed: &mut u64,
    ) {
        let (submitted, ticket) = w.remove(0);
        match conn.wait(ticket).expect("loopback transport stays up") {
            Ok(_) => latencies.push(submitted.elapsed()),
            Err(ServeError::Overloaded { .. }) => *rejected += 1,
            Err(_) => *failed += 1,
        }
    }
    let mut conn = WireClient::connect(addr).expect("loopback connect cannot fail");
    let mut rng = StdRng::seed_from_u64(0x5e11_0000 + client as u64);
    let mut window: Vec<(Instant, WireTicket)> = Vec::new();
    let mut latencies = Vec::with_capacity(config.requests_per_client);
    let (mut rejected, mut failed) = (0u64, 0u64);
    for i in 0..config.requests_per_client {
        let request = if is_pinned(i) {
            pinned_request(specs)
        } else {
            sample_request(&mut rng, specs)
        };
        let ticket = conn
            .submit(request)
            .expect("loopback submit cannot fail at the transport level");
        window.push((Instant::now(), ticket));
        if window.len() >= config.window {
            reap(
                &mut conn,
                &mut window,
                &mut latencies,
                &mut rejected,
                &mut failed,
            );
        }
    }
    while !window.is_empty() {
        reap(
            &mut conn,
            &mut window,
            &mut latencies,
            &mut rejected,
            &mut failed,
        );
    }
    (latencies, rejected, failed)
}

/// Runs the demo and returns the outcome (see the module docs).
pub fn serve_demo(config: &DemoConfig) -> DemoOutcome {
    let mut service_config =
        ServiceConfig::with_workers(config.workers).queue_capacity(config.queue_capacity);
    if let Some(seed) = config.fault_seed {
        // Horizon covers every submission index and job tag the run can
        // produce (bursts included), so faults fire throughout.
        let horizon = (config.clients * config.requests_per_client * 4).max(4096) as u64;
        service_config = service_config.fault_plan(std::sync::Arc::new(
            cfva_serve::fault::FaultPlan::seeded(seed, horizon),
        ));
    }
    let service = Arc::new(Service::new(service_config));
    let server = if config.tcp {
        Some(
            WireServer::bind(
                Arc::clone(&service),
                "127.0.0.1:0",
                WireServerConfig {
                    // The window bounds each client's outstanding
                    // tickets, but the server's gauge decrements only
                    // once the reply is *written* — one slot of margin
                    // absorbs that lag so the cap never fires here.
                    max_in_flight_per_conn: config.window + 1,
                },
            )
            .expect("binding an ephemeral loopback port cannot fail"),
        )
    } else {
        None
    };
    let wire_addr = server.as_ref().map(WireServer::local_addr);
    let specs: Vec<String> = Registry::builtin()
        .all_specs()
        .iter()
        .map(|s| s.to_string())
        .collect();

    let started = Instant::now();
    let mut latencies: Vec<Duration> = Vec::new();
    let mut rejected = 0u64;
    let mut failed = 0u64;

    std::thread::scope(|scope| {
        let service = &service;
        let specs = &specs;
        let handles: Vec<_> = (0..config.clients)
            .map(|client| {
                scope.spawn(move || match wire_addr {
                    Some(addr) => wire_client_loop(addr, client, config, specs),
                    None => direct_client_loop(service, client, config, specs),
                })
            })
            .collect();
        for handle in handles {
            let (client_latencies, client_rejected, client_failed) =
                handle.join().expect("demo client panicked");
            latencies.extend(client_latencies);
            rejected += client_rejected;
            failed += client_failed;
        }
    });
    let wall = started.elapsed();
    // The server's snapshot carries the wire_* counters the plain
    // service snapshot leaves at zero.
    let stats = match &server {
        Some(server) => server.stats(),
        None => service.stats(),
    };
    if let Some(server) = &server {
        server.shutdown();
    }
    service.shutdown();

    let completed = latencies.len() as u64;
    latencies.sort_unstable();
    let pct = |p: f64| -> Duration {
        if latencies.is_empty() {
            Duration::ZERO
        } else {
            let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
            latencies[idx]
        }
    };
    let throughput = completed as f64 / wall.as_secs_f64().max(1e-9);

    let mut t = Table::new(&["metric", "value"]);
    t.row_owned(vec!["workers".into(), config.workers.to_string()]);
    t.row_owned(vec!["clients".into(), config.clients.to_string()]);
    t.row_owned(vec![
        "transport".into(),
        if config.tcp {
            "tcp loopback".into()
        } else {
            "in-process".into()
        },
    ]);
    t.row_owned(vec![
        "queue capacity".into(),
        config.queue_capacity.to_string(),
    ]);
    t.row_owned(vec![
        "attempted".into(),
        (config.clients * config.requests_per_client).to_string(),
    ]);
    t.row_owned(vec!["completed".into(), completed.to_string()]);
    t.row_owned(vec!["rejected (Overloaded)".into(), rejected.to_string()]);
    t.row_owned(vec!["failed".into(), failed.to_string()]);
    t.row_owned(vec!["wall time".into(), format!("{wall:.2?}")]);
    t.row_owned(vec!["throughput".into(), format!("{throughput:.0} req/s")]);
    t.row_owned(vec!["latency p50".into(), format!("{:.2?}", pct(0.50))]);
    t.row_owned(vec!["latency p95".into(), format!("{:.2?}", pct(0.95))]);
    t.row_owned(vec!["latency p99".into(), format!("{:.2?}", pct(0.99))]);
    t.row_owned(vec![
        "queue depth / in flight".into(),
        format!("{} / {}", stats.queue_depth, stats.in_flight),
    ]);
    match stats.cache {
        Some(cache) => {
            t.row_owned(vec![
                "cache hits / misses / bypasses".into(),
                format!("{} / {} / {}", cache.hits, cache.misses, cache.bypasses),
            ]);
            t.row_owned(vec![
                "cache hit rate".into(),
                format!("{:.1}%", 100.0 * cache.hit_rate()),
            ]);
            t.row_owned(vec![
                "cache entries / evictions".into(),
                format!("{} / {}", cache.entries, cache.evictions),
            ]);
            t.row_owned(vec![
                "cache bytes / capacity bytes / oversize".into(),
                format!(
                    "{} / {} / {}",
                    cache.bytes, cache.capacity_bytes, cache.oversize
                ),
            ]);
        }
        None => {
            t.row_owned(vec!["result cache".into(), "disabled".into()]);
        }
    }
    t.row_owned(vec![
        "retries / worker restarts".into(),
        format!("{} / {}", stats.retries, stats.restarts),
    ]);
    t.row_owned(vec![
        "deadline exceeded / degraded".into(),
        format!("{} / {}", stats.deadline_exceeded, stats.degraded),
    ]);
    if config.fault_seed.is_some() {
        t.row_owned(vec![
            "faults injected".into(),
            stats.faults_injected.to_string(),
        ]);
    }
    if config.tcp {
        t.row_owned(vec![
            "wire connections / rejections / in flight".into(),
            format!(
                "{} / {} / {}",
                stats.wire_connections, stats.wire_rejections, stats.wire_in_flight
            ),
        ]);
    }

    let report = format!(
        "Serve demo — mixed workload (measure / batch / efficiency / family sweep)\n\
         across {} registered map specs, {} client(s) with an in-flight window of {}\n\n{}",
        specs.len(),
        config.clients,
        config.window,
        t.render()
    );
    DemoOutcome {
        completed,
        rejected,
        failed,
        stats,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_demo_completes_everything_with_ample_queue() {
        let outcome = serve_demo(&DemoConfig {
            workers: 2,
            clients: 2,
            requests_per_client: 10,
            queue_capacity: 256,
            window: 4,
            fault_seed: None,
            tcp: false,
        });
        assert_eq!(outcome.completed, 20);
        assert_eq!(outcome.rejected, 0);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.report.contains("throughput"), "{}", outcome.report);
        assert!(
            outcome.report.contains("cache hit rate"),
            "{}",
            outcome.report
        );
    }

    #[test]
    fn long_enough_run_is_guaranteed_cache_hits() {
        // Each client submits the pinned request at iterations 0 and 1:
        // its second submission hits or is admitted, and the client
        // reaps it long before its 31st request re-submits the pinned
        // request — the hit cannot be raced away, whatever the other
        // client does. This is the contract `--require-cache-hits`
        // (the CI cached-path smoke) stands on.
        let outcome = serve_demo(&DemoConfig {
            workers: 2,
            clients: 2,
            requests_per_client: 31,
            queue_capacity: 256,
            window: 4,
            fault_seed: None,
            tcp: false,
        });
        assert_eq!(outcome.failed, 0);
        let cache = outcome.stats.cache.expect("cache on by default");
        assert!(cache.hits >= 2, "one guaranteed hit per client: {cache:?}");
        assert!(cache.hit_rate() > 0.0);
        assert_eq!(
            (outcome.stats.queue_depth, outcome.stats.in_flight),
            (0, 0),
            "all clients joined before the snapshot"
        );
    }

    #[test]
    fn chaos_run_recovers_every_accepted_ticket() {
        // The `--inject-faults … --require-recovery` contract: under a
        // seeded chaos schedule, no accepted ticket is lost, nothing
        // fails, and the fault plan demonstrably fired.
        let outcome = serve_demo(&DemoConfig {
            workers: 2,
            clients: 2,
            requests_per_client: 40,
            queue_capacity: 256,
            window: 4,
            fault_seed: Some(7),
            tcp: false,
        });
        assert_eq!(outcome.failed, 0, "{}", outcome.report);
        assert_eq!(
            outcome.completed + outcome.rejected,
            80,
            "{}",
            outcome.report
        );
        assert!(outcome.stats.faults_injected > 0, "{}", outcome.report);
        assert!(outcome.report.contains("faults injected"));
    }

    #[test]
    fn over_capacity_burst_rejects_instead_of_deadlocking() {
        // One worker, a queue of one, and clients that keep eight
        // requests in flight: rejections are unavoidable, and the demo
        // must still terminate with every accepted ticket resolved.
        let outcome = serve_demo(&DemoConfig {
            workers: 1,
            clients: 3,
            requests_per_client: 25,
            queue_capacity: 1,
            window: 8,
            fault_seed: None,
            tcp: false,
        });
        assert!(outcome.rejected > 0, "{}", outcome.report);
        assert_eq!(outcome.failed, 0);
        assert_eq!(
            outcome.completed + outcome.rejected,
            75,
            "{}",
            outcome.report
        );
    }

    #[test]
    fn tcp_demo_matches_in_process_accounting() {
        // An ample-queue `--tcp` run: every request completes, nothing
        // is lost on the wire, and the server counted one connection
        // per client thread.
        let outcome = serve_demo(&DemoConfig {
            workers: 2,
            clients: 2,
            requests_per_client: 15,
            queue_capacity: 256,
            window: 4,
            fault_seed: None,
            tcp: true,
        });
        assert_eq!(outcome.completed, 30, "{}", outcome.report);
        assert_eq!(outcome.rejected, 0, "{}", outcome.report);
        assert_eq!(outcome.failed, 0, "{}", outcome.report);
        assert_eq!(outcome.stats.wire_connections, 2, "{}", outcome.report);
        assert_eq!(
            (outcome.stats.wire_rejections, outcome.stats.wire_in_flight),
            (0, 0),
            "{}",
            outcome.report
        );
        assert!(
            outcome.report.contains("tcp loopback"),
            "{}",
            outcome.report
        );
        assert!(
            outcome.report.contains("wire connections"),
            "{}",
            outcome.report
        );
    }

    #[test]
    fn tcp_over_capacity_burst_rejects_with_zero_loss() {
        // The CI wire-smoke contract (`--tcp --require-rejections
        // --require-no-loss`): backpressure engages over the socket as
        // typed `Overloaded` replies, the server's rejection counter
        // agrees with the clients' tally, and the conservation law
        // holds — no ticket is lost between submit and drain.
        let outcome = serve_demo(&DemoConfig {
            workers: 1,
            clients: 3,
            requests_per_client: 25,
            queue_capacity: 1,
            window: 8,
            fault_seed: None,
            tcp: true,
        });
        assert!(outcome.rejected > 0, "{}", outcome.report);
        assert_eq!(outcome.failed, 0, "{}", outcome.report);
        assert_eq!(
            outcome.completed + outcome.rejected,
            75,
            "{}",
            outcome.report
        );
        assert_eq!(
            outcome.stats.wire_rejections, outcome.rejected,
            "every Overloaded reply is one wire rejection: {}",
            outcome.report
        );
        assert_eq!(outcome.stats.wire_connections, 3, "{}", outcome.report);
        assert_eq!(outcome.stats.wire_in_flight, 0, "{}", outcome.report);
    }
}
