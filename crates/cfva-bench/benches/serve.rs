//! Service throughput: one fixed conflicted-stride mixed request
//! batch, pushed through the pooled service at 1, 2 and 4 workers,
//! against the serial baseline (the same requests on plain per-spec
//! `BatchRunner`s, no pool, no threads).
//!
//! One iteration = submit the whole batch, then reap every ticket —
//! i.e. the measured quantity is wall time per full batch, the
//! reciprocal of request throughput. The worker counts are fixed
//! (not `available_parallelism`) so the benchmark ids — and the
//! committed `BENCH_baseline.json` entries under CI's strict
//! `bench-compare` — are machine-independent.
//!
//! Reading the numbers: `workers_1` vs `serial` is the pool tax
//! (queue transfer + ticket wake-ups, amortised over ~200 µs of
//! simulation per batch); `workers_2`/`workers_4` over `workers_1` is
//! the parallel payoff, which requires actual cores — the committed
//! baseline comes from a single-core reference machine, where all
//! pool configurations are expected to tie with serial (the speedup
//! shows on multicore hosts). The pooled configurations submit with
//! `submit_uncached`: this group gates the *pool's* overhead, and with
//! the result cache consulted every iteration after the first would
//! measure nothing but cache hits.
//!
//! The `serve_cached` group measures the cache itself: one repeated
//! family-sweep request served from the warm result cache (`hit`)
//! against the same request forced down the pooled miss path
//! (`miss_uncached`). The gap is the O(1) serve path's payoff and is
//! expected to be well over 50×. `hit_4096` is a warm hit on a
//! 4096-element `Measure`, whose response shares 32 KiB of arrival
//! cycles with the cache entry instead of copying them.
//!
//! The `serve_wire` group measures the TCP front door's tax on that
//! same warm-cache request: `loopback_hit` is one submit→wait round
//! trip over a `127.0.0.1` socket (encode + frame + two syscalls +
//! decode on top of the O(1) serve), and `loopback_pipelined` amortises
//! the round trip by keeping 16 requests in flight on one connection
//! before reaping — the protocol's out-of-order correlation is what
//! makes that pipelining legal. `encode_response` and
//! `decode_response` time the JSON codec alone on a 4096-element
//! `Measure` response, the largest frame of the benchmark's hot set,
//! whose text is mostly its array of arrival cycles.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cfva_bench::runner::BatchRunner;
use cfva_core::plan::Strategy;
use cfva_core::{Stride, VectorSpec};
use cfva_serve::api::{Estimator, Request, Response};
use cfva_serve::service::{Service, ServiceConfig};

/// The fixed mixed workload: conflicted strides (high families beat
/// on few modules) across three maps, plus batch and efficiency
/// requests — deterministic, so every configuration serves byte-for-
/// byte identical work.
fn workload() -> Vec<Request> {
    let specs = ["xor-matched:t=3,s=4", "skewed:m=3,d=1", "interleaved:m=3"];
    let mut requests = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        for x in 4..8u32 {
            for sigma in [1i64, 3, 5] {
                let stride = Stride::from_parts(sigma, x).expect("odd sigma");
                requests.push(Request::Measure {
                    spec: (*spec).into(),
                    vec: VectorSpec::with_stride((16 + 8 * si as u64).into(), stride, 2048)
                        .expect("valid"),
                    strategy: Strategy::Auto,
                });
            }
        }
        requests.push(Request::MeasureBatch {
            spec: (*spec).into(),
            accesses: (0..4)
                .map(|i| {
                    (
                        VectorSpec::new(8 * i, 48, 1024).expect("valid"),
                        Strategy::Auto,
                    )
                })
                .collect(),
        });
        requests.push(Request::Efficiency {
            spec: (*spec).into(),
            strategy: Strategy::Auto,
            len: 128,
            estimator: Estimator::Stratified {
                max_x: 7,
                per_family: 2,
            },
            seed: 1992 + si as u64,
        });
    }
    requests
}

/// The no-pool reference: the same requests served inline on warm
/// per-spec sessions (what a caller without the service would write).
fn serve_serially(sessions: &mut [(String, BatchRunner)], requests: &[Request]) -> u64 {
    let mut checksum = 0u64;
    for request in requests {
        let session = sessions
            .iter_mut()
            .find(|(spec, _)| spec == request.spec())
            .map(|(_, session)| session)
            .expect("workload specs are preloaded");
        match request {
            Request::Measure { vec, strategy, .. } => {
                checksum += session
                    .measure_owned(vec, *strategy)
                    .map_or(0, |s| s.latency);
            }
            Request::MeasureBatch { accesses, .. } => {
                checksum += session
                    .measure_batch(accesses)
                    .iter()
                    .flatten()
                    .map(|s| s.latency)
                    .sum::<u64>();
            }
            Request::Efficiency {
                len,
                estimator,
                seed,
                strategy,
                ..
            } => {
                use rand::{rngs::StdRng, SeedableRng};
                let mut rng = StdRng::seed_from_u64(*seed);
                let eta =
                    match estimator {
                        Estimator::Stratified { max_x, per_family } => session
                            .stratified_efficiency(*strategy, *len, *max_x, *per_family, &mut rng),
                        Estimator::MonteCarlo { .. } => unreachable!("not in this workload"),
                    };
                checksum += eta.to_bits() & 0xff;
            }
            Request::FamilySweep { .. } | Request::MultiStream { .. } => {
                unreachable!("not in this workload")
            }
        }
    }
    checksum
}

fn response_checksum(response: &Response) -> u64 {
    match response {
        Response::Measured(stats) => stats.as_ref().map_or(0, |s| s.latency),
        Response::Batch(all) => all.iter().flatten().map(|s| s.latency).sum(),
        Response::Efficiency(eta) => eta.to_bits() & 0xff,
        Response::FamilySweep(rows) => rows.iter().map(|r| r.latency).sum(),
        Response::MultiStream(outcome) => outcome.makespan + outcome.actual_conflicts,
        Response::Degraded { response, .. } => response_checksum(response),
    }
}

fn bench_serve_throughput(c: &mut Criterion) {
    let requests = workload();
    let mut group = c.benchmark_group("serve_mixed");

    group.bench_function(BenchmarkId::new("serial", requests.len()), |b| {
        let mut sessions: Vec<(String, BatchRunner)> =
            ["xor-matched:t=3,s=4", "skewed:m=3,d=1", "interleaved:m=3"]
                .iter()
                .map(|s| ((*s).to_string(), BatchRunner::from_spec_str(s).unwrap()))
                .collect();
        b.iter(|| serve_serially(&mut sessions, &requests));
    });

    // Fixed worker counts so the baseline ids match on any machine.
    for workers in [1usize, 2, 4] {
        let service = Service::new(
            ServiceConfig::with_workers(workers).queue_capacity(requests.len().max(16)),
        );
        group.bench_function(
            BenchmarkId::new(format!("workers_{workers}"), requests.len()),
            |b| {
                b.iter(|| {
                    // Uncached on purpose: gate the pool, not the cache.
                    let tickets: Vec<_> = requests
                        .iter()
                        .map(|r| {
                            service
                                .submit_uncached(r.clone())
                                .expect("queue sized to the batch")
                        })
                        .collect();
                    tickets
                        .into_iter()
                        .map(|t| response_checksum(&t.wait().expect("valid request")))
                        .sum::<u64>()
                })
            },
        );
        service.shutdown();
    }
    group.finish();
}

/// The O(1) serve path against the pooled miss path, same request: a
/// family sweep is many measurements with a tiny response, so `hit` is
/// a key reduction + clone while `miss_uncached` replans and resimulates
/// the whole sweep through the pool.
fn bench_serve_cached(c: &mut Criterion) {
    let request = Request::FamilySweep {
        spec: "xor-matched:t=3,s=4".into(),
        len: 4096,
        max_x: 10,
        sigma: 3,
    };
    let service = Service::new(ServiceConfig::with_workers(1));
    // Warm the single cache entry (and the worker's session): a key is
    // cached on its second miss, so every measured iteration is a hit.
    let warm = |request: &Request| {
        let responses: Vec<_> = (0..2)
            .map(|_| {
                service
                    .submit(request.clone())
                    .expect("queue has room")
                    .wait()
                    .expect("valid request")
            })
            .collect();
        assert_eq!(responses[0], responses[1]);
        response_checksum(&responses[1])
    };
    let expected = warm(&request);

    let mut group = c.benchmark_group("serve_cached");
    group.bench_function(BenchmarkId::new("hit", 1), |b| {
        b.iter(|| {
            let checksum = response_checksum(
                &service
                    .submit(request.clone())
                    .expect("room")
                    .wait()
                    .expect("valid"),
            );
            assert_eq!(checksum, expected);
            checksum
        })
    });
    // A warm hit on a 4096-element measurement: what a hit costs when
    // the response carries 32 KiB of arrival cycles.
    let long = Request::Measure {
        spec: "xor-matched:t=3,s=4".into(),
        vec: VectorSpec::new(16, 3, 4096).expect("valid"),
        strategy: Strategy::Auto,
    };
    let expected_long = warm(&long);
    group.bench_function(BenchmarkId::new("hit_4096", 1), |b| {
        b.iter(|| {
            let checksum = response_checksum(
                &service
                    .submit(long.clone())
                    .expect("room")
                    .wait()
                    .expect("valid"),
            );
            assert_eq!(checksum, expected_long);
            checksum
        })
    });
    group.bench_function(BenchmarkId::new("miss_uncached", 1), |b| {
        b.iter(|| {
            let checksum = response_checksum(
                &service
                    .submit_uncached(request.clone())
                    .expect("room")
                    .wait()
                    .expect("valid"),
            );
            assert_eq!(checksum, expected);
            checksum
        })
    });
    group.finish();
    service.shutdown();
}

/// The wire tax: the `serve_cached/hit` request over a loopback socket.
/// The service side is a warm O(1) cache hit, so the measured quantity
/// is what the TCP front door adds — JSON encode, length-prefixed
/// framing, kernel round trips and decode. `loopback_pipelined` keeps
/// 16 submissions in flight on the one connection before reaping,
/// amortising the per-round-trip latency across the batch.
fn bench_serve_wire(c: &mut Criterion) {
    use cfva_wire::client::WireClient;
    use cfva_wire::json;
    use cfva_wire::server::{WireServer, WireServerConfig};
    use std::sync::Arc;

    let request = Request::FamilySweep {
        spec: "xor-matched:t=3,s=4".into(),
        len: 4096,
        max_x: 10,
        sigma: 3,
    };
    let service = Arc::new(Service::new(ServiceConfig::with_workers(1)));
    let server = WireServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        WireServerConfig::default(),
    )
    .expect("loopback bind cannot fail");
    let mut client = WireClient::connect(server.local_addr()).expect("loopback connect");
    // Warm the single cache entry (and the worker's session) so every
    // measured iteration is a cache hit plus wire overhead: a key is
    // cached on its second miss.
    let mut warm = || {
        let ticket = client.submit(request.clone()).expect("transport up");
        response_checksum(
            &client
                .wait(ticket)
                .expect("transport up")
                .expect("valid request"),
        )
    };
    let expected = warm();
    assert_eq!(warm(), expected);

    let mut group = c.benchmark_group("serve_wire");
    group.bench_function(BenchmarkId::new("loopback_hit", 1), |b| {
        b.iter(|| {
            let ticket = client.submit(request.clone()).expect("transport up");
            let checksum =
                response_checksum(&client.wait(ticket).expect("transport up").expect("valid"));
            assert_eq!(checksum, expected);
            checksum
        })
    });
    group.bench_function(BenchmarkId::new("loopback_pipelined", 16), |b| {
        b.iter(|| {
            let tickets: Vec<_> = (0..16)
                .map(|_| client.submit(request.clone()).expect("transport up"))
                .collect();
            tickets
                .into_iter()
                .map(|t| response_checksum(&client.wait(t).expect("transport up").expect("valid")))
                .sum::<u64>()
        })
    });

    // The codec alone, on the wire's hottest frame: a 4096-element
    // `Measure` response (≈ 19.6 KB of text, mostly arrival cycles).
    let long = Request::Measure {
        spec: "xor-matched:t=3,s=4".into(),
        vec: VectorSpec::new(16, 3, 4096).expect("valid"),
        strategy: Strategy::Auto,
    };
    let response = service
        .submit(long)
        .expect("room")
        .wait()
        .expect("valid request");
    let text = json::encode_response(&response);
    assert_eq!(json::decode_response(&text).as_ref(), Ok(&response));
    group.bench_function(BenchmarkId::new("encode_response", 4096), |b| {
        b.iter(|| json::encode_response(&response).len())
    });
    group.bench_function(BenchmarkId::new("decode_response", 4096), |b| {
        b.iter(|| response_checksum(&json::decode_response(&text).expect("decodes")))
    });
    group.finish();
    drop(client);
    server.shutdown();
    service.shutdown();
}

/// Contended multi-stream serving: the same eight stride-2 streams on
/// `interleaved:m=3`, co-run two at a time, under naive FIFO wave
/// pairing against the conflict-aware planner. The arrival order is
/// adversarial for FIFO — neighbours share a module parity, so every
/// FIFO wave co-runs a clashing pair, while the predictor re-pairs
/// even with odd bases into conflict-free waves. The measured quantity
/// is wall time per full co-run; the *simulated* makespans are also
/// asserted (conflict-aware strictly below FIFO) so the bench fails
/// loudly if the scheduling win ever regresses.
fn bench_serve_contended(c: &mut Criterion) {
    use cfva_memsim::IssuePolicy;
    use cfva_serve::api::SchedulePlan;

    // Same-parity neighbours: FIFO width-2 waves are all conflicting.
    let streams: Vec<VectorSpec> = [0u64, 2, 1, 3, 4, 6, 5, 7]
        .into_iter()
        .map(|base| VectorSpec::new(base, 2, 2048).expect("valid"))
        .collect();
    let request = |schedule: SchedulePlan| Request::MultiStream {
        spec: "interleaved:m=3".into(),
        streams: streams.clone(),
        strategy: Strategy::Auto,
        policy: IssuePolicy::RoundRobin,
        schedule,
    };
    let service = Service::new(ServiceConfig::with_workers(1));
    let run = |schedule: SchedulePlan| match service
        .submit_uncached(request(schedule))
        .expect("queue has room")
        .wait()
        .expect("valid request")
    {
        Response::MultiStream(outcome) => outcome,
        other => panic!("unexpected response {other:?}"),
    };
    let fifo = run(SchedulePlan::FifoWaves { width: 2 });
    let aware = run(SchedulePlan::ConflictAware {
        width: 2,
        max_score_milli: 0,
    });
    assert!(
        aware.makespan < fifo.makespan,
        "conflict-aware co-runs ({}) must beat FIFO pairing ({})",
        aware.makespan,
        fifo.makespan
    );
    assert_eq!(aware.actual_conflicts, 0, "re-paired waves co-run CF");

    let mut group = c.benchmark_group("serve_contended");
    for (name, schedule) in [
        ("fifo", SchedulePlan::FifoWaves { width: 2 }),
        (
            "conflict_aware",
            SchedulePlan::ConflictAware {
                width: 2,
                max_score_milli: 0,
            },
        ),
    ] {
        group.bench_function(BenchmarkId::new(name, streams.len()), |b| {
            b.iter(|| {
                let outcome = run(schedule);
                outcome.makespan + outcome.actual_conflicts
            })
        });
    }
    group.finish();
    service.shutdown();
}

criterion_group!(
    benches,
    bench_serve_throughput,
    bench_serve_cached,
    bench_serve_wire,
    bench_serve_contended
);
criterion_main!(benches);
