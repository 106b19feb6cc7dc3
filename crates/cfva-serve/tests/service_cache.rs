//! The result-cache contract: caching is **invisible** in values
//! (cache-on ≡ cache-off, bit for bit, over random request streams),
//! equivalent requests share one entry (canonical spec spelling,
//! stride-class membership), the bypass knobs really bypass, the byte
//! bound really bounds, hits share one arrival buffer, a key is cached
//! on its second miss only (one-off keys cost no entry) — and a hit is
//! *much* cheaper than a pooled miss.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cfva_core::mapping::{MapSpec, ModuleMap, Registry};
use cfva_core::plan::Strategy;
use cfva_core::{ConfigError, Stride, VectorSpec};
use cfva_serve::api::{Estimator, Request, Response, ServeError};
use cfva_serve::fault::FaultPlan;
use cfva_serve::runner::BatchRunner;
use cfva_serve::service::{Service, ServiceConfig};
use cfva_serve::CacheStats;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every registered coverage spec, as owned strings.
fn all_specs() -> Vec<String> {
    Registry::builtin()
        .all_specs()
        .iter()
        .map(|s| s.to_string())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance bit-identity: a cache-on service and a cache-off
    /// service answer a random request stream — with guaranteed
    /// repeats, so the cached side actually serves hits — with equal
    /// results at every position.
    #[test]
    fn cache_on_and_cache_off_streams_are_bit_identical(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let specs = all_specs();

        let mut requests = Vec::new();
        for _ in 0..8 {
            let spec = specs[rng.gen_range(0..specs.len())].clone();
            let sigma = 2 * rng.gen_range(0i64..8) + 1;
            let x = rng.gen_range(0u32..7);
            let stride = Stride::from_parts(sigma, x).expect("odd sigma");
            let vec = VectorSpec::with_stride(
                rng.gen_range(0u64..1 << 20).into(),
                stride,
                64 << rng.gen_range(0..3),
            )
            .expect("bounded base");
            let request = match rng.gen_range(0..4) {
                0 | 1 => Request::Measure {
                    spec,
                    vec,
                    strategy: [Strategy::Auto, Strategy::Canonical][rng.gen_range(0..2)],
                },
                2 => Request::FamilySweep {
                    spec,
                    len: 64,
                    max_x: rng.gen_range(0..6),
                    sigma,
                },
                _ => Request::Efficiency {
                    spec,
                    strategy: Strategy::Auto,
                    len: 64,
                    estimator: Estimator::Stratified {
                        max_x: 4,
                        per_family: 2,
                    },
                    seed: rng.gen_range(0..4),
                },
            };
            requests.push(request.clone());
            if rng.gen_bool(0.5) {
                requests.push(request);
            }
        }
        // A guaranteed third sighting of one key (the second miss
        // admits it), so `hits > 0` below is not at the mercy of the
        // coin flips.
        requests.push(requests[0].clone());
        requests.push(requests[0].clone());

        let cached = Service::new(ServiceConfig::with_workers(2));
        let uncached = Service::new(ServiceConfig::with_workers(2).cache_bytes(0));
        for request in &requests {
            let warm = cached
                .submit(request.clone())
                .expect("queue has room")
                .wait();
            let cold = uncached
                .submit(request.clone())
                .expect("queue has room")
                .wait();
            prop_assert_eq!(&warm, &cold, "{:?}", request);
        }

        let stats = cached.stats().cache.expect("cache is on by default");
        prop_assert!(stats.hits > 0, "repeats in the stream must hit: {stats:?}");
        prop_assert!(uncached.stats().cache.is_none(), "capacity 0 disables");
        cached.shutdown();
        uncached.shutdown();
    }
}

#[test]
fn repeated_request_is_served_from_the_cache() {
    let service = Service::new(ServiceConfig::with_workers(2));
    let request = Request::Measure {
        spec: "xor-matched:t=3,s=4".into(),
        vec: VectorSpec::new(16, 12, 256).expect("valid"),
        strategy: Strategy::Auto,
    };

    let first = service
        .submit(request.clone())
        .expect("room")
        .wait()
        .expect("serves");
    let second = service
        .submit(request.clone())
        .expect("room")
        .wait()
        .expect("serves");
    assert_eq!(first, second);
    // The second miss admitted the key: the third submission hits.
    let third = service
        .submit(request)
        .expect("room")
        .wait()
        .expect("serves");
    assert_eq!(first, third);

    let stats = service.stats();
    let cache = stats.cache.expect("cache on by default");
    assert_eq!((cache.hits, cache.misses, cache.entries), (1, 2, 1));
    assert!((cache.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    // Both tickets were waited on: nothing queued, nothing in flight.
    assert_eq!((stats.queue_depth, stats.in_flight), (0, 0));
    service.shutdown();
}

#[test]
fn equivalent_spellings_and_class_members_share_one_entry() {
    // The map's used address bits determine the stride-equivalence
    // reductions: base mod 2^used, sigma mod 2^(used - x).
    let spec: MapSpec = "xor-matched:t=3,s=4".parse().expect("parses");
    let used = Registry::builtin()
        .build(&spec)
        .expect("builds")
        .address_bits_used();

    let service = Service::new(ServiceConfig::with_workers(1));
    let base = 16u64;
    let (sigma, x) = (3i64, 2u32);
    let stride = sigma << x;
    let submit = |spec: &str, base: u64, stride: i64| {
        service
            .submit(Request::Measure {
                spec: spec.into(),
                vec: VectorSpec::new(base, stride, 128).expect("valid"),
                strategy: Strategy::Auto,
            })
            .expect("room")
            .wait()
            .expect("serves")
    };

    let original = submit("xor-matched:t=3,s=4", base, stride);
    // The key's second miss admits it.
    assert_eq!(submit("xor-matched:t=3,s=4", base, stride), original);
    // Same map, scrambled key order and hex/binary literals.
    let respelled = submit("xor-matched:s=0x4,t=0b11", base, stride);
    // Same stride class: base shifted by 2^used…
    let shifted_base = submit("xor-matched:t=3,s=4", base + (1 << used), stride);
    // …and the odd part shifted by 2^(used - x).
    let shifted_sigma = submit(
        "xor-matched:t=3,s=4",
        base,
        (sigma + (1 << (used - x))) << x,
    );

    assert_eq!(original, respelled);
    assert_eq!(original, shifted_base);
    assert_eq!(original, shifted_sigma);
    let cache = service.stats().cache.expect("cache on");
    assert_eq!(
        (cache.hits, cache.misses, cache.entries),
        (3, 2, 1),
        "all four spellings reduce to one key: {cache:?}"
    );
    service.shutdown();
}

#[test]
fn submit_uncached_bypasses_and_never_populates() {
    let service = Service::new(ServiceConfig::with_workers(1));
    let request = Request::Measure {
        spec: "skewed:m=3,d=1".into(),
        vec: VectorSpec::new(0, 8, 128).expect("valid"),
        strategy: Strategy::Auto,
    };

    let a = service
        .submit_uncached(request.clone())
        .expect("room")
        .wait()
        .expect("serves");
    let b = service
        .submit_uncached(request.clone())
        .expect("room")
        .wait()
        .expect("serves");
    assert_eq!(a, b, "bypassing the cache does not change values");

    let cache = service.stats().cache.expect("cache on");
    assert_eq!(
        (cache.hits, cache.misses, cache.entries, cache.bypasses),
        (0, 0, 0, 2),
        "uncached submissions neither consult nor populate: {cache:?}"
    );

    // Cached submissions after the bypasses start cold (the second
    // miss populates), and a bypass after the populate still goes to
    // the pool.
    for _ in 0..2 {
        service
            .submit(request.clone())
            .expect("room")
            .wait()
            .expect("serves");
    }
    service
        .submit_uncached(request)
        .expect("room")
        .wait()
        .expect("serves");
    let cache = service.stats().cache.expect("cache on");
    assert_eq!(
        (cache.hits, cache.misses, cache.entries, cache.bypasses),
        (0, 2, 1, 3),
        "{cache:?}"
    );
    service.shutdown();
}

#[test]
fn tiny_capacity_stays_bounded_and_evicts() {
    // 16 KiB: each shard holds two 64-element measurements.
    const BOUND: usize = 16 << 10;
    let service = Service::new(ServiceConfig::with_workers(2).cache_bytes(BOUND));
    // 64 distinct stride classes (odd parts 1, 3, …, 127 are distinct
    // mod 2^used for every builtin map), each submitted twice so the
    // second miss admits it, all cached successfully.
    for i in 0..64i64 {
        for _ in 0..2 {
            service
                .submit(Request::Measure {
                    spec: "xor-matched:t=3,s=4".into(),
                    vec: VectorSpec::new(0, 2 * i + 1, 64).expect("valid"),
                    strategy: Strategy::Auto,
                })
                .expect("room")
                .wait()
                .expect("serves");
        }
    }
    let cache = service.stats().cache.expect("cache on");
    assert!(
        cache.bytes <= cache.capacity_bytes && cache.capacity_bytes == BOUND,
        "bounded: {cache:?}"
    );
    assert_eq!(
        cache.evictions + cache.entries as u64,
        64,
        "every admitted miss was inserted, overflow evicted: {cache:?}"
    );
    service.shutdown();
}

/// A `Measure` of 4096 elements: 32 KiB of arrival cycles.
fn long_measure(base: u64) -> Request {
    Request::Measure {
        spec: "xor-matched:t=3,s=4".into(),
        vec: VectorSpec::new(base, 3, 4096).expect("valid"),
        strategy: Strategy::Auto,
    }
}

#[test]
fn byte_bound_holds_after_every_response_of_a_long_measure_stream() {
    // 1 MiB: each shard's 128 KiB holds three 4096-element entries.
    let service = Service::new(ServiceConfig::with_workers(2).cache_bytes(1 << 20));
    // Bases 0..64 are distinct mod 2^used: 64 distinct keys, each
    // submitted twice so the second miss admits it.
    for base in 0..64 {
        for sighting in 1..=2 {
            service
                .submit(long_measure(base))
                .expect("room")
                .wait()
                .expect("serves");
            let cache = service.stats().cache.expect("cache on");
            assert!(cache.bytes <= cache.capacity_bytes, "bounded: {cache:?}");
            assert_eq!(
                cache.misses,
                2 * base + sighting,
                "every key is new: {cache:?}"
            );
            assert_eq!(
                cache.evictions + cache.entries as u64,
                base + sighting - 1,
                "evictions and entries account for every insert: {cache:?}"
            );
        }
    }
    let cache = service.stats().cache.expect("cache on");
    assert_eq!(cache.oversize, 0, "{cache:?}");
    assert!(cache.evictions > 0, "the bound was reached: {cache:?}");
    service.shutdown();
}

#[test]
fn a_response_over_a_shards_budget_is_served_but_not_cached() {
    // 64 KiB: a shard's 8 KiB cannot hold 32 KiB of arrivals.
    let service = Service::new(ServiceConfig::with_workers(1).cache_bytes(64 << 10));
    let request = long_measure(16);
    let Request::Measure { vec, strategy, .. } = &request else {
        unreachable!("a measure");
    };
    let serial = BatchRunner::from_spec_str("xor-matched:t=3,s=4")
        .expect("builds")
        .measure_owned(vec, *strategy);
    // The first miss is declined; every later one is admitted.
    let declined = service.submit(request.clone()).expect("room").wait();
    assert_eq!(declined, Ok(Response::Measured(serial.clone())));
    for round in 1..=2 {
        let got = service.submit(request.clone()).expect("room").wait();
        assert_eq!(got, Ok(Response::Measured(serial.clone())));
        let cache = service.stats().cache.expect("cache on");
        assert_eq!(
            (
                cache.hits,
                cache.misses,
                cache.oversize,
                cache.entries,
                cache.bytes
            ),
            (0, round + 1, round, 0, 0),
            "answered, counted, never cached: {cache:?}"
        );
    }
    service.shutdown();
}

#[test]
fn hits_on_one_entry_share_one_arrival_buffer() {
    let service = Service::new(ServiceConfig::with_workers(1));
    let arrivals = || match service.submit(long_measure(0)).expect("room").wait() {
        Ok(Response::Measured(Some(stats))) => stats.arrival,
        other => panic!("a measurement: {other:?}"),
    };
    let _declined = arrivals();
    let miss = arrivals();
    let (a, b) = (arrivals(), arrivals());
    assert!(a.ptr_eq(&b), "two hits return one buffer");
    assert_eq!(a.as_ptr(), b.as_ptr());
    assert!(miss.ptr_eq(&a), "the miss's response is the cached one");
    let cache = service.stats().cache.expect("cache on");
    assert_eq!((cache.hits, cache.misses), (2, 2), "{cache:?}");
    service.shutdown();
}

#[test]
fn cache_hit_path_is_50x_faster_than_pooled_misses() {
    // The acceptance ratio. A FamilySweep is many measurements with a
    // tiny response, so the gap between "clone a cached row set" and
    // "run the sweep through the pool" dwarfs scheduler noise.
    let service = Service::new(ServiceConfig::with_workers(1));
    let request = Request::FamilySweep {
        spec: "xor-matched:t=3,s=4".into(),
        len: 8192,
        max_x: 12,
        sigma: 3,
    };

    // Warm the single entry: the second miss inserts it.
    let warm = service
        .submit(request.clone())
        .expect("room")
        .wait()
        .expect("serves");
    let admitted = service
        .submit(request.clone())
        .expect("room")
        .wait()
        .expect("serves");
    assert_eq!(admitted, warm);

    const ITERS: u32 = 32;
    let hits = Instant::now();
    for _ in 0..ITERS {
        let got = service
            .submit(request.clone())
            .expect("room")
            .wait()
            .expect("serves");
        assert_eq!(got, warm);
    }
    let hit_total = hits.elapsed();

    let misses = Instant::now();
    for _ in 0..ITERS {
        let got = service
            .submit_uncached(request.clone())
            .expect("room")
            .wait()
            .expect("serves");
        assert_eq!(got, warm);
    }
    let miss_total = misses.elapsed();

    let cache = service.stats().cache.expect("cache on");
    assert_eq!(cache.hits, ITERS as u64, "every warm submit hit: {cache:?}");
    assert!(
        miss_total >= hit_total.max(Duration::from_nanos(1)) * 50,
        "cache hits must be >= 50x faster: {ITERS} hits took {hit_total:?}, \
         {ITERS} pooled misses took {miss_total:?}"
    );
    service.shutdown();
}

/// A `Measure` on `spec` at a fixed access.
fn measure(spec: &str) -> Request {
    Request::Measure {
        spec: spec.into(),
        vec: VectorSpec::new(16, 12, 128).expect("valid"),
        strategy: Strategy::Auto,
    }
}

#[test]
fn hostile_spelling_churn_still_shares_one_entry_past_the_spec_table_cap() {
    // More distinct raw spellings of `interleaved:m=3` than the spec
    // table holds, mixed with distinct unparsable specs: past the cap
    // each new spelling resolves on its own, and must still land on
    // the one cache entry.
    let mut spellings: Vec<String> = (0..Service::SPEC_TABLE_CAPACITY + 32)
        .map(|zeros| format!("interleaved:m={}3", "0".repeat(zeros)))
        .collect();
    spellings.extend(
        ["0x3", "0x03", "0b11", "0b011", "0b1_1", "3_", "_3", "0x_3"]
            .map(|m| format!("interleaved:m={m}")),
    );

    let service = Service::new(ServiceConfig::with_workers(2));
    let expected = service
        .submit(measure("interleaved:m=3"))
        .expect("room")
        .wait()
        .expect("serves");
    // The key's second miss admits it.
    let admitted = service
        .submit(measure("interleaved:m=3"))
        .expect("room")
        .wait()
        .expect("serves");
    assert_eq!(admitted, expected);
    for (i, spelling) in spellings.iter().enumerate() {
        let refused = service.submit(measure(&format!("interleaved:m{i}")));
        assert!(
            matches!(refused, Err(ServeError::Spec(_))),
            "unparsable spec #{i} must be refused at submit: {refused:?}"
        );
        let got = service
            .submit(measure(spelling))
            .expect("room")
            .wait()
            .expect("serves");
        assert_eq!(got, expected, "{spelling}");
    }
    let cache = service.stats().cache.expect("cache on");
    assert_eq!(
        (cache.hits, cache.misses, cache.entries, cache.bypasses),
        (spellings.len() as u64, 2, 1, 0),
        "every spelling shares the first spelling's entry: {cache:?}"
    );
    service.shutdown();
}

#[test]
fn unbuildable_specs_bypass_the_cache_and_rebuild_every_time() {
    let service = Service::new(ServiceConfig::with_workers(1));
    // Rank deficient: parses, never builds.
    for _ in 0..3 {
        let ticket = service
            .submit(measure("custom-gf2:rows=0b11|0b11"))
            .expect("grammar is valid, submission succeeds");
        assert!(
            matches!(
                ticket.wait(),
                Err(ServeError::Spec(ConfigError::SingularMatrix))
            ),
            "the build error resolves through the ticket"
        );
    }

    // A matrix file that appears later: the spec table remembers that
    // the spec did not build (so it keeps bypassing the cache), but the
    // worker retries the session build on every request.
    let path = std::env::temp_dir().join(format!("cfva-serve-late-{}.gf2", std::process::id()));
    std::fs::remove_file(&path).ok();
    let spec = format!("custom-gf2:matrix=@{}", path.display());
    let missing = service.submit(measure(&spec)).expect("room").wait();
    assert!(
        matches!(
            missing,
            Err(ServeError::Spec(ConfigError::MatrixFile { .. }))
        ),
        "{missing:?}"
    );
    std::fs::write(&path, "0010001\n0100010\n1000100\n").expect("write matrix");
    let late = service.submit(measure(&spec)).expect("room").wait();
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(late, Ok(Response::Measured(Some(_)))),
        "the session build is retried once the file exists: {late:?}"
    );

    let cache = service.stats().cache.expect("cache on");
    assert_eq!(
        (cache.hits, cache.misses, cache.entries, cache.bypasses),
        (0, 0, 0, 5),
        "unbuildable specs have no sound key: {cache:?}"
    );
    service.shutdown();
}

#[test]
fn concurrent_first_touch_of_a_cold_spec_answers_identically() {
    const THREADS: usize = 8;
    let service = Service::new(ServiceConfig::with_workers(2));
    let barrier = Barrier::new(THREADS);
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    service
                        .submit(measure("skewed:m=3,d=0x1"))
                        .expect("room")
                        .wait()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter joins"))
            .collect()
    });
    let serial = BatchRunner::from_spec_str("skewed:m=3,d=1")
        .expect("builds")
        .measure_owned(
            &VectorSpec::new(16, 12, 128).expect("valid"),
            Strategy::Auto,
        );
    for response in &responses {
        assert_eq!(response, &Ok(Response::Measured(serial.clone())));
    }
    let cache = service.stats().cache.expect("cache on");
    assert_eq!(cache.entries, 1, "{cache:?}");
    assert_eq!(cache.hits + cache.misses, THREADS as u64, "{cache:?}");
    service.shutdown();
}

/// Serves `request` and waits for its response.
fn serve(service: &Service, request: &Request) -> Response {
    service
        .submit(request.clone())
        .expect("room")
        .wait()
        .expect("serves")
}

fn cache_of(service: &Service) -> CacheStats {
    service.stats().cache.expect("cache on")
}

/// The misses an insert accounts for: every admitted miss's response is
/// resident, evicted, invalidated or refused as oversize.
fn inserted(cache: &CacheStats) -> u64 {
    cache.entries as u64 + cache.evictions + cache.invalidations + cache.oversize
}

#[test]
fn one_off_keys_are_never_cached() {
    const KEYS: u64 = 64;
    let service = Service::new(ServiceConfig::with_workers(2));
    for i in 0..KEYS as i64 {
        serve(
            &service,
            &Request::Measure {
                spec: "xor-matched:t=3,s=4".into(),
                vec: VectorSpec::new(0, 2 * i + 1, 1024).expect("valid"),
                strategy: Strategy::Auto,
            },
        );
    }
    let cache = cache_of(&service);
    assert_eq!(
        (cache.misses, cache.entries, cache.bytes, cache.evictions),
        (KEYS, 0, 0, 0),
        "a key seen once costs no entry and evicts nothing: {cache:?}"
    );
    service.shutdown();
}

#[test]
fn a_repeated_key_misses_twice_then_hits_the_second_response() {
    let service = Service::new(ServiceConfig::with_workers(1));
    let arrivals = || match serve(&service, &long_measure(0)) {
        Response::Measured(Some(stats)) => stats.arrival,
        other => panic!("a measurement: {other:?}"),
    };
    let first = arrivals();
    assert_eq!(cache_of(&service).entries, 0, "the first miss is declined");
    let second = arrivals();
    let cache = cache_of(&service);
    assert_eq!(
        (cache.misses, cache.entries),
        (2, 1),
        "the second miss inserts: {cache:?}"
    );
    let third = arrivals();
    assert_eq!(cache_of(&service).hits, 1, "the third submission hits");
    assert!(
        third.ptr_eq(&second),
        "the hit shares the admitted response"
    );
    assert!(!third.ptr_eq(&first), "the declined response was not kept");
    assert_eq!(first, third);
    service.shutdown();
}

/// An `Efficiency` request: its response and key carry no payload, so
/// its entry is charged exactly the fixed per-entry overhead.
fn efficiency(seed: u64) -> Request {
    Request::Efficiency {
        spec: "interleaved:m=3".into(),
        strategy: Strategy::Auto,
        len: 64,
        estimator: Estimator::Stratified {
            max_x: 4,
            per_family: 1,
        },
        seed,
    }
}

/// The bytes one entry is charged beyond its payload.
fn entry_overhead() -> usize {
    let service = Service::new(ServiceConfig::with_workers(1));
    serve(&service, &efficiency(0));
    serve(&service, &efficiency(0));
    let cache = cache_of(&service);
    assert_eq!(cache.entries, 1, "{cache:?}");
    service.shutdown();
    cache.bytes
}

#[test]
fn a_key_aged_out_of_its_window_is_declined_again_then_admitted() {
    // Each shard's budget holds WINDOW entries, so its admission window
    // holds WINDOW fingerprints.
    const WINDOW: usize = 2;
    const SHARDS: usize = 8;
    let bound = SHARDS * WINDOW * entry_overhead();
    let service = Service::new(ServiceConfig::with_workers(1).cache_bytes(bound));
    let keys: Vec<Request> = (0..(SHARDS * WINDOW) as u64 + 1).map(efficiency).collect();
    for key in &keys {
        serve(&service, key);
    }
    let cache = cache_of(&service);
    assert_eq!((cache.misses, cache.entries), (keys.len() as u64, 0));

    // More keys than the windows hold, so some shard saw more than
    // WINDOW of them, and the first of those has aged out: it is
    // declined again on the second pass (no key before it in the pass
    // touches its shard's window). A declined key is admitted on its
    // next miss; a remembered one is admitted at once.
    let mut declined = 0;
    for (i, key) in keys.iter().enumerate() {
        let before = inserted(&cache_of(&service));
        serve(&service, key);
        if inserted(&cache_of(&service)) == before {
            declined += 1;
            serve(&service, key);
            assert_eq!(
                inserted(&cache_of(&service)),
                before + 1,
                "key {i} is admitted on the miss after its decline"
            );
        }
    }
    assert!(declined >= 1, "{:?}", cache_of(&service));
    assert_eq!(cache_of(&service).hits, 0);
    service.shutdown();
}

#[test]
fn declined_admissions_are_the_misses_no_insert_accounts_for() {
    // 256 KiB: a shard's 32 KiB holds one 2048-element measurement and
    // refuses a 4096-element one as oversize.
    let measure = |base: u64| Request::Measure {
        spec: "xor-matched:t=3,s=4".into(),
        vec: VectorSpec::new(base, 3, 2048).expect("valid"),
        strategy: Strategy::Auto,
    };
    // Submission 36 (after 17 keys twice and the oversize key twice)
    // poisons the cache.
    let service = Service::new(
        ServiceConfig::with_workers(2)
            .cache_bytes(256 << 10)
            .fault_plan(Arc::new(FaultPlan::new().poison_cache_at(36))),
    );
    // 17 distinct keys admitted on their second miss: some shard gets
    // two of them and evicts.
    for base in 0..17 {
        serve(&service, &measure(base));
        serve(&service, &measure(base));
    }
    serve(&service, &long_measure(0));
    serve(&service, &long_measure(0));
    // After the poison every key misses again, and its remembered
    // fingerprint admits it at once; the first insert into each
    // emptied shard is hit by the next submission.
    for base in 0..17 {
        serve(&service, &measure(base));
        serve(&service, &measure(base));
    }
    let cache = cache_of(&service);
    assert!(
        cache.evictions > 0 && cache.oversize == 1 && cache.invalidations > 0,
        "{cache:?}"
    );
    assert!(cache.hits > 0, "{cache:?}");
    assert_eq!(
        cache.misses - inserted(&cache),
        18,
        "one declined miss per distinct key: {cache:?}"
    );
    service.shutdown();
}
