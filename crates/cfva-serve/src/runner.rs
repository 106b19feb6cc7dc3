//! Planner + simulator measurement sessions.
//!
//! Two tiers:
//!
//! * [`measure`] — the naive one-call path: plans and simulates one
//!   access, allocating a fresh [`MemorySystem`] and plan per call. Kept
//!   as the baseline the batch engine is benchmarked against
//!   (`benches/end_to_end.rs`).
//! * [`BatchRunner`] — a long-lived measurement session owning the
//!   planner, one memory system and the plan/stats scratch buffers.
//!   Repeated measurement through a session performs **no heap
//!   allocation** after warm-up; [`BatchRunner::sweep`] fans independent
//!   sweep points out across scoped threads, one session per thread.

use cfva_core::plan::{AccessPlan, Planner, Strategy};
use cfva_core::VectorSpec;
use cfva_memsim::{AccessStats, MemConfig, MemorySystem};
use rand::Rng;

use crate::workload::StrideSampler;

/// Plans and simulates one vector access — the naive per-call path: a
/// fresh memory system and plan are allocated every call, and the
/// access runs on the cycle oracle
/// ([`MemorySystem::run_oracle`]). Prefer a [`BatchRunner`] for
/// anything measured more than once.
///
/// Falls back per [`Strategy::Auto`] semantics if the requested strategy
/// cannot serve the access *and* `strategy` is `Auto`; otherwise
/// planning errors propagate as `None` (callers decide how to count
/// unservable accesses).
#[must_use = "an AccessStats is a paid-for measurement; dropping it wastes the simulation"]
pub fn measure(
    planner: &Planner,
    vec: &VectorSpec,
    strategy: Strategy,
    mem: MemConfig,
) -> Option<AccessStats> {
    let plan = planner.plan(vec, strategy).ok()?;
    Some(MemorySystem::new(mem).run_oracle(&plan))
}

/// Steady-state service cycles per element of one access: the latency
/// minus the fixed startup (`T + 1`), divided by the element count.
/// Equals 1.0 for a conflict-free access.
pub fn cycles_per_element(stats: &AccessStats, mem: MemConfig) -> f64 {
    (stats.latency - mem.t_cycles() - 1) as f64 / stats.elements as f64
}

/// The naive Monte-Carlo efficiency sweep: every sample goes through
/// the per-call [`measure`] path (fresh system + fresh plan each time).
///
/// This is the **baseline** the batch engine is held against — both
/// `benches/end_to_end.rs` and `tests/batch_engine_speedup.rs` call
/// this one definition so the published bench and the enforced
/// acceptance test can never drift apart. Same estimator (and, for the
/// same RNG stream, bit-identical result) as
/// [`BatchRunner::simulated_efficiency`].
pub fn naive_simulated_efficiency<R: Rng + ?Sized>(
    planner: &Planner,
    strategy: Strategy,
    mem: MemConfig,
    len: u64,
    samples: u32,
    sampler: &StrideSampler,
    rng: &mut R,
) -> f64 {
    let mut total_cpe = 0.0;
    for _ in 0..samples {
        let vec = sampler.sample_vector(rng, 1 << 24, len);
        let stats =
            // cfva-lint: allow(L002, reason = "the sampler only emits specs the auto/canonical strategies can plan; a None here is a sampler bug")
            measure(planner, &vec, strategy, mem).expect("auto/canonical strategies always plan");
        total_cpe += cycles_per_element(&stats, mem);
    }
    samples as f64 / total_cpe
}

/// A long-lived measurement session: owns the planner, one reusable
/// [`MemorySystem`] and the plan/stats scratch buffers.
///
/// The hot path ([`measure`](Self::measure)) performs **no heap
/// allocation** once the buffers have grown to the working size: the
/// plan is built into the session's [`AccessPlan`] via
/// [`Planner::plan_into`], the system's module array is reset in place,
/// and the statistics land in the session's [`AccessStats`].
///
/// For parallel work, [`BatchRunner::sweep`] runs independent sweep
/// points across threads with one session per worker.
///
/// # Examples
///
/// ```
/// use cfva_serve::runner::BatchRunner;
/// use cfva_core::mapping::XorMatched;
/// use cfva_core::plan::{Planner, Strategy};
/// use cfva_core::VectorSpec;
/// use cfva_memsim::MemConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let planner = Planner::matched(XorMatched::new(3, 3)?);
/// let mut session = BatchRunner::new(planner, MemConfig::new(3, 3)?);
///
/// let vec = VectorSpec::new(16, 12, 64)?;
/// let stats = session.measure(&vec, Strategy::ConflictFree).unwrap();
/// assert_eq!(stats.latency, 8 + 64 + 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BatchRunner {
    planner: Planner,
    system: MemorySystem,
    plan: AccessPlan,
    stats: AccessStats,
    /// Plan buffers a co-run request plans its streams into, kept
    /// across requests: the service takes them out, plans into them
    /// and runs them on the session, then puts them back.
    pub(crate) co_run_plans: Vec<AccessPlan>,
}

impl BatchRunner {
    /// Creates a session measuring `planner`'s plans on a memory of
    /// configuration `mem`.
    pub fn new(planner: Planner, mem: MemConfig) -> Self {
        BatchRunner {
            planner,
            system: MemorySystem::new(mem),
            plan: AccessPlan::new(),
            stats: AccessStats::default(),
            co_run_plans: Vec::new(),
        }
    }

    /// Creates a session from a runtime map spec: the planner comes
    /// from [`Planner::from_spec`] and the memory geometry from
    /// [`MemConfig::from_spec`] — the one-call path from a config
    /// string (CLI flag, request field) to a measuring session.
    ///
    /// # Examples
    ///
    /// ```
    /// use cfva_serve::runner::BatchRunner;
    /// use cfva_core::plan::Strategy;
    /// use cfva_core::VectorSpec;
    ///
    /// let mut session = BatchRunner::from_spec(&"xor-matched:t=3,s=3".parse()?)?;
    /// let stats = session.measure(&VectorSpec::new(16, 12, 64)?, Strategy::Auto).unwrap();
    /// assert_eq!(stats.latency, 8 + 64 + 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Spec resolution errors from the registry (unknown name, bad
    /// keys/values, map constraint violations).
    pub fn from_spec(spec: &cfva_core::mapping::MapSpec) -> Result<Self, cfva_core::ConfigError> {
        // One spec resolution for both halves: the planner is built
        // first and the memory geometry read off it, so a
        // `matrix=@file` spec parses its file once and planner and
        // memory can never come from different resolutions.
        let planner = Planner::from_spec(spec)?;
        let mem = MemConfig::new(planner.map().module_bits(), planner.t())?;
        Ok(BatchRunner::new(planner, mem))
    }

    /// [`from_spec`](Self::from_spec) from the unparsed spec string.
    ///
    /// # Errors
    ///
    /// Parse errors plus everything [`from_spec`](Self::from_spec)
    /// rejects.
    pub fn from_spec_str(spec: &str) -> Result<Self, cfva_core::ConfigError> {
        BatchRunner::from_spec(&spec.parse()?)
    }

    /// The planner this session measures with.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// The memory configuration simulated.
    pub fn mem(&self) -> MemConfig {
        self.system.config()
    }

    /// Plans and simulates one access through the reused buffers,
    /// returning a view of the session's stats buffer (valid until the
    /// next measurement).
    ///
    /// `None` when the strategy cannot plan the access — same contract
    /// as the free [`measure`], without its per-call allocations.
    #[must_use = "the measurement's statistics are its only output"]
    pub fn measure(&mut self, vec: &VectorSpec, strategy: Strategy) -> Option<&AccessStats> {
        self.measure_full(vec, strategy).map(|(_, stats)| stats)
    }

    /// Like [`measure`](Self::measure) but returns views of **both**
    /// the plan built into the session's buffer and the resulting
    /// statistics — for callers that need to inspect the request
    /// stream (module sequence, entries) alongside its timing without
    /// allocating a plan of their own.
    #[must_use = "the plan/statistics views are the measurement's only output"]
    pub fn measure_full(
        &mut self,
        vec: &VectorSpec,
        strategy: Strategy,
    ) -> Option<(&AccessPlan, &AccessStats)> {
        self.planner.plan_into(vec, strategy, &mut self.plan).ok()?;
        self.system.run_plan_into(&self.plan, &mut self.stats);
        Some((&self.plan, &self.stats))
    }

    /// Executes a caller-built plan (e.g. a concatenated short-vector
    /// stream from [`AccessPlan::concat`]) on the session's memory
    /// system, reusing the stats buffer.
    #[must_use = "the execution's statistics are its only output"]
    pub fn run_plan(&mut self, plan: &AccessPlan) -> &AccessStats {
        self.system.run_plan_into(plan, &mut self.stats);
        &self.stats
    }

    /// Like [`measure`](Self::measure) but returns owned statistics,
    /// for callers that outlive the next measurement. The arrival
    /// cycles are shared with the session's buffer
    /// ([`Arrivals::kept`](cfva_memsim::Arrivals::kept)), whose next
    /// run then starts a fresh one.
    #[must_use = "the measurement's statistics are its only output"]
    pub fn measure_owned(&mut self, vec: &VectorSpec, strategy: Strategy) -> Option<AccessStats> {
        let stats = self.measure(vec, strategy)?;
        Some(AccessStats {
            arrival: stats.arrival.kept(),
            module_busy: stats.module_busy.clone(),
            ..*stats
        })
    }

    /// Steady-state service cycles per element under this session's
    /// memory configuration (1.0 for a conflict-free access).
    #[must_use = "the derived rate is the computation's only output"]
    pub fn cycles_per_element(&self, stats: &AccessStats) -> f64 {
        cycles_per_element(stats, self.mem())
    }

    /// Measures a batch of accesses, reusing the session buffers across
    /// the whole batch; one owned [`AccessStats`] (or `None` for
    /// unplannable accesses) per spec, in order.
    #[must_use = "the batch's statistics are its only output"]
    pub fn measure_batch(&mut self, specs: &[(VectorSpec, Strategy)]) -> Vec<Option<AccessStats>> {
        specs
            .iter()
            .map(|(vec, strategy)| self.measure_owned(vec, *strategy))
            .collect()
    }

    /// Monte-Carlo estimate of the paper's Section 5B efficiency `η`:
    /// the reciprocal of the population-average service cycles per
    /// element, with strides sampled from the family distribution.
    /// Allocation-free per sample once the session's buffers are warm.
    pub fn simulated_efficiency<R: Rng + ?Sized>(
        &mut self,
        strategy: Strategy,
        len: u64,
        samples: u32,
        sampler: &StrideSampler,
        rng: &mut R,
    ) -> f64 {
        let mem = self.mem();
        let mut total_cpe = 0.0;
        for _ in 0..samples {
            let vec = sampler.sample_vector(rng, 1 << 24, len);
            let stats = self
                .measure(&vec, strategy)
                // cfva-lint: allow(L002, reason = "the sampler only emits specs the auto/canonical strategies can plan; a None here is a sampler bug")
                .expect("auto/canonical strategies always plan");
            total_cpe += cycles_per_element(stats, mem);
        }
        samples as f64 / total_cpe
    }

    /// Stratified estimate of the Section 5B efficiency `η`: measures
    /// the service cycles per element of each family `x ≤ max_x`
    /// directly (averaged over `per_family` random σ/base draws) and
    /// combines them with the exact family weights `2^-(x+1)`. The
    /// truncated tail (`x > max_x`) reuses the `max_x` measurement,
    /// exact once the per-family cost has saturated at `2^t` (i.e.
    /// `max_x ≥ w + t`).
    ///
    /// Far lower variance than the plain Monte-Carlo estimator: the
    /// geometric tail is weighted analytically instead of sampled.
    /// Allocation-free per sample once the session's buffers are warm.
    pub fn stratified_efficiency<R: Rng + ?Sized>(
        &mut self,
        strategy: Strategy,
        len: u64,
        max_x: u32,
        per_family: u32,
        rng: &mut R,
    ) -> f64 {
        let mem = self.mem();
        let mut avg_cpe = 0.0;
        let mut last_family_cpe = 1.0;
        for x in 0..=max_x {
            let mut family_cpe = 0.0;
            for _ in 0..per_family {
                let sigma = 2 * rng.gen_range(0i64..8) + 1;
                let base = rng.gen_range(0u64..1 << 24);
                // cfva-lint: allow(L002, reason = "sigma = 2k+1 is odd by construction and x <= max_x is validated upstream, so from_parts cannot fail")
                let stride = cfva_core::Stride::from_parts(sigma, x).expect("odd sigma, bounded x");
                // cfva-lint: allow(L002, reason = "base < 2^24 and the stride was just built, so with_stride's range checks hold by construction")
                let vec = VectorSpec::with_stride(base.into(), stride, len).expect("valid");
                let stats = self
                    .measure(&vec, strategy)
                    // cfva-lint: allow(L002, reason = "the stratified estimator is only reachable with plannable strategies (validated at the service boundary)")
                    .expect("strategy always plans");
                family_cpe += cycles_per_element(stats, mem);
            }
            family_cpe /= per_family as f64;
            let weight = 0.5f64.powi(x as i32 + 1);
            avg_cpe += weight * family_cpe;
            last_family_cpe = family_cpe;
        }
        // Fold the truncated tail (total weight 2^-(max_x+1)) into the
        // last measured family, whose cost has saturated.
        avg_cpe += 0.5f64.powi(max_x as i32 + 1) * last_family_cpe;
        1.0 / avg_cpe
    }

    /// Runs `run` over every sweep point, in parallel on
    /// [`std::thread::scope`] threads, with **one session per thread**
    /// (built by `make_session` on that thread); results come back in
    /// point order.
    ///
    /// Thread count is the machine's available parallelism, capped at
    /// the number of points; points are split into contiguous chunks,
    /// one scoped thread per chunk, so a thread's session is reused
    /// across its whole chunk. Points may borrow from the caller's
    /// stack. A panic in `run` or `make_session` is re-raised on the
    /// caller's thread once every chunk thread has been joined.
    ///
    /// Determinism: results are bit-identical to the serial loop
    /// `points.iter().map(|p| run(&mut session, p))` **provided each
    /// point is self-contained** — any randomness must be seeded per
    /// point (see `tests/batch_runner.rs`), never threaded through a
    /// shared RNG. The other half of the guarantee is the
    /// **chunk-order merge**: chunk threads are joined in chunk order
    /// and their results concatenated, so the output `Vec` is exactly
    /// the serial output regardless of which thread finishes first.
    ///
    /// ```
    /// use cfva_serve::runner::BatchRunner;
    /// use cfva_core::mapping::XorMatched;
    /// use cfva_core::plan::{Planner, Strategy};
    /// use cfva_core::VectorSpec;
    /// use cfva_memsim::MemConfig;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let make = || {
    ///     BatchRunner::new(
    ///         Planner::matched(XorMatched::new(2, 2).unwrap()),
    ///         MemConfig::new(2, 2).unwrap(),
    ///     )
    /// };
    /// let points: Vec<u64> = (0..13).collect();
    /// let run = |session: &mut BatchRunner, p: &u64| {
    ///     let vec = VectorSpec::new(3 + 8 * p, 4, 16).unwrap();
    ///     session.measure(&vec, Strategy::Auto).unwrap().latency
    /// };
    ///
    /// // Serial reference...
    /// let mut session = make();
    /// let serial: Vec<u64> = points.iter().map(|p| run(&mut session, p)).collect();
    /// // ...equals the threaded sweep: chunk results are merged in
    /// // *chunk* order (threads joined in the order spawned), not
    /// // completion order, so the output is the serial Vec whichever
    /// // thread finishes first.
    /// let parallel = BatchRunner::sweep_with_threads(4, make, &points, run);
    /// assert_eq!(parallel, serial);
    /// # Ok(())
    /// # }
    /// ```
    pub fn sweep<P, R>(
        make_session: impl Fn() -> BatchRunner + Sync,
        points: &[P],
        run: impl Fn(&mut BatchRunner, &P) -> R + Sync,
    ) -> Vec<R>
    where
        P: Sync,
        R: Send,
    {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::sweep_with_threads(threads, make_session, points, run)
    }

    /// [`sweep`](Self::sweep) with an explicit thread count (mainly for
    /// tests pinning the parallel path; `threads` is capped at the
    /// number of points).
    pub fn sweep_with_threads<P, R>(
        threads: usize,
        make_session: impl Fn() -> BatchRunner + Sync,
        points: &[P],
        run: impl Fn(&mut BatchRunner, &P) -> R + Sync,
    ) -> Vec<R>
    where
        P: Sync,
        R: Send,
    {
        let threads = threads.clamp(1, points.len().max(1));
        if threads <= 1 {
            let mut session = make_session();
            return points.iter().map(|p| run(&mut session, p)).collect();
        }

        // Rounding up the chunk length can leave fewer chunks than
        // requested threads (e.g. 5 points / 4 threads → 3 chunks of
        // 2); one thread per chunk, so no thread builds a session it
        // will never use.
        let chunk_len = points.len().div_ceil(threads);
        let (make_session, run) = (&make_session, &run);
        std::thread::scope(|scope| {
            let chunks: Vec<_> = points
                .chunks(chunk_len)
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut session = make_session();
                        chunk
                            .iter()
                            .map(|p| run(&mut session, p))
                            .collect::<Vec<R>>()
                    })
                })
                .collect();
            // Joined in chunk order, so the merged Vec is the serial
            // result whatever the execution interleaving; a chunk's
            // panic is re-raised here with its own payload.
            chunks
                .into_iter()
                .flat_map(|chunk| {
                    chunk
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfva_core::mapping::XorMatched;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn measure_conflict_free() {
        let planner = Planner::matched(XorMatched::new(3, 3).unwrap());
        let vec = VectorSpec::new(16, 12, 64).unwrap();
        let mem = MemConfig::new(3, 3).unwrap();
        let stats = measure(&planner, &vec, Strategy::ConflictFree, mem).unwrap();
        assert_eq!(stats.latency, 73);
        assert_eq!(cycles_per_element(&stats, mem), 1.0);
    }

    #[test]
    fn measure_returns_none_for_unplannable() {
        let planner = Planner::matched(XorMatched::new(3, 3).unwrap());
        let vec = VectorSpec::new(0, 16, 64).unwrap(); // x = 4 > s
        let mem = MemConfig::new(3, 3).unwrap();
        assert!(measure(&planner, &vec, Strategy::ConflictFree, mem).is_none());
        assert!(measure(&planner, &vec, Strategy::Auto, mem).is_some());
    }

    #[test]
    fn batch_runner_matches_naive_measure() {
        let mem = MemConfig::new(3, 3).unwrap();
        let mut session = BatchRunner::new(Planner::matched(XorMatched::new(3, 4).unwrap()), mem);
        let naive_planner = Planner::matched(XorMatched::new(3, 4).unwrap());
        for (base, stride) in [(16u64, 12i64), (0, 1), (7, 6), (100, 4), (3, 160), (9, 96)] {
            let vec = VectorSpec::new(base, stride, 128).unwrap();
            for strategy in [
                Strategy::Canonical,
                Strategy::Subsequence,
                Strategy::ConflictFree,
                Strategy::Auto,
            ] {
                let naive = measure(&naive_planner, &vec, strategy, mem);
                let session_result = session.measure_owned(&vec, strategy);
                assert_eq!(
                    naive, session_result,
                    "base {base} stride {stride} strategy {strategy}"
                );
            }
        }
    }

    #[test]
    fn batch_runner_measure_batch_in_order() {
        let mem = MemConfig::new(3, 3).unwrap();
        let mut session = BatchRunner::new(Planner::matched(XorMatched::new(3, 3).unwrap()), mem);
        let specs = vec![
            (VectorSpec::new(16, 12, 64).unwrap(), Strategy::ConflictFree),
            (VectorSpec::new(0, 16, 64).unwrap(), Strategy::ConflictFree), // unplannable
            (VectorSpec::new(0, 1, 64).unwrap(), Strategy::Auto),
        ];
        let results = session.measure_batch(&specs);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap().latency, 73);
        assert!(results[1].is_none());
        assert_eq!(results[2].as_ref().unwrap().latency, 73);
    }

    #[test]
    fn simulated_efficiency_close_to_analytic_for_proposed_scheme() {
        // Small config for speed: t = 2, λ = 6, s = λ−t = 4.
        let planner = Planner::matched(XorMatched::new(2, 4).unwrap());
        let mut session = BatchRunner::new(planner, MemConfig::new(2, 2).unwrap());
        let sampler = StrideSampler::new(10, 9);
        let mut rng = StdRng::seed_from_u64(3);
        let eta = session.simulated_efficiency(Strategy::Auto, 64, 400, &sampler, &mut rng);
        let analytic = cfva_core::analysis::efficiency(4, 2);
        assert!(
            (eta - analytic).abs() < 0.05,
            "simulated {eta} vs analytic {analytic}"
        );
    }

    #[test]
    fn stratified_efficiency_tracks_analytic_closely() {
        let planner = Planner::matched(XorMatched::new(2, 4).unwrap());
        let mut session = BatchRunner::new(planner, MemConfig::new(2, 2).unwrap());
        let mut rng = StdRng::seed_from_u64(5);
        let eta = session.stratified_efficiency(Strategy::Auto, 64, 8, 4, &mut rng);
        let analytic = cfva_core::analysis::efficiency(4, 2);
        assert!(
            (eta - analytic).abs() < 0.03,
            "stratified {eta} vs analytic {analytic}"
        );
    }

    #[test]
    fn session_measures_equal_the_oracle() {
        let mem = MemConfig::new(3, 3).unwrap();
        let mut session = BatchRunner::new(Planner::matched(XorMatched::new(3, 4).unwrap()), mem);
        let mut oracle = MemorySystem::new(mem);
        for (base, stride) in [(16u64, 12i64), (0, 1), (0, 8), (9, 96), (0, 256)] {
            let vec = VectorSpec::new(base, stride, 128).unwrap();
            for strategy in [Strategy::Canonical, Strategy::Auto] {
                let (plan, stats) = session.measure_full(&vec, strategy).unwrap();
                assert_eq!(
                    stats,
                    &oracle.run_oracle(plan),
                    "base {base} stride {stride} {strategy}"
                );
            }
        }
    }

    #[test]
    fn from_spec_session_matches_direct_construction() {
        let mem = MemConfig::new(3, 3).unwrap();
        let mut direct = BatchRunner::new(Planner::matched(XorMatched::new(3, 4).unwrap()), mem);
        let mut spec = BatchRunner::from_spec_str("xor-matched:t=3,s=4").unwrap();
        assert_eq!(spec.mem(), direct.mem());
        for (base, stride) in [(16u64, 12i64), (0, 1), (7, 6), (3, 160)] {
            let vec = VectorSpec::new(base, stride, 128).unwrap();
            for strategy in [Strategy::Canonical, Strategy::ConflictFree, Strategy::Auto] {
                assert_eq!(
                    direct.measure_owned(&vec, strategy),
                    spec.measure_owned(&vec, strategy),
                    "base {base} stride {stride} {strategy}"
                );
            }
        }
        // Spec errors surface with their diagnostic.
        let e = BatchRunner::from_spec_str("xor-matched:t=3").unwrap_err();
        assert!(e.to_string().contains("\"s\""), "{e}");
    }

    #[test]
    fn sweep_preserves_point_order() {
        let points: Vec<u64> = (0..37).collect();
        let results = BatchRunner::sweep_with_threads(
            4,
            || {
                BatchRunner::new(
                    Planner::matched(XorMatched::new(2, 2).unwrap()),
                    MemConfig::new(2, 2).unwrap(),
                )
            },
            &points,
            |session, &p| {
                let vec = VectorSpec::new(p, 1, 16).unwrap();
                session.measure(&vec, Strategy::Auto).unwrap().latency
            },
        );
        assert_eq!(results.len(), 37);
        // Unit stride is conflict free for every base: all latencies at
        // the floor.
        assert!(results.iter().all(|&l| l == 4 + 16 + 1));
    }

    fn small_session() -> BatchRunner {
        BatchRunner::new(
            Planner::matched(XorMatched::new(2, 2).unwrap()),
            MemConfig::new(2, 2).unwrap(),
        )
    }

    /// Runs a 4-thread sweep over 8 points and returns the message of
    /// the panic it must re-raise (the failure mode pinned is a hang).
    fn sweep_panic(
        make_session: impl Fn() -> BatchRunner + Sync,
        run: impl Fn(&mut BatchRunner, &u64) -> u64 + Sync,
    ) -> String {
        let points: Vec<u64> = (0..8).collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            BatchRunner::sweep_with_threads(4, make_session, &points, run)
        }));
        crate::pool::panic_message(outcome.expect_err("the panic must propagate").as_ref())
    }

    #[test]
    fn sweep_reraises_a_panicking_points_panic() {
        let msg = sweep_panic(small_session, |_, &p| {
            assert!(p != 5, "point {p} boom");
            p
        });
        assert!(msg.contains("point 5 boom"), "{msg}");
    }

    #[test]
    fn sweep_reraises_a_panicking_session_constructors_panic() {
        let msg = sweep_panic(|| panic!("make boom"), |_, &p| p);
        assert!(msg.contains("make boom"), "{msg}");
    }
}
