//! Access plans: the fully resolved request stream of one vector access.
//!
//! An [`AccessPlan`] is what the memory-access module of the processor
//! actually executes: one request per cycle, each naming the element
//! requested and the module it lives in; the element index is also the
//! vector register slot the datum is written to (out-of-order return is
//! absorbed by a random-access register file, paper Section 5D).
//!
//! The paper's conflict-free condition depends only on the plan's module
//! sequence (its temporal distribution), so that is all a plan stores:
//! the element-indexed module table one bulk
//! [`ModuleMap::map_stride_into`] call fills, and the element order when
//! it is not the identity. Request `k` asks for element `order[k]` (or
//! `k`) in module `modules[element]`; its address is
//! [`VectorSpec::element_addr`] of the planned vector.
//!
//! A [`Planner`] builds plans from a mapping and a [`Strategy`].

use std::borrow::Cow;
use std::fmt;

use crate::address::ModuleId;
use crate::dist;
use crate::error::PlanError;
use crate::mapping::{ModuleMap, XorMatched, XorUnmatched};
use crate::order::{self, ReplayKey, ReplayScratch, SubseqStructure};
use crate::vector::VectorSpec;
use crate::window::{MatchedWindow, ReplayKind, UnmatchedWindow};

/// One request of an access plan, by value: the element requested and
/// the module it lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanEntry {
    element: u64,
    module: ModuleId,
}

impl PlanEntry {
    /// Element index within the vector (also the register slot the
    /// returned datum is written to).
    pub const fn element(&self) -> u64 {
        self.element
    }

    /// Module the element lives in.
    pub const fn module(&self) -> ModuleId {
        self.module
    }

    /// Register slot the returned datum goes to (the element index).
    pub const fn register_slot(&self) -> u64 {
        self.element
    }
}

/// The resolved request stream of one vector access, one request per
/// processor cycle (ignoring stalls): the element-indexed module table
/// and, for out-of-order plans, the element order.
///
/// A plan doubles as a reusable buffer: [`Planner::plan_into`] clears
/// and refills an existing plan in place, reusing its tables and the
/// replay scratch — the allocation-free hot path of the batch execution
/// engine. Equality compares the `(element, module)` request sequence,
/// never the scratch state or the attached period.
#[derive(Default)]
pub struct AccessPlan {
    /// Module of each element, indexed by element.
    modules: Vec<ModuleId>,
    /// Element requested at each step; empty when the plan requests the
    /// elements in order (the order is stored only when it is not the
    /// identity, so equal request sequences have equal tables).
    order: Vec<u64>,
    /// A true period of the module sequence in request order, when the
    /// planner proved one (see [`period`](Self::period)).
    period: Option<u64>,
    /// Working storage of the replay order, reused by the next
    /// [`Planner::plan_into`] call.
    replay: ReplayScratch,
}

impl Clone for AccessPlan {
    fn clone(&self) -> Self {
        // The replay scratch is working storage for the *next* plan_into
        // call; a clone starts with fresh (empty) scratch instead of
        // paying for a deep copy of buffers it will never read.
        AccessPlan {
            modules: self.modules.clone(),
            order: self.order.clone(),
            period: self.period,
            replay: ReplayScratch::default(),
        }
    }
}

impl fmt::Debug for AccessPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AccessPlan")
            .field("modules", &self.modules)
            .field("order", &self.order())
            .field("period", &self.period)
            .finish_non_exhaustive()
    }
}

impl PartialEq for AccessPlan {
    fn eq(&self, other: &Self) -> bool {
        // A request sequence determines both tables, and each plan
        // stores an order only when it is not the identity.
        self.modules == other.modules && self.order == other.order
    }
}

impl Eq for AccessPlan {}

impl AccessPlan {
    /// Creates an empty plan (a reusable buffer for
    /// [`Planner::plan_into`]).
    pub fn new() -> Self {
        AccessPlan::default()
    }

    /// Creates an empty plan whose module table can hold `len` requests
    /// without reallocating.
    pub fn with_capacity(len: u64) -> Self {
        AccessPlan {
            modules: Vec::with_capacity(len as usize),
            ..AccessPlan::default()
        }
    }

    /// Removes all requests, keeping the allocated buffers for reuse.
    pub fn clear(&mut self) {
        self.modules.clear();
        self.order.clear();
        self.period = None;
    }

    /// Forgets an order that turned out to be the identity. Stops at the
    /// first element out of place, so an out-of-order plan pays a step
    /// or two.
    fn drop_identity_order(&mut self) {
        if self.order.iter().enumerate().all(|(k, &e)| e == k as u64) {
            self.order.clear();
        }
    }

    /// Number of requests (the vector length).
    pub fn len(&self) -> u64 {
        self.modules.len() as u64
    }

    /// Returns `true` if the plan has no requests.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// The module of each element, indexed by element (not by request).
    pub fn modules(&self) -> &[ModuleId] {
        &self.modules
    }

    /// The element requested at each step, or `None` when the plan
    /// requests the elements in order.
    pub fn order(&self) -> Option<&[u64]> {
        (!self.order.is_empty()).then_some(&self.order[..])
    }

    /// Request `k` (in issue order).
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn request(&self, k: usize) -> PlanEntry {
        let element = self.order.get(k).map_or(k as u64, |&e| e);
        PlanEntry {
            element,
            module: self.modules[element as usize],
        }
    }

    /// Iterates the requests in issue order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            plan: self,
            range: 0..self.modules.len(),
        }
    }

    /// A true period of the plan's module sequence in request order:
    /// request `k` targets the same module as request `k + P`. The
    /// planner attaches the paper's `P_x`
    /// ([`ModuleMap::vector_period`]) to every plan it builds, in O(1):
    /// in-order plans, and the xor planners' conflict-free (replay) and
    /// subsequence orders. `None` when no period is known:
    /// [`concat`](Self::concat) results. The period need not be
    /// minimal, and may exceed the plan's length (then it holds
    /// vacuously).
    pub fn period(&self) -> Option<u64> {
        self.period
    }

    /// The element indices in request order.
    pub fn element_order(&self) -> Vec<u64> {
        match self.order() {
            Some(order) => order.to_vec(),
            None => (0..self.len()).collect(),
        }
    }

    /// The module sequence (temporal distribution) of the plan.
    pub fn module_sequence(&self) -> Vec<ModuleId> {
        self.temporal().into_owned()
    }

    /// The module sequence, borrowed from the module table when the
    /// plan is in order.
    fn temporal(&self) -> Cow<'_, [ModuleId]> {
        match self.order() {
            None => Cow::Borrowed(&self.modules),
            Some(order) => Cow::Owned(order.iter().map(|&e| self.modules[e as usize]).collect()),
        }
    }

    /// Whether every window of `t_cycles` consecutive requests touches
    /// `t_cycles` distinct modules — the paper's conflict-free
    /// condition.
    pub fn is_conflict_free(&self, t_cycles: u64) -> bool {
        dist::is_conflict_free(&self.temporal(), t_cycles)
    }

    /// Position of the first conflicting request, or `None`.
    pub fn first_conflict(&self, t_cycles: u64) -> Option<usize> {
        dist::first_conflict(&self.temporal(), t_cycles)
    }

    /// Number of conflicting requests.
    pub fn conflict_count(&self, t_cycles: u64) -> usize {
        dist::conflict_count(&self.temporal(), t_cycles)
    }

    /// Whether the requests are in element order.
    pub fn is_in_order(&self) -> bool {
        self.order.is_empty()
    }

    /// Minimum possible latency of this access on a conflict-free
    /// memory: `T + L + 1` cycles (Section 2).
    pub fn min_latency(&self, t_cycles: u64) -> u64 {
        t_cycles + self.len() + 1
    }

    /// Concatenates request streams for back-to-back issue — the
    /// Section 5C pattern where the out-of-order prefix of a short
    /// vector and its in-order tail are issued as one stream, paying the
    /// memory startup only once.
    ///
    /// Element indices (= register slots) of later plans are offset by
    /// the lengths of the earlier ones, so the combined plan stays a
    /// permutation of `0..total`.
    pub fn concat<'a, I>(plans: I) -> AccessPlan
    where
        I: IntoIterator<Item = &'a AccessPlan>,
    {
        let mut combined = AccessPlan::new();
        for plan in plans {
            let offset = combined.len();
            combined
                .order
                .extend(plan.iter().map(|e| e.element + offset));
            combined.modules.extend_from_slice(&plan.modules);
        }
        combined.drop_identity_order();
        combined
    }
}

/// Bulk-maps every element of `vec` into the element-indexed `modules`
/// table — the **single** [`ModuleMap`] virtual dispatch of plan
/// construction ([`ModuleMap::map_stride_into`]).
fn map_elements<M: ModuleMap + ?Sized>(map: &M, vec: &VectorSpec, modules: &mut Vec<ModuleId>) {
    modules.clear();
    modules.resize(vec.len() as usize, ModuleId::new(0));
    map.map_stride_into(vec.base(), vec.stride().get(), modules);
}

/// The requests of an [`AccessPlan`] in issue order
/// ([`AccessPlan::iter`]).
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    plan: &'a AccessPlan,
    range: std::ops::Range<usize>,
}

impl Iterator for Iter<'_> {
    type Item = PlanEntry;

    fn next(&mut self) -> Option<PlanEntry> {
        self.range.next().map(|k| self.plan.request(k))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a AccessPlan {
    type Item = PlanEntry;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// How the planner orders requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// In element order — what every pre-1992 scheme does.
    Canonical,
    /// The Section 3.1 subsequence order (Figure 4): conflict free per
    /// subsequence, whole-vector latency within `2T + L` given `q = 2`
    /// input buffers.
    Subsequence,
    /// The Section 3.2/4.2 replay order: whole-vector conflict free,
    /// latency `T + L + 1`, no memory buffers needed.
    ConflictFree,
    /// Choose the best available: `ConflictFree` when the family is in
    /// the window, then `Subsequence`, then `Canonical`.
    #[default]
    Auto,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Strategy::Canonical => "canonical",
            Strategy::Subsequence => "subsequence",
            Strategy::ConflictFree => "conflict-free",
            Strategy::Auto => "auto",
        };
        write!(f, "{name}")
    }
}

enum PlannerKind {
    Matched(XorMatched),
    Unmatched(XorUnmatched),
    Baseline {
        map: Box<dyn ModuleMap + Send + Sync>,
        t: u32,
    },
}

impl fmt::Debug for PlannerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlannerKind::Matched(m) => f.debug_tuple("Matched").field(m).finish(),
            PlannerKind::Unmatched(m) => f.debug_tuple("Unmatched").field(m).finish(),
            PlannerKind::Baseline { t, .. } => f
                .debug_struct("Baseline")
                .field("t", t)
                .finish_non_exhaustive(),
        }
    }
}

/// Builds [`AccessPlan`]s for vector accesses under a chosen mapping.
///
/// Three constructors select the memory organisation:
///
/// * [`Planner::matched`] — `M = T` modules with the paper's equation
///   (1) map; out-of-order strategies serve the Theorem 1 window.
/// * [`Planner::unmatched`] — `M = T²` modules with the equation (2)
///   map; out-of-order strategies serve the Theorem 3 windows using
///   supermodule or section replay automatically.
/// * [`Planner::baseline`] — any [`ModuleMap`] (interleaving,
///   skewing, …) restricted to canonical in-order access: the prior art
///   the paper compares against.
///
/// # Examples
///
/// ```
/// use cfva_core::mapping::XorMatched;
/// use cfva_core::plan::{Planner, Strategy};
/// use cfva_core::VectorSpec;
///
/// let planner = Planner::matched(XorMatched::new(3, 4)?);
/// let vec = VectorSpec::new(1000, 24, 128)?; // stride 24 = 3·2^3
/// let plan = planner.plan(&vec, Strategy::Auto)?;
/// assert!(plan.is_conflict_free(8));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Planner {
    kind: PlannerKind,
}

impl Planner {
    /// Planner for a matched memory (`M = T`) under [`XorMatched`].
    pub fn matched(map: XorMatched) -> Self {
        Planner {
            kind: PlannerKind::Matched(map),
        }
    }

    /// Planner for an unmatched memory (`M = T²`) under
    /// [`XorUnmatched`].
    pub fn unmatched(map: XorUnmatched) -> Self {
        Planner {
            kind: PlannerKind::Unmatched(map),
        }
    }

    /// Planner for an arbitrary mapping restricted to in-order access;
    /// `t` is the module latency exponent (`T = 2^t`).
    pub fn baseline<M: ModuleMap + Send + Sync + 'static>(map: M, t: u32) -> Self {
        Planner {
            kind: PlannerKind::Baseline {
                map: Box::new(map),
                t,
            },
        }
    }

    /// Planner selected at runtime by a map spec, resolved against the
    /// built-in [`Registry`](crate::mapping::Registry):
    /// `xor-matched`/`xor-unmatched` specs get their out-of-order
    /// planners, everything else plans in order with the latency
    /// exponent from the spec's `t` key (default: a matched memory).
    ///
    /// # Examples
    ///
    /// ```
    /// use cfva_core::mapping::MapSpec;
    /// use cfva_core::plan::{Planner, Strategy};
    /// use cfva_core::VectorSpec;
    ///
    /// let planner = Planner::from_spec(&"xor-matched:t=3,s=3".parse()?)?;
    /// let plan = planner.plan(&VectorSpec::new(16, 12, 64)?, Strategy::Auto)?;
    /// assert!(plan.is_conflict_free(8));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Everything [`Registry::build`](crate::mapping::Registry::build)
    /// rejects: unknown names, missing/unknown/invalid keys, map
    /// constraint violations.
    pub fn from_spec(spec: &crate::mapping::MapSpec) -> Result<Self, crate::error::ConfigError> {
        crate::mapping::Registry::builtin().planner(spec)
    }

    /// The module map in use.
    pub fn map(&self) -> &dyn ModuleMap {
        match &self.kind {
            PlannerKind::Matched(m) => m,
            PlannerKind::Unmatched(m) => m,
            PlannerKind::Baseline { map, .. } => map,
        }
    }

    /// Module latency exponent `t`.
    pub fn t(&self) -> u32 {
        match &self.kind {
            PlannerKind::Matched(m) => m.t(),
            PlannerKind::Unmatched(m) => m.t(),
            PlannerKind::Baseline { t, .. } => *t,
        }
    }

    /// Module latency `T = 2^t` in processor cycles.
    pub fn t_cycles(&self) -> u64 {
        1u64 << self.t()
    }

    /// Number of memory modules.
    pub fn module_count(&self) -> u64 {
        self.map().module_count()
    }

    /// The conflict-free window for register-length vectors `L = 2^λ`,
    /// as `(lo, hi)` family exponents, or `None` for a baseline planner
    /// (whose single in-order family depends on the map).
    pub fn window(&self, lambda: u32) -> Option<(u32, u32)> {
        match &self.kind {
            PlannerKind::Matched(m) => {
                let w = MatchedWindow::new(m.t(), m.s(), lambda);
                Some((w.lo(), w.hi()))
            }
            PlannerKind::Unmatched(m) => {
                let w = UnmatchedWindow::new(m.t(), m.s(), m.y(), lambda);
                let (lo, _) = w.lower();
                let (_, hi) = w.upper();
                Some((lo, hi))
            }
            PlannerKind::Baseline { .. } => None,
        }
    }

    /// Builds the plan for `vec` with the requested strategy.
    ///
    /// # Errors
    ///
    /// * [`PlanError::FamilyOutsideWindow`] — an out-of-order strategy
    ///   was requested for a family it cannot serve;
    /// * [`PlanError::LengthNotCompatible`] — the length is not a
    ///   multiple of the subsequence period (`L = k·P_x` violated);
    /// * [`PlanError::UnsupportedStrategy`] — out-of-order strategy on a
    ///   baseline planner.
    pub fn plan(&self, vec: &VectorSpec, strategy: Strategy) -> Result<AccessPlan, PlanError> {
        let mut plan = AccessPlan::with_capacity(vec.len());
        self.plan_into(vec, strategy, &mut plan)?;
        Ok(plan)
    }

    /// Builds the plan for `vec` into caller-owned storage.
    ///
    /// The in-place equivalent of [`plan`](Self::plan): `out` is cleared
    /// and refilled, reusing its tables and internal planning scratch —
    /// no heap allocation once the buffers have grown to the working
    /// size. This is the batch execution engine's hot path. The vector
    /// is mapped once; every strategy, and each attempt of
    /// [`Strategy::Auto`], orders the same module table.
    ///
    /// On error `out` is left cleared (empty).
    ///
    /// # Errors
    ///
    /// Same conditions as [`plan`](Self::plan).
    pub fn plan_into(
        &self,
        vec: &VectorSpec,
        strategy: Strategy,
        out: &mut AccessPlan,
    ) -> Result<(), PlanError> {
        map_elements(self.map(), vec, &mut out.modules);
        out.order.clear();
        let result = match strategy {
            Strategy::Canonical => Ok(()),
            Strategy::Subsequence => self.subsequence_order(vec, out),
            Strategy::ConflictFree => self.conflict_free_order(vec, out),
            Strategy::Auto => {
                if self.conflict_free_order(vec, out).is_err()
                    && self.subsequence_order(vec, out).is_err()
                {
                    // In element order.
                    out.order.clear();
                }
                Ok(())
            }
        };
        match result {
            // Every construction repeats on the vector's `P_x`: the
            // in-order one by definition, the xor planners' replay and
            // subsequence orders as `tests/mapping_properties.rs`
            // checks over their windows.
            Ok(()) => {
                out.drop_identity_order();
                out.period = Some(self.map().vector_period(vec));
            }
            Err(_) => out.clear(),
        }
        result
    }

    /// Writes the Section 3.1 subsequence order into `out.order`.
    fn subsequence_order(&self, vec: &VectorSpec, out: &mut AccessPlan) -> Result<(), PlanError> {
        let x = vec.family();
        let st = match &self.kind {
            PlannerKind::Matched(m) => SubseqStructure::for_matched(m, x)?,
            PlannerKind::Unmatched(m) if x.exponent() <= m.s() => {
                SubseqStructure::for_unmatched_lower(m, x)?
            }
            PlannerKind::Unmatched(m) => SubseqStructure::for_unmatched_upper(m, x)?,
            PlannerKind::Baseline { .. } => {
                return Err(PlanError::UnsupportedStrategy {
                    strategy: "subsequence",
                    reason: "baseline planners access in order only",
                })
            }
        };
        order::subseq_order_into(&st, vec.len(), &mut out.order)
    }

    /// Writes the Section 3.2/4.2 replay order of the mapped vector
    /// into `out.order` (left empty for the in-order conflict-free
    /// case).
    fn conflict_free_order(&self, vec: &VectorSpec, out: &mut AccessPlan) -> Result<(), PlanError> {
        let x = vec.family();
        let (st, key) = match &self.kind {
            PlannerKind::Matched(m) => {
                if x.exponent() == m.s() {
                    // In-order access is conflict free for the map's own
                    // family, for any length and base (Harper's result).
                    out.order.clear();
                    return Ok(());
                }
                (SubseqStructure::for_matched(m, x)?, ReplayKey::Module)
            }
            PlannerKind::Unmatched(m) => {
                // Choose the replay kind per Section 4.2; for
                // register-length vectors this matches Theorem 3's
                // windows, and for other lengths the divisibility check
                // inside replay_order is the arbiter.
                let kind = if x.exponent() <= m.s() {
                    ReplayKind::Supermodule
                } else if x.exponent() <= m.y() {
                    ReplayKind::Section
                } else if let Some(lambda) = vec.lambda() {
                    let w = UnmatchedWindow::new(m.t(), m.s(), m.y(), lambda);
                    let (lo, _) = w.lower();
                    return Err(PlanError::FamilyOutsideWindow {
                        family: x.exponent(),
                        lo,
                        hi: w.upper().1,
                    });
                } else {
                    return Err(PlanError::FamilyOutsideWindow {
                        family: x.exponent(),
                        lo: 0,
                        hi: m.y(),
                    });
                };
                match kind {
                    ReplayKind::Supermodule => (
                        SubseqStructure::for_unmatched_lower(m, x)?,
                        ReplayKey::Supermodule { t: m.t() },
                    ),
                    ReplayKind::Section => (
                        SubseqStructure::for_unmatched_upper(m, x)?,
                        ReplayKey::Section { t: m.t() },
                    ),
                }
            }
            PlannerKind::Baseline { .. } => {
                return Err(PlanError::UnsupportedStrategy {
                    strategy: "conflict-free",
                    reason: "baseline planners access in order only",
                })
            }
        };
        order::replay_order_into(&out.modules, &st, key, &mut out.replay, &mut out.order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Interleaved;

    fn matched_planner() -> Planner {
        Planner::matched(XorMatched::new(3, 3).unwrap())
    }

    #[test]
    fn plan_requests_carry_elements_and_modules() {
        let planner = matched_planner();
        let vec = VectorSpec::new(16, 12, 16).unwrap();
        let plan = planner.plan(&vec, Strategy::Canonical).unwrap();
        assert_eq!(plan.len(), 16);
        let e = plan.request(1);
        assert_eq!(e.element(), 1);
        assert_eq!(vec.element_addr(e.element()).get(), 28);
        assert_eq!(e.module().get(), 7);
        assert_eq!(e.register_slot(), 1);
        assert!(plan.order().is_none(), "an in-order plan stores no order");
        assert_eq!(plan.modules()[1], e.module());
    }

    #[test]
    fn canonical_plan_is_in_order() {
        let planner = matched_planner();
        let vec = VectorSpec::new(16, 12, 64).unwrap();
        let plan = planner.plan(&vec, Strategy::Canonical).unwrap();
        assert!(plan.is_in_order());
        assert!(!plan.is_conflict_free(8));
        assert_eq!(plan.first_conflict(8), Some(3)); // CTP 2,7,5,2 -> repeat at 3
    }

    #[test]
    fn conflict_free_plan_for_window_family() {
        let planner = matched_planner();
        let vec = VectorSpec::new(16, 12, 64).unwrap();
        let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
        assert!(plan.is_conflict_free(8));
        assert!(!plan.is_in_order());
        assert_eq!(plan.min_latency(8), 8 + 64 + 1);
    }

    #[test]
    fn family_s_uses_in_order_conflict_free() {
        let planner = matched_planner();
        let vec = VectorSpec::new(5, 8, 64).unwrap(); // x = 3 = s
        let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
        assert!(plan.is_in_order());
        assert!(plan.is_conflict_free(8));
    }

    #[test]
    fn out_of_window_family_fails_conflict_free() {
        let planner = matched_planner();
        let vec = VectorSpec::new(0, 16, 64).unwrap(); // x = 4 > s
        assert!(matches!(
            planner.plan(&vec, Strategy::ConflictFree),
            Err(PlanError::FamilyOutsideWindow { family: 4, .. })
        ));
        // Auto falls back to canonical.
        let plan = planner.plan(&vec, Strategy::Auto).unwrap();
        assert!(plan.is_in_order());
    }

    #[test]
    fn too_short_vector_fails_but_auto_degrades() {
        // x = 0 needs P = 64 per period; L = 32 < 64.
        let planner = matched_planner();
        let vec = VectorSpec::new(3, 5, 32).unwrap();
        assert!(matches!(
            planner.plan(&vec, Strategy::ConflictFree),
            Err(PlanError::LengthNotCompatible { .. })
        ));
        let plan = planner.plan(&vec, Strategy::Auto).unwrap();
        assert!(plan.is_in_order());
    }

    #[test]
    fn unmatched_planner_picks_replay_kind() {
        let planner = Planner::unmatched(XorUnmatched::new(2, 3, 7).unwrap());
        // Lower window: x = 1.
        let vec = VectorSpec::new(6, 2, 64).unwrap();
        let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
        assert!(plan.is_conflict_free(4));
        // Upper window: x = 6 (sigma 3) — the Section 4.1 example.
        let vec = VectorSpec::new(0, 192, 32).unwrap();
        let plan = planner.plan(&vec, Strategy::ConflictFree).unwrap();
        assert!(plan.is_conflict_free(4));
        // Beyond the upper window: x = 8.
        let vec = VectorSpec::new(0, 256, 32).unwrap();
        assert!(planner.plan(&vec, Strategy::ConflictFree).is_err());
    }

    #[test]
    fn baseline_planner_only_canonical() {
        let planner = Planner::baseline(Interleaved::new(3).unwrap(), 3);
        let vec = VectorSpec::new(0, 1, 64).unwrap();
        assert!(planner.plan(&vec, Strategy::Canonical).is_ok());
        assert!(matches!(
            planner.plan(&vec, Strategy::ConflictFree),
            Err(PlanError::UnsupportedStrategy { .. })
        ));
        assert!(matches!(
            planner.plan(&vec, Strategy::Subsequence),
            Err(PlanError::UnsupportedStrategy { .. })
        ));
        // Auto degrades to canonical.
        let plan = planner.plan(&vec, Strategy::Auto).unwrap();
        assert!(plan.is_in_order());
        assert!(plan.is_conflict_free(8)); // odd stride on interleaving
    }

    #[test]
    fn window_accessor() {
        let planner = matched_planner();
        assert_eq!(planner.window(6), Some((0, 3)));
        assert_eq!(planner.t_cycles(), 8);
        assert_eq!(planner.module_count(), 8);
        let unmatched = Planner::unmatched(XorUnmatched::new(3, 4, 9).unwrap());
        assert_eq!(unmatched.window(7), Some((0, 9)));
        let base = Planner::baseline(Interleaved::new(3).unwrap(), 3);
        assert_eq!(base.window(7), None);
    }

    #[test]
    fn auto_prefers_conflict_free() {
        let planner = matched_planner();
        for (base, stride) in [(16u64, 12i64), (0, 1), (7, 6), (100, 4), (3, 8)] {
            let vec = VectorSpec::new(base, stride, 64).unwrap();
            let plan = planner.plan(&vec, Strategy::Auto).unwrap();
            assert!(
                plan.is_conflict_free(8),
                "base {base} stride {stride} should be conflict free"
            );
        }
    }

    #[test]
    fn plan_iteration() {
        let planner = matched_planner();
        let vec = VectorSpec::new(0, 1, 8).unwrap();
        let plan = planner.plan(&vec, Strategy::Canonical).unwrap();
        let elements: Vec<u64> = (&plan).into_iter().map(|e| e.element()).collect();
        assert_eq!(elements, (0..8).collect::<Vec<u64>>());
        assert_eq!(plan.element_order(), elements);
        assert!(!plan.is_empty());
    }

    #[test]
    fn strategy_display_and_default() {
        assert_eq!(Strategy::default(), Strategy::Auto);
        assert_eq!(Strategy::Canonical.to_string(), "canonical");
        assert_eq!(Strategy::ConflictFree.to_string(), "conflict-free");
    }

    #[test]
    fn concat_offsets_register_slots() {
        let planner = matched_planner();
        let a = planner
            .plan(&VectorSpec::new(0, 8, 16).unwrap(), Strategy::Canonical)
            .unwrap();
        let b = planner
            .plan(&VectorSpec::new(1000, 8, 16).unwrap(), Strategy::Canonical)
            .unwrap();
        let combined = AccessPlan::concat([&a, &b]);
        assert_eq!(combined.len(), 32);
        // A permutation of 0..32: second plan's slots are offset.
        let mut order = combined.element_order();
        order.sort_unstable();
        assert_eq!(order, (0..32).collect::<Vec<u64>>());
        assert_eq!(combined.request(16).element(), 16);
        assert_eq!(combined.request(16).module(), b.request(0).module());
        assert!(
            combined.is_in_order(),
            "two in-order plans concatenate in order"
        );
    }

    #[test]
    fn concat_of_in_order_and_out_of_order_plans() {
        let planner = matched_planner();
        let head = planner
            .plan(&VectorSpec::new(0, 8, 16).unwrap(), Strategy::Canonical)
            .unwrap();
        let tail_vec = VectorSpec::new(16, 12, 64).unwrap();
        let tail = planner.plan(&tail_vec, Strategy::ConflictFree).unwrap();
        assert!(head.is_in_order() && !tail.is_in_order());
        let combined = AccessPlan::concat([&head, &tail]);
        assert_eq!(combined.len(), 80);
        assert!(!combined.is_in_order());
        let requests: Vec<PlanEntry> = combined.iter().collect();
        let expected: Vec<PlanEntry> = head
            .iter()
            .chain(tail.iter().map(|e| PlanEntry {
                element: e.element() + 16,
                module: e.module(),
            }))
            .collect();
        assert_eq!(requests, expected);
        let mut order = combined.element_order();
        order.sort_unstable();
        assert_eq!(order, (0..80).collect::<Vec<u64>>());
        assert_eq!(&combined.modules()[16..], tail.modules());
        let mut seq = head.module_sequence();
        seq.extend(tail.module_sequence());
        assert_eq!(combined.module_sequence(), seq);
        // The other way round, too: the in-order tail keeps its slots.
        let swapped = AccessPlan::concat([&tail, &head]);
        assert_eq!(swapped.request(64).element(), 64);
        assert_eq!(swapped.request(0), tail.request(0));
    }

    #[test]
    fn planned_orders_carry_the_vector_period() {
        let planner = matched_planner();
        let vec = VectorSpec::new(16, 12, 64).unwrap();
        let canonical = planner.plan(&vec, Strategy::Canonical).unwrap();
        assert_eq!(canonical.period(), Some(16)); // P_2 = 2^{3+3-2}
        assert_eq!(canonical.clone().period(), Some(16));
        let mut buf = canonical.clone();
        planner
            .plan_into(&vec, Strategy::ConflictFree, &mut buf)
            .unwrap();
        assert_eq!(buf.period(), Some(16), "the replay order too");
        planner
            .plan_into(&vec, Strategy::Subsequence, &mut buf)
            .unwrap();
        assert_eq!(buf.period(), Some(16), "and the subsequence order");
        // Auto on an out-of-window family falls back to in order.
        let wide = VectorSpec::new(0, 16, 64).unwrap();
        planner.plan_into(&wide, Strategy::Auto, &mut buf).unwrap();
        assert_eq!(buf.period(), Some(4));
        assert!(planner
            .plan_into(&wide, Strategy::ConflictFree, &mut buf)
            .is_err());
        assert_eq!(buf.period(), None);
        assert_eq!(AccessPlan::concat([&canonical]).period(), None);
    }

    #[test]
    fn concat_of_empty_is_empty() {
        let combined = AccessPlan::concat(std::iter::empty::<&AccessPlan>());
        assert!(combined.is_empty());
    }

    #[test]
    fn plan_into_reuses_buffer_and_matches_plan() {
        let planner = matched_planner();
        let mut buf = AccessPlan::new();
        for (base, stride) in [(16u64, 12i64), (0, 1), (7, 6), (3, 8), (100, 4)] {
            let vec = VectorSpec::new(base, stride, 64).unwrap();
            for strategy in [
                Strategy::Canonical,
                Strategy::Subsequence,
                Strategy::ConflictFree,
                Strategy::Auto,
            ] {
                let fresh = planner.plan(&vec, strategy);
                let reused = planner.plan_into(&vec, strategy, &mut buf);
                match (fresh, reused) {
                    (Ok(p), Ok(())) => {
                        assert_eq!(p, buf, "base {base} stride {stride} {strategy}")
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (f, r) => panic!("plan/plan_into disagree: {f:?} vs {r:?}"),
                }
            }
        }
    }

    #[test]
    fn plan_into_shrinks_for_shorter_vectors() {
        let planner = matched_planner();
        let mut buf = AccessPlan::new();
        planner
            .plan_into(
                &VectorSpec::new(16, 12, 64).unwrap(),
                Strategy::ConflictFree,
                &mut buf,
            )
            .unwrap();
        assert_eq!(buf.len(), 64);
        planner
            .plan_into(
                &VectorSpec::new(16, 12, 16).unwrap(),
                Strategy::ConflictFree,
                &mut buf,
            )
            .unwrap();
        assert_eq!(buf.len(), 16);
        assert!(buf.is_conflict_free(8));
    }

    #[test]
    fn plan_into_clears_on_error() {
        let planner = matched_planner();
        let mut buf = AccessPlan::new();
        planner
            .plan_into(
                &VectorSpec::new(16, 12, 64).unwrap(),
                Strategy::ConflictFree,
                &mut buf,
            )
            .unwrap();
        assert!(!buf.is_empty());
        // x = 4 > s: conflict-free planning fails; the buffer must not
        // keep stale entries.
        let err = planner.plan_into(
            &VectorSpec::new(0, 16, 64).unwrap(),
            Strategy::ConflictFree,
            &mut buf,
        );
        assert!(err.is_err());
        assert!(buf.is_empty());
    }

    #[test]
    fn plan_equality_ignores_scratch_state() {
        let planner = matched_planner();
        let vec = VectorSpec::new(16, 12, 64).unwrap();
        // One plan built fresh, one through a buffer that previously
        // held a different (larger scratch) plan.
        let fresh = planner.plan(&vec, Strategy::ConflictFree).unwrap();
        let mut reused = planner
            .plan(&VectorSpec::new(0, 1, 128).unwrap(), Strategy::Subsequence)
            .unwrap();
        planner
            .plan_into(&vec, Strategy::ConflictFree, &mut reused)
            .unwrap();
        assert_eq!(fresh, reused);
    }
}
