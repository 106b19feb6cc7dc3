//! Address-to-module mappings.
//!
//! A multi-module memory needs an *address mapping* that turns the
//! one-dimensional address `A` (bits `a_{n-1} … a_0`) into a
//! `(module, displacement)` pair. Conflicts depend only on the module
//! component (paper Section 2), so the central abstraction here is
//! [`ModuleMap`]: the function `b = F(A)`.
//!
//! Implementations:
//!
//! * [`Interleaved`] — conventional low-order interleaving,
//!   `b = A mod M`. Conflict free in order only for odd strides.
//! * [`Skewed`] — row-rotation skewing, `b = (A + d·row) mod M`, the
//!   classical array-processor scheme (Budnik & Kuck, Harper & Jump).
//! * [`XorMatched`] — the paper's equation (1): `b_i = a_i ⊕ a_{s+i}`,
//!   matched memory `M = T`. Conflict free *in order* exactly for family
//!   `x = s`; conflict free *out of order* for the Theorem 1 window.
//! * [`XorUnmatched`] — the paper's equation (2): two-level mapping for
//!   `M = T²` with *sections* and *supermodules* (Section 4.1).
//! * [`Linear`] — an arbitrary GF(2) linear transformation given as a
//!   bit-matrix; the XOR maps are special cases, and the classical
//!   Norton–Melton / Frailong XOR-scheme class can be expressed with it.
//! * [`PseudoRandom`] — Rau's pseudo-randomly interleaved memory
//!   (reference \[12\]): polynomial hashing that spreads *every* stride
//!   statistically instead of a window perfectly.
//! * [`RegionMap`] — the dynamic per-array scheme of Harper &
//!   Linebarger (reference \[11\]): each memory region carries its own
//!   XOR shift, chosen by the compiler for the strides that array sees.
//! * [`CustomGf2`] — a user-supplied GF(2) row matrix, loadable from a
//!   `.gf2` text file, for schemes that arrive at runtime.
//!
//! Maps are also constructible **by name at runtime** through the
//! [`registry`] module: `Registry::builtin().build_str("skewed:m=3,d=1")`
//! — see [`MapSpec`] for the spec grammar.
//!
//! Every map reads only a bounded window of low address bits
//! ([`ModuleMap::address_bits_used`]); from that the *period* `P_x` of
//! the canonical module sequence for a stride family follows as
//! `P_x = max(2^{used − x}, 1)` — the closed forms the paper quotes
//! (`2^{s+t−x}` for the matched map, `2^{y+t−x}` for the unmatched one)
//! fall out as special cases.

mod bulk;
mod custom_gf2;
mod interleaved;
mod linear;
mod pseudo_random;
mod region;
pub mod registry;
mod skewed;
mod xor_matched;
mod xor_unmatched;

pub use custom_gf2::CustomGf2;
pub use interleaved::Interleaved;
pub use linear::Linear;
pub use pseudo_random::PseudoRandom;
pub use region::RegionMap;
pub use registry::{MapSpec, Registry};
pub use skewed::Skewed;
pub use xor_matched::XorMatched;
pub use xor_unmatched::XorUnmatched;

use crate::address::{Addr, ModuleId};
use crate::stride::StrideFamily;
use crate::vector::VectorSpec;

/// The module-number component `b = F(A)` of an address mapping.
///
/// Implementations must be **balanced over one period of the address
/// space**: over any aligned block of `2^{balance_bits()}` consecutive
/// addresses, every module receives the same number of
/// addresses. All maps in this crate uphold this; the property tests in
/// `tests/` check it.
///
/// The trait is object safe; planners and simulators accept
/// `&dyn ModuleMap`. `Debug` is a supertrait so runtime-selected
/// `Box<dyn ModuleMap>` values (the [`registry`] path) stay printable
/// in errors and assertions.
pub trait ModuleMap: std::fmt::Debug {
    /// Number of module-number bits `m` (there are `M = 2^m` modules).
    fn module_bits(&self) -> u32;

    /// The module that address `addr` lives in.
    fn module_of(&self, addr: Addr) -> ModuleId;

    /// The displacement (row) of `addr` inside its module.
    ///
    /// `(module_of(A), displacement_of(A))` is injective: two distinct
    /// addresses never collide in both coordinates.
    fn displacement_of(&self, addr: Addr) -> u64;

    /// Number of low address bits the map depends on: `module_of` is a
    /// function of `A mod 2^{address_bits_used()}`.
    ///
    /// This is the *determination* bound — the one the stride
    /// equivalence classes ([`crate::StrideClass`]) and the closed-form
    /// [`period`](Self::period) stand on, so it must be exact: a map
    /// whose module choice can depend on high address bits (an
    /// overridden [`RegionMap`]) must report the full width, not a
    /// convenient slice.
    fn address_bits_used(&self) -> u32;

    /// Number of low address bits that bound the map's **balance**
    /// period: over any aligned block of `2^{balance_bits()}`
    /// consecutive addresses, every module receives the same number of
    /// addresses.
    ///
    /// Usually this equals
    /// [`address_bits_used`](Self::address_bits_used) (the default).
    /// The two bounds differ when a map is balanced on a finer grain
    /// than it is determined: an overridden [`RegionMap`] needs the
    /// full address width to *determine* a module (which scheme
    /// governs an address depends on its absolute region index) yet is
    /// balanced inside every aligned region, so its balance period
    /// stays enumerable. The property suite in
    /// `tests/mapping_properties.rs` iterates `2^{balance_bits()}`
    /// addresses per map — implementations must keep this finite
    /// enough to check.
    fn balance_bits(&self) -> u32 {
        self.address_bits_used()
    }

    /// Number of memory modules `M = 2^m`.
    ///
    /// Every constructor in this crate bounds `module_bits()` well
    /// below 64 (returning [`ConfigError`](crate::ConfigError)
    /// otherwise — at most 32 for the single-level maps, `2t ≤ 42` for
    /// [`XorUnmatched`]), so the shift below cannot overflow for
    /// in-crate maps. A downstream implementation reporting
    /// `module_bits() ≥ 64` would otherwise panic in debug and
    /// silently wrap in release — the checked shift turns that into a
    /// defined panic in both profiles.
    fn module_count(&self) -> u64 {
        1u64.checked_shl(self.module_bits())
            // cfva-lint: allow(L002, reason = "deliberate contract panic: turns a downstream module_bits() >= 64 into a defined panic in both profiles, as documented above")
            .unwrap_or_else(|| panic!("module_bits() = {} overflows u64", self.module_bits()))
    }

    /// Period `P_x` of the canonical temporal distribution for stride
    /// family `x`: the module sequence of *any* constant-stride vector of
    /// the family repeats after `P_x` elements.
    ///
    /// `P_x = max(2^{used − x}, 1)` where `used` is
    /// [`address_bits_used`](Self::address_bits_used). Adding
    /// `P_x · σ·2^x = σ·2^{used}` to an address only changes bits the map
    /// never reads, so the sequence repeats exactly — no carry effects.
    /// `P_x` is a *true* period, but need not be the minimal one: some
    /// base/σ combinations repeat earlier (the property suite in
    /// `tests/mapping_properties.rs` pins exactly this contract).
    ///
    /// When `2^{used − x}` does not fit in `u64` (a map consuming the
    /// full address width, e.g. an overridden [`RegionMap`]), the
    /// period saturates at `u64::MAX` — "effectively aperiodic".
    fn period(&self, family: StrideFamily) -> u64 {
        let used = self.address_bits_used();
        let x = family.exponent();
        if x >= used {
            1
        } else {
            1u64.checked_shl(used - x).unwrap_or(u64::MAX)
        }
    }

    /// A true period of `vec`'s module sequence in element order: the
    /// sequence repeats after this many elements. Defaults to
    /// [`period`](Self::period) of the vector's family; a map whose
    /// family-wide bound is loose for some vectors may return a tighter
    /// one (an overridden [`RegionMap`] returns the governing map's
    /// `P_x` when every region the vector touches shares it). The
    /// planner attaches it to in-order plans
    /// ([`AccessPlan::period`](crate::plan::AccessPlan::period)).
    fn vector_period(&self, vec: &VectorSpec) -> u64 {
        self.period(vec.family())
    }

    /// Maps a whole constant-stride address walk in one call:
    /// `out[k] = module_of(base + k·stride)` for `0 ≤ k < out.len()`
    /// (the requested length is the length of `out`).
    ///
    /// This is the bulk equivalent of calling
    /// [`module_of`](Self::module_of) in a loop, and the mapping layer's
    /// hot path: plan construction
    /// ([`Planner::plan_into`](crate::plan::Planner::plan_into)) resolves
    /// the modules of all `L` elements through **one** call here —
    /// one virtual dispatch per plan instead of one per element.
    ///
    /// The default implementation is the per-element loop. Every map in
    /// this crate overrides it with a specialised version that exploits
    /// the periodicity of the module sequence
    /// ([`period`](Self::period)): at most one period is computed
    /// directly (with tight mask-and-shift loops, or incremental GF(2)
    /// updates driven by precomputed per-address-bit column tables for
    /// the matrix-style maps) and the rest of the slice is filled by
    /// cyclic copying.
    ///
    /// `stride` may be negative (descending walks) or zero (a repeated
    /// address); addresses advance with wrapping arithmetic, matching
    /// [`Addr::offset`]. Implementations must produce exactly what the
    /// per-element loop would.
    fn map_stride_into(&self, base: Addr, stride: i64, out: &mut [ModuleId]) {
        let mut addr = base.get();
        for slot in out.iter_mut() {
            *slot = self.module_of(Addr::new(addr));
            addr = addr.wrapping_add_signed(stride);
        }
    }
}

impl<M: ModuleMap + ?Sized> ModuleMap for &M {
    fn module_bits(&self) -> u32 {
        (**self).module_bits()
    }

    fn module_of(&self, addr: Addr) -> ModuleId {
        (**self).module_of(addr)
    }

    fn displacement_of(&self, addr: Addr) -> u64 {
        (**self).displacement_of(addr)
    }

    fn address_bits_used(&self) -> u32 {
        (**self).address_bits_used()
    }

    fn balance_bits(&self) -> u32 {
        (**self).balance_bits()
    }

    fn period(&self, family: StrideFamily) -> u64 {
        (**self).period(family)
    }

    fn vector_period(&self, vec: &VectorSpec) -> u64 {
        (**self).vector_period(vec)
    }

    fn map_stride_into(&self, base: Addr, stride: i64, out: &mut [ModuleId]) {
        (**self).map_stride_into(base, stride, out)
    }
}

impl<M: ModuleMap + ?Sized> ModuleMap for Box<M> {
    fn module_bits(&self) -> u32 {
        (**self).module_bits()
    }

    fn module_of(&self, addr: Addr) -> ModuleId {
        (**self).module_of(addr)
    }

    fn displacement_of(&self, addr: Addr) -> u64 {
        (**self).displacement_of(addr)
    }

    fn address_bits_used(&self) -> u32 {
        (**self).address_bits_used()
    }

    fn balance_bits(&self) -> u32 {
        (**self).balance_bits()
    }

    fn period(&self, family: StrideFamily) -> u64 {
        (**self).period(family)
    }

    fn vector_period(&self, vec: &VectorSpec) -> u64 {
        (**self).vector_period(vec)
    }

    fn map_stride_into(&self, base: Addr, stride: i64, out: &mut [ModuleId]) {
        (**self).map_stride_into(base, stride, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        let map = Interleaved::new(3).unwrap();
        let dyn_map: &dyn ModuleMap = &map;
        assert_eq!(dyn_map.module_count(), 8);
        assert_eq!(dyn_map.module_of(Addr::new(11)).get(), 3);
    }

    #[test]
    fn blanket_impls_delegate() {
        let map = Interleaved::new(2).unwrap();
        let by_ref: &Interleaved = &map;
        assert_eq!(by_ref.module_count(), 4);
        assert_eq!(by_ref.period(StrideFamily::new(0)), 4);

        let boxed: Box<dyn ModuleMap> = Box::new(Interleaved::new(2).unwrap());
        assert_eq!(boxed.module_count(), 4);
        assert_eq!(boxed.module_of(Addr::new(7)).get(), 3);
        assert_eq!(boxed.displacement_of(Addr::new(7)), 1);
    }

    #[test]
    fn default_period_saturates_at_one() {
        let map = Interleaved::new(3).unwrap(); // uses 3 address bits
        assert_eq!(map.period(StrideFamily::new(0)), 8);
        assert_eq!(map.period(StrideFamily::new(2)), 2);
        assert_eq!(map.period(StrideFamily::new(3)), 1);
        assert_eq!(map.period(StrideFamily::new(9)), 1);
    }

    /// Regression for the `1u64 << module_bits` overflow: every one of
    /// the seven map constructors must reject any configuration whose
    /// module count would not fit a `u64` (each has a far tighter
    /// documented bound — `m ≤ 32` for the single-level maps, `2t ≤ 42`
    /// for the unmatched map), instead of panicking in debug or
    /// wrapping in release inside `module_count()`.
    #[test]
    fn all_seven_constructors_reject_overflowing_module_bits() {
        // 1. Interleaved: b = A mod 2^m.
        assert!(Interleaved::new(32).is_ok());
        for m in [33u32, 63, 64, 65, u32::MAX] {
            assert!(Interleaved::new(m).is_err(), "Interleaved m = {m}");
        }

        // 2. Skewed: same module-bit budget plus a row index.
        assert!(Skewed::new(32, 7).is_ok());
        for m in [33u32, 64, u32::MAX] {
            assert!(Skewed::new(m, 1).is_err(), "Skewed m = {m}");
        }

        // 3. XorMatched: module_bits = t; s + t <= 63 with s >= t caps
        //    t at 31.
        assert!(XorMatched::new(31, 32).is_ok());
        assert!(XorMatched::new(32, 32).is_err());
        assert!(XorMatched::new(64, 64).is_err());

        // 4. XorUnmatched: module_bits = 2t; y + t <= 63 with
        //    y >= s + t >= 2t caps t at 21.
        assert!(XorUnmatched::new(21, 21, 42).is_ok());
        assert!(XorUnmatched::new(32, 32, 64).is_err());

        // 5. Linear: one matrix row per module bit, at most 32 rows.
        assert!(Linear::new((0..64u32).map(|i| 1u64 << i).collect()).is_err());
        assert!(Linear::interleaved(33).is_err());

        // 6. PseudoRandom: m <= 16 (polynomial degree bound).
        assert!(PseudoRandom::with_default_poly(64).is_err());
        assert!(PseudoRandom::new(64, 1 << 16, 40).is_err());

        // 7. RegionMap: built on XorMatched, so the same t cap applies.
        assert!(RegionMap::new(64, 10, 64).is_err());
    }

    /// `map_stride_into` (here: the specialised overrides, reached
    /// through the `&dyn` and `Box` blanket impls) must agree with the
    /// per-element `module_of` loop everywhere — including negative and
    /// zero strides, which the planner never produces but the API
    /// accepts. Iterates the registry coverage set, so a newly
    /// registered map is checked with no edits here.
    #[test]
    fn bulk_mapping_matches_per_element_loop() {
        let maps: Vec<Box<dyn ModuleMap + Send + Sync>> = Registry::builtin()
            .all_maps()
            .into_iter()
            .map(|(_, map)| map)
            .collect();
        for map in &maps {
            for &(base, stride) in &[
                (0u64, 1i64),
                (16, 12),
                (7, 8),
                (1000, -12),
                (3, 160),
                (42, 0),
                (1 << 20, 5),
                ((1 << 20) - 40, 12), // crosses a RegionMap boundary
            ] {
                for len in [0usize, 1, 7, 64, 257] {
                    let mut bulk = vec![ModuleId::new(0); len];
                    map.map_stride_into(Addr::new(base), stride, &mut bulk);
                    let expect: Vec<ModuleId> = (0..len as u64)
                        .map(|k| {
                            map.module_of(Addr::new(
                                base.wrapping_add_signed(stride.wrapping_mul(k as i64)),
                            ))
                        })
                        .collect();
                    assert_eq!(bulk, expect, "base {base} stride {stride} len {len}");
                }
            }
        }
    }

    /// The validated bound keeps the default `module_count()` shift in
    /// range for every constructible map.
    #[test]
    fn module_count_in_range_at_the_constructor_bound() {
        assert_eq!(Interleaved::new(32).unwrap().module_count(), 1 << 32);
        assert_eq!(Skewed::new(32, 1).unwrap().module_count(), 1 << 32);
        assert_eq!(XorMatched::new(31, 32).unwrap().module_count(), 1 << 31);
        assert_eq!(
            XorUnmatched::new(21, 21, 42).unwrap().module_count(),
            1 << 42
        );
    }
}
