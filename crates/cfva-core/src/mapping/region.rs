//! Per-array dynamic scheme selection (Harper & Linebarger, the paper's
//! reference \[11\]).

use std::fmt;

use crate::address::{Addr, ModuleId};
use crate::error::ConfigError;
use crate::mapping::{ModuleMap, XorMatched};
use crate::vector::VectorSpec;

/// A dynamic storage scheme: the address space is divided into aligned
/// regions, each stored under its own [`XorMatched`] shift `s`.
///
/// The paper's Section 1 recalls that "for the case in which different
/// vectors are accessed with different strides, dynamic schemes based on
/// skewing \[11\] and on linear transformations \[6\] were proposed": the
/// compiler places each array in a region whose `s` matches the stride
/// family that array is accessed with. Combined with the out-of-order
/// window this serves `λ−t+1` families *per array* — different ones for
/// different arrays — on a plain matched memory.
///
/// All regions share the latency exponent `t`; region boundaries are
/// aligned to `2^region_bits` addresses, and a vector used with this map
/// must stay inside one region (checked by [`RegionMap::map_for`]).
///
/// # Examples
///
/// ```
/// use cfva_core::mapping::{ModuleMap, RegionMap};
///
/// // 2^20-address regions; region 0 tuned for small strides (s = 3),
/// // region 1 for family-6 strides (s = 6).
/// let map = RegionMap::new(3, 20, 3)?
///     .with_region(1, 6)?;
/// assert_eq!(map.module_count(), 8);
/// # Ok::<(), cfva_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionMap {
    t: u32,
    region_bits: u32,
    default: XorMatched,
    /// (region index, map) overrides, sorted by region index.
    overrides: Vec<(u64, XorMatched)>,
}

impl RegionMap {
    /// Creates a region map with `2^region_bits`-sized regions, all
    /// initially using shift `default_s`.
    ///
    /// # Errors
    ///
    /// Propagates [`XorMatched::new`] constraint violations; also
    /// requires `region_bits ≥ default_s + t` so one region spans at
    /// least one full mapping period.
    pub fn new(t: u32, region_bits: u32, default_s: u32) -> Result<Self, ConfigError> {
        let default = XorMatched::new(t, default_s)?;
        if region_bits < default_s + t {
            return Err(ConfigError::OutOfRange {
                what: "region_bits",
                value: region_bits as u64,
                constraint: "region_bits >= s + t",
            });
        }
        Ok(RegionMap {
            t,
            region_bits,
            default,
            overrides: Vec::new(),
        })
    }

    /// Assigns shift `s` to region `region` (indices count from address
    /// 0 upwards in `2^region_bits` steps).
    ///
    /// # Errors
    ///
    /// Propagates [`XorMatched::new`] violations and requires the
    /// region to still span one full period (`region_bits ≥ s + t`).
    pub fn with_region(mut self, region: u64, s: u32) -> Result<Self, ConfigError> {
        let map = XorMatched::new(self.t, s)?;
        if self.region_bits < s + self.t {
            return Err(ConfigError::OutOfRange {
                what: "s",
                value: s as u64,
                constraint: "region_bits >= s + t",
            });
        }
        match self.overrides.binary_search_by_key(&region, |(r, _)| *r) {
            Ok(i) => self.overrides[i].1 = map,
            Err(i) => self.overrides.insert(i, (region, map)),
        }
        Ok(self)
    }

    /// The region index of an address.
    pub fn region_of(&self, addr: Addr) -> u64 {
        addr.get() >> self.region_bits
    }

    /// The map governing an address.
    pub fn map_at(&self, addr: Addr) -> &XorMatched {
        let region = self.region_of(addr);
        match self.overrides.binary_search_by_key(&region, |(r, _)| *r) {
            Ok(i) => &self.overrides[i].1,
            Err(_) => &self.default,
        }
    }

    /// The map to plan a vector access with, provided the access stays
    /// inside one region (the compiler's contract: an array never
    /// straddles region boundaries).
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfRange`] when the vector crosses a region
    /// boundary.
    pub fn map_for(&self, vec: &VectorSpec) -> Result<XorMatched, ConfigError> {
        let first = self.region_of(vec.base());
        let last = self.region_of(vec.element_addr(vec.len() - 1));
        if first != last {
            return Err(ConfigError::OutOfRange {
                what: "vector region span",
                value: last.abs_diff(first),
                constraint: "vector must stay inside one region",
            });
        }
        Ok(*self.map_at(vec.base()))
    }
}

impl ModuleMap for RegionMap {
    fn module_bits(&self) -> u32 {
        self.t
    }

    fn module_of(&self, addr: Addr) -> ModuleId {
        self.map_at(addr).module_of(addr)
    }

    fn displacement_of(&self, addr: Addr) -> u64 {
        addr.get() >> self.t
    }

    fn address_bits_used(&self) -> u32 {
        // With overrides the governing map depends on the *absolute*
        // region index — addresses equal modulo any power of two can
        // fall in an overridden region or in the default tail — so no
        // finite low-bit slice determines the module: report the full
        // address width. Without overrides the default map applies
        // uniformly and its own bound holds.
        if self.overrides.is_empty() {
            self.default.address_bits_used()
        } else {
            64
        }
    }

    fn balance_bits(&self) -> u32 {
        // Balance is finer-grained than determination: every aligned
        // 2^region_bits block is governed by a single XorMatched whose
        // own balance period (2^{s+t} ≤ 2^region_bits, enforced at
        // construction) divides the block, so each block — hence the
        // whole space — is balanced even though *determining* a module
        // needs the absolute region index (see address_bits_used).
        if self.overrides.is_empty() {
            self.default.balance_bits()
        } else {
            self.region_bits
        }
    }

    fn vector_period(&self, vec: &VectorSpec) -> u64 {
        // Addresses never wrap, so the vector touches only regions
        // between those of its endpoints. When one map governs all of
        // them, that map's own `P_x` is a period of the sequence.
        let ends = [vec.base(), vec.element_addr(vec.len() - 1)].map(|a| self.region_of(a));
        let (lo, hi) = (ends[0].min(ends[1]), ends[0].max(ends[1]));
        let governing = self.map_at(vec.base());
        let from = self.overrides.partition_point(|(r, _)| *r < lo);
        let to = self.overrides.partition_point(|(r, _)| *r <= hi);
        let inside = &self.overrides[from..to];
        // Fewer overrides than regions in the span: the default governs
        // the rest.
        let default_inside = inside.len() as u64 <= hi - lo;
        if inside.iter().all(|(_, map)| map == governing)
            && (!default_inside || self.default == *governing)
        {
            governing.period(vec.family())
        } else {
            self.period(vec.family())
        }
    }

    fn map_stride_into(&self, base: Addr, stride: i64, out: &mut [ModuleId]) {
        // Regions span 2^region_bits addresses, so a stride walk stays
        // inside one region for long runs: resolve the governing map
        // once per region crossing instead of once per element.
        let mut addr = base.get();
        let mut region = addr >> self.region_bits;
        let mut map = *self.map_at(Addr::new(addr));
        for slot in out.iter_mut() {
            let r = addr >> self.region_bits;
            if r != region {
                region = r;
                map = *self.map_at(Addr::new(addr));
            }
            *slot = map.module_of(Addr::new(addr));
            addr = addr.wrapping_add_signed(stride);
        }
    }
}

impl fmt::Display for RegionMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "region map (M = {}, {} regions overridden, default s = {})",
            self.module_count(),
            self.overrides.len(),
            self.default.s()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_region_map() -> RegionMap {
        RegionMap::new(3, 20, 3).unwrap().with_region(1, 6).unwrap()
    }

    #[test]
    fn regions_use_their_own_shift() {
        let map = two_region_map();
        // Region 0: s = 3 behaviour.
        let direct = XorMatched::new(3, 3).unwrap();
        for a in [0u64, 9, 100, 4095] {
            assert_eq!(map.module_of(Addr::new(a)), direct.module_of(Addr::new(a)));
        }
        // Region 1 (addresses >= 2^20): s = 6 behaviour.
        let s6 = XorMatched::new(3, 6).unwrap();
        for a in [1u64 << 20, (1 << 20) + 9, (1 << 20) + 12345] {
            assert_eq!(map.module_of(Addr::new(a)), s6.module_of(Addr::new(a)));
        }
    }

    #[test]
    fn map_for_rejects_straddling_vectors() {
        let map = two_region_map();
        let inside = VectorSpec::new(0, 8, 64).unwrap();
        assert_eq!(map.map_for(&inside).unwrap().s(), 3);

        let other = VectorSpec::new(1 << 20, 8, 64).unwrap();
        assert_eq!(map.map_for(&other).unwrap().s(), 6);

        let straddle = VectorSpec::new((1 << 20) - 8, 8, 64).unwrap();
        assert!(map.map_for(&straddle).is_err());
    }

    #[test]
    fn region_bits_must_cover_period() {
        assert!(RegionMap::new(3, 5, 3).is_err()); // 5 < 3+3
        assert!(RegionMap::new(3, 6, 3).is_ok());
        let m = RegionMap::new(3, 8, 3).unwrap();
        assert!(m.with_region(0, 6).is_err()); // 8 < 6+3
    }

    #[test]
    fn override_replaces_existing() {
        let map = RegionMap::new(3, 20, 3)
            .unwrap()
            .with_region(1, 5)
            .unwrap()
            .with_region(1, 6)
            .unwrap();
        assert_eq!(map.map_at(Addr::new(1 << 20)).s(), 6);
    }

    #[test]
    fn vector_period_tightens_inside_one_governing_map() {
        use crate::stride::StrideFamily;
        let map = two_region_map();
        let family = StrideFamily::new(2);
        // Overridden: no finite low-bit slice determines the module.
        let loose = map.period(family);
        assert_eq!(loose, 1 << 62);
        let s3 = XorMatched::new(3, 3).unwrap().period(family);
        let s6 = XorMatched::new(3, 6).unwrap().period(family);
        let inside_default = VectorSpec::new(16, 12, 64).unwrap();
        assert_eq!(map.vector_period(&inside_default), s3);
        let inside_override = VectorSpec::new(1 << 20, 12, 64).unwrap();
        assert_eq!(map.vector_period(&inside_override), s6);
        // Descending from region 2 (default) into region 1 (s = 6).
        let straddle = VectorSpec::new(2 << 20, -12, 64).unwrap();
        assert_eq!(map.vector_period(&straddle), loose);
        // Two default regions with no override between them share s = 3.
        let far = RegionMap::new(3, 20, 3).unwrap().with_region(5, 6).unwrap();
        let across_defaults = VectorSpec::new((1 << 20) - 24, 12, 64).unwrap();
        assert_eq!(far.vector_period(&across_defaults), s3);
    }

    #[test]
    fn display() {
        let map = two_region_map();
        let s = map.to_string();
        assert!(s.contains("1 regions overridden"));
        assert!(s.contains("default s = 3"));
    }
}
