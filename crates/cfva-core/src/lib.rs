//! # cfva-core — Conflict-Free Vector Access
//!
//! A from-scratch reproduction of the address-transformation and
//! out-of-order access machinery of
//!
//! > M. Valero, T. Lang, J. M. Llabería, M. Peiron, E. Ayguadé and
//! > J. J. Navarro, *"Increasing the Number of Strides for Conflict-Free
//! > Vector Access"*, ISCA 1992.
//!
//! Vector processors read register-length vectors (`L = 2^λ` elements at
//! addresses `A1 + S·i`, stride `S = σ·2^x` with `σ` odd) from a memory
//! built of `M = 2^m` modules, each busy for `T = 2^t` processor cycles
//! per access. A stride is **conflict free** when one element can be
//! requested every cycle without ever finding its module busy; the access
//! then takes the minimum `T + L + 1` cycles.
//!
//! This crate provides:
//!
//! * [`mapping`] — address-to-module maps: low-order interleaving, row
//!   skewing, the paper's matched XOR map (its eq. 1), the two-level
//!   unmatched XOR map (its eq. 2), and arbitrary GF(2) linear maps —
//!   all selectable **at runtime by spec string** through
//!   [`mapping::registry`] (e.g. `"xor-matched:t=3,s=3"`), including
//!   user-supplied matrices loaded from `.gf2` files
//!   ([`mapping::CustomGf2`]).
//! * [`order`] — element request orders: canonical (in order), the
//!   Section 3.1 subsequence order (Figure 4), and the Section 3.2/4.2
//!   conflict-free *replay* order.
//! * [`plan`] — [`plan::AccessPlan`]: the fully resolved request stream
//!   fed to a simulator or to real hardware models, stored as what the
//!   conflict-free condition depends on: the element-indexed module
//!   table and, when it is not the identity, the element order.
//! * [`window`] — the conflict-free stride-family windows of Theorems 1
//!   and 3, and the recommended `s`/`y` parameter choices.
//! * [`analysis`] — Section 5 analytics: fraction of conflict-free
//!   strides, sustained efficiency, short-vector splitting.
//! * [`hardware`] — register-transfer-level models of the Figure 4/5
//!   address generator and the Figure 6 dual-generator replay engine,
//!   plus a component-count cost model.
//! * [`dist`] — spatial/temporal distributions, T-matched predicates and
//!   the canonical temporal distribution `CTP_x`.
//! * [`equiv`] — stride-equivalence reduction ([`StrideClass`]): the
//!   canonical representative of all accesses producing one module
//!   sequence, the key of the serving layer's memoized result cache.
//!
//! ## Quick example
//!
//! Plan a conflict-free access to a vector of 64 elements with stride 12
//! (family `x = 2`) on a matched memory of 8 modules (`m = t = 3`,
//! `s = 3`), the running example of the paper's Section 3:
//!
//! ```
//! use cfva_core::mapping::{ModuleMap, XorMatched};
//! use cfva_core::plan::{Planner, Strategy};
//! use cfva_core::vector::VectorSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let map = XorMatched::new(3, 3)?; // t = 3, s = 3
//! let vec = VectorSpec::new(16, 12, 64)?; // A1 = 16, S = 12, L = 64
//! let planner = Planner::matched(map);
//! let plan = planner.plan(&vec, Strategy::ConflictFree)?;
//!
//! // Any 8 consecutive requests touch 8 distinct modules:
//! assert!(plan.is_conflict_free(8));
//! // Out of element order; each request names its element and module,
//! // and the address follows from the vector.
//! let first = plan.request(0);
//! assert!(!plan.is_in_order());
//! let addr = vec.element_addr(first.element());
//! assert_eq!(first.module(), planner.map().module_of(addr));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod address;
pub mod analysis;
pub mod dist;
pub mod equiv;
pub mod error;
pub mod hardware;
pub mod mapping;
pub mod order;
pub mod plan;
pub mod stride;
pub mod vector;
pub mod window;

pub use address::{Addr, ModuleId};
pub use equiv::StrideClass;
pub use error::{ConfigError, PlanError};
pub use stride::{Stride, StrideFamily};
pub use vector::VectorSpec;
