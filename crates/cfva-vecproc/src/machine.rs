//! The decoupled access/execute machine (paper Figure 1).
//!
//! The machine executes straight-line vector programs. Memory operations
//! are planned by a [`Planner`], timed cycle-accurately on a
//! [`MemorySystem`], and their returned elements written into the
//! destination register *in arrival order* — which is out of element
//! order for the paper's access schemes, so the register file's
//! [`WritePolicy`] matters (Section 5D). Arithmetic runs on the execute
//! unit, optionally *chained* to the preceding load (Section 5F): the
//! paper's out-of-order scheme returns one element per cycle in a
//! deterministic order, which is what makes chaining feasible at all.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use cfva_core::plan::{AccessPlan, Planner, Strategy};
use cfva_core::{PlanError, VectorSpec};
use cfva_memsim::{AccessStats, MemConfig, MemorySystem};

use crate::isa::{VReg, VectorOp};
use crate::regfile::{RegError, VectorRegister, WritePolicy};

/// Machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Architectural vector register length `L` (maximum elements).
    pub reg_len: u64,
    /// Number of vector registers.
    pub num_regs: u8,
    /// Register write-port organisation.
    pub write_policy: WritePolicy,
    /// Whether LOAD→EXECUTE chaining is enabled (Section 5F).
    pub chaining: bool,
    /// Execute-unit pipeline depth in cycles.
    pub exec_depth: u64,
    /// Access strategy requested from the planner.
    pub strategy: Strategy,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            reg_len: 64,
            num_regs: 8,
            write_policy: WritePolicy::RandomAccess,
            chaining: false,
            exec_depth: 4,
            strategy: Strategy::Auto,
        }
    }
}

/// A machine-level execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// Access planning failed.
    Plan(PlanError),
    /// A register write failed (e.g. out-of-order return into a FIFO
    /// register).
    Reg(RegError),
    /// An instruction names a register outside the file.
    UnknownRegister(VReg),
    /// An instruction's operands have different lengths.
    LengthMismatch {
        /// Length of the first operand.
        a: u64,
        /// Length of the second operand.
        b: u64,
    },
    /// A load longer than the architectural register length.
    TooLong {
        /// Requested length.
        requested: u64,
        /// Architectural maximum.
        max: u64,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Plan(e) => write!(f, "planning failed: {e}"),
            MachineError::Reg(e) => write!(f, "register write failed: {e}"),
            MachineError::UnknownRegister(r) => write!(f, "unknown register {r}"),
            MachineError::LengthMismatch { a, b } => {
                write!(f, "operand length mismatch: {a} vs {b}")
            }
            MachineError::TooLong { requested, max } => {
                write!(
                    f,
                    "vector of {requested} elements exceeds register length {max}"
                )
            }
        }
    }
}

impl Error for MachineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MachineError::Plan(e) => Some(e),
            MachineError::Reg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for MachineError {
    fn from(e: PlanError) -> Self {
        MachineError::Plan(e)
    }
}

impl From<RegError> for MachineError {
    fn from(e: RegError) -> Self {
        MachineError::Reg(e)
    }
}

/// Per-instruction timing record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpStats {
    /// Disassembly of the instruction.
    pub text: String,
    /// Cycle the instruction started.
    pub start: u64,
    /// Cycles it occupied the machine.
    pub cycles: u64,
    /// Memory conflicts it suffered (memory ops only).
    pub conflicts: u64,
    /// Whether it was chained to the previous load.
    pub chained: bool,
}

/// Whole-program timing record.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MachineStats {
    /// Total machine cycles.
    pub total_cycles: u64,
    /// Per-instruction breakdown.
    pub ops: Vec<OpStats>,
}

/// The decoupled vector machine.
///
/// # Examples
///
/// Chained DAXPY on a matched conflict-free memory:
///
/// ```
/// use cfva_core::mapping::XorMatched;
/// use cfva_core::plan::Planner;
/// use cfva_core::VectorSpec;
/// use cfva_memsim::MemConfig;
/// use cfva_vecproc::{Machine, MachineConfig, VectorOp, VReg};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let planner = Planner::matched(XorMatched::new(3, 4)?);
/// let mem = MemConfig::new(3, 3)?;
/// let mut machine = Machine::new(MachineConfig::default(), planner, mem);
///
/// let x = VectorSpec::new(0, 1, 64)?;
/// let y = VectorSpec::new(4096, 1, 64)?;
/// let stats = machine.run(&[
///     VectorOp::Load { dst: VReg(0), vec: x },
///     VectorOp::Load { dst: VReg(1), vec: y },
///     VectorOp::Axpy { dst: VReg(2), scalar: 3, x: VReg(0), y: VReg(1) },
/// ])?;
/// assert!(stats.total_cycles > 0);
/// # Ok(())
/// # }
/// ```
pub struct Machine {
    cfg: MachineConfig,
    planner: Planner,
    mem: MemorySystem,
    regs: Vec<VectorRegister>,
    image: HashMap<u64, u64>,
    cycle: u64,
    /// Destination of the immediately preceding load, for chaining.
    last_load_dst: Option<VReg>,
    // Reusable buffers for the plan->simulate hot path: every LOAD and
    // STORE plans into `plan`, simulates into `mem_stats`, and sorts
    // deliveries in `arrivals` without allocating per operation.
    plan: AccessPlan,
    mem_stats: AccessStats,
    arrivals: Vec<(u64, u64, u64)>,
}

impl Machine {
    /// Builds a machine over a planner and a memory configuration.
    pub fn new(cfg: MachineConfig, planner: Planner, mem: MemConfig) -> Self {
        let regs = (0..cfg.num_regs)
            .map(|_| VectorRegister::new(cfg.reg_len, cfg.write_policy))
            .collect();
        Machine {
            cfg,
            planner,
            mem: MemorySystem::new(mem),
            regs,
            image: HashMap::new(),
            cycle: 0,
            last_load_dst: None,
            plan: AccessPlan::new(),
            mem_stats: AccessStats::default(),
            arrivals: Vec::new(),
        }
    }

    /// The machine configuration.
    pub const fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Writes a word into the simulated memory image.
    pub fn write_mem(&mut self, addr: u64, value: u64) {
        self.image.insert(addr, value);
    }

    /// Reads a word from the simulated memory image. Uninitialised
    /// locations read as their own address — convenient for tests.
    pub fn read_mem(&self, addr: u64) -> u64 {
        self.image.get(&addr).copied().unwrap_or(addr)
    }

    /// Read access to a vector register.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownRegister`] for an out-of-range name.
    pub fn reg(&self, r: VReg) -> Result<&VectorRegister, MachineError> {
        self.regs
            .get(r.0 as usize)
            .ok_or(MachineError::UnknownRegister(r))
    }

    /// Executes a straight-line program, returning its timing.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`]; the machine state is unspecified after an
    /// error (like real hardware after an exception).
    pub fn run(&mut self, program: &[VectorOp]) -> Result<MachineStats, MachineError> {
        let mut stats = MachineStats::default();
        for op in program {
            let start = self.cycle;
            let (cycles, conflicts, chained) = self.execute(op)?;
            self.cycle += cycles;
            stats.ops.push(OpStats {
                text: op.to_string(),
                start,
                cycles,
                conflicts,
                chained,
            });
        }
        stats.total_cycles = self.cycle;
        Ok(stats)
    }

    fn execute(&mut self, op: &VectorOp) -> Result<(u64, u64, bool), MachineError> {
        match op {
            VectorOp::Load { dst, vec } => {
                let (cycles, conflicts) = self.do_load(*dst, vec)?;
                self.last_load_dst = Some(*dst);
                Ok((cycles, conflicts, false))
            }
            VectorOp::Store { src, vec } => {
                let (cycles, conflicts) = self.do_store(*src, vec)?;
                self.last_load_dst = None;
                Ok((cycles, conflicts, false))
            }
            VectorOp::Add { dst, a, b } => self.do_arith(*dst, *a, *b, u64::wrapping_add),
            VectorOp::Mul { dst, a, b } => self.do_arith(*dst, *a, *b, u64::wrapping_mul),
            VectorOp::Axpy { dst, scalar, x, y } => {
                let s = *scalar;
                self.do_arith(*dst, *x, *y, move |xv, yv| {
                    xv.wrapping_mul(s).wrapping_add(yv)
                })
            }
        }
    }

    fn do_load(&mut self, dst: VReg, vec: &VectorSpec) -> Result<(u64, u64), MachineError> {
        self.check_len(vec.len())?;
        self.reg(dst)?;
        self.planner
            .plan_into(vec, self.cfg.strategy, &mut self.plan)?;
        self.mem.run_plan_into(&self.plan, &mut self.mem_stats);

        // Write elements in arrival order: sort request entries by their
        // arrival cycle (ties cannot happen — the bus delivers one per
        // cycle).
        let mem_stats = &self.mem_stats;
        self.arrivals.clear();
        self.arrivals.extend(self.plan.iter().map(|e| {
            (
                mem_stats.arrival[e.element() as usize],
                e.element(),
                vec.element_addr(e.element()).get(),
            )
        }));
        self.arrivals.sort_unstable();

        let mut reg = VectorRegister::new(vec.len(), self.cfg.write_policy);
        for &(_, element, addr) in &self.arrivals {
            let value = self.image.get(&addr).copied().unwrap_or(addr);
            reg.write(element, value)?;
        }
        self.regs[dst.0 as usize] = reg;
        Ok((self.mem_stats.latency, self.mem_stats.conflicts))
    }

    fn do_store(&mut self, src: VReg, vec: &VectorSpec) -> Result<(u64, u64), MachineError> {
        self.check_len(vec.len())?;
        let values = self.reg(src)?.values()?;
        if values.len() as u64 != vec.len() {
            return Err(MachineError::LengthMismatch {
                a: values.len() as u64,
                b: vec.len(),
            });
        }
        self.planner
            .plan_into(vec, self.cfg.strategy, &mut self.plan)?;
        self.mem.run_plan_into(&self.plan, &mut self.mem_stats);
        for entry in &self.plan {
            self.image.insert(
                vec.element_addr(entry.element()).get(),
                values[entry.element() as usize],
            );
        }
        Ok((self.mem_stats.latency, self.mem_stats.conflicts))
    }

    fn do_arith(
        &mut self,
        dst: VReg,
        a: VReg,
        b: VReg,
        f: impl Fn(u64, u64) -> u64,
    ) -> Result<(u64, u64, bool), MachineError> {
        let av = self.reg(a)?.values()?;
        let bv = self.reg(b)?.values()?;
        if av.len() != bv.len() {
            return Err(MachineError::LengthMismatch {
                a: av.len() as u64,
                b: bv.len() as u64,
            });
        }
        self.reg(dst)?;
        let out: Vec<u64> = av.iter().zip(&bv).map(|(&x, &y)| f(x, y)).collect();
        let n = out.len() as u64;
        let mut reg = VectorRegister::new(n, self.cfg.write_policy);
        reg.load_values(&out);
        self.regs[dst.0 as usize] = reg;

        // Timing (Section 5F): unchained, the op streams its operands
        // only after the whole load finished: n cycles through a
        // exec_depth-deep pipeline. Chained to the preceding load, it
        // consumes each element the cycle it arrives, so only the
        // pipeline drain remains.
        let chained = self.cfg.chaining
            && self
                .last_load_dst
                .is_some_and(|last| last == a || last == b);
        let cycles = if chained {
            self.cfg.exec_depth
        } else {
            n + self.cfg.exec_depth
        };
        self.last_load_dst = None;
        Ok((cycles, 0, chained))
    }

    fn check_len(&self, len: u64) -> Result<(), MachineError> {
        if len > self.cfg.reg_len {
            return Err(MachineError::TooLong {
                requested: len,
                max: self.cfg.reg_len,
            });
        }
        Ok(())
    }
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("config", &self.cfg)
            .field("cycle", &self.cycle)
            .field("registers", &self.regs.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfva_core::mapping::XorMatched;

    fn machine(cfg: MachineConfig) -> Machine {
        let planner = Planner::matched(XorMatched::new(3, 4).unwrap());
        Machine::new(cfg, planner, MemConfig::new(3, 3).unwrap())
    }

    #[test]
    fn load_fills_register_with_memory_values() {
        let mut m = machine(MachineConfig::default());
        for i in 0..64u64 {
            m.write_mem(100 + 12 * i, 1000 + i);
        }
        let vec = VectorSpec::new(100, 12, 64).unwrap();
        m.run(&[VectorOp::Load { dst: VReg(0), vec }]).unwrap();
        let values = m.reg(VReg(0)).unwrap().values().unwrap();
        let want: Vec<u64> = (0..64).map(|i| 1000 + i).collect();
        assert_eq!(values, want);
    }

    #[test]
    fn conflict_free_load_takes_minimum_latency() {
        let mut m = machine(MachineConfig::default());
        let vec = VectorSpec::new(16, 12, 64).unwrap();
        let stats = m.run(&[VectorOp::Load { dst: VReg(0), vec }]).unwrap();
        assert_eq!(stats.ops[0].cycles, 8 + 64 + 1);
        assert_eq!(stats.ops[0].conflicts, 0);
    }

    #[test]
    fn fifo_register_rejects_out_of_order_return() {
        // The Section 5D point: the paper's scheme needs a random-access
        // register file.
        let cfg = MachineConfig {
            write_policy: WritePolicy::Fifo,
            ..MachineConfig::default()
        };
        let mut m = machine(cfg);
        let vec = VectorSpec::new(16, 12, 64).unwrap(); // OOO plan
        let err = m.run(&[VectorOp::Load { dst: VReg(0), vec }]);
        assert!(matches!(
            err,
            Err(MachineError::Reg(RegError::OutOfOrderWrite { .. }))
        ));
    }

    #[test]
    fn fifo_register_works_with_in_order_conflict_free_access() {
        // Family x = s = 4: canonical access is conflict free, elements
        // return in order, and the cheap FIFO register suffices —
        // exactly the pre-1992 design point.
        let cfg = MachineConfig {
            write_policy: WritePolicy::Fifo,
            strategy: Strategy::Canonical,
            ..MachineConfig::default()
        };
        let mut m = machine(cfg);
        let vec = VectorSpec::new(16, 16, 64).unwrap();
        let stats = m.run(&[VectorOp::Load { dst: VReg(0), vec }]).unwrap();
        assert_eq!(stats.ops[0].cycles, 8 + 64 + 1);
        assert_eq!(stats.ops[0].conflicts, 0);
    }

    #[test]
    fn canonical_strategy_on_conflicting_family_is_slow() {
        // The same access that the replay order serves in T+L+1 takes
        // longer in order (and returns out of element order through the
        // module queues, so it also needs a random-access register).
        let cfg = MachineConfig {
            strategy: Strategy::Canonical,
            ..MachineConfig::default()
        };
        let mut m = machine(cfg);
        let vec = VectorSpec::new(16, 12, 64).unwrap();
        let stats = m.run(&[VectorOp::Load { dst: VReg(0), vec }]).unwrap();
        assert!(stats.ops[0].cycles > 8 + 64 + 1);
        assert!(stats.ops[0].conflicts > 0);
    }

    #[test]
    fn store_round_trips_through_memory() {
        let mut m = machine(MachineConfig::default());
        let src = VectorSpec::new(0, 1, 64).unwrap();
        let dst = VectorSpec::new(8192, 24, 64).unwrap();
        m.run(&[
            VectorOp::Load {
                dst: VReg(0),
                vec: src,
            },
            VectorOp::Store {
                src: VReg(0),
                vec: dst,
            },
        ])
        .unwrap();
        for i in 0..64u64 {
            // Uninitialised source reads as its address: value = i.
            assert_eq!(m.read_mem(8192 + 24 * i), i);
        }
    }

    #[test]
    fn arithmetic_and_axpy() {
        let mut m = machine(MachineConfig::default());
        let x = VectorSpec::new(0, 1, 64).unwrap();
        let y = VectorSpec::new(4096, 1, 64).unwrap();
        m.run(&[
            VectorOp::Load {
                dst: VReg(0),
                vec: x,
            },
            VectorOp::Load {
                dst: VReg(1),
                vec: y,
            },
            VectorOp::Axpy {
                dst: VReg(2),
                scalar: 3,
                x: VReg(0),
                y: VReg(1),
            },
            VectorOp::Add {
                dst: VReg(3),
                a: VReg(2),
                b: VReg(0),
            },
            VectorOp::Mul {
                dst: VReg(4),
                a: VReg(0),
                b: VReg(0),
            },
        ])
        .unwrap();
        let axpy = m.reg(VReg(2)).unwrap().values().unwrap();
        for i in 0..64u64 {
            assert_eq!(axpy[i as usize], 3 * i + (4096 + i));
        }
        let add = m.reg(VReg(3)).unwrap().values().unwrap();
        assert_eq!(add[5], axpy[5] + 5);
        let mul = m.reg(VReg(4)).unwrap().values().unwrap();
        assert_eq!(mul[7], 49);
    }

    #[test]
    fn chaining_saves_a_vector_length_of_cycles() {
        let x = VectorSpec::new(0, 1, 64).unwrap();
        let y = VectorSpec::new(4096, 1, 64).unwrap();
        let program = [
            VectorOp::Load {
                dst: VReg(0),
                vec: x,
            },
            VectorOp::Load {
                dst: VReg(1),
                vec: y,
            },
            VectorOp::Axpy {
                dst: VReg(2),
                scalar: 3,
                x: VReg(0),
                y: VReg(1),
            },
        ];

        let mut unchained = machine(MachineConfig::default());
        let u = unchained.run(&program).unwrap();
        let mut chained = machine(MachineConfig {
            chaining: true,
            ..MachineConfig::default()
        });
        let c = chained.run(&program).unwrap();

        assert!(c.ops[2].chained);
        assert!(!u.ops[2].chained);
        assert_eq!(u.total_cycles - c.total_cycles, 64);
        // Same results either way.
        assert_eq!(
            unchained.reg(VReg(2)).unwrap().values().unwrap(),
            chained.reg(VReg(2)).unwrap().values().unwrap()
        );
    }

    #[test]
    fn length_mismatch_detected() {
        let mut m = machine(MachineConfig::default());
        let a = VectorSpec::new(0, 1, 64).unwrap();
        let b = VectorSpec::new(0, 1, 32).unwrap();
        let err = m.run(&[
            VectorOp::Load {
                dst: VReg(0),
                vec: a,
            },
            VectorOp::Load {
                dst: VReg(1),
                vec: b,
            },
            VectorOp::Add {
                dst: VReg(2),
                a: VReg(0),
                b: VReg(1),
            },
        ]);
        assert!(matches!(err, Err(MachineError::LengthMismatch { .. })));
    }

    #[test]
    fn register_bounds_and_vector_length_checked() {
        let mut m = machine(MachineConfig::default());
        let vec = VectorSpec::new(0, 1, 64).unwrap();
        assert!(matches!(
            m.run(&[VectorOp::Load {
                dst: VReg(200),
                vec
            }]),
            Err(MachineError::UnknownRegister(VReg(200)))
        ));
        let long = VectorSpec::new(0, 1, 128).unwrap();
        assert!(matches!(
            m.run(&[VectorOp::Load {
                dst: VReg(0),
                vec: long
            }]),
            Err(MachineError::TooLong {
                requested: 128,
                max: 64
            })
        ));
    }

    #[test]
    fn op_stats_record_program_shape() {
        let mut m = machine(MachineConfig::default());
        let vec = VectorSpec::new(16, 12, 64).unwrap();
        let stats = m
            .run(&[
                VectorOp::Load { dst: VReg(0), vec },
                VectorOp::Add {
                    dst: VReg(1),
                    a: VReg(0),
                    b: VReg(0),
                },
            ])
            .unwrap();
        assert_eq!(stats.ops.len(), 2);
        assert_eq!(stats.ops[0].start, 0);
        assert_eq!(stats.ops[1].start, stats.ops[0].cycles);
        assert_eq!(
            stats.total_cycles,
            stats.ops.iter().map(|o| o.cycles).sum::<u64>()
        );
        assert!(stats.ops[0].text.starts_with("vload"));
    }
}
