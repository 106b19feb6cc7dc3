//! Memory-system configuration.

use std::fmt;

use cfva_core::ConfigError;

/// Configuration of a simulated multi-module memory (paper Figure 2).
///
/// Defaults: one input buffer and one output buffer per module — the
/// bufferless organisation the conflict-free scheme is designed for.
/// The Section 3.1 evaluation uses `q = 2, q' = 1` (see
/// [`with_queues`](MemConfig::with_queues)).
///
/// # Examples
///
/// ```
/// use cfva_memsim::MemConfig;
///
/// let cfg = MemConfig::new(3, 3)?; // M = 8 modules, T = 8 cycles
/// assert_eq!(cfg.module_count(), 8);
/// assert_eq!(cfg.t_cycles(), 8);
///
/// let buffered = MemConfig::new(3, 3)?.with_queues(2, 1)?;
/// assert_eq!(buffered.q_in(), 2);
/// # Ok::<(), cfva_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemConfig {
    m: u32,
    t: u32,
    q_in: usize,
    q_out: usize,
    ports: usize,
}

impl MemConfig {
    /// Creates a configuration with `2^m` modules of latency `2^t`
    /// cycles, one input and one output buffer per module.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfRange`] if `m > 20` or `t > 20`
    /// (a million modules is beyond any sensible simulation).
    pub fn new(m: u32, t: u32) -> Result<Self, ConfigError> {
        if m > 20 {
            return Err(ConfigError::OutOfRange {
                what: "m",
                value: m as u64,
                constraint: "m <= 20",
            });
        }
        if t > 20 {
            return Err(ConfigError::OutOfRange {
                what: "t",
                value: t as u64,
                constraint: "t <= 20",
            });
        }
        Ok(MemConfig {
            m,
            t,
            q_in: 1,
            q_out: 1,
            ports: 1,
        })
    }

    /// The configuration matching a runtime map spec: `m` is the
    /// spec'd map's module-bit count and `t` its latency exponent
    /// (the XOR maps' own `t`; the spec's `t` key, default matched,
    /// for baselines) — the memory a
    /// [`Planner::from_spec`](cfva_core::plan::Planner::from_spec)
    /// planner expects to run against.
    ///
    /// # Examples
    ///
    /// ```
    /// use cfva_memsim::MemConfig;
    ///
    /// let cfg = MemConfig::from_spec(&"xor-unmatched:t=3,s=4,y=9".parse()?)?;
    /// assert_eq!(cfg.module_count(), 64); // M = 2^{2t}
    /// assert_eq!(cfg.t_cycles(), 8);      // T = 2^t
    /// # Ok::<(), cfva_core::ConfigError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Spec resolution errors from the registry, plus this
    /// constructor's own `m`/`t` bounds.
    pub fn from_spec(spec: &cfva_core::mapping::MapSpec) -> Result<Self, ConfigError> {
        let planner = cfva_core::plan::Planner::from_spec(spec)?;
        MemConfig::new(planner.map().module_bits(), planner.t())
    }

    /// Sets the per-module input and output buffer depths.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfRange`] if either depth is zero.
    pub fn with_queues(mut self, q_in: usize, q_out: usize) -> Result<Self, ConfigError> {
        if q_in == 0 {
            return Err(ConfigError::OutOfRange {
                what: "q_in",
                value: 0,
                constraint: "q_in >= 1",
            });
        }
        if q_out == 0 {
            return Err(ConfigError::OutOfRange {
                what: "q_out",
                value: 0,
                constraint: "q_out >= 1",
            });
        }
        self.q_in = q_in;
        self.q_out = q_out;
        Ok(self)
    }

    /// Module-count exponent `m`.
    pub const fn m(&self) -> u32 {
        self.m
    }

    /// Latency exponent `t`.
    pub const fn t(&self) -> u32 {
        self.t
    }

    /// Number of modules, `M = 2^m`.
    pub const fn module_count(&self) -> u64 {
        1 << self.m
    }

    /// Module service time in processor cycles, `T = 2^t`.
    pub const fn t_cycles(&self) -> u64 {
        1 << self.t
    }

    /// Sets the number of memory ports: up to `ports` requests issued
    /// and `ports` elements returned per cycle. The paper's model is
    /// single-ported; multi-port is its Section 6 future-work item
    /// ("a single processor with several memory ports").
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::OutOfRange`] if `ports` is zero or
    /// exceeds the module count.
    pub fn with_ports(mut self, ports: usize) -> Result<Self, ConfigError> {
        if ports == 0 || ports as u64 > self.module_count() {
            return Err(ConfigError::OutOfRange {
                what: "ports",
                value: ports as u64,
                constraint: "1 <= ports <= M",
            });
        }
        self.ports = ports;
        Ok(self)
    }

    /// Input-buffer depth per module.
    pub const fn q_in(&self) -> usize {
        self.q_in
    }

    /// Output-buffer depth per module.
    pub const fn q_out(&self) -> usize {
        self.q_out
    }

    /// Number of memory ports (requests issued / elements returned per
    /// cycle).
    pub const fn ports(&self) -> usize {
        self.ports
    }

    /// Whether the memory is matched (`M = T`, i.e. `m = t`).
    pub const fn is_matched(&self) -> bool {
        self.m == self.t
    }
}

impl fmt::Display for MemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory M={} T={} q={} q'={}",
            self.module_count(),
            self.t_cycles(),
            self.q_in,
            self.q_out
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_single_buffers() {
        let cfg = MemConfig::new(3, 3).unwrap();
        assert_eq!(cfg.q_in(), 1);
        assert_eq!(cfg.q_out(), 1);
        assert!(cfg.is_matched());
    }

    #[test]
    fn unmatched_config() {
        let cfg = MemConfig::new(6, 3).unwrap();
        assert_eq!(cfg.module_count(), 64);
        assert_eq!(cfg.t_cycles(), 8);
        assert!(!cfg.is_matched());
    }

    #[test]
    fn queue_validation() {
        assert!(MemConfig::new(3, 3).unwrap().with_queues(0, 1).is_err());
        assert!(MemConfig::new(3, 3).unwrap().with_queues(1, 0).is_err());
        let cfg = MemConfig::new(3, 3).unwrap().with_queues(2, 1).unwrap();
        assert_eq!((cfg.q_in(), cfg.q_out()), (2, 1));
    }

    #[test]
    fn size_limits() {
        assert!(MemConfig::new(21, 3).is_err());
        assert!(MemConfig::new(3, 21).is_err());
        assert!(MemConfig::new(20, 20).is_ok());
    }

    #[test]
    fn display() {
        let cfg = MemConfig::new(3, 2).unwrap().with_queues(2, 1).unwrap();
        assert_eq!(cfg.to_string(), "memory M=8 T=4 q=2 q'=1");
    }

    #[test]
    fn from_spec_matches_planner_geometry() {
        // Baselines default to a matched memory...
        let cfg = MemConfig::from_spec(&"interleaved:m=3".parse().unwrap()).unwrap();
        assert_eq!((cfg.m(), cfg.t()), (3, 3));
        // ...unless the spec carries a latency rider.
        let cfg = MemConfig::from_spec(&"interleaved:m=3,t=6".parse().unwrap()).unwrap();
        assert_eq!((cfg.m(), cfg.t()), (3, 6));
        // The XOR maps' own t is the latency exponent.
        let cfg = MemConfig::from_spec(&"xor-matched:t=3,s=4".parse().unwrap()).unwrap();
        assert_eq!((cfg.m(), cfg.t()), (3, 3));
        let cfg = MemConfig::from_spec(&"xor-unmatched:t=3,s=4,y=9".parse().unwrap()).unwrap();
        assert_eq!((cfg.m(), cfg.t()), (6, 3));
        // Spec errors propagate with their diagnostics intact.
        let e = MemConfig::from_spec(&"interleavd:m=3".parse().unwrap()).unwrap_err();
        assert!(e.to_string().contains("interleaved"), "{e}");
    }

    #[test]
    fn port_validation() {
        let cfg = MemConfig::new(3, 3).unwrap();
        assert_eq!(cfg.ports(), 1);
        assert!(cfg.with_ports(0).is_err());
        assert!(cfg.with_ports(9).is_err()); // > M = 8
        assert_eq!(cfg.with_ports(4).unwrap().ports(), 4);
    }
}
