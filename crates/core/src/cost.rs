//! The work/depth cost algebra.
//!
//! `Cost` values model what a CRCW PRAM charges: *work* = total operations,
//! *depth* = parallel time. Sequential composition adds both; parallel
//! composition adds work and takes the max depth. The implied processor
//! count at a target time `T` is `work / T` (Brent), which experiment E2
//! compares against the paper's `p·log log n / log n` bound.

use std::ops::Add;

/// Modelled PRAM cost: total work and parallel depth (time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Total operations across all processors.
    pub work: u64,
    /// Parallel time (critical path length).
    pub depth: u64,
}

impl Cost {
    /// Zero cost.
    pub const ZERO: Cost = Cost { work: 0, depth: 0 };

    /// A constant-time step of `work` total operations executed by `work`
    /// processors in one time unit.
    pub fn step(work: u64) -> Cost {
        Cost { work, depth: 1 }
    }

    /// An explicit (work, depth) charge.
    pub fn of(work: u64, depth: u64) -> Cost {
        Cost { work, depth }
    }

    /// Sequential composition: this, then `next`.
    #[must_use]
    pub fn seq(self, next: Cost) -> Cost {
        Cost { work: self.work + next.work, depth: self.depth + next.depth }
    }

    /// Parallel composition: this alongside `other`.
    #[must_use]
    pub fn par(self, other: Cost) -> Cost {
        Cost { work: self.work + other.work, depth: self.depth.max(other.depth) }
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        self.seq(rhs)
    }
}

/// `⌈log2(n)⌉`, with `log2ceil(0) = log2ceil(1) = 0` — the standard depth
/// factor of scan/pointer-jumping primitives.
pub fn log2ceil(n: usize) -> u64 {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algebra() {
        let a = Cost::of(10, 2);
        let b = Cost::of(5, 7);
        assert_eq!(a.seq(b), Cost::of(15, 9));
        assert_eq!(a.par(b), Cost::of(15, 7));
        assert_eq!(a + b, Cost::of(15, 9));
        assert_eq!(a.par(b).par(Cost::step(1)), Cost::of(16, 7));
    }

    #[test]
    fn log2ceil_values() {
        assert_eq!(log2ceil(0), 0);
        assert_eq!(log2ceil(1), 0);
        assert_eq!(log2ceil(2), 1);
        assert_eq!(log2ceil(3), 2);
        assert_eq!(log2ceil(1024), 10);
        assert_eq!(log2ceil(1025), 11);
    }
}
