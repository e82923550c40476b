//! What every workload's measured window reports, and the digest its
//! output checks compare.

use crate::stats::{median, percentile};

/// A stretch of a window, the unit the end-to-end medians are taken
/// over: a stall spoils one slice, not the run's figure.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Work units completed.
    pub work: f64,
    /// Time the timed calls took, s.
    pub busy_s: f64,
    /// Per-operation latencies, ms.
    pub op_ms: Vec<f64>,
}

/// One measured window of a workload.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Operations completed.
    pub ops: usize,
    /// The window cut into slices.
    pub slices: Vec<Slice>,
}

impl Window {
    /// Work units per second of timed calls over the whole window.
    pub fn throughput(&self) -> f64 {
        let (work, busy) = self
            .slices
            .iter()
            .fold((0.0, 0.0), |(w, b), s| (w + s.work, b + s.busy_s));
        work / busy
    }

    /// Median over slices of each slice's throughput.
    pub fn slice_throughput(&self) -> f64 {
        median(
            &self
                .slices
                .iter()
                .map(|s| s.work / s.busy_s)
                .collect::<Vec<_>>(),
        )
    }

    /// Median over slices of each slice's `p`-th latency percentile.
    pub fn slice_percentile(&self, p: f64) -> f64 {
        median(
            &self
                .slices
                .iter()
                .map(|s| percentile(&s.op_ms, p))
                .collect::<Vec<_>>(),
        )
    }

    /// Every latency of the window, ms.
    pub fn op_ms(&self) -> Vec<f64> {
        self.slices
            .iter()
            .flat_map(|s| s.op_ms.iter().copied())
            .collect()
    }

    /// Appends one operation to the open slice, or opens a new slice once
    /// the open one holds `slice_s` of timed calls.
    pub fn push_op(&mut self, slice_s: f64, work: f64, busy_s: f64, op_ms: &[f64]) {
        if !matches!(self.slices.last(), Some(s) if s.busy_s < slice_s) {
            self.slices.push(Slice::default());
        }
        let s = self.slices.last_mut().expect("just ensured");
        s.work += work;
        s.busy_s += busy_s;
        s.op_ms.extend_from_slice(op_ms);
        self.ops += 1;
    }

    /// Adds one operation to slice `i` (which must exist).
    pub fn push_into(&mut self, i: usize, work: f64, op_ms: f64) {
        self.slices[i].work += work;
        self.slices[i].op_ms.push(op_ms);
        self.ops += 1;
    }

    /// Folds a trailing slice shorter than half of `slice_s` into the one
    /// before it.
    pub fn close(&mut self, slice_s: f64) {
        if self.slices.len() > 1 && self.slices.last().is_some_and(|s| s.busy_s < slice_s / 2.0) {
            let tail = self.slices.pop().expect("len > 1");
            let s = self.slices.last_mut().expect("len > 1");
            s.work += tail.work;
            s.busy_s += tail.busy_s;
            s.op_ms.extend(tail.op_ms);
        }
    }

    /// Appends another window of the same workload.
    pub fn absorb(&mut self, other: Window) {
        self.ops += other.ops;
        self.slices.extend(other.slices);
    }
}

/// 64-bit FNV-1a over the exact bits of a run's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in 8 bytes.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes in an `f32`'s bits.
    pub fn f32(&mut self, v: f32) {
        self.u64(u64::from(v.to_bits()));
    }

    /// Mixes in an `f64`'s bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}
