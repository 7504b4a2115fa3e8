//! A reusable scratch-buffer arena for allocation-free forward passes.
//!
//! The inference engine's `&self` entry points —
//! [`Conv2d::forward_blocks`](crate::layers::Conv2d::forward_blocks) and
//! [`Conv2d::forward_with`](crate::layers::Conv2d::forward_with) here,
//! and the network-level prefix, Monte-Carlo sample and block-wise Eval
//! passes built on them in `el-seg` — draw their output buffers and
//! internal scratch (the zero-padded input copy, the GEMM row tables and
//! the block buffers) from a [`Workspace`] and return intermediates to
//! it, so a warm workspace services whole forward passes with **zero
//! heap allocations**: buffers are recycled between layers and between
//! passes.
//!
//! The pool is a simple size-agnostic free list with best-fit reuse:
//! [`Workspace::take`] returns the smallest pooled buffer whose capacity
//! suffices (growing one only when nothing fits, which happens a bounded
//! number of times — the warm-up), and [`Workspace::give`] /
//! [`Workspace::recycle`] return buffers to the pool.
//!
//! # Example
//!
//! ```
//! use el_nn::{layers::Conv2d, Tensor, Workspace};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(0);
//! let conv = Conv2d::new(3, 8, 3, 1, &mut rng);
//! let mut ws = Workspace::new();
//! let x = Tensor::zeros(3, 16, 16);
//! let y = conv.forward_with(&x, &mut ws);
//! ws.recycle(y); // hand the output back so the next pass reuses it
//! let allocs_before = ws.takes_missed();
//! let y = conv.forward_with(&x, &mut ws);
//! assert_eq!(ws.takes_missed(), allocs_before, "warm pass allocates nothing");
//! assert_eq!(y.shape(), (8, 16, 16));
//! ```

use crate::tensor::Tensor;

/// A pool of reusable `f32` buffers (see the module docs).
#[derive(Debug, Default, Clone)]
pub struct Workspace {
    pool: Vec<Vec<f32>>,
    row_pool: Vec<Vec<usize>>,
    takes_missed: usize,
}

impl Workspace {
    /// Creates an empty workspace; buffers are allocated on first use and
    /// reused afterwards.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Number of [`Workspace::take`] calls that could not be served from
    /// the pool without growing a buffer (a warm-up/diagnostic counter:
    /// it stops increasing once the workspace has seen every buffer shape
    /// a pass needs).
    pub fn takes_missed(&self) -> usize {
        self.takes_missed
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Fetches a buffer of exactly `len` elements with **unspecified
    /// contents** (stale values from earlier passes), reusing pooled
    /// capacity when possible (best fit). Callers must overwrite every
    /// element (the conv lowering's padded copy writes its padding zeros
    /// explicitly).
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        // Best fit: the smallest pooled buffer with enough capacity.
        let mut best: Option<usize> = None;
        for (i, buf) in self.pool.iter().enumerate() {
            if buf.capacity() >= len
                && best.is_none_or(|b| buf.capacity() < self.pool[b].capacity())
            {
                best = Some(i);
            }
        }
        // Nothing fits: grow the largest pooled buffer (or a fresh one)
        // so the pool converges to the working-set sizes.
        let idx = match best {
            Some(i) => i,
            None => {
                self.takes_missed += 1;
                let mut largest: Option<usize> = None;
                for (i, buf) in self.pool.iter().enumerate() {
                    if largest.is_none_or(|l| buf.capacity() > self.pool[l].capacity()) {
                        largest = Some(i);
                    }
                }
                match largest {
                    Some(i) => i,
                    None => {
                        self.pool.push(Vec::new());
                        self.pool.len() - 1
                    }
                }
            }
        };
        let mut buf = self.pool.swap_remove(idx);
        // Truncate or grow to `len` without touching retained elements —
        // skipping the redundant memset is a real win on the hot loop,
        // where every consumer overwrites the whole buffer anyway.
        buf.resize(len, 0.0);
        buf
    }

    /// Fetches a tensor of the given shape with **unspecified contents**
    /// (see [`Workspace::take`]); callers must overwrite every element.
    pub fn take_tensor(&mut self, channels: usize, height: usize, width: usize) -> Tensor {
        let buf = self.take(channels * height * width);
        Tensor::from_vec(channels, height, width, buf)
            .expect("workspace buffer sized to the requested shape")
    }

    /// Fetches a GEMM row table (`el_kernels::Kernels::gemm_bias`) of
    /// exactly `len` offsets with **unspecified contents**, best fit from
    /// a separate pool of offset tables; a miss counts in
    /// [`Workspace::takes_missed`] as for [`Workspace::take`].
    pub fn take_rows(&mut self, len: usize) -> Vec<usize> {
        // Best fit, as for `take`, so tables of several sizes coexist.
        let best = (self.row_pool.iter().enumerate())
            .filter(|(_, t)| t.capacity() >= len)
            .min_by_key(|(_, t)| t.capacity())
            .map(|(i, _)| i);
        let mut rows = match best {
            Some(i) => self.row_pool.swap_remove(i),
            None => {
                self.takes_missed += 1;
                self.row_pool.pop().unwrap_or_default()
            }
        };
        rows.resize(len, 0);
        rows
    }

    /// Returns a row table to its pool.
    pub fn give_rows(&mut self, rows: Vec<usize>) {
        if rows.capacity() > 0 {
            self.row_pool.push(rows);
        }
    }

    /// Returns a raw buffer to the pool.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// Returns a tensor's buffer to the pool.
    pub fn recycle(&mut self, tensor: Tensor) {
        self.give(tensor.into_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_and_sizes() {
        let mut ws = Workspace::new();
        let mut a = ws.take(16);
        assert!(a.iter().all(|&v| v == 0.0), "fresh buffers start zeroed");
        a.fill(7.0);
        ws.give(a);
        assert_eq!(ws.pooled(), 1);
        let b = ws.take(8);
        assert_eq!(b.len(), 8);
        assert_eq!(ws.pooled(), 0);
    }

    #[test]
    fn warm_pool_stops_missing() {
        let mut ws = Workspace::new();
        for _ in 0..3 {
            let a = ws.take(100);
            let b = ws.take(50);
            ws.give(a);
            ws.give(b);
        }
        let missed = ws.takes_missed();
        for _ in 0..10 {
            let a = ws.take(100);
            let b = ws.take(50);
            ws.give(a);
            ws.give(b);
        }
        assert_eq!(ws.takes_missed(), missed, "warm workspace never misses");
    }

    #[test]
    fn best_fit_prefers_smallest_adequate() {
        let mut ws = Workspace::new();
        let big = ws.take(1000);
        let small = ws.take(10);
        ws.give(big);
        ws.give(small);
        let got = ws.take(10);
        assert!(
            got.capacity() < 1000,
            "small request must not consume the big buffer"
        );
    }

    #[test]
    fn tensor_roundtrip() {
        let mut ws = Workspace::new();
        let t = ws.take_tensor(2, 3, 4);
        assert_eq!(t.shape(), (2, 3, 4));
        ws.recycle(t);
        assert_eq!(ws.pooled(), 1);
    }
}
