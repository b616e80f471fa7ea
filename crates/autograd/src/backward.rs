//! Reverse-mode gradient computation over the tape.

use std::cell::Cell;

use mhg_tensor::{matmul_into, matmul_transposed_into, sigmoid_scalar, transposed_matmul_into};

use crate::graph::{packed_starts, segment, Graph, Op, Var};
use crate::store::{GradAccumulator, GradStore, RowIndex};

/// Buffers of a backward pass, kept per thread so that steady-state
/// training allocates no per-node gradient tensors.
#[derive(Default)]
struct Workspace {
    /// Flat per-node gradients: node `i` owns `grads[off[i]..off[i + 1]]`,
    /// the size of its forward value.
    grads: Vec<f32>,
    off: Vec<usize>,
    /// Whether node `i` has received a gradient yet.
    has: Vec<bool>,
    /// Holds a contribution to a node that already has a gradient.
    scratch: Vec<f32>,
    /// Row → slot maps of the embedding tables.
    row_index: RowIndex,
}

thread_local! {
    /// Taken for the length of a pass and put back only when the pass
    /// completes, so a pass that panics leaves no half-reset state behind.
    static WORKSPACE: Cell<Option<Box<Workspace>>> = const { Cell::new(None) };
}

impl Graph<'_> {
    /// Runs the backward pass from a `1 × 1` loss variable and returns the
    /// accumulated parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `1 × 1`. Under `--features checked` the tape
    /// is additionally validated via [`Graph::validate_tape`] before the
    /// pass and the produced gradients via [`Graph::validate_grads`] after,
    /// so malformed tapes and corrupt gradients fail with a diagnostic.
    pub fn backward(&self, loss: Var) -> GradStore {
        #[cfg(feature = "checked")]
        self.validate_tape();
        let loss_t = self.value(loss);
        assert_eq!(
            (loss_t.rows(), loss_t.cols()),
            (1, 1),
            "backward() requires a scalar loss, got {}",
            loss_t.shape()
        );

        let mut ws = WORKSPACE.with(Cell::take).unwrap_or_default();
        let store = self.backward_in(&mut ws, loss);
        WORKSPACE.with(|cell| cell.set(Some(ws)));

        #[cfg(feature = "checked")]
        self.validate_grads(&store);
        store
    }

    fn backward_in(&self, ws: &mut Workspace, loss: Var) -> GradStore {
        let Workspace {
            grads,
            off,
            has,
            scratch,
            row_index,
        } = ws;
        let n = self.nodes.len();
        off.clear();
        let mut total = 0;
        for node in &self.nodes {
            off.push(total);
            total += node.value.len();
        }
        off.push(total);
        if grads.len() < total {
            grads.resize(total, 0.0);
        }
        has.clear();
        has.resize(n, false);
        grads[off[loss.index()]] = 1.0;
        has[loss.index()] = true;

        let mut params = GradAccumulator::new(self.store.len(), row_index);
        for i in (0..n).rev() {
            if !has[i] {
                continue;
            }
            let node = &self.nodes[i];
            let (earlier, rest) = grads.split_at_mut(off[i]);
            let g = &rest[..off[i + 1] - off[i]];
            let mut out = Sink {
                grads: earlier,
                off,
                has,
                scratch,
            };
            match &node.op {
                Op::Leaf => {}
                Op::Param(pid) => params.dense(*pid, node.value.shape(), g),
                Op::Gather { pid, indices } => {
                    let table_rows = self.store.value(*pid).rows();
                    params.gather(*pid, table_rows, indices, node.value.cols(), g);
                }
                Op::Add(a, b) => {
                    out.put(*a, |d| d.copy_from_slice(g));
                    out.put(*b, |d| d.copy_from_slice(g));
                }
                Op::Sub(a, b) => {
                    out.put(*a, |d| d.copy_from_slice(g));
                    // Negation is exact: the same bits as scaling by −1.
                    out.put(*b, |d| fill(d, |k| -g[k]));
                }
                Op::Mul(a, b) => {
                    let (va, vb) = (self.value(*a).as_slice(), self.value(*b).as_slice());
                    out.put(*a, |d| fill(d, |k| g[k] * vb[k]));
                    out.put(*b, |d| fill(d, |k| g[k] * va[k]));
                }
                Op::Scale(a, s) => out.put(*a, |d| fill(d, |k| g[k] * s)),
                Op::MatMul(a, b) => {
                    // C = A·B ⇒ dA = dC·Bᵀ, dB = Aᵀ·dC
                    let (ta, tb) = (self.value(*a), self.value(*b));
                    let (m, k, n) = (ta.rows(), ta.cols(), tb.cols());
                    out.put(*a, |d| {
                        matmul_transposed_into(g, tb.as_slice(), d, (m, n, k))
                    });
                    out.put(*b, |d| {
                        transposed_matmul_into(ta.as_slice(), g, d, (k, m, n))
                    });
                }
                Op::Transpose(a) => {
                    // g is the c × r gradient of the r × c operand.
                    let (r, c) = (node.value.cols(), node.value.rows());
                    out.put(*a, |d| fill(d, |k| g[(k % c) * r + k / c]));
                }
                Op::Sigmoid(a) => {
                    let y = node.value.as_slice();
                    out.put(*a, |d| fill(d, |k| g[k] * y[k] * (1.0 - y[k])));
                }
                Op::Tanh(a) => {
                    let y = node.value.as_slice();
                    out.put(*a, |d| fill(d, |k| g[k] * (1.0 - y[k] * y[k])));
                }
                Op::Relu(a) => {
                    let x = self.value(*a).as_slice();
                    out.put(*a, |d| fill(d, |k| if x[k] > 0.0 { g[k] } else { 0.0 }));
                }
                Op::SoftmaxRows(a) => {
                    // Per row: dx = y ⊙ (dy − (dy·y) 1); rows are independent,
                    // so they parallelise under the mhg-par contract.
                    let y = node.value.as_slice();
                    let cols = node.value.cols();
                    out.put(*a, |d| {
                        if d.is_empty() {
                            return;
                        }
                        mhg_par::par_chunks_mut(d, cols, 4 * cols, |r0, chunk| {
                            for (rr, out_row) in chunk.chunks_exact_mut(cols).enumerate() {
                                let r = r0 + rr;
                                let dy = &g[r * cols..(r + 1) * cols];
                                let yr = &y[r * cols..(r + 1) * cols];
                                let dot: f32 = dy.iter().zip(yr).map(|(d, v)| d * v).sum();
                                for ((o, &d), &v) in out_row.iter_mut().zip(dy).zip(yr) {
                                    *o = v * (d - dot);
                                }
                            }
                        });
                    });
                }
                Op::MeanRows(a) => {
                    let inv = 1.0 / self.value(*a).rows().max(1) as f32;
                    out.put(*a, |d| {
                        for row in d.chunks_exact_mut(g.len().max(1)) {
                            for (o, v) in row.iter_mut().zip(g) {
                                *o = v * inv;
                            }
                        }
                    });
                }
                Op::SumRows(a) => out.put(*a, |d| {
                    for row in d.chunks_exact_mut(g.len().max(1)) {
                        row.copy_from_slice(g);
                    }
                }),
                Op::MaxRows(a) => {
                    let src = self.value(*a);
                    let y = node.value.as_slice();
                    let cols = src.cols();
                    out.put(*a, |d| {
                        d.fill(0.0);
                        for c in 0..cols {
                            // First arg-max row receives the gradient.
                            if let Some(r) = (0..src.rows()).find(|&r| src[(r, c)] == y[c]) {
                                d[r * cols + c] = g[c];
                            }
                        }
                    });
                }
                Op::ConcatRows(parts) => {
                    let mut start = 0;
                    for &p in parts {
                        let len = self.value(p).len();
                        out.put(p, |d| d.copy_from_slice(&g[start..start + len]));
                        start += len;
                    }
                }
                Op::SliceRows(a, start, end) => {
                    let cols = node.value.cols();
                    out.put(*a, |d| {
                        d.fill(0.0);
                        d[start * cols..end * cols].copy_from_slice(g);
                    });
                }
                Op::RowDot(a, b) => {
                    let (ta, tb) = (self.value(*a), self.value(*b));
                    let cols = ta.cols();
                    out.put(*a, |d| scale_rows(d, g, tb.as_slice(), cols));
                    out.put(*b, |d| scale_rows(d, g, ta.as_slice(), cols));
                }
                Op::AddBroadcastRow(a, bias) => {
                    // d bias = column sums of g.
                    let cols = node.value.cols();
                    out.put(*a, |d| d.copy_from_slice(g));
                    out.put(*bias, |d| {
                        d.fill(0.0);
                        for row in g.chunks_exact(cols.max(1)) {
                            for (o, v) in d.iter_mut().zip(row) {
                                *o += v;
                            }
                        }
                    });
                }
                Op::LogisticLoss { scores, labels } => {
                    // L = mean_i −log σ(y_i s_i) ⇒ dL/ds_i = −y_i σ(−y_i s_i)/n
                    let s = self.value(*scores).as_slice();
                    let n = labels.len().max(1) as f32;
                    let upstream = g[0];
                    out.put(*scores, |d| {
                        for ((o, &y), &sc) in d.iter_mut().zip(labels).zip(s) {
                            *o = upstream * (-y * sigmoid_scalar(-y * sc)) / n;
                        }
                    });
                }
                Op::SumAll(a) => out.put(*a, |d| d.fill(g[0])),
                Op::SelectRows { sources, picks } => {
                    let cols = node.value.cols();
                    for (si, &src) in sources.iter().enumerate() {
                        out.put(src, |d| {
                            d.fill(0.0);
                            for (p, &(from, row)) in picks.iter().enumerate() {
                                if from as usize == si {
                                    let row = row as usize;
                                    let dst = &mut d[row * cols..(row + 1) * cols];
                                    for (o, v) in dst.iter_mut().zip(&g[p * cols..(p + 1) * cols]) {
                                        *o += v;
                                    }
                                }
                            }
                        });
                    }
                }
                Op::SegmentSum(a, offsets) | Op::SegmentMean(a, offsets) => {
                    let mean = matches!(node.op, Op::SegmentMean(..));
                    let cols = node.value.cols();
                    out.put(*a, |d| {
                        for s in 0..offsets.len() - 1 {
                            let rows = segment(offsets, s);
                            // As MeanRows: the upstream row times 1/max(n, 1).
                            let inv = 1.0 / rows.len().max(1) as f32;
                            let gs = &g[s * cols..(s + 1) * cols];
                            for row in d[rows.start * cols..rows.end * cols].chunks_exact_mut(cols)
                            {
                                for (o, v) in row.iter_mut().zip(gs) {
                                    *o = if mean { v * inv } else { *v };
                                }
                            }
                        }
                    });
                }
                Op::SegmentMax(a, offsets) => {
                    let src = self.value(*a).as_slice();
                    let y = node.value.as_slice();
                    let cols = node.value.cols();
                    out.put(*a, |d| {
                        d.fill(0.0);
                        for s in 0..offsets.len() - 1 {
                            let rows = segment(offsets, s);
                            for c in 0..cols {
                                // First arg-max row receives the gradient.
                                if let Some(r) =
                                    rows.clone().find(|&r| src[r * cols + c] == y[s * cols + c])
                                {
                                    d[r * cols + c] = g[s * cols + c];
                                }
                            }
                        }
                    });
                }
                Op::SegmentAttention {
                    q,
                    k,
                    offsets,
                    scale,
                } => {
                    // Per segment, through softmax then scale: dZ = s · A ⊙
                    // (dA − rowdot(dA, A)); then dQ = dZ·K and dK = dZᵀ·Q.
                    let (tq, tk) = (self.value(*q), self.value(*k));
                    let d_k = tq.cols();
                    let starts = packed_starts(offsets);
                    let y = node.value.as_slice();
                    let mut dz = vec![0.0f32; y.len()];
                    for s in 0..offsets.len() - 1 {
                        let n = segment(offsets, s).len();
                        let block = starts[s]..starts[s + 1];
                        for ((dz_row, dy), yr) in dz[block.clone()]
                            .chunks_exact_mut(n.max(1))
                            .zip(g[block.clone()].chunks_exact(n.max(1)))
                            .zip(y[block].chunks_exact(n.max(1)))
                        {
                            let dot: f32 = dy.iter().zip(yr).map(|(d, v)| d * v).sum();
                            for ((o, &d), &v) in dz_row.iter_mut().zip(dy).zip(yr) {
                                *o = v * (d - dot) * scale;
                            }
                        }
                    }
                    let per_segment = |d: &mut [f32], other: &[f32], transposed: bool| {
                        for s in 0..offsets.len() - 1 {
                            let rows = segment(offsets, s);
                            let n = rows.len();
                            let dzs = &dz[starts[s]..starts[s + 1]];
                            let os = &other[rows.start * d_k..rows.end * d_k];
                            let ds = &mut d[rows.start * d_k..rows.end * d_k];
                            if transposed {
                                transposed_matmul_into(dzs, os, ds, (n, n, d_k));
                            } else {
                                matmul_into(dzs, os, ds, (n, n, d_k));
                            }
                        }
                    };
                    out.put(*q, |d| per_segment(d, tk.as_slice(), false));
                    out.put(*k, |d| per_segment(d, tq.as_slice(), true));
                }
                Op::SegmentApply { attn, v, offsets } => {
                    // Per segment: dA = dY·Vᵀ and dV = Aᵀ·dY.
                    let (ta, tv) = (self.value(*attn).as_slice(), self.value(*v).as_slice());
                    let d_v = node.value.cols();
                    let starts = packed_starts(offsets);
                    out.put(*attn, |d| {
                        for s in 0..offsets.len() - 1 {
                            let rows = segment(offsets, s);
                            let n = rows.len();
                            matmul_transposed_into(
                                &g[rows.start * d_v..rows.end * d_v],
                                &tv[rows.start * d_v..rows.end * d_v],
                                &mut d[starts[s]..starts[s + 1]],
                                (n, d_v, n),
                            );
                        }
                    });
                    out.put(*v, |d| {
                        for s in 0..offsets.len() - 1 {
                            let rows = segment(offsets, s);
                            let n = rows.len();
                            transposed_matmul_into(
                                &ta[starts[s]..starts[s + 1]],
                                &g[rows.start * d_v..rows.end * d_v],
                                &mut d[rows.start * d_v..rows.end * d_v],
                                (n, n, d_v),
                            );
                        }
                    });
                }
            }
        }
        params.finish()
    }
}

/// Where one node's backward rule delivers its operands' gradients: the
/// arena below the node, so each operand slot is disjoint from `g`.
struct Sink<'a> {
    grads: &'a mut [f32],
    off: &'a [usize],
    has: &'a mut [bool],
    scratch: &'a mut Vec<f32>,
}

impl Sink<'_> {
    /// Delivers one contribution to `v`'s gradient. `write` must overwrite
    /// every entry of the slice it is given with the contribution. The first
    /// contribution is written straight into `v`'s slot; a later one goes
    /// to scratch and is then added in, entry by entry.
    fn put(&mut self, v: Var, write: impl FnOnce(&mut [f32])) {
        let i = v.index();
        let dst = &mut self.grads[self.off[i]..self.off[i + 1]];
        if !self.has[i] {
            self.has[i] = true;
            write(dst);
            return;
        }
        self.scratch.clear();
        self.scratch.resize(dst.len(), 0.0);
        write(self.scratch);
        for (d, s) in dst.iter_mut().zip(self.scratch.iter()) {
            *d += s;
        }
    }
}

/// `d[i][j] = s[i] · m[i][j]` over `cols`-wide rows, on the `mhg-par` pool.
fn scale_rows(d: &mut [f32], s: &[f32], m: &[f32], cols: usize) {
    if d.is_empty() {
        return;
    }
    mhg_par::par_chunks_mut(d, cols, cols, |r0, chunk| {
        for (rr, row) in chunk.chunks_exact_mut(cols).enumerate() {
            let r = r0 + rr;
            for (o, v) in row.iter_mut().zip(&m[r * cols..(r + 1) * cols]) {
                *o = s[r] * v;
            }
        }
    });
}

/// `d[k] = f(k)` for every `k`, on the `mhg-par` pool.
fn fill(d: &mut [f32], f: impl Fn(usize) -> f32 + Sync) {
    mhg_par::par_chunks_mut(d, 1, 4, |start, chunk| {
        for (k, o) in chunk.iter_mut().enumerate() {
            *o = f(start + k);
        }
    });
}
