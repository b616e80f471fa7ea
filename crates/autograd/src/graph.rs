//! The differentiation tape: forward op recording.
//!
//! A [`Graph`] is created per training step, records the forward computation
//! as a flat tape of [`Node`]s, and is consumed by
//! [`Graph::backward`](crate::Graph::backward) to produce a
//! [`GradStore`](crate::GradStore). Variables ([`Var`]) are indices into the
//! tape and are `Copy`.

use std::borrow::Cow;

use mhg_tensor::{
    matmul_into, matmul_transposed_into, mean_rows_into, softmax_row, sum_rows_into, Tensor,
};

use crate::store::{ParamId, ParamStore};

/// Handle to a tape node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Var(pub(crate) u32);

impl Var {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// An operation recorded on the tape.
#[derive(Debug)]
pub(crate) enum Op {
    /// Constant input; receives no gradient.
    Leaf,
    /// Whole-parameter leaf (small weight matrices).
    Param(ParamId),
    /// Embedding-row gather from a parameter table.
    Gather { pid: ParamId, indices: Vec<u32> },
    /// Elementwise sum.
    Add(Var, Var),
    /// Elementwise difference.
    Sub(Var, Var),
    /// Elementwise product.
    Mul(Var, Var),
    /// Scalar multiple.
    Scale(Var, f32),
    /// Matrix product.
    MatMul(Var, Var),
    /// Transpose.
    Transpose(Var),
    /// Logistic sigmoid.
    Sigmoid(Var),
    /// Hyperbolic tangent.
    Tanh(Var),
    /// Rectified linear unit.
    Relu(Var),
    /// Row-wise softmax.
    SoftmaxRows(Var),
    /// Column-wise mean producing a `1 × d` row.
    MeanRows(Var),
    /// Column-wise sum producing a `1 × d` row.
    SumRows(Var),
    /// Column-wise maximum producing a `1 × d` row.
    MaxRows(Var),
    /// Vertical stack of rows.
    ConcatRows(Vec<Var>),
    /// Row-wise dot product of two `n × d` tensors, producing `n × 1`.
    RowDot(Var, Var),
    /// Adds a `1 × d` row vector to every row of a matrix.
    AddBroadcastRow(Var, Var),
    /// Contiguous row slice `[start, end)`.
    SliceRows(Var, usize, usize),
    /// Mean negative log-sigmoid loss over labelled scores (`n × 1` → `1 × 1`).
    LogisticLoss { scores: Var, labels: Vec<f32> },
    /// Sum of all entries (`1 × 1`), used for L2 regularisation terms.
    SumAll(Var),
    /// Rows picked from several sources: pick `p` is row `picks[p].1` of
    /// `sources[picks[p].0]`; a row may be picked more than once.
    SelectRows {
        sources: Vec<Var>,
        picks: Vec<(u32, u32)>,
    },
    /// Column-wise sum of each CSR segment of rows, one output row each.
    SegmentSum(Var, Vec<usize>),
    /// Column-wise mean of each CSR segment of rows.
    SegmentMean(Var, Vec<usize>),
    /// Column-wise maximum of each (non-empty) CSR segment of rows.
    SegmentMax(Var, Vec<usize>),
    /// Per-segment attention weights `softmax(Q_s · K_sᵀ · scale)`, packed
    /// as one `Σ n_s² × 1` column of row-major `n_s × n_s` blocks.
    SegmentAttention {
        q: Var,
        k: Var,
        offsets: Vec<usize>,
        scale: f32,
    },
    /// Per-segment `A_s · V_s` for the packed weights of a
    /// [`Op::SegmentAttention`] node.
    SegmentApply {
        attn: Var,
        v: Var,
        offsets: Vec<usize>,
    },
}

/// Whether `offsets` are CSR segment bounds over `rows` rows: they start
/// at 0, never decrease and end at `rows`.
pub(crate) fn offsets_ok(offsets: &[usize], rows: usize) -> bool {
    offsets.first() == Some(&0)
        && offsets.last() == Some(&rows)
        && offsets.windows(2).all(|w| w[0] <= w[1])
}

/// Asserts [`offsets_ok`] with a diagnostic naming the op.
fn assert_offsets(op: &str, offsets: &[usize], rows: usize) {
    assert!(
        offsets_ok(offsets, rows),
        "{op}: segment offsets {offsets:?} are not CSR bounds over {rows} rows"
    );
}

/// Rows of segment `s`: `offsets[s]..offsets[s + 1]`.
#[inline]
pub(crate) fn segment(offsets: &[usize], s: usize) -> std::ops::Range<usize> {
    offsets[s]..offsets[s + 1]
}

/// Row-major offset of segment `s`'s `n_s × n_s` block in a packed
/// [`Op::SegmentAttention`] value, for every segment plus the total.
pub(crate) fn packed_starts(offsets: &[usize]) -> Vec<usize> {
    let mut starts = Vec::with_capacity(offsets.len());
    let mut total = 0;
    starts.push(0);
    for w in offsets.windows(2) {
        total += (w[1] - w[0]) * (w[1] - w[0]);
        starts.push(total);
    }
    starts
}

/// Column-wise maximum of the row-major rows of `src` into `out` (one row
/// of width `out.len()`): each column folds `f32::max` over the rows in
/// order, starting from −∞.
fn max_rows_into(src: &[f32], out: &mut [f32]) {
    out.fill(f32::NEG_INFINITY);
    for row in src.chunks_exact(out.len().max(1)) {
        for (o, &v) in out.iter_mut().zip(row) {
            *o = o.max(v);
        }
    }
}

/// A tape node: its forward value and the op that produced it. A `Param`
/// node borrows its value from the [`ParamStore`] instead of copying it.
pub(crate) struct Node<'s> {
    pub value: Cow<'s, Tensor>,
    pub op: Op,
}

/// A per-step reverse-mode differentiation tape.
pub struct Graph<'s> {
    pub(crate) store: &'s ParamStore,
    pub(crate) nodes: Vec<Node<'s>>,
}

impl<'s> Graph<'s> {
    /// Creates an empty tape over a parameter store.
    pub fn new(store: &'s ParamStore) -> Self {
        Self {
            store,
            nodes: Vec::with_capacity(256),
        }
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.record(Cow::Owned(value), op)
    }

    fn record(&mut self, value: Cow<'s, Tensor>, op: Op) -> Var {
        #[cfg(feature = "checked")]
        value.assert_finite(&format!("recording tape node {op:?}"));
        #[cfg(not(feature = "checked"))]
        debug_assert!(value.all_finite(), "non-finite value produced by {op:?}");
        let v = Var(self.nodes.len() as u32);
        self.nodes.push(Node { value, op });
        v
    }

    /// The forward value of a variable.
    ///
    /// # Panics
    ///
    /// Under `--features checked`, panics with a diagnostic if `v` does not
    /// belong to this tape (a dangling `Var` forged on another graph).
    #[inline]
    pub fn value(&self, v: Var) -> &Tensor {
        #[cfg(feature = "checked")]
        assert!(
            v.index() < self.nodes.len(),
            "dangling Var #{}: this tape has only {} node(s) — was the Var \
             created on another Graph?",
            v.index(),
            self.nodes.len(),
        );
        &self.nodes[v.index()].value
    }

    /// Shape of a parameter in the underlying store (no tape node created).
    pub fn param_shape(&self, id: ParamId) -> mhg_tensor::Shape {
        self.store.value(id).shape()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// Records a constant (non-differentiable) input.
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf)
    }

    /// Records a whole parameter as a differentiable leaf.
    ///
    /// The node borrows the store's value, so recording costs no copy; its
    /// gradient is still dense, so this is meant for weight matrices. For
    /// embedding tables use [`Graph::gather`].
    pub fn param(&mut self, id: ParamId) -> Var {
        self.record(Cow::Borrowed(self.store.value(id)), Op::Param(id))
    }

    /// Gathers rows `indices` of parameter `id` into an `n × d` variable.
    ///
    /// The backward pass scatter-adds into a sparse per-row gradient, so the
    /// full table is never materialised on the tape.
    pub fn gather(&mut self, id: ParamId, indices: &[u32]) -> Var {
        let table = self.store.value(id);
        let mut data = Vec::with_capacity(indices.len() * table.cols());
        for &idx in indices {
            assert!(
                (idx as usize) < table.rows(),
                "gather: row index {idx} out of bounds for parameter table \
                 `{}` with {} rows",
                self.store.name(id),
                table.rows()
            );
            data.extend_from_slice(table.row(idx as usize));
        }
        self.push(
            Tensor::from_vec(indices.len(), table.cols(), data),
            Op::Gather {
                pid: id,
                indices: indices.to_vec(),
            },
        )
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        self.push(value, Op::Add(a, b))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        self.push(value, Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).mul(self.value(b));
        self.push(value, Op::Mul(a, b))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).scale(s);
        self.push(value, Op::Scale(a, s))
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(value, Op::MatMul(a, b))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let value = self.value(a).transpose();
        self.push(value, Op::Transpose(a))
    }

    /// Adds a `1 × d` row vector to every row of `a`.
    pub fn add_broadcast_row(&mut self, a: Var, bias: Var) -> Var {
        let value = self.value(a).add_row_broadcast(self.value(bias));
        self.push(value, Op::AddBroadcastRow(a, bias))
    }

    // ------------------------------------------------------------------
    // Nonlinearities
    // ------------------------------------------------------------------

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).sigmoid();
        self.push(value, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::tanh);
        self.push(value, Op::Tanh(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x.max(0.0));
        self.push(value, Op::Relu(a))
    }

    /// Numerically-stable row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let value = self.value(a).softmax_rows();
        self.push(value, Op::SoftmaxRows(a))
    }

    // ------------------------------------------------------------------
    // Structure
    // ------------------------------------------------------------------

    /// Column-wise mean producing a `1 × d` row vector.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let value = self.value(a).mean_rows();
        self.push(value, Op::MeanRows(a))
    }

    /// Column-wise sum producing a `1 × d` row vector.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let value = self.value(a).sum_rows();
        self.push(value, Op::SumRows(a))
    }

    /// Column-wise maximum producing a `1 × d` row vector (max-pooling
    /// aggregator). Gradient flows to the (first) arg-max entry per column.
    ///
    /// # Panics
    ///
    /// Panics on an empty input.
    pub fn max_rows(&mut self, a: Var) -> Var {
        let src = self.value(a);
        assert!(src.rows() > 0, "max_rows of empty tensor");
        let mut value = Tensor::zeros(1, src.cols());
        max_rows_into(src.as_slice(), value.as_mut_slice());
        self.push(value, Op::MaxRows(a))
    }

    /// Vertically stacks variables (all must share a width).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows of zero vars");
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let value = Tensor::vstack(&tensors);
        self.push(value, Op::ConcatRows(parts.to_vec()))
    }

    /// Contiguous row slice `[start, end)` of `a`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or empty.
    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        let src = self.value(a);
        assert!(
            start < end && end <= src.rows(),
            "bad row slice {start}..{end}"
        );
        let cols = src.cols();
        let rows = src.as_slice()[start * cols..end * cols].to_vec();
        let value = Tensor::from_vec(end - start, cols, rows);
        self.push(value, Op::SliceRows(a, start, end))
    }

    /// Row-wise dot product of two `n × d` variables, producing `n × 1`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (self.value(a), self.value(b));
        assert_eq!(ta.shape(), tb.shape(), "row_dot shape mismatch");
        let mut value = Tensor::zeros(ta.rows(), 1);
        for i in 0..ta.rows() {
            value[(i, 0)] = ta.row_dot(i, tb, i);
        }
        self.push(value, Op::RowDot(a, b))
    }

    // ------------------------------------------------------------------
    // Batched structure: row selection and CSR segments
    //
    // Each op computes every output row with the kernel, and in the order,
    // of the per-row op it batches (`concat_rows`/`slice_rows`,
    // `sum_rows`, `mean_rows`, `max_rows`, the `softmax(q·kᵀ·s)·v` chain),
    // so its forward values are bit-identical to running that op segment by
    // segment. `offsets` are CSR bounds: segment `s` is input rows
    // `offsets[s]..offsets[s + 1]`.
    // ------------------------------------------------------------------

    /// Stacks picked rows: output row `p` is row `picks[p].1` of
    /// `sources[picks[p].0]`. A row may be picked any number of times; its
    /// gradient is the sum over its picks.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty, their widths differ, or a pick is out
    /// of range.
    pub fn select_rows(&mut self, sources: &[Var], picks: &[(u32, u32)]) -> Var {
        assert!(!sources.is_empty(), "select_rows from zero sources");
        let cols = self.value(sources[0]).cols();
        let tensors: Vec<&Tensor> = sources.iter().map(|&v| self.value(v)).collect();
        assert!(
            tensors.iter().all(|t| t.cols() == cols),
            "select_rows: source widths differ"
        );
        let mut data = Vec::with_capacity(picks.len() * cols);
        for &(src, row) in picks {
            assert!(
                (src as usize) < tensors.len(),
                "select_rows: source {src} of {}",
                tensors.len()
            );
            let t = tensors[src as usize];
            assert!(
                (row as usize) < t.rows(),
                "select_rows: row {row} out of bounds for source {src} with {} rows",
                t.rows()
            );
            data.extend_from_slice(t.row(row as usize));
        }
        let value = Tensor::from_vec(picks.len(), cols, data);
        self.push(
            value,
            Op::SelectRows {
                sources: sources.to_vec(),
                picks: picks.to_vec(),
            },
        )
    }

    /// Runs `kernel(segment rows, output row)` for every segment of `a`.
    fn segment_rows(
        &self,
        a: Var,
        offsets: &[usize],
        kernel: impl Fn(&[f32], &mut [f32]),
    ) -> Tensor {
        let src = self.value(a);
        assert_offsets("segment pooling", offsets, src.rows());
        let cols = src.cols();
        let mut value = Tensor::zeros(offsets.len() - 1, cols);
        for (s, out) in value
            .as_mut_slice()
            .chunks_exact_mut(cols.max(1))
            .enumerate()
        {
            let rows = segment(offsets, s);
            kernel(&src.as_slice()[rows.start * cols..rows.end * cols], out);
        }
        value
    }

    /// Column-wise sum of every segment: one `1 × d` row per segment, as
    /// [`Graph::sum_rows`] computes it (zeros for an empty segment).
    ///
    /// # Panics
    ///
    /// Panics unless `offsets` are CSR bounds over `a`'s rows.
    pub fn segment_sum(&mut self, a: Var, offsets: &[usize]) -> Var {
        let value = self.segment_rows(a, offsets, sum_rows_into);
        self.push(value, Op::SegmentSum(a, offsets.to_vec()))
    }

    /// Column-wise mean of every segment, as [`Graph::mean_rows`] computes
    /// it (zeros for an empty segment).
    ///
    /// # Panics
    ///
    /// Panics unless `offsets` are CSR bounds over `a`'s rows.
    pub fn segment_mean(&mut self, a: Var, offsets: &[usize]) -> Var {
        let value = self.segment_rows(a, offsets, mean_rows_into);
        self.push(value, Op::SegmentMean(a, offsets.to_vec()))
    }

    /// Column-wise maximum of every segment, as [`Graph::max_rows`]
    /// computes it; the gradient goes to the first arg-max row.
    ///
    /// # Panics
    ///
    /// Panics unless `offsets` are CSR bounds over `a`'s rows with no empty
    /// segment.
    pub fn segment_max(&mut self, a: Var, offsets: &[usize]) -> Var {
        assert!(
            offsets.windows(2).all(|w| w[0] < w[1]),
            "segment_max of an empty segment"
        );
        let value = self.segment_rows(a, offsets, max_rows_into);
        self.push(value, Op::SegmentMax(a, offsets.to_vec()))
    }

    /// Self-attention weights of every segment:
    /// `A_s = softmax_rows(Q_s · K_sᵀ · scale)`, computed as
    /// `softmax_rows(scale(matmul(q, transpose(k))))` would per segment.
    /// The value packs the row-major `n_s × n_s` blocks into one
    /// `Σ n_s² × 1` column, in segment order.
    ///
    /// # Panics
    ///
    /// Panics if `q` and `k` differ in shape or `offsets` are not CSR
    /// bounds over their rows.
    pub fn segment_attention(&mut self, q: Var, k: Var, offsets: &[usize], scale: f32) -> Var {
        let (tq, tk) = (self.value(q), self.value(k));
        assert_eq!(
            tq.shape(),
            tk.shape(),
            "segment_attention: q/k shape mismatch"
        );
        assert_offsets("segment_attention", offsets, tq.rows());
        let d = tq.cols();
        let starts = packed_starts(offsets);
        let mut value = Tensor::zeros(starts[starts.len() - 1], 1);
        let out = value.as_mut_slice();
        for s in 0..offsets.len() - 1 {
            let rows = segment(offsets, s);
            let n = rows.len();
            let block = &mut out[starts[s]..starts[s + 1]];
            let (qs, ks) = (
                &tq.as_slice()[rows.start * d..rows.end * d],
                &tk.as_slice()[rows.start * d..rows.end * d],
            );
            matmul_transposed_into(qs, ks, block, (n, d, n));
            for v in block.iter_mut() {
                *v *= scale;
            }
            for row in block.chunks_exact_mut(n.max(1)) {
                softmax_row(row);
            }
        }
        self.push(
            value,
            Op::SegmentAttention {
                q,
                k,
                offsets: offsets.to_vec(),
                scale,
            },
        )
    }

    /// Applies packed per-segment weights (a [`Graph::segment_attention`]
    /// value) to `v`: output rows of segment `s` are `A_s · V_s`, as
    /// `matmul(attn, v)` computes them.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` are not CSR bounds over `v`'s rows or `attn` is
    /// not the matching `Σ n_s² × 1` column.
    pub fn segment_apply(&mut self, attn: Var, v: Var, offsets: &[usize]) -> Var {
        let (ta, tv) = (self.value(attn), self.value(v));
        assert_offsets("segment_apply", offsets, tv.rows());
        let starts = packed_starts(offsets);
        assert_eq!(
            (ta.rows(), ta.cols()),
            (starts[starts.len() - 1], 1),
            "segment_apply: weights do not match the segments"
        );
        let d = tv.cols();
        let mut value = Tensor::zeros(tv.rows(), d);
        let out = value.as_mut_slice();
        for s in 0..offsets.len() - 1 {
            let rows = segment(offsets, s);
            let n = rows.len();
            matmul_into(
                &ta.as_slice()[starts[s]..starts[s + 1]],
                &tv.as_slice()[rows.start * d..rows.end * d],
                &mut out[rows.start * d..rows.end * d],
                (n, n, d),
            );
        }
        self.push(
            value,
            Op::SegmentApply {
                attn,
                v,
                offsets: offsets.to_vec(),
            },
        )
    }

    // ------------------------------------------------------------------
    // Losses
    // ------------------------------------------------------------------

    /// Mean negative log-sigmoid loss: `mean_i -log σ(labels[i] · scores[i])`.
    ///
    /// `labels` must be ±1: +1 for positive pairs, −1 for negative samples.
    /// This is the skip-gram-with-negative-sampling objective of the paper's
    /// Eq. 13 applied to a batch of scored pairs.
    ///
    /// # Panics
    ///
    /// Panics unless `scores` is `n × 1` with `n == labels.len()`.
    pub fn logistic_loss(&mut self, scores: Var, labels: &[f32]) -> Var {
        let s = self.value(scores);
        assert_eq!(s.cols(), 1, "scores must be a column");
        assert_eq!(s.rows(), labels.len(), "labels length mismatch");
        debug_assert!(labels.iter().all(|&l| l == 1.0 || l == -1.0));
        let n = labels.len().max(1) as f32;
        let loss = -labels
            .iter()
            .zip(s.as_slice())
            .map(|(&y, &sc)| mhg_tensor::log_sigmoid(y * sc))
            .sum::<f32>()
            / n;
        self.push(
            Tensor::from_vec(1, 1, vec![loss]),
            Op::LogisticLoss {
                scores,
                labels: labels.to_vec(),
            },
        )
    }

    /// Sum of all entries, producing `1 × 1` (for L2 penalties).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Tensor::from_vec(1, 1, vec![self.value(a).sum()]);
        self.push(value, Op::SumAll(a))
    }

    /// Convenience: `0.5 · λ · ‖a‖²` as a `1 × 1` loss term.
    pub fn l2_penalty(&mut self, a: Var, lambda: f32) -> Var {
        let sq = self.mul(a, a);
        let s = self.sum_all(sq);
        self.scale(s, 0.5 * lambda)
    }

    /// The scalar value of a `1 × 1` variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable is not `1 × 1`.
    pub fn scalar(&self, v: Var) -> f32 {
        let t = self.value(v);
        assert_eq!((t.rows(), t.cols()), (1, 1), "scalar() on non-scalar");
        t.as_slice()[0]
    }
}
