//! Parameter storage and gradient accumulation.
//!
//! Parameters (embedding tables, weight matrices) live outside the per-step
//! tape in a [`ParamStore`], so that large embedding tables are never copied
//! onto the tape: the tape only ever *gathers* the rows a batch touches.
//! Gradients accumulate into a [`GradStore`], which keeps embedding-table
//! gradients sparse (per-row) — the optimizer then only updates touched rows.

use std::fmt;

use mhg_tensor::Tensor;

/// Identifier of a parameter tensor inside a [`ParamStore`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ParamId(pub(crate) u32);

impl ParamId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Owns all trainable tensors of a model.
#[derive(Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its id.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.values.len() as u32);
        self.names.push(name.into());
        self.values.push(value);
        id
    }

    /// Immutable access to a parameter's value.
    #[inline]
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.index()]
    }

    /// Mutable access to a parameter's value (used by optimizers).
    #[inline]
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.index()]
    }

    /// The parameter's registered name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.index()]
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(id, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ParamId(i as u32), self.names[i].as_str(), v))
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::len).sum()
    }

    /// Serialises every parameter tensor into `dict` under
    /// `"<prefix>/<index>"` (plus a `"<prefix>/n"` count), for
    /// checkpointing. Registration order is the identity of a parameter, so
    /// indices — not names — key the entries.
    pub fn export_state(&self, prefix: &str, dict: &mut mhg_ckpt::StateDict) {
        dict.put_u64(format!("{prefix}/n"), self.len() as u64);
        for (id, _name, value) in self.iter() {
            dict.put_tensor(format!("{prefix}/{}", id.index()), value.clone());
        }
    }

    /// Restores parameter values exported by [`ParamStore::export_state`]
    /// into an already-registered store. The checkpoint must describe the
    /// same architecture: same parameter count, same shapes.
    pub fn import_state(
        &mut self,
        prefix: &str,
        dict: &mhg_ckpt::StateDict,
    ) -> Result<(), mhg_ckpt::CkptError> {
        let n = dict.u64(&format!("{prefix}/n"))? as usize;
        if n != self.len() {
            return Err(mhg_ckpt::CkptError::ShapeMismatch(format!(
                "store has {} parameters, checkpoint has {n}",
                self.len()
            )));
        }
        for i in 0..n {
            let src = dict.tensor(&format!("{prefix}/{i}"))?;
            let dst = &mut self.values[i];
            if src.rows() != dst.rows() || src.cols() != dst.cols() {
                return Err(mhg_ckpt::CkptError::ShapeMismatch(format!(
                    "parameter `{}` is {}x{}, checkpoint entry is {}x{}",
                    self.names[i],
                    dst.rows(),
                    dst.cols(),
                    src.rows(),
                    src.cols()
                )));
            }
            *dst = src.clone();
        }
        Ok(())
    }
}

impl fmt::Debug for ParamStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("ParamStore");
        for (id, name, v) in self.iter() {
            d.field(name, &format_args!("#{} {}", id.index(), v.shape()));
        }
        d.finish()
    }
}

/// Gradient of one parameter: dense, or sparse rows for embedding tables.
#[derive(Debug, Clone)]
pub enum Grad {
    /// Dense gradient with the parameter's full shape.
    Dense(Tensor),
    /// Sparse row gradients of an embedding table, stored flat.
    Rows {
        /// Width of every gradient row.
        cols: usize,
        /// The touched table rows, strictly ascending (so iteration order —
        /// and anything serialized or reduced from it — is deterministic).
        rows: Vec<u32>,
        /// `rows.len() × cols` entries: gradient row `k` (at
        /// `data[k * cols..(k + 1) * cols]`) belongs to table row `rows[k]`.
        data: Vec<f32>,
    },
}

impl Grad {
    /// Sum of squared entries (for global-norm clipping).
    pub fn norm_sq(&self) -> f32 {
        match self {
            Grad::Dense(t) => t.norm_sq(),
            Grad::Rows { cols, rows, data } => row_pairs(rows, data, *cols)
                .map(|(_, r)| r.iter().map(|v| v * v).sum::<f32>())
                .sum(),
        }
    }

    /// Scales the gradient in place.
    pub fn scale_in_place(&mut self, s: f32) {
        let values = match self {
            Grad::Dense(t) => t.as_mut_slice(),
            Grad::Rows { data, .. } => data.as_mut_slice(),
        };
        for v in values {
            *v *= s;
        }
    }
}

/// Iterates `(table row, gradient row)` over a [`Grad::Rows`] layout.
pub(crate) fn row_pairs<'a>(
    rows: &'a [u32],
    data: &'a [f32],
    cols: usize,
) -> impl Iterator<Item = (usize, &'a [f32])> {
    rows.iter()
        .enumerate()
        .map(move |(k, &r)| (r as usize, &data[k * cols..(k + 1) * cols]))
}

/// Accumulated gradients for a training step, indexed by [`ParamId`].
#[derive(Default, Debug)]
pub struct GradStore {
    grads: Vec<Option<Grad>>,
}

impl GradStore {
    /// Creates an empty gradient store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The gradient for `id`, if any part of the model touched it.
    pub fn get(&self, id: ParamId) -> Option<&Grad> {
        self.grads.get(id.index()).and_then(Option::as_ref)
    }

    /// Iterates over `(id, grad)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Grad)> {
        self.grads
            .iter()
            .enumerate()
            .filter_map(|(i, g)| Some((ParamId(i as u32), g.as_ref()?)))
    }

    /// Mutable iteration in ascending id order (used by clipping).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ParamId, &mut Grad)> {
        self.grads
            .iter_mut()
            .enumerate()
            .filter_map(|(i, g)| Some((ParamId(i as u32), g.as_mut()?)))
    }

    /// Number of parameters with gradients.
    pub fn len(&self) -> usize {
        self.grads.iter().flatten().count()
    }

    /// Whether no gradients were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Global L2 norm across all stored gradients.
    pub fn global_norm(&self) -> f32 {
        self.iter().map(|(_, g)| g.norm_sq()).sum::<f32>().sqrt()
    }

    /// Clips gradients so the global norm is at most `max_norm`.
    ///
    /// Returns the pre-clip norm.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for (_, g) in self.iter_mut() {
                g.scale_in_place(s);
            }
        }
        norm
    }

    /// Converts the gradient of `id` to a dense tensor of shape `shape`
    /// (zeros where untouched). Test helper.
    pub fn to_dense(&self, id: ParamId, rows: usize, cols: usize) -> Tensor {
        let mut out = Tensor::zeros(rows, cols);
        match self.get(id) {
            None => {}
            Some(Grad::Dense(t)) => out = t.clone(),
            Some(Grad::Rows {
                cols: width,
                rows: ids,
                data,
            }) => {
                for (r, g) in row_pairs(ids, data, *width) {
                    for (o, v) in out.row_mut(r).iter_mut().zip(g) {
                        *o += v;
                    }
                }
            }
        }
        out
    }
}

/// Marks a table row with no slot in a [`RowIndex`].
const NO_SLOT: u32 = u32::MAX;

/// Row → slot maps of the embedding tables, by parameter id. Every entry is
/// [`NO_SLOT`] between backward passes, so one set of maps serves every
/// pass on a thread without being cleared in full.
pub(crate) type RowIndex = Vec<Vec<u32>>;

/// One parameter's gradient while a backward pass is still summing it.
enum Partial {
    Dense(Tensor),
    Rows(RowAccum),
}

/// Sparse row gradient of one table under accumulation: rows live in slots
/// in first-touch order and are sorted once, in [`GradAccumulator::finish`].
struct RowAccum {
    cols: usize,
    /// Table row of each slot.
    rows: Vec<u32>,
    /// Slot-major gradient rows, `rows.len() × cols`.
    data: Vec<f32>,
    /// The last gather (by serial number) that touched each slot.
    seen: Vec<u32>,
    /// For a slot touched by the current gather: where its partial sits in
    /// [`GradAccumulator::partial`], or [`NO_SLOT`] when the slot was
    /// created by this gather and its data *is* the partial.
    partial_at: Vec<u32>,
    /// Serial number of the current gather.
    gather: u32,
}

impl RowAccum {
    fn new(cols: usize) -> Self {
        Self {
            cols,
            rows: Vec::new(),
            data: Vec::new(),
            seen: Vec::new(),
            partial_at: Vec::new(),
            gather: 0,
        }
    }

    /// Appends a slot for table row `row`, its data `0.0 + src` (so a
    /// `-0.0` entry becomes `+0.0`, as a sum started at zero would).
    fn new_slot(&mut self, index: &mut [u32], row: u32, src: &[f32]) {
        index[row as usize] = self.rows.len() as u32;
        self.rows.push(row);
        self.seen.push(self.gather);
        self.partial_at.push(NO_SLOT);
        self.data.extend(src.iter().map(|v| 0.0 + v));
    }

    fn slot_mut(&mut self, slot: usize) -> &mut [f32] {
        &mut self.data[slot * self.cols..(slot + 1) * self.cols]
    }
}

/// Sums the parameter gradients of one backward pass, in the order the
/// pass delivers them, into a [`GradStore`].
///
/// The summation order is the contract (it fixes every bit of the result):
///
/// * a parameter's first contribution fixes its representation: a whole
///   [`Graph::param`](crate::Graph::param) use makes it [`Grad::Dense`], a
///   non-empty [`Graph::gather`](crate::Graph::gather) makes it
///   [`Grad::Rows`];
/// * a gather into a dense gradient adds each gathered row straight into
///   its destination row, in gather order (`Tensor::scatter_add_rows`);
/// * a gather into a row gradient first sums its own rows per destination
///   row, starting at `0.0` and in gather order, and then adds each such
///   partial into the row total (a new row's total *is* its partial);
/// * a dense contribution to a row gradient adds every table row into the
///   row total, starting new rows at `0.0`.
pub(crate) struct GradAccumulator<'w> {
    grads: Vec<Option<Partial>>,
    index: &'w mut RowIndex,
    /// Slots holding a partial for the current gather, in first-touch order.
    partial_slots: Vec<u32>,
    /// Their partials, `partial_slots.len() × cols`.
    partial: Vec<f32>,
}

impl<'w> GradAccumulator<'w> {
    /// An empty accumulator for a store of `num_params` parameters, whose
    /// row maps live in `index` (all entries [`NO_SLOT`]).
    pub(crate) fn new(num_params: usize, index: &'w mut RowIndex) -> Self {
        if index.len() < num_params {
            index.resize_with(num_params, Vec::new);
        }
        Self {
            grads: (0..num_params).map(|_| None).collect(),
            index,
            partial_slots: Vec::new(),
            partial: Vec::new(),
        }
    }

    /// Adds a dense gradient (`shape` of the parameter, row-major `grad`).
    ///
    /// # Panics
    ///
    /// Panics if the width mismatches an existing gradient for `id`.
    pub(crate) fn dense(&mut self, id: ParamId, shape: mhg_tensor::Shape, grad: &[f32]) {
        assert_eq!(grad.len(), shape.rows * shape.cols, "dense gradient length");
        let index = &mut self.index[id.index()];
        match &mut self.grads[id.index()] {
            slot @ None => {
                *slot = Some(Partial::Dense(Tensor::from_vec(
                    shape.rows,
                    shape.cols,
                    grad.to_vec(),
                )));
            }
            Some(Partial::Dense(existing)) => {
                assert_eq!(existing.shape(), shape, "gradient shape mismatch");
                for (e, g) in existing.as_mut_slice().iter_mut().zip(grad) {
                    *e += g;
                }
            }
            Some(Partial::Rows(acc)) => {
                assert_eq!(acc.cols, shape.cols, "gradient width mismatch");
                if index.len() < shape.rows {
                    index.resize(shape.rows, NO_SLOT);
                }
                let cols = shape.cols;
                for r in 0..shape.rows {
                    let src = &grad[r * cols..(r + 1) * cols];
                    match index[r] {
                        NO_SLOT => acc.new_slot(index, r as u32, src),
                        slot => {
                            for (e, g) in acc.slot_mut(slot as usize).iter_mut().zip(src) {
                                *e += g;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Adds the gradient of a gathered batch: row `r` of `grad`
    /// (`indices.len() × cols`, row-major) belongs to row `indices[r]` of
    /// the `table_rows`-row parameter `id`.
    ///
    /// # Panics
    ///
    /// Panics on a length or width mismatch, or an out-of-range index.
    pub(crate) fn gather(
        &mut self,
        id: ParamId,
        table_rows: usize,
        indices: &[u32],
        cols: usize,
        grad: &[f32],
    ) {
        assert_eq!(
            indices.len() * cols,
            grad.len(),
            "gather gradient: {} indices of width {cols} for {} entries",
            indices.len(),
            grad.len()
        );
        if indices.is_empty() {
            return;
        }
        let index = &mut self.index[id.index()];
        if index.len() < table_rows {
            index.resize(table_rows, NO_SLOT);
        }
        let acc = match self.grads[id.index()]
            .get_or_insert_with(|| Partial::Rows(RowAccum::new(cols)))
        {
            Partial::Dense(existing) => {
                // Rare (a table first reached as a whole `param`), so the
                // copy into a tensor is not worth a second kernel.
                let src = Tensor::from_vec(indices.len(), cols, grad.to_vec());
                existing.scatter_add_rows(indices, &src);
                return;
            }
            Partial::Rows(acc) => acc,
        };
        assert_eq!(acc.cols, cols, "gradient width mismatch");
        acc.gather += 1;
        for (r, &idx) in indices.iter().enumerate() {
            let src = &grad[r * cols..(r + 1) * cols];
            let slot = match index[idx as usize] {
                NO_SLOT => {
                    acc.new_slot(index, idx, src);
                    continue;
                }
                slot => slot as usize,
            };
            let dst = if acc.seen[slot] != acc.gather {
                // First time this gather meets an existing row: open a
                // partial for it.
                acc.seen[slot] = acc.gather;
                acc.partial_at[slot] = self.partial_slots.len() as u32;
                self.partial_slots.push(slot as u32);
                self.partial.extend(src.iter().map(|v| 0.0 + v));
                continue;
            } else if acc.partial_at[slot] == NO_SLOT {
                acc.slot_mut(slot)
            } else {
                let at = acc.partial_at[slot] as usize;
                &mut self.partial[at * cols..(at + 1) * cols]
            };
            for (d, v) in dst.iter_mut().zip(src) {
                *d += v;
            }
        }
        for (k, &slot) in self.partial_slots.iter().enumerate() {
            let src = &self.partial[k * cols..(k + 1) * cols];
            for (d, v) in acc.slot_mut(slot as usize).iter_mut().zip(src) {
                *d += v;
            }
            acc.partial_at[slot as usize] = NO_SLOT;
        }
        self.partial_slots.clear();
        self.partial.clear();
    }

    /// Sorts every row gradient by table row, returns the gradients and
    /// resets the row maps for the next pass.
    pub(crate) fn finish(self) -> GradStore {
        let grads = self
            .grads
            .into_iter()
            .zip(self.index.iter_mut())
            .map(|(partial, index)| match partial? {
                Partial::Dense(t) => Some(Grad::Dense(t)),
                Partial::Rows(acc) => {
                    let mut order: Vec<(u32, u32)> = acc
                        .rows
                        .iter()
                        .enumerate()
                        .map(|(slot, &row)| (row, slot as u32))
                        .collect();
                    order.sort_unstable();
                    let cols = acc.cols;
                    let mut rows = Vec::with_capacity(order.len());
                    let mut data = Vec::with_capacity(acc.data.len());
                    for (row, slot) in order {
                        index[row as usize] = NO_SLOT;
                        rows.push(row);
                        let slot = slot as usize;
                        data.extend_from_slice(&acc.data[slot * cols..(slot + 1) * cols]);
                    }
                    Some(Grad::Rows { cols, rows, data })
                }
            })
            .collect();
        GradStore { grads }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::zeros(2, 3));
        assert_eq!(store.name(id), "w");
        assert_eq!(store.value(id).shape().rows, 2);
        assert_eq!(store.len(), 1);
        assert_eq!(store.num_scalars(), 6);
    }

    fn shape(rows: usize, cols: usize) -> mhg_tensor::Shape {
        mhg_tensor::Shape::new(rows, cols)
    }

    #[test]
    fn dense_accumulation_adds() {
        let mut index = RowIndex::new();
        let mut acc = GradAccumulator::new(1, &mut index);
        let id = ParamId(0);
        acc.dense(id, shape(2, 2), &[1.0; 4]);
        acc.dense(id, shape(2, 2), &[2.0; 4]);
        let d = acc.finish().to_dense(id, 2, 2);
        assert_eq!(d, Tensor::full(2, 2, 3.0));
    }

    #[test]
    fn gathered_rows_are_sparse_sorted_and_flat() {
        let mut index = RowIndex::new();
        let mut acc = GradAccumulator::new(2, &mut index);
        let id = ParamId(1);
        acc.gather(id, 6, &[5, 0, 5], 2, &[1.0, 2.0, 3.0, 0.0, 1.0, 2.0]);
        let gs = acc.finish();
        match gs.get(id).unwrap() {
            Grad::Rows { cols, rows, data } => {
                assert_eq!(*cols, 2);
                assert_eq!(rows, &[0, 5]);
                assert_eq!(data, &[3.0, 0.0, 2.0, 4.0]);
            }
            _ => panic!("expected sparse grad"),
        }
        assert!(gs.get(ParamId(0)).is_none());
        assert_eq!(gs.len(), 1);
        // finish() leaves the row map clear for the next pass.
        assert!(index.iter().flatten().all(|&s| s == NO_SLOT));
    }

    #[test]
    fn mixed_dense_and_rows() {
        let mut index = RowIndex::new();
        let mut acc = GradAccumulator::new(1, &mut index);
        let id = ParamId(0);
        acc.gather(id, 3, &[1], 2, &[1.0, 1.0]);
        acc.dense(id, shape(3, 2), &[0.5; 6]);
        let gs = acc.finish();
        assert!(matches!(gs.get(id), Some(Grad::Rows { rows, .. }) if rows == &[0, 1, 2]));
        let d = gs.to_dense(id, 3, 2);
        assert_eq!(d.row(0), &[0.5, 0.5]);
        assert_eq!(d.row(1), &[1.5, 1.5]);
    }

    #[test]
    fn clip_reduces_norm() {
        let mut index = RowIndex::new();
        let mut acc = GradAccumulator::new(1, &mut index);
        acc.dense(ParamId(0), shape(1, 4), &[3.0; 4]); // norm 6
        let mut gs = acc.finish();
        let pre = gs.clip_global_norm(1.0);
        assert!((pre - 6.0).abs() < 1e-5);
        assert!((gs.global_norm() - 1.0).abs() < 1e-5);
        // A second clip with a larger bound is a no-op.
        let pre2 = gs.clip_global_norm(5.0);
        assert!((pre2 - 1.0).abs() < 1e-5);
    }
}
