//! Optimizers: SGD and (sparse-aware) Adam.
//!
//! The sparse-aware Adam mirrors "lazy Adam": for embedding tables whose
//! gradients arrive as sparse rows, only the touched rows' moment estimates
//! and values are updated. This matches how the paper's PyTorch
//! implementation would treat `sparse=True` embedding gradients and keeps an
//! epoch over a 100k-node table tractable on CPU.

use std::collections::BTreeMap;

use mhg_tensor::Tensor;

use crate::store::{row_pairs, Grad, GradStore, ParamId, ParamStore};

/// Common optimizer interface.
pub trait Optimizer {
    /// Applies one update step from accumulated gradients.
    fn step(&mut self, params: &mut ParamStore, grads: &GradStore);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr }
    }

    /// Serialises the optimizer state (just the learning rate — SGD keeps
    /// no moments) into `dict` under `prefix`.
    pub fn export_state(&self, prefix: &str, dict: &mut mhg_ckpt::StateDict) {
        dict.put_u64(format!("{prefix}/lr"), u64::from(self.lr.to_bits()));
    }

    /// Restores state exported by [`Sgd::export_state`].
    pub fn import_state(
        &mut self,
        prefix: &str,
        dict: &mhg_ckpt::StateDict,
    ) -> Result<(), mhg_ckpt::CkptError> {
        let key = format!("{prefix}/lr");
        self.lr = f32::from_bits(u32_entry(dict.u64(&key)?, &key)?);
        Ok(())
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamStore, grads: &GradStore) {
        for (id, grad) in grads.iter() {
            let value = params.value_mut(id);
            match grad {
                Grad::Dense(g) => value.axpy(-self.lr, g),
                Grad::Rows { cols, rows, data } => {
                    for (r, g) in row_pairs(rows, data, *cols) {
                        for (v, gv) in value.row_mut(r).iter_mut().zip(g) {
                            *v -= self.lr * gv;
                        }
                    }
                }
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Per-parameter Adam state.
struct AdamState {
    m: Tensor,
    v: Tensor,
    /// Per-row step counts for sparse (lazy) bias correction.
    row_steps: Vec<u32>,
    /// Global step count for dense updates.
    step: u32,
}

/// Adam optimizer with lazy (sparse-aware) updates for row gradients.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    states: BTreeMap<ParamId, AdamState>,
    corrections: Corrections,
}

impl Adam {
    /// Creates Adam with the paper's defaults (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    /// Creates Adam with explicit hyper-parameters.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Self {
            lr,
            beta1,
            beta2,
            eps,
            states: BTreeMap::new(),
            corrections: Corrections::default(),
        }
    }

    /// Serialises every per-parameter moment estimate into `dict` under
    /// `prefix` (the state map is ordered by id, so the encoding is
    /// deterministic).
    pub fn export_state(&self, prefix: &str, dict: &mut mhg_ckpt::StateDict) {
        let ids: Vec<u32> = self.states.keys().map(|id| id.0).collect();
        dict.put_u64s(
            format!("{prefix}/ids"),
            ids.iter().map(|&i| u64::from(i)).collect(),
        );
        for raw in ids {
            let state = &self.states[&ParamId(raw)];
            dict.put_tensor(format!("{prefix}/{raw}/m"), state.m.clone());
            dict.put_tensor(format!("{prefix}/{raw}/v"), state.v.clone());
            dict.put_u64s(
                format!("{prefix}/{raw}/rows"),
                state.row_steps.iter().map(|&s| u64::from(s)).collect(),
            );
            dict.put_u64(format!("{prefix}/{raw}/step"), u64::from(state.step));
        }
    }

    /// Restores the moment estimates exported by [`Adam::export_state`],
    /// replacing any current state.
    pub fn import_state(
        &mut self,
        prefix: &str,
        dict: &mhg_ckpt::StateDict,
    ) -> Result<(), mhg_ckpt::CkptError> {
        let ids = dict.u64s(&format!("{prefix}/ids"))?.to_vec();
        let mut states = BTreeMap::new();
        for raw64 in ids {
            let raw = u32::try_from(raw64).map_err(|_| {
                mhg_ckpt::CkptError::WrongType(format!("{prefix}/ids entry {raw64}"))
            })?;
            let m = dict.tensor(&format!("{prefix}/{raw}/m"))?.clone();
            let v = dict.tensor(&format!("{prefix}/{raw}/v"))?.clone();
            let rows = dict.u64s(&format!("{prefix}/{raw}/rows"))?;
            if v.rows() != m.rows() || v.cols() != m.cols() || rows.len() != m.rows() {
                return Err(mhg_ckpt::CkptError::ShapeMismatch(format!(
                    "adam state for parameter {raw}"
                )));
            }
            let rows_key = format!("{prefix}/{raw}/rows");
            let row_steps = rows
                .iter()
                .map(|&s| u32_entry(s, &rows_key))
                .collect::<Result<_, _>>()?;
            let step_key = format!("{prefix}/{raw}/step");
            let step = u32_entry(dict.u64(&step_key)?, &step_key)?;
            states.insert(
                ParamId(raw),
                AdamState {
                    m,
                    v,
                    row_steps,
                    step,
                },
            );
        }
        self.states = states;
        Ok(())
    }
}

fn state_for(
    states: &mut BTreeMap<ParamId, AdamState>,
    id: ParamId,
    shape: (usize, usize),
) -> &mut AdamState {
    states.entry(id).or_insert_with(|| AdamState {
        m: Tensor::zeros(shape.0, shape.1),
        v: Tensor::zeros(shape.0, shape.1),
        row_steps: vec![0; shape.0],
        step: 0,
    })
}

/// `(lr, β₁, β₂, ε)`.
type AdamHyper = (f32, f32, f32, f32);

/// One Adam update of parameter entries `p` from gradient `g` and their
/// moments `m`, `v`, with bias corrections `(bc1, bc2)`.
fn adam_update(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    (lr, b1, b2, eps): AdamHyper,
    (bc1, bc2): (f32, f32),
) {
    for (((p, gv), mv), vv) in p.iter_mut().zip(g).zip(m).zip(v) {
        *mv = b1 * *mv + (1.0 - b1) * gv;
        *vv = b2 * *vv + (1.0 - b2) * gv * gv;
        let m_hat = *mv / bc1;
        let v_hat = *vv / bc2;
        *p -= lr * m_hat / (v_hat.sqrt() + eps);
    }
}

/// Memoized bias corrections: entry `t` is `(1 − β₁ᵗ, 1 − β₂ᵗ)`. A lazy
/// update needs them per touched row, and `powf` is the costliest part of
/// a row update at `d_h = 8`; a table lookup returns the same bits.
#[derive(Default)]
struct Corrections(Vec<(f32, f32)>);

impl Corrections {
    fn get(&mut self, t: u32, (_, b1, b2, _): AdamHyper) -> (f32, f32) {
        let t = t as usize;
        while self.0.len() <= t {
            let s = self.0.len() as f32;
            self.0.push((1.0 - b1.powf(s), 1.0 - b2.powf(s)));
        }
        self.0[t]
    }
}

/// A u64 checkpoint entry of `key` as a u32, or `WrongType` naming the key.
fn u32_entry(value: u64, key: &str) -> Result<u32, mhg_ckpt::CkptError> {
    u32::try_from(value)
        .map_err(|_| mhg_ckpt::CkptError::WrongType(format!("{key}: {value} does not fit a u32")))
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamStore, grads: &GradStore) {
        let hyper = (self.lr, self.beta1, self.beta2, self.eps);
        for (id, grad) in grads.iter() {
            let shape = {
                let v = params.value(id);
                (v.rows(), v.cols())
            };
            let state = state_for(&mut self.states, id, shape);
            let value = params.value_mut(id);
            match grad {
                Grad::Dense(g) => {
                    state.step += 1;
                    let bc = self.corrections.get(state.step, hyper);
                    let (m, v) = (state.m.as_mut_slice(), state.v.as_mut_slice());
                    adam_update(value.as_mut_slice(), g.as_slice(), m, v, hyper, bc);
                }
                Grad::Rows { cols, rows, data } => {
                    for (r, g) in row_pairs(rows, data, *cols) {
                        state.row_steps[r] += 1;
                        let bc = self.corrections.get(state.row_steps[r], hyper);
                        let (m, v) = (state.m.row_mut(r), state.v.row_mut(r));
                        adam_update(value.row_mut(r), g, m, v, hyper, bc);
                    }
                }
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    /// Minimises f(w) = (w − 3)² over a 1×1 parameter.
    fn converges_to_three(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut params = ParamStore::new();
        let w = params.register("w", Tensor::from_vec(1, 1, vec![0.0]));
        for _ in 0..steps {
            let mut g = Graph::new(&params);
            let wv = g.param(w);
            let target = g.constant(Tensor::from_vec(1, 1, vec![3.0]));
            let diff = g.sub(wv, target);
            let sq = g.mul(diff, diff);
            let loss = g.sum_all(sq);
            let grads = g.backward(loss);
            opt.step(&mut params, &grads);
        }
        params.value(w)[(0, 0)]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        let w = converges_to_three(&mut opt, 200);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let w = converges_to_three(&mut opt, 500);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn sparse_adam_only_touches_gathered_rows() {
        let mut params = ParamStore::new();
        let table = params.register("emb", Tensor::zeros(4, 2));
        let mut opt = Adam::new(0.05);
        // Pull row 2 toward (1, 1); rows 0, 1, 3 must stay exactly zero.
        for _ in 0..100 {
            let mut g = Graph::new(&params);
            let rows = g.gather(table, &[2]);
            let target = g.constant(Tensor::from_rows(&[&[1.0, 1.0]]));
            let diff = g.sub(rows, target);
            let sq = g.mul(diff, diff);
            let loss = g.sum_all(sq);
            let grads = g.backward(loss);
            opt.step(&mut params, &grads);
        }
        let t = params.value(table);
        assert!(t.row(0).iter().all(|&v| v == 0.0));
        assert!(t.row(1).iter().all(|&v| v == 0.0));
        assert!(t.row(3).iter().all(|&v| v == 0.0));
        assert!(t.row(2).iter().all(|&v| (v - 1.0).abs() < 0.05), "{t:?}");
    }

    /// An exported Adam state with one dense and one sparse parameter.
    fn adam_state() -> mhg_ckpt::StateDict {
        let mut params = ParamStore::new();
        let w = params.register("w", Tensor::from_vec(1, 1, vec![0.0]));
        let table = params.register("emb", Tensor::zeros(3, 2));
        let mut opt = Adam::new(0.1);
        let mut g = Graph::new(&params);
        let wv = g.param(w);
        let rows = g.gather(table, &[1]);
        let a = g.sum_all(wv);
        let b = g.sum_all(rows);
        let loss = g.add(a, b);
        let grads = g.backward(loss);
        opt.step(&mut params, &grads);
        let mut dict = mhg_ckpt::StateDict::new();
        opt.export_state("opt", &mut dict);
        dict
    }

    fn wrong_type_key(err: mhg_ckpt::CkptError) -> String {
        match err {
            mhg_ckpt::CkptError::WrongType(msg) => msg,
            other => panic!("expected WrongType, got {other:?}"),
        }
    }

    #[test]
    fn adam_state_roundtrips() {
        let dict = adam_state();
        let mut opt = Adam::new(0.1);
        opt.import_state("opt", &dict).unwrap();
        let mut again = mhg_ckpt::StateDict::new();
        opt.export_state("opt", &mut again);
        assert_eq!(again.u64s("opt/1/rows").unwrap(), &[0, 1, 0]);
        assert_eq!(again.u64("opt/0/step").unwrap(), 1);
    }

    #[test]
    fn adam_import_rejects_counters_beyond_u32() {
        let too_big = u64::from(u32::MAX) + 1;
        let mut dict = adam_state();
        dict.put_u64s("opt/1/rows", vec![0, too_big, 0]);
        let err = Adam::new(0.1).import_state("opt", &dict).unwrap_err();
        assert!(wrong_type_key(err).contains("opt/1/rows"));

        let mut dict = adam_state();
        dict.put_u64("opt/0/step", too_big);
        let err = Adam::new(0.1).import_state("opt", &dict).unwrap_err();
        assert!(wrong_type_key(err).contains("opt/0/step"));
    }

    #[test]
    fn sgd_import_rejects_a_learning_rate_beyond_u32() {
        let mut dict = mhg_ckpt::StateDict::new();
        Sgd::new(0.5).export_state("opt", &mut dict);
        let mut opt = Sgd::new(0.1);
        opt.import_state("opt", &dict).unwrap();
        assert_eq!(opt.learning_rate(), 0.5);

        dict.put_u64("opt/lr", u64::from(u32::MAX) + 1);
        let err = opt.import_state("opt", &dict).unwrap_err();
        assert!(wrong_type_key(err).contains("opt/lr"));
        assert_eq!(
            opt.learning_rate(),
            0.5,
            "a rejected import changes nothing"
        );
    }

    #[test]
    fn learning_rate_override() {
        let mut opt = Sgd::new(0.5);
        assert_eq!(opt.learning_rate(), 0.5);
        opt.set_learning_rate(0.25);
        assert_eq!(opt.learning_rate(), 0.25);
    }
}
