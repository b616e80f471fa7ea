//! Negative tests for the `checked`-mode sanitizer: malformed tapes and
//! poisoned values must be rejected with a diagnostic, not a slice panic or
//! a silent NaN. Compiled only under `--features checked`.

#![cfg(feature = "checked")]

use mhg_autograd::{Graph, ParamStore};
use mhg_tensor::Tensor;

#[test]
#[should_panic(expected = "dangling Var")]
fn dangling_var_in_op_is_rejected() {
    let params = ParamStore::new();
    let mut g = Graph::new(&params);
    let a = g.constant(Tensor::zeros(1, 2));
    // A Var forged out of thin air — e.g. one kept from a previous step's
    // graph — must be diagnosed, not read out of bounds.
    let ghost = Graph::forge_var(41);
    let _ = g.add(a, ghost);
}

#[test]
#[should_panic(expected = "dangling Var")]
fn dangling_loss_var_is_rejected_by_backward() {
    let params = ParamStore::new();
    let mut g = Graph::new(&params);
    let _ = g.constant(Tensor::zeros(1, 1));
    let ghost = Graph::forge_var(9);
    let _ = g.backward(ghost);
}

#[test]
#[should_panic(expected = "non-finite element")]
fn nan_poisoned_parameter_is_rejected_when_recorded() {
    let mut params = ParamStore::new();
    let w = params.register("w", Tensor::from_vec(1, 2, vec![1.0, f32::NAN]));
    let mut g = Graph::new(&params);
    let _ = g.param(w);
}

#[test]
#[should_panic(expected = "non-finite element")]
fn nan_poisoned_embedding_row_is_rejected_by_gather() {
    let mut params = ParamStore::new();
    let mut table = Tensor::zeros(4, 3);
    table[(2, 1)] = f32::INFINITY;
    let emb = params.register("emb", table);
    let mut g = Graph::new(&params);
    let _ = g.gather(emb, &[0, 2]);
}

#[test]
#[should_panic(expected = "out of bounds for parameter table")]
fn gather_index_out_of_bounds_is_rejected() {
    let mut params = ParamStore::new();
    let emb = params.register("emb", Tensor::zeros(4, 3));
    let mut g = Graph::new(&params);
    let _ = g.gather(emb, &[0, 4]);
}

#[test]
#[should_panic(expected = "non-finite")]
fn overflowing_forward_op_is_rejected() {
    let params = ParamStore::new();
    let mut g = Graph::new(&params);
    let big = g.constant(Tensor::full(1, 1, f32::MAX));
    // f32::MAX * f32::MAX overflows to +inf; the sanitizer must catch the
    // poisoned product at the op that produced it.
    let _ = g.mul(big, big);
}

#[test]
fn well_formed_tape_passes_validation() {
    let mut params = ParamStore::new();
    let w = params.register("w", Tensor::from_vec(2, 2, vec![0.5, -0.25, 1.0, 0.75]));
    let emb = params.register("emb", Tensor::from_vec(3, 2, vec![0.1; 6]));
    let mut g = Graph::new(&params);
    let x = g.gather(emb, &[0, 2]);
    let wv = g.param(w);
    let h = g.matmul(x, wv);
    let a = g.tanh(h);
    let s = g.row_dot(a, a);
    let loss = g.logistic_loss(s, &[1.0, -1.0]);
    g.validate_tape();
    let grads = g.backward(loss);
    g.validate_grads(&grads);
    assert!(grads.get(w).is_some());
    assert!(grads.get(emb).is_some());
}

#[test]
fn well_formed_batched_tape_passes_validation() {
    let mut params = ParamStore::new();
    let emb = params.register(
        "emb",
        Tensor::from_vec(4, 2, vec![0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8]),
    );
    let w = params.register("w", Tensor::from_vec(2, 2, vec![0.5, -0.25, 1.0, 0.75]));
    let mut g = Graph::new(&params);
    let x = g.gather(emb, &[0, 1, 2, 3]);
    let wv = g.param(w);
    let h = g.matmul(x, wv);
    let stacked = g.select_rows(&[x, h], &[(0, 0), (1, 3), (0, 0), (1, 1), (0, 2)]);
    let bounds = [0, 2, 3, 5];
    let attn = g.segment_attention(stacked, stacked, &bounds, 0.5);
    let applied = g.segment_apply(attn, stacked, &bounds);
    let sum = g.segment_sum(applied, &bounds);
    let mean = g.segment_mean(applied, &bounds);
    let max = g.segment_max(applied, &bounds);
    let both = g.add(sum, mean);
    let all = g.mul(both, max);
    let loss = g.sum_all(all);
    g.validate_tape();
    let grads = g.backward(loss);
    g.validate_grads(&grads);
    assert!(grads.get(w).is_some());
    assert!(grads.get(emb).is_some());
}

#[test]
#[should_panic(expected = "dangling Var")]
fn dangling_var_in_select_rows_is_rejected() {
    let params = ParamStore::new();
    let mut g = Graph::new(&params);
    let a = g.constant(Tensor::zeros(2, 2));
    let ghost = Graph::forge_var(17);
    let _ = g.select_rows(&[a, ghost], &[(0, 1)]);
}
