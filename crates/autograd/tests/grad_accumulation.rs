//! The gradient store `Graph::backward` builds, checked bit for bit against
//! the `BTreeMap` store it replaced.
//!
//! Each case records a random sequence of parameter uses on two small
//! tables — whole-parameter `param` uses and `gather`s with duplicate
//! indices, empty gathers and `-0.0` gradient rows — each scaled by a
//! constant gradient tensor and summed into the loss. Backward then
//! delivers exactly those constants to the uses, latest use first, so the
//! reference replays them in that order through the old
//! `accumulate_dense` / `accumulate_gather` code and must land on the same
//! representation, the same rows and the same bits.

use std::collections::BTreeMap;

use mhg_autograd::{Grad, Graph, ParamId, ParamStore};
use mhg_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Test-only copy of the replaced gradient representation.
#[derive(Debug)]
enum RefGrad {
    Dense(Tensor),
    Rows {
        cols: usize,
        rows: BTreeMap<usize, Vec<f32>>,
    },
}

/// Test-only copy of the replaced `GradStore` accumulation path (its
/// gather merge run as a single partition, which the old code proved
/// bit-identical to any partitioning).
#[derive(Default)]
struct Reference {
    grads: BTreeMap<usize, RefGrad>,
}

impl Reference {
    fn accumulate_dense(&mut self, id: usize, grad: Tensor) {
        match self.grads.get_mut(&id) {
            None => {
                self.grads.insert(id, RefGrad::Dense(grad));
            }
            Some(RefGrad::Dense(existing)) => existing.axpy(1.0, &grad),
            Some(RefGrad::Rows { cols, rows }) => {
                assert_eq!(*cols, grad.cols());
                for r in 0..grad.rows() {
                    let entry = rows.entry(r).or_insert_with(|| vec![0.0; *cols]);
                    for (e, g) in entry.iter_mut().zip(grad.row(r)) {
                        *e += g;
                    }
                }
            }
        }
    }

    fn accumulate_gather(&mut self, id: usize, indices: &[u32], grad: &Tensor) {
        use std::collections::btree_map::Entry;
        if indices.is_empty() {
            return;
        }
        if let Some(RefGrad::Dense(existing)) = self.grads.get_mut(&id) {
            existing.scatter_add_rows(indices, grad);
            return;
        }
        let cols = grad.cols();
        let mut partial: BTreeMap<usize, Vec<f32>> = BTreeMap::new();
        for (r, &idx) in indices.iter().enumerate() {
            let entry = partial
                .entry(idx as usize)
                .or_insert_with(|| vec![0.0; cols]);
            for (e, g) in entry.iter_mut().zip(grad.row(r)) {
                *e += g;
            }
        }
        let RefGrad::Rows { rows, .. } = self.grads.entry(id).or_insert_with(|| RefGrad::Rows {
            cols,
            rows: BTreeMap::new(),
        }) else {
            unreachable!("dense gradients returned above");
        };
        for (row, p) in partial {
            match rows.entry(row) {
                Entry::Occupied(mut e) => {
                    for (a, b) in e.get_mut().iter_mut().zip(&p) {
                        *a += b;
                    }
                }
                Entry::Vacant(v) => {
                    v.insert(p);
                }
            }
        }
    }
}

/// One recorded use of a table and the gradient backward delivers to it.
enum Use {
    Param {
        table: usize,
        grad: Tensor,
    },
    Gather {
        table: usize,
        indices: Vec<u32>,
        grad: Tensor,
    },
}

/// Table shapes: rows × cols.
const TABLES: [(usize, usize); 2] = [(7, 3), (5, 2)];

/// A gradient row: all `-0.0`, all `+0.0`, or random entries with the odd
/// `-0.0` among them.
fn grad_row(cols: usize, rng: &mut StdRng) -> Vec<f32> {
    match rng.gen_range(0..10u32) {
        0 | 1 => vec![-0.0; cols],
        2 => vec![0.0; cols],
        _ => (0..cols)
            .map(|_| {
                if rng.gen_bool(0.1) {
                    -0.0
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect(),
    }
}

fn grad(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    let data = (0..rows).flat_map(|_| grad_row(cols, rng)).collect();
    Tensor::from_vec(rows, cols, data)
}

fn random_uses(seed: u64) -> Vec<Use> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..9usize);
    (0..n)
        .map(|_| {
            let table = rng.gen_range(0..TABLES.len());
            let (rows, cols) = TABLES[table];
            if rng.gen_bool(0.25) {
                Use::Param {
                    table,
                    grad: grad(rows, cols, &mut rng),
                }
            } else {
                // Few distinct rows, so duplicates inside a gather are common.
                let len = rng.gen_range(0..7usize);
                let indices: Vec<u32> = (0..len).map(|_| rng.gen_range(0..rows as u32)).collect();
                let grad = grad(len, cols, &mut rng);
                Use::Gather {
                    table,
                    indices,
                    grad,
                }
            }
        })
        .collect()
}

/// Bit pattern of a gradient: dense or rows, row ids, entry bits.
fn new_bits(g: Option<&Grad>) -> Option<(bool, Vec<usize>, Vec<u32>)> {
    Some(match g? {
        Grad::Dense(t) => (
            true,
            Vec::new(),
            t.as_slice().iter().map(|v| v.to_bits()).collect(),
        ),
        Grad::Rows { rows, data, .. } => (
            false,
            rows.iter().map(|&r| r as usize).collect(),
            data.iter().map(|v| v.to_bits()).collect(),
        ),
    })
}

fn ref_bits(g: Option<&RefGrad>) -> Option<(bool, Vec<usize>, Vec<u32>)> {
    Some(match g? {
        RefGrad::Dense(t) => (
            true,
            Vec::new(),
            t.as_slice().iter().map(|v| v.to_bits()).collect(),
        ),
        RefGrad::Rows { rows, .. } => (
            false,
            rows.keys().copied().collect(),
            rows.values().flatten().map(|v| v.to_bits()).collect(),
        ),
    })
}

fn check(seed: u64) -> Result<(), proptest::test_runner::TestCaseError> {
    let uses = random_uses(seed);
    let mut params = ParamStore::new();
    let ids: Vec<ParamId> = TABLES
        .iter()
        .enumerate()
        .map(|(t, &(rows, cols))| params.register(format!("t{t}"), Tensor::full(rows, cols, 0.5)))
        .collect();

    let mut g = Graph::new(&params);
    let mut loss = None;
    for u in &uses {
        let (v, c) = match u {
            Use::Param { table, grad } => (g.param(ids[*table]), grad),
            Use::Gather {
                table,
                indices,
                grad,
            } => (g.gather(ids[*table], indices), grad),
        };
        // d(sum(v ⊙ c))/dv = 1 · c, bit for bit (including -0.0).
        let c = g.constant(c.clone());
        let prod = g.mul(v, c);
        let term = g.sum_all(prod);
        loss = Some(match loss {
            None => term,
            Some(l) => g.add(l, term),
        });
    }
    let grads = g.backward(loss.expect("at least one use"));

    let mut reference = Reference::default();
    for u in uses.iter().rev() {
        match u {
            Use::Param { table, grad } => reference.accumulate_dense(*table, grad.clone()),
            Use::Gather {
                table,
                indices,
                grad,
            } => reference.accumulate_gather(*table, indices, grad),
        }
    }
    for (t, &id) in ids.iter().enumerate() {
        prop_assert_eq!(
            new_bits(grads.get(id)),
            ref_bits(reference.grads.get(&t)),
            "table {} diverged from the reference (seed {})",
            t,
            seed
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn backward_grad_store_matches_the_btreemap_reference(seed in 0u64..1_000_000) {
        check(seed)?;
    }
}

/// The three cases the contract names, pinned explicitly: duplicate rows
/// in one gather, `-0.0` rows, and one table used through both `param` and
/// `gather` in either order.
#[test]
fn named_cases_match_the_reference() {
    let mut hit = [false; 3];
    for seed in 0..4000 {
        let uses = random_uses(seed);
        let dup = uses.iter().any(|u| match u {
            Use::Gather { indices, .. } => {
                let mut s = indices.clone();
                s.sort_unstable();
                s.windows(2).any(|w| w[0] == w[1])
            }
            Use::Param { .. } => false,
        });
        let neg_zero = uses.iter().any(|u| match u {
            Use::Param { grad, .. } | Use::Gather { grad, .. } => grad
                .as_slice()
                .iter()
                .any(|v| v.to_bits() == (-0.0f32).to_bits()),
        });
        let mixed = (0..TABLES.len()).any(|t| {
            let param = uses.iter().any(|u| matches!(u, Use::Param { table, .. } if *table == t));
            let gather = uses.iter().any(|u| {
                matches!(u, Use::Gather { table, indices, .. } if *table == t && !indices.is_empty())
            });
            param && gather
        });
        if dup || neg_zero || mixed {
            check(seed).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        }
        hit[0] |= dup;
        hit[1] |= neg_zero;
        hit[2] |= mixed;
    }
    assert_eq!(hit, [true; 3], "the generator must reach every named case");
}
