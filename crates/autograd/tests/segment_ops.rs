//! Forward parity of the batched ops: every row-select and segment op must
//! produce, bit for bit, what the per-row ops it replaces produce when run
//! segment by segment (`slice_rows` + `sum_rows`/`mean_rows`/`max_rows`,
//! `concat_rows`, and the `softmax(q·kᵀ·s)·v` attention chain).

use mhg_autograd::{Graph, ParamStore, Var};
use mhg_tensor::{InitKind, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random CSR bounds over `rows` rows, in `segments` segments; when
/// `allow_empty` is false every segment has at least one row.
fn offsets(rng: &mut StdRng, rows: usize, segments: usize, allow_empty: bool) -> Vec<usize> {
    let min = usize::from(!allow_empty);
    let mut cuts: Vec<usize> = (0..segments - 1)
        .map(|_| rng.gen_range(0..=rows - min * segments))
        .collect();
    cuts.sort_unstable();
    let mut out = vec![0];
    for (i, c) in cuts.into_iter().enumerate() {
        out.push(c + min * (i + 1));
    }
    out.push(rows);
    out
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// The per-segment reference: `per_row(slice)` for each segment, stacked;
/// an empty segment yields `empty` (what `sum_rows`/`mean_rows` give for
/// zero rows).
fn per_segment(
    g: &mut Graph<'_>,
    a: Var,
    offsets: &[usize],
    per_row: impl Fn(&mut Graph<'_>, Var) -> Var,
) -> Tensor {
    let cols = g.value(a).cols();
    let parts: Vec<Tensor> = offsets
        .windows(2)
        .map(|w| {
            if w[0] == w[1] {
                return Tensor::zeros(1, cols);
            }
            let s = g.slice_rows(a, w[0], w[1]);
            let out = per_row(g, s);
            g.value(out).clone()
        })
        .collect();
    Tensor::vstack(&parts.iter().collect::<Vec<_>>())
}

fn check_pooling(seed: u64, rows: usize, segments: usize, cols: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = ParamStore::new();
    let mut g = Graph::new(&params);
    let a = g.constant(InitKind::Uniform { limit: 2.0 }.init(rows, cols, &mut rng));

    let bounds = offsets(&mut rng, rows, segments, true);
    let sum = g.segment_sum(a, &bounds);
    let mean = g.segment_mean(a, &bounds);
    assert_eq!(
        bits(g.value(sum)),
        bits(&per_segment(&mut g, a, &bounds, |g, s| g.sum_rows(s)))
    );
    assert_eq!(
        bits(g.value(mean)),
        bits(&per_segment(&mut g, a, &bounds, |g, s| g.mean_rows(s)))
    );

    let bounds = offsets(&mut rng, rows, segments, false);
    let max = g.segment_max(a, &bounds);
    assert_eq!(
        bits(g.value(max)),
        bits(&per_segment(&mut g, a, &bounds, |g, s| g.max_rows(s)))
    );
}

fn check_attention(seed: u64, rows: usize, segments: usize, d: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = ParamStore::new();
    let mut g = Graph::new(&params);
    let mut init = || g.constant(InitKind::Uniform { limit: 2.0 }.init(rows, d, &mut rng));
    let (q, k, v) = (init(), init(), init());
    let bounds = offsets(&mut StdRng::seed_from_u64(seed ^ 1), rows, segments, false);
    let scale = 1.0 / (d as f32).sqrt();

    let attn = g.segment_attention(q, k, &bounds, scale);
    let out = g.segment_apply(attn, v, &bounds);

    let mut want_attn = Vec::new();
    let mut want_out = Vec::new();
    for w in bounds.windows(2) {
        let (qs, ks, vs) = (
            g.slice_rows(q, w[0], w[1]),
            g.slice_rows(k, w[0], w[1]),
            g.slice_rows(v, w[0], w[1]),
        );
        let kt = g.transpose(ks);
        let logits = g.matmul(qs, kt);
        let scaled = g.scale(logits, scale);
        let a = g.softmax_rows(scaled);
        let o = g.matmul(a, vs);
        want_attn.extend(bits(g.value(a)));
        want_out.extend(bits(g.value(o)));
    }
    assert_eq!(bits(g.value(attn)), want_attn);
    assert_eq!(bits(g.value(out)), want_out);
}

#[test]
fn select_rows_equals_concat_of_slices() {
    let mut rng = StdRng::seed_from_u64(5);
    let params = ParamStore::new();
    let mut g = Graph::new(&params);
    let a = g.constant(InitKind::Uniform { limit: 1.0 }.init(4, 3, &mut rng));
    let b = g.constant(InitKind::Uniform { limit: 1.0 }.init(2, 3, &mut rng));
    let picks = [(1, 1), (0, 3), (0, 0), (1, 1), (0, 3)];
    let got = g.select_rows(&[a, b], &picks);
    let parts: Vec<Var> = picks
        .iter()
        .map(|&(src, row)| {
            let src = [a, b][src as usize];
            g.slice_rows(src, row as usize, row as usize + 1)
        })
        .collect();
    let want = g.concat_rows(&parts);
    assert_eq!(bits(g.value(got)), bits(g.value(want)));
}

#[test]
fn one_row_segments_pool_to_themselves() {
    let params = ParamStore::new();
    let mut g = Graph::new(&params);
    let a = g.constant(Tensor::from_rows(&[&[1.5, -2.0], &[0.25, 3.0]]));
    for out in [
        g.segment_sum(a, &[0, 1, 2]),
        g.segment_mean(a, &[0, 1, 2]),
        g.segment_max(a, &[0, 1, 2]),
    ] {
        assert_eq!(bits(g.value(out)), bits(g.value(a)));
    }
    // One-row attention: the weight is exactly 1, the output the value row.
    let attn = g.segment_attention(a, a, &[0, 1, 2], 0.5);
    assert_eq!(g.value(attn).as_slice(), &[1.0, 1.0]);
    let out = g.segment_apply(attn, a, &[0, 1, 2]);
    assert_eq!(bits(g.value(out)), bits(g.value(a)));
}

#[test]
#[should_panic(expected = "not CSR bounds")]
fn segment_offsets_must_cover_the_rows() {
    let params = ParamStore::new();
    let mut g = Graph::new(&params);
    let a = g.constant(Tensor::zeros(3, 2));
    let _ = g.segment_sum(a, &[0, 2]);
}

#[test]
#[should_panic(expected = "empty segment")]
fn segment_max_rejects_an_empty_segment() {
    let params = ParamStore::new();
    let mut g = Graph::new(&params);
    let a = g.constant(Tensor::zeros(3, 2));
    let _ = g.segment_max(a, &[0, 0, 3]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn segment_pooling_matches_per_segment_ops(
        seed in 0u64..1000,
        segments in 1usize..6,
        extra in 0usize..8,
        cols in 1usize..10,
    ) {
        check_pooling(seed, segments + extra, segments, cols);
    }

    #[test]
    fn segment_attention_matches_per_segment_chain(
        seed in 0u64..1000,
        segments in 1usize..5,
        extra in 0usize..10,
        d in 1usize..12,
    ) {
        check_attention(seed, segments + extra, segments, d);
    }
}
