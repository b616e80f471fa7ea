//! Hybrid aggregation flows (paper §III-C, Eq. 3–5) and the hierarchical
//! attention blocks (§III-D, Eq. 6–9), expressed on the autograd tape over
//! a whole batch of flows at once.
//!
//! Every function here records a constant number of tape ops per call
//! (per flow layer, or per LSTM time step), whatever the number of flows or
//! centers, and computes each row with the kernels, in the order, of the
//! per-flow recursion it batches, so forward values are bit-identical to
//! running the flows one by one.

use mhg_autograd::{Graph, ParamId, Var};
use mhg_sampling::LayeredNeighbors;
use mhg_tensor::Tensor;

use crate::config::AggregatorKind;

/// LSTM-cell parameters: per-gate input/hidden projections and biases, in
/// gate order `[input, forget, output, candidate]`. Shared across flows.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LstmParams {
    /// Input projections `W_x` (`d_h × d_h` each).
    pub wx: [ParamId; 4],
    /// Hidden projections `W_h` (`d_h × d_h` each).
    pub wh: [ParamId; 4],
    /// Biases (`1 × d_h` each).
    pub b: [ParamId; 4],
}

/// The aggregation function applied at every flow step, carrying its
/// learnable state when the aggregator has any (LSTM).
#[derive(Clone, Copy, Debug)]
pub(crate) enum FlowAggregator {
    /// A stateless pool: mean, sum or max.
    Simple(AggregatorKind),
    /// LSTM over the stacked rows.
    Lstm(LstmParams),
}

impl FlowAggregator {
    /// Builds the aggregator for a configured kind.
    pub(crate) fn new(kind: AggregatorKind, lstm: Option<LstmParams>) -> Self {
        match kind {
            AggregatorKind::Lstm => {
                FlowAggregator::Lstm(lstm.expect("LSTM aggregator needs its parameters"))
            }
            other => FlowAggregator::Simple(other),
        }
    }
}

/// Pools every CSR segment of `stack`'s rows into one `1 × d` row with the
/// configured aggregator.
pub(crate) fn pool_segments(
    g: &mut Graph<'_>,
    stack: Var,
    offsets: &[usize],
    agg: &FlowAggregator,
) -> Var {
    match agg {
        FlowAggregator::Simple(AggregatorKind::Mean) => g.segment_mean(stack, offsets),
        FlowAggregator::Simple(AggregatorKind::Sum) => g.segment_sum(stack, offsets),
        FlowAggregator::Simple(AggregatorKind::MaxPool) => g.segment_max(stack, offsets),
        FlowAggregator::Simple(AggregatorKind::Lstm) => {
            unreachable!("Lstm kind is always wrapped with parameters")
        }
        FlowAggregator::Lstm(p) => lstm_segments(g, stack, offsets, p),
    }
}

/// Runs an LSTM over the rows of every segment of `stack` and returns each
/// segment's final hidden state, one row per segment. Time step `t`
/// advances, in one batch, every segment longer than `t`; each starts from
/// zero hidden and cell states, as a lone LSTM over its rows would.
fn lstm_segments(g: &mut Graph<'_>, stack: Var, offsets: &[usize], p: &LstmParams) -> Var {
    let d = g.value(stack).cols();
    let lens: Vec<usize> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(lens.iter().all(|&n| n > 0), "LSTM over an empty segment");
    let steps = lens.iter().copied().max().unwrap_or(0);
    let wx = p.wx.map(|w| g.param(w));
    let wh = p.wh.map(|w| g.param(w));
    let b = p.b.map(|w| g.param(w));
    // The (h, c) state of the segments advanced at the previous step, and
    // each segment's row in it.
    let mut state: Option<(Var, Var)> = None;
    let mut row_of: Vec<u32> = Vec::new();
    // Per step: its hidden state, for the final pick of each segment.
    let mut hs: Vec<Var> = Vec::with_capacity(steps);
    for t in 0..steps {
        let active: Vec<usize> = (0..lens.len()).filter(|&s| lens[s] > t).collect();
        let x_picks: Vec<(u32, u32)> = active
            .iter()
            .map(|&s| (0, (offsets[s] + t) as u32))
            .collect();
        let x = g.select_rows(&[stack], &x_picks);
        let (h, c) = match state {
            None => {
                let zero = g.constant(Tensor::zeros(active.len(), d));
                (zero, zero)
            }
            Some((h, c)) => {
                let picks: Vec<(u32, u32)> = active.iter().map(|&s| (0, row_of[s])).collect();
                (g.select_rows(&[h], &picks), g.select_rows(&[c], &picks))
            }
        };
        let gate = |g: &mut Graph<'_>, idx: usize| -> Var {
            let xa = g.matmul(x, wx[idx]);
            let ha = g.matmul(h, wh[idx]);
            let sum = g.add(xa, ha);
            g.add_broadcast_row(sum, b[idx])
        };
        let i_gate = {
            let z = gate(g, 0);
            g.sigmoid(z)
        };
        let f_gate = {
            let z = gate(g, 1);
            g.sigmoid(z)
        };
        let o_gate = {
            let z = gate(g, 2);
            g.sigmoid(z)
        };
        let cand = {
            let z = gate(g, 3);
            g.tanh(z)
        };
        let kept = g.mul(f_gate, c);
        let new = g.mul(i_gate, cand);
        let c = g.add(kept, new);
        let ct = g.tanh(c);
        let h = g.mul(o_gate, ct);
        row_of = vec![u32::MAX; lens.len()];
        for (row, &s) in active.iter().enumerate() {
            row_of[s] = row as u32;
        }
        hs.push(h);
        state = Some((h, c));
    }
    // Segment `s` ends at step `t = len − 1`, where its row is the number of
    // earlier segments still active at `t`.
    let picks: Vec<(u32, u32)> = lens
        .iter()
        .enumerate()
        .map(|(s, &len)| {
            let t = len - 1;
            let row = lens[..s].iter().filter(|&&l| l > t).count();
            (t as u32, row as u32)
        })
        .collect();
    g.select_rows(&hs, &picks)
}

/// Computes the flow embeddings `h_{v|P}` (Eq. 3 for metapath flows, Eq. 4
/// for the randomized-exploration flow) of every flow in `flows`, which
/// share the weight matrix `w`: the recursion folds each flow's layers
/// leaves-to-root, and step `j` runs once for all flows that reach layer
/// `j` (see [`flow_step`]).
///
/// Every `flows[i][0]` must be `[v]`. Returns `flows.len() × d_h`, row `i`
/// being flow `i`'s embedding.
pub(crate) fn flow_embeddings(
    g: &mut Graph<'_>,
    flow_table: ParamId,
    w: ParamId,
    flows: &[&LayeredNeighbors],
    agg: &FlowAggregator,
) -> Var {
    debug_assert!(flows.iter().all(|l| !l.is_empty() && l[0].len() == 1));
    let depth = flows.iter().map(|l| l.len()).max().unwrap_or(1);
    let wv = g.param(w);
    let mut carried = None;
    for j in (1..depth).rev() {
        carried = Some(flow_step(
            g,
            flow_table,
            wv,
            flows,
            j,
            carried.as_ref(),
            agg,
        ));
    }
    flow_step(g, flow_table, wv, flows, 0, carried.as_ref(), agg).0
}

/// Step `j` of [`flow_embeddings`] for every flow with a layer `j`: one
/// gather of their layer-`j` rows, one row-stack appending each flow's
/// carried row (its output of step `j + 1`, if it had that layer), one
/// segment pool, one matmul and one tanh. Returns the output and each
/// flow's row in it (`u32::MAX` for flows without a layer `j`).
fn flow_step(
    g: &mut Graph<'_>,
    flow_table: ParamId,
    wv: Var,
    flows: &[&LayeredNeighbors],
    j: usize,
    carried: Option<&(Var, Vec<u32>)>,
    agg: &FlowAggregator,
) -> (Var, Vec<u32>) {
    let mut ids = Vec::new();
    let mut picks = Vec::new();
    let mut offsets = vec![0];
    let mut rows = vec![u32::MAX; flows.len()];
    for (i, layers) in flows.iter().enumerate() {
        let Some(layer) = layers.get(j) else { continue };
        for n in layer {
            picks.push((0, ids.len() as u32));
            ids.push(n.0);
        }
        if let Some((_, prev)) = carried {
            if prev[i] != u32::MAX {
                picks.push((1, prev[i]));
            }
        }
        rows[i] = (offsets.len() - 1) as u32;
        offsets.push(picks.len());
    }
    let gathered = g.gather(flow_table, &ids);
    let stack = match carried {
        Some(&(prev, _)) => g.select_rows(&[gathered, prev], &picks),
        None => gathered,
    };
    let pooled = pool_segments(g, stack, &offsets, agg);
    let lin = g.matmul(pooled, wv);
    (g.tanh(lin), rows)
}

/// Single-head scaled dot-product self-attention within every CSR segment
/// of `x`'s rows (Eq. 6 / Eq. 9):
/// `softmax(X_s·Wq · (X_s·Wk)ᵀ / √d_k) · X_s·Wv` per segment.
///
/// Returns `(output, attention)`: the output rows, and the packed per-segment
/// `n_s × n_s` softmax matrices (used by the Fig. 4 attention-score export).
pub(crate) fn segment_self_attention(
    g: &mut Graph<'_>,
    x: Var,
    offsets: &[usize],
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
) -> (Var, Var) {
    let d_k = g.param_shape(wq).cols as f32;
    let mut project = |w: ParamId| {
        let w = g.param(w);
        g.matmul(x, w)
    };
    let (q, k, v) = (project(wq), project(wk), project(wv));
    let attn = g.segment_attention(q, k, offsets, 1.0 / d_k.sqrt());
    (g.segment_apply(attn, v, offsets), attn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhg_autograd::ParamStore;
    use mhg_graph::NodeId;
    use mhg_tensor::InitKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ParamStore, ParamId, ParamId) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = ParamStore::new();
        let flow = params.register(
            "flow",
            Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[2.0, 0.0]]),
        );
        let w = params.register("w", InitKind::XavierUniform.init(2, 2, &mut rng));
        (params, flow, w)
    }

    #[test]
    fn flow_embeddings_shape() {
        let (params, flow, w) = setup();
        let mut g = Graph::new(&params);
        let deep = vec![vec![NodeId(0)], vec![NodeId(1), NodeId(2)], vec![NodeId(3)]];
        let single = vec![vec![NodeId(2)]];
        let h = flow_embeddings(
            &mut g,
            flow,
            w,
            &[&deep, &single],
            &FlowAggregator::Simple(AggregatorKind::Mean),
        );
        let t = g.value(h);
        assert_eq!((t.rows(), t.cols()), (2, 2));
        assert!(t.all_finite());
        // tanh output bounded.
        assert!(t.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn aggregators_differ() {
        let (params, flow, w) = setup();
        let layers = vec![vec![NodeId(0)], vec![NodeId(1), NodeId(3)]];
        let values: Vec<Tensor> = [
            AggregatorKind::Mean,
            AggregatorKind::Sum,
            AggregatorKind::MaxPool,
        ]
        .iter()
        .map(|&kind| {
            let mut g = Graph::new(&params);
            let h = flow_embeddings(&mut g, flow, w, &[&layers], &FlowAggregator::Simple(kind));
            g.value(h).clone()
        })
        .collect();
        assert!(values[0].max_abs_diff(&values[1]) > 1e-6);
        assert!(values[0].max_abs_diff(&values[2]) > 1e-6);
    }

    #[test]
    fn lstm_segments_run_and_are_order_sensitive() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = ParamStore::new();
        let flow = params.register(
            "flow",
            Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, -0.5], &[-1.0, 1.0]]),
        );
        let w = params.register("w", InitKind::XavierUniform.init(2, 2, &mut rng));
        let mut mat = |name: &str, p: &mut ParamStore| {
            p.register(
                name.to_string(),
                InitKind::XavierUniform.init(2, 2, &mut rng),
            )
        };
        let wx = [
            mat("wxi", &mut params),
            mat("wxf", &mut params),
            mat("wxo", &mut params),
            mat("wxg", &mut params),
        ];
        let wh = [
            mat("whi", &mut params),
            mat("whf", &mut params),
            mat("who", &mut params),
            mat("whg", &mut params),
        ];
        let b = [
            params.register("bi", Tensor::zeros(1, 2)),
            params.register("bf", Tensor::full(1, 2, 1.0)),
            params.register("bo", Tensor::zeros(1, 2)),
            params.register("bg", Tensor::zeros(1, 2)),
        ];
        let lstm = LstmParams { wx, wh, b };
        let agg = FlowAggregator::Lstm(lstm);

        // Same multiset of neighbors, different order, in one batch: the
        // LSTM (unlike mean) is order-sensitive. The third flow has no
        // carried row at the root, so its segment is shorter.
        let fwd = vec![vec![NodeId(0)], vec![NodeId(1), NodeId(3)]];
        let rev = vec![vec![NodeId(0)], vec![NodeId(3), NodeId(1)]];
        let single = vec![vec![NodeId(2)]];
        let mut g = Graph::new(&params);
        let h = flow_embeddings(&mut g, flow, w, &[&fwd, &rev, &single], &agg);
        let v = g.value(h);
        assert!(v.all_finite());
        let diff = v.row(0).iter().zip(v.row(1)).map(|(a, b)| (a - b).abs());
        assert!(
            diff.fold(0.0f32, f32::max) > 1e-7,
            "LSTM should be order-sensitive"
        );

        // And its gradients must flow: backprop a scalar through it.
        let s = g.sum_all(h);
        let grads = g.backward(s);
        assert!(grads.get(lstm.wx[0]).is_some(), "no gradient reached W_xi");
    }

    /// §III-F, case G₂: with a single relation the relationship-level
    /// softmax is 1×1 and its weight is identically 1 — the attention
    /// mechanism carries no information on such graphs.
    #[test]
    fn single_row_attention_weight_is_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = ParamStore::new();
        let wq = params.register("wq", InitKind::XavierUniform.init(3, 3, &mut rng));
        let wk = params.register("wk", InitKind::XavierUniform.init(3, 3, &mut rng));
        let wv = params.register("wv", InitKind::XavierUniform.init(3, 3, &mut rng));
        let mut g = Graph::new(&params);
        let x = g.constant(Tensor::from_rows(&[&[0.3, -0.7, 1.1], &[0.2, 0.5, -0.4]]));
        let (_, attn) = segment_self_attention(&mut g, x, &[0, 1, 2], wq, wk, wv);
        assert_eq!(g.value(attn).as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn segment_attention_rows_are_distributions() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = ParamStore::new();
        let wq = params.register("wq", InitKind::XavierUniform.init(3, 3, &mut rng));
        let wk = params.register("wk", InitKind::XavierUniform.init(3, 3, &mut rng));
        let wv = params.register("wv", InitKind::XavierUniform.init(3, 3, &mut rng));
        let mut g = Graph::new(&params);
        let x = g.constant(InitKind::Uniform { limit: 1.0 }.init(7, 3, &mut rng));
        let (out, attn) = segment_self_attention(&mut g, x, &[0, 4, 7], wq, wk, wv);
        let a = g.value(attn).as_slice();
        assert_eq!(a.len(), 16 + 9);
        for (start, n) in [(0, 4), (16, 3)] {
            for r in 0..n {
                let sum: f32 = a[start + r * n..start + (r + 1) * n].iter().sum();
                assert!((sum - 1.0).abs() < 1e-5);
            }
        }
        assert_eq!(g.value(out).rows(), 7);
    }
}
