//! Outside-in layer probes, built only from public functions:
//!
//! * [`replay_sampling`] replays one epoch of the HybridGNN training
//!   recipe's sampling calls (metapath walks → skip-gram pairs → negatives
//!   → batches, then the per-center neighbor sampling each step performs)
//!   and times each stage.
//! * [`autograd_probe`] rebuilds the HybridGNN per-center tape from public
//!   `mhg-autograd` `Graph` ops at the workload's `d_m`/`d_h`, and times
//!   forward, backward and the Adam step of 48-pair batches.
//!
//! Both follow the model's public recipe (`crates/hybridgnn`); they measure
//! the layers the recipe calls, not the model's private code.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use hybridgnn::HybridConfig;
use mhg_autograd::{Adam, Graph, Optimizer, ParamId, ParamStore, Var};
use mhg_graph::{GraphStore, MetapathScheme, NodeId, NodeTypeId, RelationId};
use mhg_sampling::{
    derive_seed, pairs_from_walk, sharded_over, InterRelationshipExplorer, MetapathNeighborSampler,
    MetapathWalker, NegativeSampler, Pair,
};
use mhg_tensor::{InitKind, Tensor};
use mhg_train::{pair_batches, PairExample};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::report::median;

/// The model's pair-batch size.
pub const BATCH: usize = 48;

/// Bounds on a sampling replay; the full recipe is `Limits::FULL`.
#[derive(Clone, Copy)]
pub struct Limits {
    /// Walk starts per (relation, metapath shape) stream.
    pub starts_per_stream: usize,
    /// Batches whose centers get neighbor-sampled.
    pub neighbor_batches: usize,
}

impl Limits {
    pub const FULL: Limits = Limits {
        starts_per_stream: usize::MAX,
        neighbor_batches: usize::MAX,
    };
}

/// Stage timings and exact work counts of one replayed sampling epoch.
pub struct SamplingReplay {
    pub walk_s: f64,
    pub walk_steps: u64,
    pub batch_s: f64,
    pub neighbor_sample_s: f64,
    pub neighbor_sample_nodes: u64,
    pub batches: Vec<Vec<PairExample>>,
}

/// Layered neighbors of one center: per relation, the flows' layer stacks
/// as `(metapath shape index or None for the exploration flow, layers)`.
type CenterLayers = Vec<Vec<(Option<usize>, Vec<Vec<NodeId>>)>>;

/// Samples what one HybridGNN forward of `v` samples: per relation, one
/// metapath-guided layer stack per applicable shape, then the randomized
/// exploration stack.
fn sample_center<G: GraphStore>(
    graph: &G,
    shapes: &[Vec<NodeTypeId>],
    cfg: &HybridConfig,
    v: NodeId,
    rng: &mut StdRng,
) -> CenterLayers {
    let metapath = MetapathNeighborSampler::new(graph, cfg.fan_out, cfg.max_layer);
    let explorer = InterRelationshipExplorer::new(graph);
    graph
        .schema()
        .relations()
        .map(|r| {
            let mut flows = Vec::new();
            for (si, shape) in shapes.iter().enumerate() {
                if shape[0] != graph.node_type(v) {
                    continue;
                }
                let layers = metapath.sample(v, &MetapathScheme::intra(shape.clone(), r), rng);
                if layers.len() > 1 {
                    flows.push((Some(si), layers));
                }
            }
            let layers = explorer.layered_neighbors(
                v,
                cfg.exploration_depth,
                cfg.fan_out,
                cfg.max_layer,
                rng,
            );
            if layers.len() > 1 {
                flows.push((None, layers));
            }
            flows
        })
        .collect()
}

/// Distinct centers of a batch, in first-appearance order (the order the
/// model's per-center forward cache fills in).
fn distinct_centers(batch: &[PairExample]) -> Vec<NodeId> {
    let mut seen = HashSet::new();
    batch
        .iter()
        .map(|ex| ex.center)
        .filter(|&c| seen.insert(c))
        .collect()
}

/// Replays one epoch of the training recipe's sampling on one thread.
pub fn replay_sampling<G: GraphStore>(
    graph: &G,
    shapes: &[Vec<NodeTypeId>],
    cfg: &HybridConfig,
    seed: u64,
    limits: Limits,
) -> SamplingReplay {
    let common = &cfg.common;
    let mut rng = StdRng::seed_from_u64(seed);
    let negatives = NegativeSampler::new(graph);
    let budget = mhg_models::pair_budget(graph.num_edges());
    let steps = AtomicU64::new(0);

    let t = Instant::now();
    let base: u64 = rng.gen();
    let mut tagged: Vec<(Pair, RelationId)> = Vec::new();
    mhg_par::with_threads(1, || {
        for r in graph.schema().relations() {
            for (shape_idx, shape) in shapes.iter().enumerate() {
                let scheme = MetapathScheme::intra(shape.clone(), r);
                let Ok(walker) = MetapathWalker::new(graph, scheme) else {
                    continue;
                };
                let starts: Vec<NodeId> = graph
                    .nodes_of_type(shape[0])
                    .iter()
                    .copied()
                    .filter(|&s| graph.degree(s, r) > 0)
                    .take(limits.starts_per_stream)
                    .collect();
                let stream = ((r.index() as u64) << 32) | shape_idx as u64;
                tagged.extend(sharded_over(
                    derive_seed(base, stream),
                    &starts,
                    |shard, rng| {
                        let mut out = Vec::new();
                        for &start in shard {
                            for _ in 0..common.walks_per_node.min(3) {
                                let walk = walker.walk(start, common.walk_length, rng);
                                steps.fetch_add(walk.len() as u64, Ordering::Relaxed);
                                out.extend(
                                    pairs_from_walk(&walk, common.window)
                                        .into_iter()
                                        .map(|p| (p, r)),
                                );
                            }
                        }
                        out
                    },
                ));
            }
        }
    });
    let walk_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    tagged.shuffle(&mut rng);
    tagged.truncate(budget);
    let batches = pair_batches(graph, &negatives, tagged, common.negatives, BATCH, &mut rng);
    let batch_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut nodes = 0u64;
    for batch in batches.iter().take(limits.neighbor_batches) {
        for v in distinct_centers(batch) {
            for flows in sample_center(graph, shapes, cfg, v, &mut rng) {
                for (_, layers) in flows {
                    nodes += layers.iter().map(|l| l.len() as u64).sum::<u64>();
                }
            }
        }
    }
    let neighbor_sample_s = t.elapsed().as_secs_f64();

    SamplingReplay {
        walk_s,
        walk_steps: steps.load(Ordering::Relaxed),
        batch_s,
        neighbor_sample_s,
        neighbor_sample_nodes: nodes,
        batches,
    }
}

/// Per-node tape costs of HybridGNN-shaped training steps.
pub struct TapeProbe {
    pub tape_nodes_per_center: f64,
    pub forward_ns_per_node: f64,
    pub backward_ns_per_node: f64,
    pub optim_step_us: f64,
}

/// The model's parameter layout (see `HybridGnn`'s Eq. 3–10 parameters).
struct ProbeParams {
    base: ParamId,
    ctx: ParamId,
    flow: ParamId,
    w_shape: Vec<ParamId>,
    w_rand: ParamId,
    w_self: ParamId,
    attn_m: [ParamId; 3],
    attn_r: [ParamId; 3],
    w_out: Vec<ParamId>,
}

fn init_params(
    n: usize,
    num_rel: usize,
    num_shapes: usize,
    d_m: usize,
    d_h: usize,
    rng: &mut StdRng,
) -> (ParamStore, ProbeParams) {
    let mut ps = ParamStore::new();
    let mut square = |ps: &mut ParamStore, name: String| {
        ps.register(name, InitKind::XavierUniform.init(d_h, d_h, rng))
    };
    let w_shape = (0..num_shapes)
        .map(|i| square(&mut ps, format!("w_shape{i}")))
        .collect();
    let w_rand = square(&mut ps, "w_rand".into());
    let w_self = square(&mut ps, "w_self".into());
    let attn_m = ["mq", "mk", "mv"].map(|n| square(&mut ps, n.into()));
    let attn_r = ["rq", "rk", "rv"].map(|n| square(&mut ps, n.into()));
    let w_out = (0..num_rel)
        .map(|i| {
            ps.register(
                format!("w_out_r{i}"),
                InitKind::XavierUniform.init(d_h, d_m, rng),
            )
        })
        .collect();
    let base = ps.register(
        "base",
        InitKind::Uniform {
            limit: 0.5 / d_m as f32,
        }
        .init(n, d_m, rng),
    );
    let ctx = ps.register("ctx", Tensor::zeros(n, d_m));
    let flow = ps.register(
        "flow",
        InitKind::Uniform {
            limit: 0.5 / d_h as f32,
        }
        .init(n, d_h, rng),
    );
    let p = ProbeParams {
        base,
        ctx,
        flow,
        w_shape,
        w_rand,
        w_self,
        attn_m,
        attn_r,
        w_out,
    };
    (ps, p)
}

/// Leaves-to-root mean aggregation of one layer stack (Eq. 3–4).
fn flow(g: &mut Graph<'_>, table: ParamId, w: ParamId, layers: &[Vec<NodeId>]) -> Var {
    let wv = g.param(w);
    let mut carried: Option<Var> = None;
    for layer in layers.iter().skip(1).rev() {
        let ids: Vec<u32> = layer.iter().map(|n| n.0).collect();
        let gathered = g.gather(table, &ids);
        let stack = match carried {
            Some(c) => g.concat_rows(&[gathered, c]),
            None => gathered,
        };
        let pooled = g.mean_rows(stack);
        let lin = g.matmul(pooled, wv);
        carried = Some(g.tanh(lin));
    }
    let root = g.gather(table, &[layers[0][0].0]);
    let stack = match carried {
        Some(c) => g.concat_rows(&[root, c]),
        None => root,
    };
    let pooled = g.mean_rows(stack);
    let lin = g.matmul(pooled, wv);
    g.tanh(lin)
}

/// Scaled dot-product self-attention over the rows of `x` (Eq. 6, 9).
fn attention(g: &mut Graph<'_>, x: Var, w: [ParamId; 3]) -> Var {
    let d_k = g.param_shape(w[0]).cols as f32;
    let [q, k, v] = w.map(|id| {
        let p = g.param(id);
        g.matmul(x, p)
    });
    let kt = g.transpose(k);
    let logits = g.matmul(q, kt);
    let scaled = g.scale(logits, 1.0 / d_k.sqrt());
    let attn = g.softmax_rows(scaled);
    g.matmul(attn, v)
}

/// `e*_{v,r}` for every relation of one center (Eq. 5–10).
fn center_forward(
    g: &mut Graph<'_>,
    p: &ProbeParams,
    v: NodeId,
    layers: &CenterLayers,
) -> Vec<Var> {
    let rel_rows: Vec<Var> = layers
        .iter()
        .map(|flows| {
            let rows: Vec<Var> = if flows.is_empty() {
                vec![flow(g, p.flow, p.w_self, &[vec![v]])]
            } else {
                flows
                    .iter()
                    .map(|(shape, l)| {
                        let w = shape.map_or(p.w_rand, |si| p.w_shape[si]);
                        flow(g, p.flow, w, l)
                    })
                    .collect()
            };
            let h = g.concat_rows(&rows);
            let h_hat = attention(g, h, p.attn_m);
            g.mean_rows(h_hat)
        })
        .collect();
    let u = g.concat_rows(&rel_rows);
    let u_hat = attention(g, u, p.attn_r);
    let base = g.gather(p.base, &[v.0]);
    (0..layers.len())
        .map(|ri| {
            let row = g.slice_rows(u_hat, ri, ri + 1);
            let w = g.param(p.w_out[ri]);
            let proj = g.matmul(row, w);
            g.add(base, proj)
        })
        .collect()
}

/// Times `steps` HybridGNN-shaped training steps over the first batches.
/// Neighbor layers are sampled before each step's clock starts, so the
/// forward time is tape construction alone; the optimizer time includes
/// dropping the tape.
pub fn autograd_probe<G: GraphStore>(
    graph: &G,
    shapes: &[Vec<NodeTypeId>],
    cfg: &HybridConfig,
    batches: &[Vec<PairExample>],
    seed: u64,
    steps: usize,
) -> TapeProbe {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_rel = graph.schema().num_relations();
    let (mut ps, p) = init_params(
        graph.num_nodes(),
        num_rel,
        shapes.len(),
        cfg.common.dim,
        cfg.common.edge_dim,
        &mut rng,
    );
    let mut opt = Adam::new(cfg.common.lr.min(0.01));
    let (mut nodes_total, mut centers_total) = (0usize, 0usize);
    let (mut fwd, mut bwd, mut optim) = (Vec::new(), Vec::new(), Vec::new());
    for batch in batches.iter().take(steps) {
        let centers = distinct_centers(batch);
        let layers: Vec<(NodeId, CenterLayers)> = centers
            .iter()
            .map(|&v| (v, sample_center(graph, shapes, cfg, v, &mut rng)))
            .collect();

        let t = Instant::now();
        let mut g = Graph::new(&ps);
        let mut e_stars = HashMap::new();
        for (v, l) in &layers {
            e_stars.insert(*v, center_forward(&mut g, &p, *v, l));
        }
        let (mut lefts, mut targets, mut labels) = (Vec::new(), Vec::new(), Vec::new());
        for ex in batch {
            let e = e_stars[&ex.center][ex.relation.index()];
            lefts.push(e);
            targets.push(ex.context.0);
            labels.push(1.0);
            for &neg in &ex.negatives {
                lefts.push(e);
                targets.push(neg.0);
                labels.push(-1.0);
            }
        }
        let left = g.concat_rows(&lefts);
        let right = g.gather(p.ctx, &targets);
        let scores = g.row_dot(left, right);
        let loss = g.logistic_loss(scores, &labels);
        let nodes = g.len();
        let t_fwd = t.elapsed().as_nanos() as f64;

        let t = Instant::now();
        let grads = g.backward(loss);
        let t_bwd = t.elapsed().as_nanos() as f64;

        let t = Instant::now();
        drop(g);
        opt.step(&mut ps, &grads);
        let t_opt = t.elapsed().as_nanos() as f64;

        nodes_total += nodes;
        centers_total += centers.len();
        fwd.push(t_fwd / nodes as f64);
        bwd.push(t_bwd / nodes as f64);
        optim.push(t_opt / 1e3);
    }
    TapeProbe {
        tape_nodes_per_center: nodes_total as f64 / centers_total.max(1) as f64,
        forward_ns_per_node: median(&fwd),
        backward_ns_per_node: median(&bwd),
        optim_step_us: median(&optim),
    }
}
