//! The per-node HybridGNN forward, kept as the test reference for the
//! batched one: every center records its own flows, attention blocks and
//! output projection on the tape, one op at a time, and samples with
//! samplers and schemes built per call. The parity tests below hold the
//! batched forward to it bit for bit (values, loss, eval tables, attention
//! profile, RNG state) and to within rounding (gradients, whose reduction
//! order differs).

use std::collections::{BTreeMap, HashMap};

use super::*;

/// Pools a stack of rows into `1 × d` with the configured aggregator.
fn pool(g: &mut Graph<'_>, stack: Var, agg: &FlowAggregator) -> Var {
    match agg {
        FlowAggregator::Simple(AggregatorKind::Sum) => g.sum_rows(stack),
        FlowAggregator::Simple(AggregatorKind::MaxPool) => g.max_rows(stack),
        // Mean; `FlowAggregator::new` never leaves a bare `Lstm` kind.
        FlowAggregator::Simple(_) => g.mean_rows(stack),
        FlowAggregator::Lstm(p) => lstm_pool(g, stack, p),
    }
}

/// Runs an LSTM over the rows of `stack` (`n × d_h`) and returns the final
/// hidden state (`1 × d_h`).
fn lstm_pool(g: &mut Graph<'_>, stack: Var, p: &LstmParams) -> Var {
    let n = g.value(stack).rows();
    let d = g.value(stack).cols();
    let zero = g.constant(mhg_tensor::Tensor::zeros(1, d));
    let mut h = zero;
    let mut c = zero;
    for i in 0..n {
        let x = g.slice_rows(stack, i, i + 1);
        let gate = |g: &mut Graph<'_>, h: Var, idx: usize| -> Var {
            let wx = g.param(p.wx[idx]);
            let wh = g.param(p.wh[idx]);
            let b = g.param(p.b[idx]);
            let xa = g.matmul(x, wx);
            let ha = g.matmul(h, wh);
            let sum = g.add(xa, ha);
            g.add(sum, b)
        };
        let i_gate = {
            let z = gate(g, h, 0);
            g.sigmoid(z)
        };
        let f_gate = {
            let z = gate(g, h, 1);
            g.sigmoid(z)
        };
        let o_gate = {
            let z = gate(g, h, 2);
            g.sigmoid(z)
        };
        let cand = {
            let z = gate(g, h, 3);
            g.tanh(z)
        };
        let kept = g.mul(f_gate, c);
        let new = g.mul(i_gate, cand);
        c = g.add(kept, new);
        let ct = g.tanh(c);
        h = g.mul(o_gate, ct);
    }
    h
}

/// Computes one aggregation flow embedding `h_{v|P}` (Eq. 3 for metapath
/// flows, Eq. 4 for the randomized-exploration flow) from layered neighbor
/// sets: the recursion folds the layers leaves-to-root, sharing the flow's
/// weight matrix `w` at every step.
///
/// `layers[0]` must be `[v]`. Returns a `1 × d_h` variable.
fn flow_embedding(
    g: &mut Graph<'_>,
    flow_table: ParamId,
    w: ParamId,
    layers: &LayeredNeighbors,
    agg: &FlowAggregator,
) -> Var {
    debug_assert!(!layers.is_empty() && layers[0].len() == 1);
    let wv = g.param(w);
    let mut carried: Option<Var> = None;
    for layer in layers.iter().skip(1).rev() {
        let ids: Vec<u32> = layer.iter().map(|n| n.0).collect();
        let gathered = g.gather(flow_table, &ids);
        let stack = match carried {
            Some(c) => g.concat_rows(&[gathered, c]),
            None => gathered,
        };
        let pooled = pool(g, stack, agg);
        let lin = g.matmul(pooled, wv);
        carried = Some(g.tanh(lin));
    }
    // Root step: combine v's own flow embedding with the carried summary.
    let self_ids = [layers[0][0].0];
    let self_row = g.gather(flow_table, &self_ids);
    let stack = match carried {
        Some(c) => g.concat_rows(&[self_row, c]),
        None => self_row,
    };
    let pooled = pool(g, stack, agg);
    let lin = g.matmul(pooled, wv);
    g.tanh(lin)
}

/// Single-head scaled dot-product self-attention (Eq. 6 / Eq. 9):
/// `softmax(X·Wq · (X·Wk)ᵀ / √d_k) · X·Wv`.
///
/// Returns `(output, attention)` where `attention` is the `n × n` softmax
/// matrix (used by the Fig. 4 attention-score export).
fn self_attention(g: &mut Graph<'_>, x: Var, wq: ParamId, wk: ParamId, wv: ParamId) -> (Var, Var) {
    let d_k = g.param_shape(wq).cols as f32;
    let q = {
        let w = g.param(wq);
        g.matmul(x, w)
    };
    let k = {
        let w = g.param(wk);
        g.matmul(x, w)
    };
    let v = {
        let w = g.param(wv);
        g.matmul(x, w)
    };
    let kt = g.transpose(k);
    let logits = g.matmul(q, kt);
    let scaled = g.scale(logits, 1.0 / d_k.sqrt());
    let attn = g.softmax_rows(scaled);
    (g.matmul(attn, v), attn)
}

impl<G: GraphStore> HybridTape<'_, G> {
    /// Forward pass for one node: returns `e*_{v,r}` for every relation
    /// (each a `1 × d_m` variable), plus per-relation `(label, mass)`
    /// attention observations when metapath attention is active.
    #[allow(clippy::type_complexity)]
    fn forward_node(
        &self,
        g: &mut Graph<'_>,
        v: NodeId,
        rng: &mut StdRng,
        collect_attention: bool,
    ) -> (Vec<Var>, Vec<Vec<(String, f64)>>) {
        let cfg = self.config;
        let graph = self.graph;
        let p = &self.p;
        let metapath_sampler = MetapathNeighborSampler::new(graph, cfg.fan_out, cfg.max_layer);
        let uniform_sampler = UniformNeighborSampler::new(graph, cfg.fan_out, cfg.max_layer);
        let explorer = InterRelationshipExplorer::new(graph);
        let aggregator = FlowAggregator::new(cfg.aggregator, p.lstm);

        // Sample every flow's layered neighbors first (relation, then shape,
        // then exploration), then record the tape.
        let mut rel_flows: Vec<Vec<(ParamId, LayeredNeighbors, &str)>> = Vec::new();
        for r in graph.schema().relations() {
            let mut flows = Vec::new();
            for (si, (shape, label)) in self.shapes.iter().enumerate() {
                if shape[0] != graph.node_type(v) {
                    continue;
                }
                let layers = if cfg.use_hybrid_flows {
                    // Intra-relationship metapath-guided flow (Eq. 3).
                    let scheme = MetapathScheme::intra(shape.clone(), r);
                    metapath_sampler.sample(v, &scheme, rng)
                } else {
                    // Ablation: random-neighbor aggregation of the same
                    // depth replaces the metapath guidance.
                    uniform_sampler.sample(v, shape.len() - 1, rng)
                };
                if layers.len() > 1 {
                    flows.push((p.w_shape[si], layers, label.as_str()));
                }
            }
            if cfg.use_randomized_exploration {
                let layers = explorer.layered_neighbors(
                    v,
                    cfg.exploration_depth,
                    cfg.fan_out,
                    cfg.max_layer,
                    rng,
                );
                if layers.len() > 1 {
                    flows.push((p.w_rand, layers, "random"));
                }
            }
            if flows.is_empty() {
                // Isolated node or no applicable scheme: self flow.
                flows.push((p.w_self, vec![vec![v]], "self"));
            }
            rel_flows.push(flows);
        }

        let mut rel_rows: Vec<Var> = Vec::with_capacity(graph.schema().num_relations());
        let mut attn_obs: Vec<Vec<(String, f64)>> = Vec::new();
        for flows in &rel_flows {
            let rows: Vec<Var> = flows
                .iter()
                .map(|(w, layers, _)| flow_embedding(g, p.flow, *w, layers, &aggregator))
                .collect();
            let labels: Vec<&str> = flows.iter().map(|f| f.2).collect();

            let h = g.concat_rows(&rows); // F×d_h  (Eq. 5)
            let pooled = if cfg.use_metapath_attention {
                let (h_hat, attn) = self_attention(g, h, p.mq, p.mk, p.mv); // Eq. 6
                if collect_attention {
                    // Mean attention mass received per flow (column means).
                    let a = g.value(attn);
                    let mut obs = Vec::with_capacity(labels.len());
                    for (c, label) in labels.iter().enumerate() {
                        let mass: f32 =
                            (0..a.rows()).map(|rr| a[(rr, c)]).sum::<f32>() / a.rows() as f32;
                        obs.push((label.to_string(), mass as f64));
                    }
                    attn_obs.push(obs);
                }
                g.mean_rows(h_hat) // Eq. 7
            } else {
                if collect_attention {
                    attn_obs.push(Vec::new());
                }
                g.mean_rows(h)
            };
            rel_rows.push(pooled);
        }

        let u = g.concat_rows(&rel_rows); // L×d_k  (Eq. 8)
        let u_hat = if cfg.use_relationship_attention {
            self_attention(g, u, p.rq, p.rk, p.rv).0 // Eq. 9
        } else {
            u
        };

        let base = g.gather(p.base, &[v.0]);
        let e_stars = graph
            .schema()
            .relations()
            .map(|r| {
                // Eq. 10: e*_{v,r} = e_v + e_{v,r} · W_r
                let row = g.slice_rows(u_hat, r.index(), r.index() + 1);
                let w = g.param(p.w_out[r.index()]);
                let proj = g.matmul(row, w);
                g.add(base, proj)
            })
            .collect();
        (e_stars, attn_obs)
    }

    /// Full-graph inference: per-relation embedding tables, plus the
    /// averaged attention profile.
    fn full_inference_per_node(
        &self,
        params: &ParamStore,
        rng: &mut StdRng,
    ) -> (Vec<Tensor>, AttentionProfile) {
        let graph = self.graph;
        let d_m = self.config.common.dim;
        let num_rel = graph.schema().num_relations();
        let mut tables = vec![Tensor::zeros(graph.num_nodes(), d_m); num_rel];
        // label → (mass sum, count), per relation.
        let mut acc: Vec<BTreeMap<String, (f64, usize)>> = vec![BTreeMap::new(); num_rel];

        let nodes: Vec<NodeId> = graph.node_id_range().map(NodeId).collect();
        for chunk in nodes.chunks(BATCH) {
            let mut g = Graph::new(params);
            for &v in chunk {
                let (e_stars, attn) = self.forward_node(&mut g, v, rng, true);
                for (ri, e) in e_stars.iter().enumerate() {
                    tables[ri].set_row(v.index(), g.value(*e).row(0));
                }
                for (ri, obs) in attn.iter().enumerate() {
                    for (label, mass) in obs {
                        let entry = acc[ri].entry(label.clone()).or_insert((0.0, 0));
                        entry.0 += mass;
                        entry.1 += 1;
                    }
                }
            }
        }

        let attention = acc
            .into_iter()
            .map(|m| {
                // BTreeMap iterates label-sorted, so the profile rows come
                // out in the same order the old explicit sort produced.
                let rows: Vec<(String, f64)> = m
                    .into_iter()
                    .map(|(label, (sum, count))| (label, sum / count.max(1) as f64))
                    .collect();
                rows
            })
            .collect();
        (tables, attention)
    }

    fn loss_per_node(&self, g: &mut Graph<'_>, batch: Vec<PairExample>, rng: &mut StdRng) -> Var {
        // One forward per distinct center in the batch.
        let mut center_cache: HashMap<NodeId, Vec<Var>> = HashMap::new();
        let mut lefts: Vec<Var> = Vec::new();
        let mut targets: Vec<u32> = Vec::new();
        let mut labels: Vec<f32> = Vec::new();
        for ex in &batch {
            let e_stars = center_cache
                .entry(ex.center)
                .or_insert_with(|| self.forward_node(g, ex.center, rng, false).0);
            let e = e_stars[ex.relation.index()];
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
        let right = g.gather(self.p.ctx, &targets);
        let scores = g.row_dot(left, right);
        g.logistic_loss(scores, &labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhg_datasets::DatasetKind;
    use rand::SeedableRng;

    type Ablation = fn(HybridConfig) -> HybridConfig;

    /// The configurations under test: the full model and the four Table
    /// VIII ablations, each with every aggregator.
    fn configs() -> Vec<(String, HybridConfig)> {
        let ablations: [(&str, Ablation); 5] = [
            ("full", |c| c),
            (
                "w/o metapath attn",
                HybridConfig::without_metapath_attention,
            ),
            (
                "w/o relationship attn",
                HybridConfig::without_relationship_attention,
            ),
            (
                "w/o randomized",
                HybridConfig::without_randomized_exploration,
            ),
            ("w/o hybrid flows", HybridConfig::without_hybrid_flows),
        ];
        let mut out = Vec::new();
        for (name, ablate) in ablations {
            for agg in [
                AggregatorKind::Mean,
                AggregatorKind::Sum,
                AggregatorKind::MaxPool,
                AggregatorKind::Lstm,
            ] {
                let mut cfg = ablate(HybridConfig::fast());
                cfg.aggregator = agg;
                cfg.common.dim = 16;
                out.push((format!("{name} / {agg:?}"), cfg));
            }
        }
        out
    }

    struct Fixture {
        dataset: mhg_datasets::Dataset,
        shapes: Vec<(Vec<NodeTypeId>, String)>,
        schemes: Vec<Vec<MetapathScheme>>,
    }

    /// A small multi-type, multi-relation graph with its Table II shapes.
    fn fixture(kind: DatasetKind) -> Fixture {
        let dataset = kind.generate(0.004, 3);
        let graph = &dataset.graph;
        let shapes: Vec<(Vec<NodeTypeId>, String)> = dataset
            .metapath_shapes
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), format!("shape{i}")))
            .collect();
        let schemes = graph
            .schema()
            .relations()
            .map(|r| {
                shapes
                    .iter()
                    .map(|(s, _)| MetapathScheme::intra(s.clone(), r))
                    .collect()
            })
            .collect();
        Fixture {
            dataset,
            shapes,
            schemes,
        }
    }

    /// Random pair examples over `graph`, with repeated centers.
    fn examples(graph: &mhg_graph::MultiplexGraph, n: usize, seed: u64) -> Vec<PairExample> {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = graph.num_nodes() as u32;
        let num_rel = graph.schema().num_relations();
        (0..n)
            .map(|i| PairExample {
                // Every third example reuses an earlier center.
                center: NodeId(if i % 3 == 2 {
                    i as u32 / 3 % nodes
                } else {
                    rng.gen_range(0..nodes)
                }),
                context: NodeId(rng.gen_range(0..nodes)),
                relation: RelationId(rng.gen_range(0..num_rel) as u16),
                negatives: (0..3).map(|_| NodeId(rng.gen_range(0..nodes))).collect(),
            })
            .collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Runs every parity check of one configuration on one graph.
    fn check_parity(name: &str, cfg: &HybridConfig, fx: &Fixture) {
        let graph = &fx.dataset.graph;
        let mut init_rng = StdRng::seed_from_u64(11);
        let (mut params, p) = HybridGnn::init_params(graph, cfg, fx.shapes.len(), &mut init_rng);
        // Non-zero context rows, so the loss reaches every parameter.
        let ctx = p.ctx;
        *params.value_mut(ctx) =
            InitKind::Uniform { limit: 0.5 }.init(graph.num_nodes(), cfg.common.dim, &mut init_rng);
        let tape = HybridTape::new(graph, cfg, &fx.shapes, &fx.schemes, p, &[]);

        // Forward rows: e*_{v,r} of a batch of centers against each
        // center's own forward.
        let centers: Vec<NodeId> = (0..12)
            .map(|i| NodeId(i * 7 % graph.num_nodes() as u32))
            .collect();
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        let mut ga = Graph::new(&params);
        let batch = tape.sample(&centers, &mut rng_a);
        let out = tape.forward(&mut ga, &batch);
        let every: Vec<u32> = (0..centers.len() as u32).collect();
        let num_rel = graph.schema().num_relations();
        let e_stars: Vec<Var> = tape
            .project(&mut ga, &batch, out.u_hat, &vec![every; num_rel])
            .into_iter()
            .flatten()
            .collect();
        let mut gb = Graph::new(&params);
        for (c, &v) in centers.iter().enumerate() {
            let (rows, _) = tape.forward_node(&mut gb, v, &mut rng_b, false);
            for (r, &row) in rows.iter().enumerate() {
                assert_eq!(
                    bits(&Tensor::row_vector(ga.value(e_stars[r]).row(c))),
                    bits(gb.value(row)),
                    "{name}: e* row of center {c}, relation {r}"
                );
            }
        }
        assert_eq!(
            format!("{rng_a:?}"),
            format!("{rng_b:?}"),
            "{name}: forward RNG state"
        );

        // Loss and gradients of a pair batch.
        let pairs = examples(graph, 40, 17);
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(6), StdRng::seed_from_u64(6));
        let mut ga = Graph::new(&params);
        let la = tape.loss(&mut ga, pairs.clone(), &mut rng_a);
        let mut gb = Graph::new(&params);
        let lb = tape.loss_per_node(&mut gb, pairs, &mut rng_b);
        assert_eq!(
            ga.scalar(la).to_bits(),
            gb.scalar(lb).to_bits(),
            "{name}: batch loss"
        );
        assert_eq!(
            format!("{rng_a:?}"),
            format!("{rng_b:?}"),
            "{name}: loss RNG state"
        );
        let (grads_a, grads_b) = (ga.backward(la), gb.backward(lb));
        for (id, pname, value) in params.iter() {
            let (rows, cols) = (value.rows(), value.cols());
            let (a, b) = (
                grads_a.to_dense(id, rows, cols),
                grads_b.to_dense(id, rows, cols),
            );
            let scale = b.as_slice().iter().fold(0.0f32, |m, x| m.max(x.abs()));
            let diff = a.max_abs_diff(&b);
            assert!(
                diff <= 1e-5 * scale,
                "{name}: gradient of `{pname}` differs by {diff:e} (max |g| {scale:e})"
            );
        }

        // Full-graph inference: tables, attention profile, RNG state.
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
        let (tables_a, profile_a) = tape.full_inference(&params, &mut rng_a);
        let (tables_b, profile_b) = tape.full_inference_per_node(&params, &mut rng_b);
        for (r, (a, b)) in tables_a.iter().zip(&tables_b).enumerate() {
            assert_eq!(bits(a), bits(b), "{name}: eval table of relation {r}");
        }
        let profile_bits = |p: &AttentionProfile| -> Vec<Vec<(String, u64)>> {
            p.iter()
                .map(|rel| rel.iter().map(|(l, m)| (l.clone(), m.to_bits())).collect())
                .collect()
        };
        assert_eq!(
            profile_bits(&profile_a),
            profile_bits(&profile_b),
            "{name}: attention profile"
        );
        assert_eq!(
            format!("{rng_a:?}"),
            format!("{rng_b:?}"),
            "{name}: eval RNG state"
        );
    }

    #[test]
    fn batched_forward_matches_the_per_node_reference() {
        // Taobao: two node types, four relations. IMDb: three node types,
        // type-filtered flows of several lengths, one relation.
        let fixtures = [fixture(DatasetKind::Taobao), fixture(DatasetKind::Imdb)];
        for threads in [1, 4] {
            mhg_par::with_threads(threads, || {
                for (name, cfg) in configs() {
                    for fx in &fixtures {
                        check_parity(&format!("{name} ({threads} threads)"), &cfg, fx);
                    }
                }
            });
        }
    }

    #[test]
    fn tape_nodes_per_step_do_not_grow_with_the_batch() {
        let fx = fixture(DatasetKind::Taobao);
        let graph = &fx.dataset.graph;
        let cfg = HybridConfig::fast();
        let mut rng = StdRng::seed_from_u64(1);
        let (params, p) = HybridGnn::init_params(graph, &cfg, fx.shapes.len(), &mut rng);
        let tape = HybridTape::new(graph, &cfg, &fx.shapes, &fx.schemes, p, &[]);
        let nodes_for = |pairs: usize| {
            let mut g = Graph::new(&params);
            let _ = tape.loss(&mut g, examples(graph, pairs, 2), &mut rng.clone());
            g.len()
        };
        // Flow kinds × layers steps of ≤ 5 ops, plus a weight per kind; one
        // flow stack; ≤ 9 ops per attention level; ≤ 5 per relation for
        // Eq. 10; 4 for the loss.
        let kinds = fx.shapes.len() + 2;
        let layers = cfg
            .exploration_depth
            .max(fx.shapes.iter().map(|s| s.0.len() - 1).max().unwrap_or(0))
            + 1;
        let relations = graph.schema().num_relations();
        let bound = kinds * (5 * layers + 1) + 1 + 2 * 9 + 5 * relations + 4;
        for pairs in [4, 48, 480] {
            let n = nodes_for(pairs);
            assert!(
                n <= bound,
                "{pairs} pairs recorded {n} tape nodes (bound {bound})"
            );
        }
    }
}
