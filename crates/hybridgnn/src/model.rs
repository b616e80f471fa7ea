//! The HybridGNN model (paper §III): randomized inter-relationship
//! exploration + hybrid aggregation flows + hierarchical attention, trained
//! with the heterogeneous skip-gram objective over metapath-based walks.

use std::collections::HashMap;

use mhg_autograd::{Graph, ParamId, ParamStore, Var};
use mhg_ckpt::wire::{Reader, Writer};
use mhg_ckpt::{CkptError, StateDict};
use mhg_datasets::LabeledEdge;
use mhg_graph::{GraphStore, MetapathScheme, NodeId, NodeTypeId, RelationId};
use mhg_models::{
    EmbeddingScores, FitData, LinkPredictor, TapeModel, TapeStep, TrainError, TrainReport,
};
use mhg_sampling::{
    derive_seed, pairs_from_walk, sharded_over_obs, InterRelationshipExplorer, LayeredNeighbors,
    MetapathNeighborSampler, MetapathWalker, NegativeSampler, Pair, UniformNeighborSampler,
};
use mhg_tensor::{InitKind, Tensor};
use mhg_train::{pair_batches, PairExample, Snapshot};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::config::AggregatorKind;
use crate::config::HybridConfig;
use crate::flows::{flow_embeddings, segment_self_attention, FlowAggregator, LstmParams};

#[cfg(test)]
mod reference;

/// Pairs per training batch.
const BATCH: usize = 48;
/// Nodes per full-inference tape. The results do not depend on it; 128
/// measured fastest on train-amazon and train-kuaishou (of 48–4096), and
/// keeps the eval tape small.
const EVAL_CHUNK: usize = 128;

/// Averaged metapath-level attention mass per flow, per relation — the data
/// behind the paper's Fig. 4.
pub type AttentionProfile = Vec<Vec<(String, f64)>>;

/// The HybridGNN link predictor.
pub struct HybridGnn {
    config: HybridConfig,
    scores: EmbeddingScores,
    attention: AttentionProfile,
}

struct Params {
    base: ParamId,
    ctx: ParamId,
    flow: ParamId,
    /// Per metapath shape (shared across relations; the attention layers
    /// provide relation-specific mixing).
    w_shape: Vec<ParamId>,
    w_rand: ParamId,
    w_self: ParamId,
    mq: ParamId,
    mk: ParamId,
    mv: ParamId,
    rq: ParamId,
    rk: ParamId,
    rv: ParamId,
    w_out: Vec<ParamId>,
    /// Present only for the LSTM aggregator.
    lstm: Option<LstmParams>,
}

/// HybridGNN on the tape: the batched hybrid-flow forward over the distinct
/// centers of a pair batch, and a (scores, attention) snapshot.
struct HybridTape<'a, G: GraphStore> {
    graph: &'a G,
    config: &'a HybridConfig,
    /// Table II shapes with human-readable labels.
    shapes: &'a [(Vec<NodeTypeId>, String)],
    /// `schemes[r][s]`: shape `s` as an intra-relationship scheme under
    /// relation `r`.
    schemes: &'a [Vec<MetapathScheme>],
    metapath: MetapathNeighborSampler<'a, G>,
    uniform: UniformNeighborSampler<'a, G>,
    explorer: InterRelationshipExplorer<'a, G>,
    p: Params,
    /// Per flow kind — the metapath shapes, then `random`, then `self` —
    /// its weight and the index of its label in `labels`.
    kinds: Vec<(ParamId, usize)>,
    /// The distinct flow labels, sorted: the row order of the attention
    /// profile.
    labels: Vec<String>,
    val: &'a [LabeledEdge],
}

/// What a fitted HybridGNN keeps: its per-relation scores and the Fig. 4
/// attention profile, checkpointed under `model/scores/*` and
/// `model/attention`.
struct HybridSnapshot {
    scores: EmbeddingScores,
    attention: AttentionProfile,
}

impl Snapshot for HybridSnapshot {
    fn export_state(&self, dict: &mut StateDict) {
        self.scores.export_state(dict);
        dict.put_bytes("model/attention", encode_attention(&self.attention));
    }

    fn import_state(dict: &StateDict) -> Result<Option<Self>, CkptError> {
        let Some(scores) = EmbeddingScores::import_state(dict)? else {
            return Ok(None);
        };
        let attention = decode_attention(dict.bytes("model/attention")?)?;
        Ok(Some(Self { scores, attention }))
    }
}

impl HybridGnn {
    /// Creates an untrained model.
    pub fn new(config: HybridConfig) -> Self {
        Self {
            config,
            scores: EmbeddingScores::default(),
            attention: Vec::new(),
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    /// The averaged metapath-level attention scores per relation observed
    /// during the final inference pass (Fig. 4). Empty before `fit`, or if
    /// metapath-level attention is ablated away.
    pub fn attention_profile(&self) -> &AttentionProfile {
        &self.attention
    }

    /// The final per-relation embedding of `v` (after `fit`).
    pub fn embedding(&self, v: NodeId, r: RelationId) -> &[f32] {
        self.scores.embedding(v, r)
    }

    fn init_params<G: GraphStore>(
        graph: &G,
        config: &HybridConfig,
        num_shapes: usize,
        rng: &mut StdRng,
    ) -> (ParamStore, Params) {
        let n = graph.num_nodes();
        let d_m = config.common.dim;
        let d_h = config.common.edge_dim;
        let num_rel = graph.schema().num_relations();
        let mut params = ParamStore::new();
        let p = Params {
            base: params.register(
                "base",
                InitKind::Uniform {
                    limit: 0.5 / d_m as f32,
                }
                .init(n, d_m, rng),
            ),
            ctx: params.register("ctx", Tensor::zeros(n, d_m)),
            flow: params.register(
                "flow",
                InitKind::Uniform {
                    limit: 0.5 / d_h as f32,
                }
                .init(n, d_h, rng),
            ),
            w_shape: (0..num_shapes)
                .map(|i| {
                    params.register(
                        format!("w_shape{i}"),
                        InitKind::XavierUniform.init(d_h, d_h, rng),
                    )
                })
                .collect(),
            w_rand: params.register("w_rand", InitKind::XavierUniform.init(d_h, d_h, rng)),
            w_self: params.register("w_self", InitKind::XavierUniform.init(d_h, d_h, rng)),
            mq: params.register("mq", InitKind::XavierUniform.init(d_h, d_h, rng)),
            mk: params.register("mk", InitKind::XavierUniform.init(d_h, d_h, rng)),
            mv: params.register("mv", InitKind::XavierUniform.init(d_h, d_h, rng)),
            rq: params.register("rq", InitKind::XavierUniform.init(d_h, d_h, rng)),
            rk: params.register("rk", InitKind::XavierUniform.init(d_h, d_h, rng)),
            rv: params.register("rv", InitKind::XavierUniform.init(d_h, d_h, rng)),
            w_out: (0..num_rel)
                .map(|i| {
                    params.register(
                        format!("w_out_r{i}"),
                        InitKind::XavierUniform.init(d_h, d_m, rng),
                    )
                })
                .collect(),
            lstm: (config.aggregator == AggregatorKind::Lstm).then(|| {
                let mut mat = |name: &str| {
                    params.register(
                        name.to_string(),
                        InitKind::XavierUniform.init(d_h, d_h, rng),
                    )
                };
                let wx = [
                    mat("lstm_wxi"),
                    mat("lstm_wxf"),
                    mat("lstm_wxo"),
                    mat("lstm_wxg"),
                ];
                let wh = [
                    mat("lstm_whi"),
                    mat("lstm_whf"),
                    mat("lstm_who"),
                    mat("lstm_whg"),
                ];
                let b = [
                    params.register("lstm_bi", Tensor::zeros(1, d_h)),
                    // Forget-gate bias starts at 1 (standard LSTM trick).
                    params.register("lstm_bf", Tensor::full(1, d_h, 1.0)),
                    params.register("lstm_bo", Tensor::zeros(1, d_h)),
                    params.register("lstm_bg", Tensor::zeros(1, d_h)),
                ];
                LstmParams { wx, wh, b }
            }),
        };
        (params, p)
    }
}

/// One sampled aggregation flow of a center under one relation.
struct Flow {
    /// Index into [`HybridTape::kinds`].
    kind: usize,
    /// Layered neighbors, `layers[0] = [center]`.
    layers: LayeredNeighbors,
}

/// The sampled flows of a batch of centers, drawn before any tape op.
struct SampledBatch {
    centers: Vec<NodeId>,
    /// Every flow: center by center, then relation by relation, then in the
    /// per-node order (metapath shapes, exploration, else the self flow).
    flows: Vec<Flow>,
    /// CSR bounds of each (center, relation) group in `flows`.
    groups: Vec<usize>,
}

/// The batched forward's outputs.
struct Forward {
    /// The relation-level outputs `e_{v,r}`, one `L × d_k` block per center
    /// (Eq. 9), to be projected by [`HybridTape::project`].
    u_hat: Var,
    /// The packed per-group metapath-level attention matrices (Eq. 6), when
    /// that attention is on.
    attention: Option<Var>,
}

impl<'a, G: GraphStore> HybridTape<'a, G> {
    fn new(
        graph: &'a G,
        config: &'a HybridConfig,
        shapes: &'a [(Vec<NodeTypeId>, String)],
        schemes: &'a [Vec<MetapathScheme>],
        p: Params,
        val: &'a [LabeledEdge],
    ) -> Self {
        let named: Vec<(ParamId, &str)> = shapes
            .iter()
            .zip(&p.w_shape)
            .map(|((_, label), &w)| (w, label.as_str()))
            .chain([(p.w_rand, "random"), (p.w_self, "self")])
            .collect();
        let mut labels: Vec<String> = named.iter().map(|(_, l)| l.to_string()).collect();
        labels.sort();
        labels.dedup();
        let kinds = named
            .iter()
            .map(|&(w, l)| (w, labels.iter().position(|x| x == l).unwrap_or(0)))
            .collect();
        Self {
            graph,
            config,
            shapes,
            schemes,
            metapath: MetapathNeighborSampler::new(graph, config.fan_out, config.max_layer),
            uniform: UniformNeighborSampler::new(graph, config.fan_out, config.max_layer),
            explorer: InterRelationshipExplorer::new(graph),
            p,
            kinds,
            labels,
            val,
        }
    }

    /// Samples every center's layered neighbors: center by center, then
    /// relation, then metapath shape, then exploration — the order, and so
    /// the RNG draws, of sampling each center on its own.
    fn sample(&self, centers: &[NodeId], rng: &mut StdRng) -> SampledBatch {
        let _span = self.config.common.obs.span("sampling/neighbors");
        let cfg = self.config;
        let graph = self.graph;
        // Flow kinds: the metapath shapes, then `random`, then `self`.
        let random = self.shapes.len();
        let mut flows = Vec::new();
        let mut groups = vec![0];
        for &v in centers {
            let ty = graph.node_type(v);
            for r in graph.schema().relations() {
                let start = flows.len();
                for (si, (shape, _)) in self.shapes.iter().enumerate() {
                    if shape[0] != ty {
                        continue;
                    }
                    let layers = if cfg.use_hybrid_flows {
                        // Intra-relationship metapath-guided flow (Eq. 3).
                        self.metapath.sample(v, &self.schemes[r.index()][si], rng)
                    } else {
                        // Ablation: random-neighbor aggregation of the same
                        // depth replaces the metapath guidance.
                        self.uniform.sample(v, shape.len() - 1, rng)
                    };
                    if layers.len() > 1 {
                        flows.push(Flow { kind: si, layers });
                    }
                }
                if cfg.use_randomized_exploration {
                    let layers = self.explorer.layered_neighbors(
                        v,
                        cfg.exploration_depth,
                        cfg.fan_out,
                        cfg.max_layer,
                        rng,
                    );
                    if layers.len() > 1 {
                        flows.push(Flow {
                            kind: random,
                            layers,
                        });
                    }
                }
                if flows.len() == start {
                    // Isolated node or no applicable scheme: self flow.
                    flows.push(Flow {
                        kind: random + 1,
                        layers: vec![vec![v]],
                    });
                }
                groups.push(flows.len());
            }
        }
        SampledBatch {
            centers: centers.to_vec(),
            flows,
            groups,
        }
    }

    /// The batched forward over sampled centers: the flows of each kind one
    /// layer at a time (Eq. 3–4), then both attention levels over per-group
    /// and per-center segments (Eq. 5–9). The tape grows with kinds × layers,
    /// not with the number of centers.
    fn forward(&self, g: &mut Graph<'_>, batch: &SampledBatch) -> Forward {
        let cfg = self.config;
        let p = &self.p;
        let aggregator = FlowAggregator::new(cfg.aggregator, p.lstm);

        // Each flow's row in its kind's output.
        let mut members: Vec<Vec<&LayeredNeighbors>> = vec![Vec::new(); self.kinds.len()];
        let mut row_in_kind = Vec::with_capacity(batch.flows.len());
        for flow in &batch.flows {
            row_in_kind.push(members[flow.kind].len() as u32);
            members[flow.kind].push(&flow.layers);
        }
        let mut outputs = Vec::new();
        let mut source_of_kind = vec![0u32; self.kinds.len()];
        for (kind, flows) in members.iter().enumerate() {
            if flows.is_empty() {
                continue;
            }
            source_of_kind[kind] = outputs.len() as u32;
            outputs.push(flow_embeddings(
                g,
                p.flow,
                self.kinds[kind].0,
                flows,
                &aggregator,
            ));
        }
        let picks: Vec<(u32, u32)> = batch
            .flows
            .iter()
            .zip(&row_in_kind)
            .map(|(flow, &row)| (source_of_kind[flow.kind], row))
            .collect();
        let h = g.select_rows(&outputs, &picks); // F×d_h per group (Eq. 5)

        let groups = &batch.groups;
        let (pooled, attention) = if cfg.use_metapath_attention {
            let (h_hat, attn) = segment_self_attention(g, h, groups, p.mq, p.mk, p.mv); // Eq. 6
            (g.segment_mean(h_hat, groups), Some(attn)) // Eq. 7
        } else {
            (g.segment_mean(h, groups), None)
        };

        // One L×d_k block per center (Eq. 8).
        let num_rel = self.graph.schema().num_relations();
        let centers = batch.centers.len();
        let per_center: Vec<usize> = (0..=centers).map(|c| c * num_rel).collect();
        let u_hat = if cfg.use_relationship_attention {
            segment_self_attention(g, pooled, &per_center, p.rq, p.rk, p.rv).0 // Eq. 9
        } else {
            pooled
        };

        Forward { u_hat, attention }
    }

    /// Eq. 10 for the wanted (center, relation) pairs: per relation `r`, the
    /// rows `e*_{v,r} = e_v + e_{v,r}·W_r` of the centers `wanted[r]`
    /// (indices into `batch.centers`), or `None` when none is wanted.
    fn project(
        &self,
        g: &mut Graph<'_>,
        batch: &SampledBatch,
        u_hat: Var,
        wanted: &[Vec<u32>],
    ) -> Vec<Option<Var>> {
        let num_rel = wanted.len();
        wanted
            .iter()
            .enumerate()
            .map(|(r, slots)| {
                if slots.is_empty() {
                    return None;
                }
                let ids: Vec<u32> = slots.iter().map(|&c| batch.centers[c as usize].0).collect();
                let base = g.gather(self.p.base, &ids);
                let picks: Vec<(u32, u32)> = slots
                    .iter()
                    .map(|&c| (0, c * num_rel as u32 + r as u32))
                    .collect();
                let rows = g.select_rows(&[u_hat], &picks);
                let w = g.param(self.p.w_out[r]);
                let proj = g.matmul(rows, w);
                Some(g.add(base, proj))
            })
            .collect()
    }

    /// Full-graph inference: per-relation embedding tables, plus the
    /// averaged attention profile.
    fn full_inference(
        &self,
        params: &ParamStore,
        rng: &mut StdRng,
    ) -> (Vec<Tensor>, AttentionProfile) {
        let graph = self.graph;
        let d_m = self.config.common.dim;
        let num_rel = graph.schema().num_relations();
        let mut tables = vec![Tensor::zeros(graph.num_nodes(), d_m); num_rel];
        // Per relation and label: (mass sum, count); count 0 = never seen.
        let mut acc = vec![vec![(0.0f64, 0usize); self.labels.len()]; num_rel];

        let nodes: Vec<NodeId> = graph.node_id_range().map(NodeId).collect();
        for chunk in nodes.chunks(EVAL_CHUNK) {
            let batch = self.sample(chunk, rng);
            let mut g = Graph::new(params);
            let out = self.forward(&mut g, &batch);
            let every: Vec<u32> = (0..chunk.len() as u32).collect();
            let e_stars = self.project(&mut g, &batch, out.u_hat, &vec![every; num_rel]);
            for (table, e) in tables.iter_mut().zip(e_stars.into_iter().flatten()) {
                let e = g.value(e);
                for (c, v) in chunk.iter().enumerate() {
                    table.set_row(v.index(), e.row(c));
                }
            }
            let Some(attn) = out.attention else { continue };
            // Mean attention mass received per flow (column means), per
            // group, accumulated node by node as the profile's f64 sums.
            let a = g.value(attn).as_slice();
            let mut start = 0;
            for (gi, w) in batch.groups.windows(2).enumerate() {
                let n = w[1] - w[0];
                let block = &a[start..start + n * n];
                start += n * n;
                for (c, flow) in batch.flows[w[0]..w[1]].iter().enumerate() {
                    let mass: f32 = (0..n).map(|rr| block[rr * n + c]).sum::<f32>() / n as f32;
                    let entry = &mut acc[gi % num_rel][self.kinds[flow.kind].1];
                    entry.0 += mass as f64;
                    entry.1 += 1;
                }
            }
        }

        // Label-sorted rows, as `labels` is sorted.
        let attention = acc
            .into_iter()
            .map(|rel| {
                rel.into_iter()
                    .zip(&self.labels)
                    .filter(|((_, count), _)| *count > 0)
                    .map(|((sum, count), label)| (label.clone(), sum / count as f64))
                    .collect()
            })
            .collect();
        (tables, attention)
    }
}

impl<G: GraphStore> TapeModel for HybridTape<'_, G> {
    type Batch = Vec<PairExample>;
    type Snapshot = HybridSnapshot;

    fn loss(&self, g: &mut Graph<'_>, batch: Vec<PairExample>, rng: &mut StdRng) -> Var {
        // One forward row per distinct center, in first-appearance order,
        // and one projection per (center, relation) the batch uses.
        let num_rel = self.graph.schema().num_relations();
        let mut slot: HashMap<NodeId, u32> = HashMap::new();
        let mut centers: Vec<NodeId> = Vec::new();
        let mut wanted: Vec<Vec<u32>> = vec![Vec::new(); num_rel];
        let mut row_of: HashMap<(u32, usize), u32> = HashMap::new();
        for ex in &batch {
            let c = *slot.entry(ex.center).or_insert_with(|| {
                centers.push(ex.center);
                centers.len() as u32 - 1
            });
            let r = ex.relation.index();
            row_of.entry((c, r)).or_insert_with(|| {
                wanted[r].push(c);
                wanted[r].len() as u32 - 1
            });
        }
        let sampled = self.sample(&centers, rng);
        let u_hat = self.forward(g, &sampled).u_hat;
        let projected = self.project(g, &sampled, u_hat, &wanted);
        let mut sources = Vec::new();
        let mut source_of = vec![0u32; num_rel];
        for (r, e) in projected.iter().enumerate() {
            if let Some(e) = e {
                source_of[r] = sources.len() as u32;
                sources.push(*e);
            }
        }

        let mut picks: Vec<(u32, u32)> = Vec::new();
        let mut targets: Vec<u32> = Vec::new();
        let mut labels: Vec<f32> = Vec::new();
        for ex in &batch {
            let r = ex.relation.index();
            let pick = (source_of[r], row_of[&(slot[&ex.center], r)]);
            picks.push(pick);
            targets.push(ex.context.0);
            labels.push(1.0);
            for &neg in &ex.negatives {
                picks.push(pick);
                targets.push(neg.0);
                labels.push(-1.0);
            }
        }
        let left = g.select_rows(&sources, &picks);
        let right = g.gather(self.p.ctx, &targets);
        let scores = g.row_dot(left, right);
        g.logistic_loss(scores, &labels)
    }

    fn eval(&self, params: &ParamStore, rng: &mut StdRng) -> (f64, HybridSnapshot) {
        let (tables, attention) = self.full_inference(params, rng);
        let scores =
            EmbeddingScores::per_relation(tables).with_context(params.value(self.p.ctx).clone());
        let auc = mhg_models::val_auc(&scores, self.val);
        (auc, HybridSnapshot { scores, attention })
    }
}

/// Byte layout for an [`AttentionProfile`]: all integers are u64 LE —
/// relation count, then per relation an entry count, then per entry a
/// label length + UTF-8 bytes + the f64 mass as raw bits.
fn encode_attention(profile: &AttentionProfile) -> Vec<u8> {
    let mut w = Writer::default();
    w.u64(profile.len() as u64);
    for rel in profile {
        w.u64(rel.len() as u64);
        for (label, mass) in rel {
            w.u64(label.len() as u64);
            w.bytes(label.as_bytes());
            w.f64(*mass);
        }
    }
    w.finish()
}

/// Inverse of [`encode_attention`]; every count is checked against the
/// bytes left before anything is reserved, so corrupted payloads surface as
/// typed errors, never panics or huge allocations.
fn decode_attention(buf: &[u8]) -> Result<AttentionProfile, CkptError> {
    let mut r = Reader::new(buf);
    let num_rel = r.u64()?;
    // Each relation needs its 8-byte entry count; each entry its 8-byte
    // label length and 8-byte mass.
    let mut profile = Vec::with_capacity(r.count(num_rel, 8)?);
    for _ in 0..num_rel {
        let num_entries = r.u64()?;
        let mut rel = Vec::with_capacity(r.count(num_entries, 16)?);
        for _ in 0..num_entries {
            let label_len = r.u64()?;
            let label = r.string(r.count(label_len, 1)?)?;
            rel.push((label, r.f64()?));
        }
        profile.push(rel);
    }
    r.finish()?;
    Ok(profile)
}

impl HybridGnn {
    /// Trains over any [`GraphStore`] backend — the in-RAM graph (what
    /// [`LinkPredictor::fit`] delegates to) or the paged `ShardedCsr`,
    /// whose self-healing ladder runs underneath the samplers while this
    /// loop trains. Results are bit-identical across conforming backends
    /// (the store determinism contract pins the walk streams).
    pub fn fit_store<G: GraphStore>(
        &mut self,
        data: &FitData<'_, G>,
        rng: &mut StdRng,
    ) -> Result<TrainReport, TrainError> {
        let graph = data.graph;
        let cfg = &self.config;
        let common = &cfg.common;

        // Label shapes like "user-item-user" from schema names.
        let shapes: Vec<(Vec<NodeTypeId>, String)> = data
            .metapath_shapes
            .iter()
            .map(|shape| {
                let label = shape
                    .iter()
                    .map(|&t| graph.schema().node_type_name(t))
                    .collect::<Vec<_>>()
                    .join("-");
                (shape.clone(), label)
            })
            .collect();

        // Every shape as an intra-relationship scheme, once per fit.
        let schemes: Vec<Vec<MetapathScheme>> = graph
            .schema()
            .relations()
            .map(|r| {
                shapes
                    .iter()
                    .map(|(shape, _)| MetapathScheme::intra(shape.clone(), r))
                    .collect()
            })
            .collect();

        let (params, p) = Self::init_params(graph, cfg, shapes.len(), rng);
        let negatives = NegativeSampler::new(graph);
        let pair_budget = mhg_models::pair_budget(graph.num_edges());

        // Metapath-based training walks per relation (§III-E). These same
        // walks drive the aggregation sampling statistics. Each (relation,
        // shape) stream generates its walks in fixed shards with one derived
        // sub-RNG per shard, so the walk set is bit-identical for any thread
        // count; the post-walk shuffle keeps the SGD pair order random.
        let sample = |_epoch: usize, rng: &mut StdRng| {
            let base: u64 = rng.gen();
            let mut tagged: Vec<(Pair, RelationId)> = Vec::new();
            for r in graph.schema().relations() {
                for (shape_idx, (shape, _)) in shapes.iter().enumerate() {
                    let scheme = schemes[r.index()][shape_idx].clone();
                    let walker = MetapathWalker::new(graph, scheme)?;
                    let starts: Vec<NodeId> = graph
                        .nodes_of_type(shape[0])
                        .iter()
                        .copied()
                        .filter(|&start| graph.degree(start, r) > 0)
                        .collect();
                    let stream = ((r.index() as u64) << 32) | shape_idx as u64;
                    tagged.extend(sharded_over_obs(
                        &common.obs,
                        derive_seed(base, stream),
                        &starts,
                        |shard, rng| {
                            let mut out = Vec::new();
                            for &start in shard {
                                for _ in 0..common.walks_per_node.min(3) {
                                    let walk = walker.walk(start, common.walk_length, rng);
                                    out.extend(
                                        pairs_from_walk(&walk, common.window)
                                            .into_iter()
                                            .map(|pair| (pair, r)),
                                    );
                                }
                            }
                            out
                        },
                    ));
                }
            }
            tagged.shuffle(rng);
            tagged.truncate(pair_budget);
            Ok(pair_batches(
                graph,
                &negatives,
                tagged,
                common.negatives,
                BATCH,
                rng,
            ))
        };

        let model = HybridTape::new(graph, cfg, &shapes, &schemes, p, data.val);
        let mut step = TapeStep::new(model, params, common.lr, common.obs.clone());
        let (report, best) = mhg_train::train(&common.train_options(), sample, &mut step, rng)?;
        self.scores = best.scores;
        self.attention = best.attention;
        Ok(report)
    }
}

impl LinkPredictor for HybridGnn {
    fn name(&self) -> &'static str {
        "HybridGNN"
    }

    fn fit(&mut self, data: &FitData<'_>, rng: &mut StdRng) -> Result<TrainReport, TrainError> {
        self.fit_store(data, rng)
    }

    fn score(&self, u: NodeId, v: NodeId, r: RelationId) -> f32 {
        self.scores.score(u, v, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pinned FNV-1a 64 of the attention blob below; a change means
    /// checkpoints written by older builds no longer resume identically.
    const ATTENTION_PIN: u64 = 0xfe87_51d1_6cee_0186;

    #[test]
    fn attention_blob_bytes_are_pinned() {
        let profile: AttentionProfile = vec![
            vec![
                ("user-item-user".to_string(), 0.625),
                ("rand".to_string(), -1.5e-3),
            ],
            vec![],
            vec![("é".to_string(), f64::MIN_POSITIVE)],
        ];
        let bytes = encode_attention(&profile);
        let hash = mhg_ckpt::fnv1a64(&bytes);
        assert_eq!(hash, ATTENTION_PIN, "attention blob hash {hash:#018x}");
        assert_eq!(decode_attention(&bytes).expect("decode"), profile);
    }
}
