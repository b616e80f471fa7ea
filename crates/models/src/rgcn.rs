//! R-GCN baseline (Schlichtkrull et al., ESWC 2018).
//!
//! Relational graph convolution:
//! `h_v = relu(x_v·W₀ + Σ_r mean(x_{N_r(v)})·W_r)`
//! followed by a DistMult decoder
//! `score(u, v, r) = Σ_d h_u[d] · R_r[d] · h_v[d]`,
//! trained with the logistic cross-entropy over positives and sampled
//! negatives, exactly the encoder/decoder split the original paper uses for
//! link prediction.

use mhg_autograd::{Graph, ParamId, ParamStore, Var};
use mhg_ckpt::{CkptError, StateDict};
use mhg_datasets::LabeledEdge;
use mhg_graph::{MultiplexGraph, NodeId, RelationId};
use mhg_sampling::NegativeSampler;
use mhg_tensor::{InitKind, Tensor};
use mhg_train::{edge_batches, EdgeBatch, Snapshot};
use rand::rngs::StdRng;

use crate::agg::{gather_nodes, mean_relation_neighbors};
use crate::common::{CommonConfig, FitData, LinkPredictor, TrainError, TrainReport};
use crate::tape::{TapeModel, TapeStep};

const FAN_OUT: usize = 8;
const BATCH: usize = 256;

/// The R-GCN baseline.
pub struct RGcn {
    config: CommonConfig,
    snapshot: Option<RgcnSnapshot>,
}

/// What a fitted R-GCN scores with, checkpointed under `model/node_reps`
/// and `model/diag_snap`.
struct RgcnSnapshot {
    /// Final node representations (`N × d`).
    node_reps: Tensor,
    /// DistMult relation diagonals (`L × d`).
    relation_diag: Tensor,
}

impl Snapshot for RgcnSnapshot {
    fn export_state(&self, dict: &mut StateDict) {
        dict.put_tensor("model/node_reps", self.node_reps.clone());
        dict.put_tensor("model/diag_snap", self.relation_diag.clone());
    }

    fn import_state(dict: &StateDict) -> Result<Option<Self>, CkptError> {
        if !dict.contains("model/node_reps") {
            return Ok(None);
        }
        Ok(Some(Self {
            node_reps: dict.tensor("model/node_reps")?.clone(),
            relation_diag: dict.tensor("model/diag_snap")?.clone(),
        }))
    }
}

impl RGcn {
    /// Creates an untrained model.
    pub fn new(config: CommonConfig) -> Self {
        Self {
            config,
            snapshot: None,
        }
    }
}

/// R-GCN on the tape: relational convolution + DistMult decoding per
/// [`EdgeBatch`], (representations, diagonal) snapshot.
struct RgcnTape<'a> {
    graph: &'a MultiplexGraph,
    val: &'a [LabeledEdge],
    emb: ParamId,
    w_self: ParamId,
    w_rel: Vec<ParamId>,
    rel_diag: ParamId,
}

impl RgcnTape<'_> {
    /// Encoder representation of `nodes` on the tape.
    fn represent_on(&self, g: &mut Graph<'_>, nodes: &[NodeId], rng: &mut StdRng) -> Var {
        let self_emb = gather_nodes(g, self.emb, nodes);
        let w0 = g.param(self.w_self);
        let mut acc = g.matmul(self_emb, w0);
        for r in self.graph.schema().relations() {
            let neigh = mean_relation_neighbors(g, self.emb, self.graph, nodes, r, FAN_OUT, rng);
            let wr = g.param(self.w_rel[r.index()]);
            let proj = g.matmul(neigh, wr);
            acc = g.add(acc, proj);
        }
        // tanh keeps the DistMult decoder sign-expressive.
        g.tanh(acc)
    }
}

impl TapeModel for RgcnTape<'_> {
    type Batch = EdgeBatch;
    type Snapshot = RgcnSnapshot;

    fn loss(&self, g: &mut Graph<'_>, batch: EdgeBatch, rng: &mut StdRng) -> Var {
        let hl = self.represent_on(g, &batch.lefts, rng);
        let hr = self.represent_on(g, &batch.rights, rng);
        // DistMult scores for the aligned (hl, hr) rows.
        let rel_ids: Vec<u32> = batch.relations.iter().map(|r| r.0 as u32).collect();
        let diag = g.gather(self.rel_diag, &rel_ids);
        let weighted = g.mul(hl, diag);
        let scores = g.row_dot(weighted, hr);
        g.logistic_loss(scores, &batch.labels)
    }

    fn eval(&self, params: &ParamStore, rng: &mut StdRng) -> (f64, RgcnSnapshot) {
        let nodes: Vec<NodeId> = self.graph.nodes().collect();
        let mut node_reps = Tensor::zeros(nodes.len(), params.value(self.w_self).cols());
        for (chunk_idx, chunk) in nodes.chunks(BATCH).enumerate() {
            let mut g = Graph::new(params);
            let rep = self.represent_on(&mut g, chunk, rng);
            for (i, row) in g.value(rep).rows_iter().enumerate() {
                node_reps.set_row(chunk_idx * BATCH + i, row);
            }
        }
        let snap = RgcnSnapshot {
            node_reps,
            relation_diag: params.value(self.rel_diag).clone(),
        };
        (snapshot_auc(&snap, self.val), snap)
    }
}

/// Validation ROC-AUC of a snapshot.
fn snapshot_auc(snap: &RgcnSnapshot, val: &[LabeledEdge]) -> f64 {
    if val.is_empty() {
        return 0.5;
    }
    let scores: Vec<f32> = val
        .iter()
        .map(|e| distmult_score(&snap.node_reps, &snap.relation_diag, e.u, e.v, e.relation))
        .collect();
    let labels: Vec<bool> = val.iter().map(|e| e.label).collect();
    mhg_eval::roc_auc(&scores, &labels)
}

fn distmult_score(reps: &Tensor, diag: &Tensor, u: NodeId, v: NodeId, r: RelationId) -> f32 {
    reps.row(u.index())
        .iter()
        .zip(reps.row(v.index()))
        .zip(diag.row(r.index()))
        .map(|((a, b), d)| a * b * d)
        .sum()
}

impl LinkPredictor for RGcn {
    fn name(&self) -> &'static str {
        "R-GCN"
    }

    fn fit(&mut self, data: &FitData<'_>, rng: &mut StdRng) -> Result<TrainReport, TrainError> {
        let graph = data.graph;
        let cfg = &self.config;
        let dim = cfg.dim;
        let num_rel = graph.schema().num_relations();

        let mut params = ParamStore::new();
        let model = RgcnTape {
            graph,
            val: data.val,
            emb: params.register(
                "emb",
                InitKind::Uniform {
                    limit: 0.5 / dim as f32,
                }
                .init(graph.num_nodes(), dim, rng),
            ),
            w_self: params.register("w_self", InitKind::XavierUniform.init(dim, dim, rng)),
            w_rel: (0..num_rel)
                .map(|i| {
                    params.register(
                        format!("w_r{i}"),
                        InitKind::XavierUniform.init(dim, dim, rng),
                    )
                })
                .collect(),
            rel_diag: params.register(
                "rel_diag",
                InitKind::Uniform { limit: 1.0 }.init(num_rel, dim, rng),
            ),
        };
        let negatives = NegativeSampler::new(graph);
        let sample = |_epoch: usize, rng: &mut StdRng| {
            Ok(edge_batches(
                graph,
                &negatives,
                cfg.negatives.min(3),
                BATCH,
                rng,
            ))
        };
        let mut step = TapeStep::new(model, params, cfg.lr, cfg.obs.clone());
        let (report, snapshot) = mhg_train::train(&cfg.train_options(), sample, &mut step, rng)?;
        self.snapshot = Some(snapshot);
        Ok(report)
    }

    fn score(&self, u: NodeId, v: NodeId, r: RelationId) -> f32 {
        let snap = self.snapshot.as_ref().expect("score() before fit()");
        distmult_score(&snap.node_reps, &snap.relation_diag, u, v, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;
    use mhg_datasets::{DatasetKind, EdgeSplit};
    use rand::SeedableRng;

    #[test]
    fn beats_random_on_multiplex_graph() {
        let dataset = DatasetKind::Taobao.generate(0.01, 14);
        let mut rng = StdRng::seed_from_u64(15);
        let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
        let mut cfg = CommonConfig::fast();
        cfg.epochs = 15;
        let mut model = RGcn::new(cfg);
        let data = FitData {
            graph: &split.train_graph,
            metapath_shapes: &dataset.metapath_shapes,
            val: &split.val,
        };
        model.fit(&data, &mut rng).expect("fit must succeed");
        let metrics = evaluate(&model, &split.test);
        assert!(
            metrics.roc_auc > 0.55,
            "R-GCN failed to learn: auc {}",
            metrics.roc_auc
        );
    }

    #[test]
    fn distmult_is_relation_sensitive() {
        let reps = Tensor::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]);
        let diag = Tensor::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]);
        let s0 = distmult_score(&reps, &diag, NodeId(0), NodeId(1), RelationId(0));
        let s1 = distmult_score(&reps, &diag, NodeId(0), NodeId(1), RelationId(1));
        assert!((s0 - 1.0).abs() < 1e-6);
        assert!(s1.abs() < 1e-6);
    }
}
