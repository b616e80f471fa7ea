//! HAN baseline (Wang et al., WWW 2019): hierarchical attention over
//! metapath-based neighbors.
//!
//! Node-level attention scores a node's metapath-reached neighbors (the
//! final layer of `N^K_P(v)`) under a per-metapath projection; semantic
//! attention combines the per-metapath summaries. HAN is non-multiplex: one
//! embedding per node, used for every relation — exactly the limitation the
//! paper's Table III records.

use mhg_autograd::{Graph, ParamStore, Var};
use mhg_datasets::LabeledEdge;
use mhg_graph::{MetapathScheme, MultiplexGraph, NodeId, RelationId};
use mhg_sampling::{MetapathNeighborSampler, NegativeSampler};
use mhg_tensor::Tensor;
use mhg_train::{edge_batches, EdgeBatch};
use rand::rngs::StdRng;

use crate::attention::{dot_attention_pool, flattened_schemes, SchemeParams};
use crate::common::{
    val_auc, CommonConfig, EmbeddingScores, FitData, LinkPredictor, TrainError, TrainReport,
};
use crate::tape::{TapeModel, TapeStep};

const FAN_OUT: usize = 4;
const MAX_LAYER: usize = 12;
const MAX_NEIGHBORS: usize = 10;
const BATCH: usize = 96;

/// The HAN baseline.
pub struct Han {
    config: CommonConfig,
    scores: EmbeddingScores,
}

impl Han {
    /// Creates an untrained model.
    pub fn new(config: CommonConfig) -> Self {
        Self {
            config,
            scores: EmbeddingScores::default(),
        }
    }
}

/// HAN on the tape: hierarchical attention per [`EdgeBatch`], full-graph
/// representation snapshot.
struct HanTape<'a> {
    graph: &'a MultiplexGraph,
    val: &'a [LabeledEdge],
    schemes: Vec<MetapathScheme>,
    p: SchemeParams,
}

impl HanTape<'_> {
    /// Representation of one node on the tape.
    fn represent_node(&self, g: &mut Graph<'_>, v: NodeId, rng: &mut StdRng) -> Var {
        let sampler = MetapathNeighborSampler::new(self.graph, FAN_OUT, MAX_LAYER);
        let mut z_rows: Vec<Var> = Vec::with_capacity(self.schemes.len() + 1);

        for (si, scheme) in self.schemes.iter().enumerate() {
            if self.graph.node_type(v) != scheme.source_type() {
                continue;
            }
            let layers = sampler.sample(v, scheme, rng);
            let Some(finals) = layers.last().filter(|_| layers.len() == scheme.len() + 1) else {
                continue;
            };
            let ids: Vec<u32> = finals.iter().take(MAX_NEIGHBORS).map(|n| n.0).collect();
            if ids.is_empty() {
                continue;
            }
            let w = g.param(self.p.w_scheme[si]);
            let self_emb = g.gather(self.p.emb, &[v.0]);
            let query = g.matmul(self_emb, w);
            let neigh = g.gather(self.p.emb, &ids);
            let keys = g.matmul(neigh, w);
            z_rows.push(dot_attention_pool(g, query, keys));
        }
        self.p.pool_with_self(g, z_rows, v)
    }

    fn represent_batch(&self, g: &mut Graph<'_>, nodes: &[NodeId], rng: &mut StdRng) -> Var {
        let rows: Vec<Var> = nodes
            .iter()
            .map(|&v| self.represent_node(g, v, rng))
            .collect();
        g.concat_rows(&rows)
    }
}

impl TapeModel for HanTape<'_> {
    type Batch = EdgeBatch;
    type Snapshot = EmbeddingScores;

    fn loss(&self, g: &mut Graph<'_>, batch: EdgeBatch, rng: &mut StdRng) -> Var {
        let hl = self.represent_batch(g, &batch.lefts, rng);
        let hr = self.represent_batch(g, &batch.rights, rng);
        let scores = g.row_dot(hl, hr);
        g.logistic_loss(scores, &batch.labels)
    }

    fn eval(&self, params: &ParamStore, rng: &mut StdRng) -> (f64, EmbeddingScores) {
        let nodes: Vec<NodeId> = self.graph.nodes().collect();
        let mut out = Tensor::zeros(nodes.len(), params.value(self.p.emb).cols());
        for (ci, chunk) in nodes.chunks(BATCH).enumerate() {
            let mut g = Graph::new(params);
            let rep = self.represent_batch(&mut g, chunk, rng);
            for (i, row) in g.value(rep).rows_iter().enumerate() {
                out.set_row(ci * BATCH + i, row);
            }
        }
        let scores = EmbeddingScores::shared(out);
        (val_auc(&scores, self.val), scores)
    }
}

impl LinkPredictor for Han {
    fn name(&self) -> &'static str {
        "HAN"
    }

    fn fit(&mut self, data: &FitData<'_>, rng: &mut StdRng) -> Result<TrainReport, TrainError> {
        let graph = data.graph;
        let cfg = &self.config;
        let schemes = flattened_schemes(data);
        let mut params = ParamStore::new();
        let p = SchemeParams::register(&mut params, graph.num_nodes(), cfg.dim, schemes.len(), rng);
        let negatives = NegativeSampler::new(graph);
        let sample = |_epoch: usize, rng: &mut StdRng| {
            Ok(edge_batches(
                graph,
                &negatives,
                cfg.negatives.min(2),
                BATCH,
                rng,
            ))
        };
        let model = HanTape {
            graph,
            val: data.val,
            schemes,
            p,
        };
        let mut step = TapeStep::new(model, params, cfg.lr, cfg.obs.clone());
        let (report, scores) = mhg_train::train(&cfg.train_options(), sample, &mut step, rng)?;
        self.scores = scores;
        Ok(report)
    }

    fn score(&self, u: NodeId, v: NodeId, r: RelationId) -> f32 {
        self.scores.score(u, v, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;
    use mhg_datasets::{DatasetKind, EdgeSplit};
    use rand::SeedableRng;

    #[test]
    fn beats_random_on_heterogeneous_graph() {
        let dataset = DatasetKind::Imdb.generate(0.02, 16);
        let mut rng = StdRng::seed_from_u64(17);
        let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
        let mut cfg = CommonConfig::fast();
        cfg.epochs = 10;
        let mut model = Han::new(cfg);
        let data = FitData {
            graph: &split.train_graph,
            metapath_shapes: &dataset.metapath_shapes,
            val: &split.val,
        };
        model.fit(&data, &mut rng).expect("fit must succeed");
        let metrics = evaluate(&model, &split.test);
        assert!(
            metrics.roc_auc > 0.55,
            "HAN failed to learn: auc {}",
            metrics.roc_auc
        );
    }
}
