//! GCN baseline (Kipf & Welling, ICLR 2017).
//!
//! A single graph-convolution layer over the flattened graph (heterogeneity
//! ignored, as the paper specifies): `h_v = relu(mean(x_{N(v) ∪ {v}}) · W)`,
//! trained end-to-end on the link logistic loss with sampled negatives.
//! Full-batch spectral propagation is replaced by sampled mean aggregation
//! with self-inclusion — the spatial approximation of the renormalised
//! adjacency the paper's own mini-batch setting implies.

use mhg_autograd::{Graph, ParamId, ParamStore, Var};
use mhg_datasets::LabeledEdge;
use mhg_graph::{MultiplexGraph, NodeId, RelationId};
use mhg_sampling::NegativeSampler;
use mhg_tensor::InitKind;
use mhg_train::{edge_batches, EdgeBatch};
use rand::rngs::StdRng;

use crate::agg::mean_self_neighbors;
use crate::common::{
    val_auc, CommonConfig, EmbeddingScores, FitData, LinkPredictor, TrainError, TrainReport,
};
use crate::tape::{TapeModel, TapeStep};

const FAN_OUT: usize = 10;
const BATCH: usize = 256;

/// The GCN baseline.
pub struct Gcn {
    config: CommonConfig,
    scores: EmbeddingScores,
}

impl Gcn {
    /// Creates an untrained model.
    pub fn new(config: CommonConfig) -> Self {
        Self {
            config,
            scores: EmbeddingScores::default(),
        }
    }
}

/// GCN on the tape: the link logistic loss per [`EdgeBatch`], and a
/// full-graph representation snapshot.
struct GcnTape<'a> {
    graph: &'a MultiplexGraph,
    val: &'a [LabeledEdge],
    emb: ParamId,
    w1: ParamId,
}

impl TapeModel for GcnTape<'_> {
    type Batch = EdgeBatch;
    type Snapshot = EmbeddingScores;

    fn loss(&self, g: &mut Graph<'_>, batch: EdgeBatch, rng: &mut StdRng) -> Var {
        let w = g.param(self.w1);
        let left_agg = mean_self_neighbors(g, self.emb, self.graph, &batch.lefts, FAN_OUT, rng);
        let right_agg = mean_self_neighbors(g, self.emb, self.graph, &batch.rights, FAN_OUT, rng);
        let hl = {
            let lin = g.matmul(left_agg, w);
            g.tanh(lin)
        };
        let hr = {
            let lin = g.matmul(right_agg, w);
            g.tanh(lin)
        };
        let scores = g.row_dot(hl, hr);
        g.logistic_loss(scores, &batch.labels)
    }

    fn eval(&self, params: &ParamStore, rng: &mut StdRng) -> (f64, EmbeddingScores) {
        let all: Vec<NodeId> = self.graph.nodes().collect();
        let mut g = Graph::new(params);
        let agg = mean_self_neighbors(&mut g, self.emb, self.graph, &all, FAN_OUT, rng);
        let w = g.param(self.w1);
        let lin = g.matmul(agg, w);
        // tanh, not relu: a non-negative final layer could never score
        // negative pairs below zero under a dot-product decoder.
        let h = g.tanh(lin);
        let scores = EmbeddingScores::shared(g.value(h).clone());
        (val_auc(&scores, self.val), scores)
    }
}

impl LinkPredictor for Gcn {
    fn name(&self) -> &'static str {
        "GCN"
    }

    fn fit(&mut self, data: &FitData<'_>, rng: &mut StdRng) -> Result<TrainReport, TrainError> {
        let graph = data.graph;
        let cfg = &self.config;
        let dim = cfg.dim;

        let mut params = ParamStore::new();
        let emb = params.register(
            "emb",
            InitKind::Uniform {
                limit: 0.5 / dim as f32,
            }
            .init(graph.num_nodes(), dim, rng),
        );
        let w1 = params.register("w1", InitKind::XavierUniform.init(dim, dim, rng));

        let negatives = NegativeSampler::new(graph);
        let sample = |_epoch: usize, rng: &mut StdRng| {
            Ok(edge_batches(graph, &negatives, cfg.negatives, BATCH, rng))
        };
        let model = GcnTape {
            graph,
            val: data.val,
            emb,
            w1,
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
    fn beats_random_on_planted_graph() {
        let dataset = DatasetKind::Amazon.generate(0.008, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let split = EdgeSplit::default_split(&dataset.graph, &mut rng);
        let mut model = Gcn::new(CommonConfig::fast());
        let data = FitData {
            graph: &split.train_graph,
            metapath_shapes: &dataset.metapath_shapes,
            val: &split.val,
        };
        let report = model.fit(&data, &mut rng).expect("fit must succeed");
        assert!(report.epochs_run >= 1);
        let metrics = evaluate(&model, &split.test);
        assert!(
            metrics.roc_auc > 0.58,
            "GCN failed to learn: auc {}",
            metrics.roc_auc
        );
    }
}
