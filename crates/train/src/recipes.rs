//! Reusable sampling recipes: the Batcher stage of the pipeline.
//!
//! Models describe *what* to sample (walk pairs, edge lists); these helpers
//! turn that into ready-to-step minibatches with negatives attached, so the
//! whole sampling stage can run ahead of the compute stage on the prefetch
//! worker.

use mhg_graph::{GraphStore, MultiplexGraph, NodeId, RelationId};
use mhg_sampling::{NegativeSampler, Pair};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// One skip-gram training example: a (center, context) pair tagged with the
/// relation it was walked in, plus pre-sampled negatives for the context.
#[derive(Clone, Debug)]
pub struct PairExample {
    /// Walk center node.
    pub center: NodeId,
    /// Walk context node (the positive target).
    pub context: NodeId,
    /// Relation the walk ran in (`RelationId(0)` for untyped walks).
    pub relation: RelationId,
    /// Negatives drawn from the context node's type.
    pub negatives: Vec<NodeId>,
}

/// Attaches `k` type-aware negatives to each tagged walk pair and chunks the
/// result into batches of `batch` examples (last batch may be short).
pub fn pair_batches<G: GraphStore>(
    graph: &G,
    negatives: &NegativeSampler,
    tagged: Vec<(Pair, RelationId)>,
    k: usize,
    batch: usize,
    rng: &mut StdRng,
) -> Vec<Vec<PairExample>> {
    let batch = batch.max(1);
    let mut out: Vec<Vec<PairExample>> = Vec::with_capacity(tagged.len().div_ceil(batch));
    for chunk in tagged.chunks(batch) {
        let examples = chunk
            .iter()
            .map(|&(pair, relation)| {
                let ty = graph.node_type(pair.context);
                PairExample {
                    center: pair.center,
                    context: pair.context,
                    relation,
                    negatives: negatives.sample_many(ty, pair.context, k, rng),
                }
            })
            .collect();
        out.push(examples);
    }
    out
}

/// One link-prediction minibatch for the tape models: parallel arrays of
/// endpoint pairs with ±1 labels, positives interleaved with their sampled
/// negatives.
#[derive(Clone, Debug, Default)]
pub struct EdgeBatch {
    /// Left endpoints (the anchor of each positive and its negatives).
    pub lefts: Vec<NodeId>,
    /// Right endpoints (the positive target or a sampled negative).
    pub rights: Vec<NodeId>,
    /// Relation of the originating positive edge, per row.
    pub relations: Vec<RelationId>,
    /// `1.0` for positives, `-1.0` for negatives.
    pub labels: Vec<f32>,
}

impl EdgeBatch {
    /// Number of rows (positives + negatives).
    pub fn len(&self) -> usize {
        self.lefts.len()
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.lefts.is_empty()
    }
}

/// Shuffles every edge of `graph` — the `(u, v, r)` positives in
/// `schema().relations()` then `edges_in(r)` order — chunks them into
/// batches of `batch` positives, and expands each positive into a `+1` row
/// plus `k` type-aware negative `-1` rows sharing the anchor `u` and
/// relation `r`.
pub fn edge_batches(
    graph: &MultiplexGraph,
    negatives: &NegativeSampler,
    k: usize,
    batch: usize,
    rng: &mut StdRng,
) -> Vec<EdgeBatch> {
    let batch = batch.max(1);
    let mut edges: Vec<(NodeId, NodeId, RelationId)> = graph
        .schema()
        .relations()
        .flat_map(|r| graph.edges_in(r).map(move |(u, v)| (u, v, r)))
        .collect();
    edges.shuffle(rng);
    let mut out: Vec<EdgeBatch> = Vec::with_capacity(edges.len().div_ceil(batch));
    for chunk in edges.chunks(batch) {
        let mut b = EdgeBatch::default();
        let cap = chunk.len() * (1 + k);
        b.lefts.reserve(cap);
        b.rights.reserve(cap);
        b.relations.reserve(cap);
        b.labels.reserve(cap);
        for &(u, v, r) in chunk {
            b.lefts.push(u);
            b.rights.push(v);
            b.relations.push(r);
            b.labels.push(1.0);
            let ty = graph.node_type(v);
            for neg in negatives.sample_many(ty, v, k, rng) {
                b.lefts.push(u);
                b.rights.push(neg);
                b.relations.push(r);
                b.labels.push(-1.0);
            }
        }
        out.push(b);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhg_graph::{GraphBuilder, MultiplexGraph, Schema};
    use rand::SeedableRng;

    fn toy_graph() -> MultiplexGraph {
        let mut schema = Schema::new();
        let user = schema.add_node_type("user");
        let item = schema.add_node_type("item");
        let r = schema.add_relation("buy");
        let mut b = GraphBuilder::new(schema);
        let u0 = b.add_node(user);
        let u1 = b.add_node(user);
        let i0 = b.add_node(item);
        let i1 = b.add_node(item);
        let i2 = b.add_node(item);
        b.add_edge(u0, i0, r);
        b.add_edge(u0, i1, r);
        b.add_edge(u1, i2, r);
        b.build()
    }

    #[test]
    fn pair_batches_chunk_and_type_negatives() {
        let g = toy_graph();
        let sampler = NegativeSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(3);
        let tagged: Vec<(Pair, RelationId)> = (0..5)
            .map(|i| {
                (
                    Pair {
                        center: NodeId(0),
                        context: NodeId(2 + i % 3),
                    },
                    RelationId(0),
                )
            })
            .collect();
        let batches = pair_batches(&g, &sampler, tagged, 3, 2, &mut rng);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].len(), 2);
        assert_eq!(batches[2].len(), 1);
        let item = g.schema().node_type_id("item").expect("item type");
        for ex in batches.iter().flatten() {
            assert_eq!(ex.negatives.len(), 3);
            for &n in &ex.negatives {
                assert_eq!(g.node_type(n), item, "negatives share the context type");
            }
        }
    }

    #[test]
    fn edge_batches_expand_positives_with_negatives() {
        let g = toy_graph();
        let sampler = NegativeSampler::new(&g);
        let mut rng = StdRng::seed_from_u64(5);
        let batches = edge_batches(&g, &sampler, 2, 2, &mut rng);
        assert_eq!(batches.len(), 2);
        let rows: usize = batches.iter().map(EdgeBatch::len).sum();
        assert_eq!(
            rows,
            g.num_edges() * 3,
            "each positive expands to 1 + k rows"
        );
        for b in &batches {
            assert!(!b.is_empty());
            assert_eq!(b.lefts.len(), b.labels.len());
            assert_eq!(b.rights.len(), b.relations.len());
            let positives = b.labels.iter().filter(|&&l| l > 0.0).count();
            let negs = b.labels.len() - positives;
            assert_eq!(negs, positives * 2);
        }
    }

    #[test]
    fn edge_batches_deterministic_for_seed() {
        let g = toy_graph();
        let sampler = NegativeSampler::new(&g);
        let run = || {
            let mut rng = StdRng::seed_from_u64(9);
            edge_batches(&g, &sampler, 2, 2, &mut rng)
                .into_iter()
                .map(|b| (b.lefts, b.rights, b.relations))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
