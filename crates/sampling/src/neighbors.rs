//! Metapath-guided neighbor sampling (paper Def. 5).
//!
//! For a node `v` and scheme `P = o_0 -r_1-> … -r_K-> o_K`, the layered sets
//! `N^k_P(v)` contain the nodes reachable at step `k` along instances of
//! `P`. The hybrid aggregation flow (Eq. 3) consumes these layers
//! leaves-to-root. Fan-out and layer caps bound the cost, mirroring
//! GraphSage-style fixed-size sampling the paper's complexity analysis
//! assumes (`∏ N_i · d_k²`).

use rand::seq::SliceRandom;
use rand::Rng;

use mhg_graph::{GraphStore, MetapathScheme, MultiplexGraph, NodeId};

/// Layered metapath-guided neighbors: `layers[0] = [v]`,
/// `layers[k] ⊆ N^k_P(v)`.
pub type LayeredNeighbors = Vec<Vec<NodeId>>;

/// Samples `N^k_P(v)` layer by layer with per-parent fan-out and a per-layer
/// size cap.
pub struct MetapathNeighborSampler<'g, G: GraphStore = MultiplexGraph> {
    graph: &'g G,
    fan_out: usize,
    max_layer: usize,
}

impl<'g, G: GraphStore> MetapathNeighborSampler<'g, G> {
    /// Creates a sampler with the given per-parent fan-out and per-layer cap.
    ///
    /// # Panics
    ///
    /// Panics if `fan_out` or `max_layer` is zero.
    pub fn new(graph: &'g G, fan_out: usize, max_layer: usize) -> Self {
        assert!(fan_out > 0 && max_layer > 0, "caps must be positive");
        Self {
            graph,
            fan_out,
            max_layer,
        }
    }

    /// Samples layered neighbors of `v` under `scheme`.
    ///
    /// Returns `[[v]]` (a single layer) when `v`'s type doesn't match the
    /// scheme source or the first hop has no candidates — the caller then
    /// knows the scheme contributes no flow for this node.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        v: NodeId,
        scheme: &MetapathScheme,
        rng: &mut R,
    ) -> LayeredNeighbors {
        let mut layers: LayeredNeighbors = Vec::with_capacity(scheme.len() + 1);
        layers.push(vec![v]);
        if self.graph.node_type(v) != scheme.source_type() {
            return layers;
        }
        // One candidate buffer for the whole call.
        let mut candidates: Vec<NodeId> = Vec::new();
        for (hop, (&r, &want)) in scheme
            .relations()
            .iter()
            .zip(&scheme.node_types()[1..])
            .enumerate()
        {
            let frontier = &layers[hop];
            let mut next = Vec::with_capacity(frontier.len().saturating_mul(self.fan_out));
            for &u in frontier {
                candidates.clear();
                self.graph.with_neighbors(u, r, |ns| {
                    candidates.extend(
                        ns.iter()
                            .copied()
                            .filter(|&w| self.graph.node_type(w) == want),
                    )
                });
                if candidates.is_empty() {
                    continue;
                }
                if candidates.len() <= self.fan_out {
                    // Small neighborhood: take every candidate exactly once
                    // instead of drawing with replacement, so coverage does
                    // not depend on the RNG stream.
                    for &w in &candidates {
                        next.push(w);
                        if next.len() >= self.max_layer {
                            break;
                        }
                    }
                } else {
                    for _ in 0..self.fan_out {
                        next.push(candidates[rng.gen_range(0..candidates.len())]);
                        if next.len() >= self.max_layer {
                            break;
                        }
                    }
                }
                if next.len() >= self.max_layer {
                    break;
                }
            }
            if next.is_empty() {
                break;
            }
            layers.push(next);
        }
        layers
    }
}

/// Uniform neighbor sampler over the flattened graph — used by the
/// `w/o hybrid aggregation flow` ablation (paper Table VIII) and the
/// GraphSage baseline.
pub struct UniformNeighborSampler<'g, G: GraphStore = MultiplexGraph> {
    graph: &'g G,
    fan_out: usize,
    max_layer: usize,
}

impl<'g, G: GraphStore> UniformNeighborSampler<'g, G> {
    /// Creates a sampler with the given caps.
    ///
    /// # Panics
    ///
    /// Panics if `fan_out` or `max_layer` is zero.
    pub fn new(graph: &'g G, fan_out: usize, max_layer: usize) -> Self {
        assert!(fan_out > 0 && max_layer > 0, "caps must be positive");
        Self {
            graph,
            fan_out,
            max_layer,
        }
    }

    /// Samples `depth` layers of uniform neighbors (all relations merged).
    pub fn sample<R: Rng + ?Sized>(
        &self,
        v: NodeId,
        depth: usize,
        rng: &mut R,
    ) -> LayeredNeighbors {
        let mut layers: LayeredNeighbors = Vec::with_capacity(depth + 1);
        layers.push(vec![v]);
        for _ in 0..depth {
            let Some(frontier) = layers.last() else { break };
            let mut next = Vec::new();
            for &u in frontier {
                // Merge neighbors across relations, then sample.
                let mut all: Vec<NodeId> = Vec::with_capacity(self.graph.total_degree(u));
                for r in self.graph.schema().relations() {
                    self.graph.push_neighbors(u, r, &mut all);
                }
                if all.is_empty() {
                    continue;
                }
                all.shuffle(rng);
                for &w in all.iter().take(self.fan_out) {
                    next.push(w);
                    if next.len() >= self.max_layer {
                        break;
                    }
                }
                if next.len() >= self.max_layer {
                    break;
                }
            }
            if next.is_empty() {
                break;
            }
            layers.push(next);
        }
        layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhg_graph::{GraphBuilder, MetapathScheme, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Fig. 1-style graph: videos v1; users u1, u2; author a1.
    /// v1 -like- u1, v1 -like- u2 (video liked by users);
    /// u1 -comment- a1, u2 -comment- a1.
    fn fig1() -> MultiplexGraph {
        let mut schema = Schema::new();
        let video = schema.add_node_type("video");
        let user = schema.add_node_type("user");
        let author = schema.add_node_type("author");
        let like = schema.add_relation("like");
        let comment = schema.add_relation("comment");
        let mut b = GraphBuilder::new(schema);
        let v1 = b.add_node(video);
        let u1 = b.add_node(user);
        let u2 = b.add_node(user);
        let a1 = b.add_node(author);
        b.add_edge(v1, u1, like);
        b.add_edge(v1, u2, like);
        b.add_edge(u1, a1, comment);
        b.add_edge(u2, a1, comment);
        b.build()
    }

    /// The paper's running example: P = Video -like-> User -comment-> Author
    /// gives N⁰(v1)={v1}, N¹(v1)={u1,u2}, N²(v1)={a1}.
    #[test]
    fn paper_example_layers() {
        let g = fig1();
        let s = g.schema();
        let scheme = MetapathScheme::new(
            vec![
                s.node_type_id("video").unwrap(),
                s.node_type_id("user").unwrap(),
                s.node_type_id("author").unwrap(),
            ],
            vec![
                s.relation_id("like").unwrap(),
                s.relation_id("comment").unwrap(),
            ],
        );
        let sampler = MetapathNeighborSampler::new(&g, 8, 64);
        let mut rng = StdRng::seed_from_u64(1);
        let layers = sampler.sample(NodeId(0), &scheme, &mut rng);
        assert_eq!(layers.len(), 3);
        assert_eq!(layers[0], vec![NodeId(0)]);
        // Layer 1 must contain only u1/u2; layer 2 only a1.
        assert!(layers[1].iter().all(|&n| n == NodeId(1) || n == NodeId(2)));
        let mut uniq1: Vec<_> = layers[1].clone();
        uniq1.sort_unstable();
        uniq1.dedup();
        assert_eq!(uniq1, vec![NodeId(1), NodeId(2)]);
        assert!(layers[2].iter().all(|&n| n == NodeId(3)));
    }

    #[test]
    fn wrong_source_type_gives_single_layer() {
        let g = fig1();
        let s = g.schema();
        let scheme = MetapathScheme::intra(
            vec![
                s.node_type_id("user").unwrap(),
                s.node_type_id("author").unwrap(),
            ],
            s.relation_id("comment").unwrap(),
        );
        let sampler = MetapathNeighborSampler::new(&g, 4, 16);
        let mut rng = StdRng::seed_from_u64(2);
        // Node 0 is a video; scheme starts at user.
        let layers = sampler.sample(NodeId(0), &scheme, &mut rng);
        assert_eq!(layers.len(), 1);
    }

    #[test]
    fn fan_out_and_cap_respected() {
        let g = fig1();
        let s = g.schema();
        let scheme = MetapathScheme::intra(
            vec![
                s.node_type_id("video").unwrap(),
                s.node_type_id("user").unwrap(),
                s.node_type_id("video").unwrap(),
            ],
            s.relation_id("like").unwrap(),
        );
        let sampler = MetapathNeighborSampler::new(&g, 1, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let layers = sampler.sample(NodeId(0), &scheme, &mut rng);
        for layer in &layers[1..] {
            assert!(layer.len() <= 1);
        }
    }

    #[test]
    fn metapath_layers_respect_relation() {
        // Scheme under `like` only: layer-1 of u1 must not contain a1
        // (u1's only like-neighbor is v1).
        let g = fig1();
        let s = g.schema();
        let scheme = MetapathScheme::intra(
            vec![
                s.node_type_id("user").unwrap(),
                s.node_type_id("video").unwrap(),
            ],
            s.relation_id("like").unwrap(),
        );
        let sampler = MetapathNeighborSampler::new(&g, 4, 16);
        let mut rng = StdRng::seed_from_u64(4);
        let layers = sampler.sample(NodeId(1), &scheme, &mut rng);
        assert_eq!(layers.len(), 2);
        assert!(layers[1].iter().all(|&n| n == NodeId(0)));
    }

    #[test]
    fn uniform_sampler_merges_relations() {
        let g = fig1();
        let sampler = UniformNeighborSampler::new(&g, 8, 64);
        let mut rng = StdRng::seed_from_u64(5);
        // u1's merged neighborhood = {v1 (like), a1 (comment)}.
        let mut seen_video = false;
        let mut seen_author = false;
        for _ in 0..50 {
            let layers = sampler.sample(NodeId(1), 1, &mut rng);
            for &n in &layers[1] {
                if n == NodeId(0) {
                    seen_video = true;
                }
                if n == NodeId(3) {
                    seen_author = true;
                }
            }
        }
        assert!(seen_video && seen_author);
    }
}
