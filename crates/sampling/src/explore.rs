//! Randomized inter-relationship exploration (paper §III-B, Eq. 1–2).
//!
//! The module's two-phase transition from a node `v_t`:
//!
//! 1. Draw a relation `r_{t+1}` uniformly from the relations under which
//!    `v_t` has at least one neighbor (Eq. 1).
//! 2. Draw `v_{t+1}` uniformly from `N_{r_{t+1}}(v_t)` (Eq. 2).
//!
//! This is the paper's first mechanism for injecting *inter-relationship*
//! information into relationship-specific representations: the walk crosses
//! relation-specific subgraphs freely, compensating for the locality of
//! intra-relationship metapaths.

use rand::Rng;

use mhg_graph::{GraphStore, MultiplexGraph, NodeId, RelationId};

use crate::walks::Walk;

/// The paper's two-phase inter-relationship explorer.
///
/// Generic over the [`GraphStore`] backend: the two RNG draws per step
/// depend only on active-relation lists and degrees, which every conforming
/// backend reports identically.
pub struct InterRelationshipExplorer<'g, G: GraphStore = MultiplexGraph> {
    graph: &'g G,
}

impl<'g, G: GraphStore> InterRelationshipExplorer<'g, G> {
    /// Creates an explorer over `graph`.
    pub fn new(graph: &'g G) -> Self {
        Self { graph }
    }

    /// One two-phase transition from `v`: returns the sampled relation and
    /// neighbor, or `None` if `v` is isolated.
    pub fn step<R: Rng + ?Sized>(&self, v: NodeId, rng: &mut R) -> Option<(RelationId, NodeId)> {
        // Phase 1 (Eq. 1): uniform over relations with non-empty N_r(v),
        // counted and indexed in place of collecting them.
        let active = |r: &RelationId| self.graph.degree(v, *r) > 0;
        let count = self.graph.schema().relations().filter(active).count();
        if count == 0 {
            return None;
        }
        let k = rng.gen_range(0..count);
        let r = self.graph.schema().relations().filter(active).nth(k)?;
        // Phase 2 (Eq. 2): uniform over N_r(v).
        let d = self.graph.degree(v, r);
        let u = self.graph.neighbor_at(v, r, rng.gen_range(0..d));
        Some((r, u))
    }

    /// Generates an exploration walk of at most `length` nodes.
    pub fn walk<R: Rng + ?Sized>(&self, start: NodeId, length: usize, rng: &mut R) -> Walk {
        let mut walk = Vec::with_capacity(length);
        walk.push(start);
        let mut current = start;
        while walk.len() < length {
            let Some((_, next)) = self.step(current, rng) else {
                break;
            };
            walk.push(next);
            current = next;
        }
        walk
    }

    /// Samples the layered neighbor sets `N^1_rand(v) … N^L_rand(v)` used by
    /// the randomized aggregation flow (Eq. 4): at each depth, each frontier
    /// node contributes up to `fan_out` two-phase samples; each layer is
    /// truncated to `max_layer` nodes to bound aggregation cost.
    ///
    /// Layer 0 (`{v}`) is included as the first entry.
    pub fn layered_neighbors<R: Rng + ?Sized>(
        &self,
        v: NodeId,
        depth: usize,
        fan_out: usize,
        max_layer: usize,
        rng: &mut R,
    ) -> Vec<Vec<NodeId>> {
        let mut layers = Vec::with_capacity(depth + 1);
        layers.push(vec![v]);
        for _ in 0..depth {
            let Some(frontier) = layers.last() else { break };
            let mut next = Vec::with_capacity(frontier.len().saturating_mul(fan_out));
            for &u in frontier {
                for _ in 0..fan_out {
                    if let Some((_, w)) = self.step(u, rng) {
                        next.push(w);
                    }
                    if next.len() >= max_layer {
                        break;
                    }
                }
                if next.len() >= max_layer {
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
    use mhg_graph::{GraphBuilder, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// Node 0 has: 1 neighbor under r0 (node 1), and 3 neighbors under r1
    /// (nodes 2, 3, 4). Eq. 1 gives each *relation* probability 1/2, so node
    /// 1 should be reached with p=0.5 and nodes 2-4 with p=1/6 each — NOT
    /// degree-proportional.
    fn star() -> MultiplexGraph {
        let mut schema = Schema::new();
        let t = schema.add_node_type("x");
        let r0 = schema.add_relation("r0");
        let r1 = schema.add_relation("r1");
        let mut b = GraphBuilder::new(schema);
        let nodes: Vec<_> = (0..5).map(|_| b.add_node(t)).collect();
        b.add_edge(nodes[0], nodes[1], r0);
        b.add_edge(nodes[0], nodes[2], r1);
        b.add_edge(nodes[0], nodes[3], r1);
        b.add_edge(nodes[0], nodes[4], r1);
        b.build()
    }

    #[test]
    fn two_phase_distribution_matches_eq1_eq2() {
        let g = star();
        let ex = InterRelationshipExplorer::new(&g);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts: HashMap<u32, usize> = HashMap::new();
        let draws = 60_000;
        for _ in 0..draws {
            let (_, u) = ex.step(NodeId(0), &mut rng).unwrap();
            *counts.entry(u.0).or_insert(0) += 1;
        }
        let freq = |i: u32| counts.get(&i).copied().unwrap_or(0) as f64 / draws as f64;
        assert!((freq(1) - 0.5).abs() < 0.02, "node 1 freq {}", freq(1));
        for i in 2..=4 {
            assert!(
                (freq(i) - 1.0 / 6.0).abs() < 0.02,
                "node {i} freq {}",
                freq(i)
            );
        }
    }

    #[test]
    fn isolated_node_yields_none() {
        let mut schema = Schema::new();
        let t = schema.add_node_type("x");
        schema.add_relation("r");
        let mut b = GraphBuilder::new(schema);
        let n = b.add_node(t);
        let g = b.build();
        let ex = InterRelationshipExplorer::new(&g);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(ex.step(n, &mut rng).is_none());
        assert_eq!(ex.walk(n, 5, &mut rng), vec![n]);
    }

    #[test]
    fn walk_crosses_relations() {
        // A path where consecutive hops REQUIRE different relations:
        // 0 -r0- 1 -r1- 2. A pure intra-relationship walker could never
        // reach node 2 from node 0.
        let mut schema = Schema::new();
        let t = schema.add_node_type("x");
        let r0 = schema.add_relation("r0");
        let r1 = schema.add_relation("r1");
        let mut b = GraphBuilder::new(schema);
        let n0 = b.add_node(t);
        let n1 = b.add_node(t);
        let n2 = b.add_node(t);
        b.add_edge(n0, n1, r0);
        b.add_edge(n1, n2, r1);
        let g = b.build();

        let ex = InterRelationshipExplorer::new(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let mut reached = false;
        for _ in 0..100 {
            let walk = ex.walk(n0, 4, &mut rng);
            if walk.contains(&n2) {
                reached = true;
                break;
            }
        }
        assert!(reached, "exploration should cross relation boundaries");
    }

    #[test]
    fn layered_neighbors_shape() {
        let g = star();
        let ex = InterRelationshipExplorer::new(&g);
        let mut rng = StdRng::seed_from_u64(3);
        let layers = ex.layered_neighbors(NodeId(0), 2, 4, 16, &mut rng);
        assert_eq!(layers[0], vec![NodeId(0)]);
        assert!(layers.len() >= 2);
        assert!(layers[1].len() <= 4);
        // All layer-1 nodes must be actual neighbors of node 0 (any relation).
        for &u in &layers[1] {
            assert!(g.has_any_edge(NodeId(0), u));
        }
    }

    #[test]
    fn layered_neighbors_respects_max_layer() {
        let g = star();
        let ex = InterRelationshipExplorer::new(&g);
        let mut rng = StdRng::seed_from_u64(4);
        let layers = ex.layered_neighbors(NodeId(0), 3, 10, 5, &mut rng);
        for layer in &layers[1..] {
            assert!(layer.len() <= 5, "layer exceeded cap: {}", layer.len());
        }
    }
}
