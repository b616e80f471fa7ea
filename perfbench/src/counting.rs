//! A transparent counting and timing [`GraphStore`] wrapper.
//!
//! Every call that reads a neighbor list is forwarded to the wrapped store
//! unchanged and timed from outside; O(1) metadata calls (`degree`,
//! `node_type`, …) are forwarded untimed. Because the wrapper presents the
//! inner store's lists verbatim, the store determinism contract makes every
//! walk stream and embedding identical with and without it — the workloads
//! check exactly that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mhg_graph::{GraphStore, NodeId, NodeTypeId, RelationId, Schema};

/// Sub-buckets per power of two: quantiles resolve to within ~6%.
const SUB: u64 = 16;
const SUB_BITS: u32 = 4;
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Log-linear latency histogram over nanoseconds, safe to share between
/// threads. Counts are statistics only and publish no other data, so
/// relaxed atomics suffice.
pub struct LatencyHist {
    buckets: Vec<AtomicU64>,
}

impl LatencyHist {
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = (ns >> (exp - SUB_BITS)) & (SUB - 1);
        ((u64::from(exp - SUB_BITS + 1)) * SUB + sub) as usize
    }

    /// Midpoint of bucket `i`'s value range.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < SUB {
            return i as f64;
        }
        let exp = i / SUB + u64::from(SUB_BITS) - 1;
        let sub = i % SUB;
        let width = 1u64 << (exp - u64::from(SUB_BITS));
        ((SUB + sub) * width) as f64 + width as f64 / 2.0
    }

    pub fn record(&self, ns: u64) {
        self.buckets[Self::index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// The `p`-th percentile (`p ∈ [0, 100]`) in nanoseconds; 0 if empty.
    pub fn percentile(&self, p: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        Self::value(BUCKETS - 1)
    }
}

/// Neighbor-access totals of a [`CountingStore`].
pub struct NeighborStats {
    pub calls: u64,
    pub total_s: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// Wraps any [`GraphStore`], counting and timing neighbor-list reads.
pub struct CountingStore<'a, G: GraphStore> {
    inner: &'a G,
    calls: AtomicU64,
    total_ns: AtomicU64,
    hist: LatencyHist,
}

impl<'a, G: GraphStore> CountingStore<'a, G> {
    pub fn new(inner: &'a G) -> Self {
        Self {
            inner,
            calls: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            hist: LatencyHist::new(),
        }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.hist.record(ns);
        out
    }

    pub fn stats(&self) -> NeighborStats {
        NeighborStats {
            calls: self.calls.load(Ordering::Relaxed),
            total_s: self.total_ns.load(Ordering::Relaxed) as f64 / 1e9,
            p50_ns: self.hist.percentile(50.0),
            p99_ns: self.hist.percentile(99.0),
        }
    }
}

impl<G: GraphStore> GraphStore for CountingStore<'_, G> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn node_type(&self, v: NodeId) -> NodeTypeId {
        self.inner.node_type(v)
    }

    fn nodes_of_type(&self, ty: NodeTypeId) -> &[NodeId] {
        self.inner.nodes_of_type(ty)
    }

    fn degree(&self, v: NodeId, r: RelationId) -> usize {
        self.inner.degree(v, r)
    }

    fn num_directed_edges_in(&self, r: RelationId) -> usize {
        self.inner.num_directed_edges_in(r)
    }

    fn with_neighbors<T>(&self, v: NodeId, r: RelationId, f: impl FnOnce(&[NodeId]) -> T) -> T {
        self.timed(|| self.inner.with_neighbors(v, r, f))
    }

    fn neighbor_at(&self, v: NodeId, r: RelationId, i: usize) -> NodeId {
        self.timed(|| self.inner.neighbor_at(v, r, i))
    }

    fn push_neighbors(&self, v: NodeId, r: RelationId, out: &mut Vec<NodeId>) {
        self.timed(|| self.inner.push_neighbors(v, r, out));
    }

    fn total_degree(&self, v: NodeId) -> usize {
        self.inner.total_degree(v)
    }

    fn active_relations(&self, v: NodeId) -> Vec<RelationId> {
        self.inner.active_relations(v)
    }

    fn has_edge(&self, u: NodeId, v: NodeId, r: RelationId) -> bool {
        self.timed(|| self.inner.has_edge(u, v, r))
    }

    fn has_any_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.timed(|| self.inner.has_any_edge(u, v))
    }

    fn num_edges_in(&self, r: RelationId) -> usize {
        self.inner.num_edges_in(r)
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_round_trip() {
        for ns in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456, 10_000_000_000] {
            let mid = LatencyHist::value(LatencyHist::index(ns));
            let err = (mid - ns as f64).abs() / (ns as f64).max(1.0);
            assert!(err <= 1.0 / 16.0, "ns {ns} -> {mid}");
        }
        assert!(LatencyHist::index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn histogram_percentiles() {
        let h = LatencyHist::new();
        for ns in 1..=1000u64 {
            h.record(ns);
        }
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!((p50 - 500.0).abs() < 32.0, "p50 {p50}");
        assert!((p99 - 990.0).abs() < 64.0, "p99 {p99}");
    }
}
