//! Binary snapshot persistence for [`MultiplexGraph`] (magic `MHG1`).
//!
//! Built on [`mhg_ckpt::wire`]: length-prefixed strings and little-endian
//! arrays behind a magic header and a version byte. Used by the benchmark
//! harness and the CLI to cache generated datasets between runs.
//!
//! Decoding is hardened against hostile input: every length prefix is
//! validated against the bytes actually remaining before any allocation, so
//! corrupt or truncated snapshots produce a typed [`WireError`] — never a
//! panic or an attempted multi-gigabyte allocation. Writes go through
//! [`mhg_ckpt::atomic_write`], so a crash mid-save leaves the previous
//! snapshot intact.

use std::io;
use std::path::Path;

use mhg_ckpt::wire::{size_u32, Reader, WireError, Writer};

use crate::csr::Csr;
use crate::store::GraphStore;
use crate::{MultiplexGraph, NodeId, NodeTypeId, Schema};

const MAGIC: &[u8; 4] = b"MHG1";
const VERSION: u8 = 1;

/// Serialises any graph store to bytes.
///
/// The CSR sections are reconstructed from the [`GraphStore`] contract
/// (degrees and sorted neighbor lists), so a [`crate::ShardedCsr`] snapshots
/// to bytes identical to the in-RAM graph built from the same edges.
pub fn encode<G: GraphStore>(graph: &G) -> Vec<u8> {
    let mut w = Writer::with_capacity(64 + graph.num_nodes() * 6 + graph.num_edges() * 10);
    w.bytes(MAGIC);
    w.u8(VERSION);

    let schema = graph.schema();
    w.str_list(schema.node_type_names());
    w.str_list(schema.relation_names());

    w.len_u32(graph.num_nodes(), "node count");
    for v in graph.node_id_range().map(NodeId) {
        w.u16(graph.node_type(v).0);
    }

    for r in schema.relations() {
        w.len_u32(graph.num_nodes() + 1, "CSR offset count");
        let mut off = 0u32;
        w.u32(off);
        for v in graph.node_id_range().map(NodeId) {
            let d = size_u32(graph.degree(v, r), "node degree");
            off = off
                .checked_add(d)
                .unwrap_or_else(|| size_u32(usize::MAX, "CSR offset"));
            w.u32(off);
        }
        w.len_u32(graph.num_directed_edges_in(r), "CSR target count");
        for v in graph.node_id_range().map(NodeId) {
            graph.with_neighbors(v, r, |ns| {
                for &t in ns {
                    w.u32(t.0);
                }
            });
        }
    }

    w.finish()
}

/// Deserialises a graph from bytes.
pub fn decode(buf: &[u8]) -> Result<MultiplexGraph, WireError> {
    let mut r = Reader::new(buf);
    r.need(5)?;
    r.magic(MAGIC)?;
    let version = r.u8()?;
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version.into()));
    }

    let node_type_names = r.str_list()?;
    let relation_names = r.str_list()?;
    let mut schema = Schema::new();
    for n in &node_type_names {
        schema.add_node_type(n);
    }
    for rel in &relation_names {
        schema.add_relation(rel);
    }

    let num_nodes = r.u32()? as usize;
    let node_types = r.u16s(num_nodes)?;
    if node_types
        .iter()
        .any(|&t| t as usize >= schema.num_node_types())
    {
        return Err(WireError::Truncated);
    }
    let node_types = node_types.into_iter().map(NodeTypeId).collect();

    let mut adjacency = Vec::with_capacity(schema.num_relations());
    for _ in 0..schema.num_relations() {
        let n_off = r.u32()? as usize;
        if n_off != num_nodes + 1 {
            return Err(WireError::Truncated);
        }
        let offsets = r.u32s(n_off)?;
        let n_tgt = r.u32()? as usize;
        if offsets.last().is_none_or(|&last| last as usize != n_tgt) {
            return Err(WireError::Truncated);
        }
        let targets = r.u32s(n_tgt)?;
        if targets.iter().any(|&t| t as usize >= num_nodes)
            || !offsets.windows(2).all(|w| w[0] <= w[1])
        {
            return Err(WireError::Truncated);
        }
        let targets = targets.into_iter().map(NodeId).collect();
        adjacency.push(Csr::from_parts(offsets, targets));
    }

    Ok(MultiplexGraph::from_parts(schema, node_types, adjacency))
}

/// Writes a snapshot to a file atomically (write-temp + fsync + rename):
/// a crash mid-save never leaves a half-written snapshot at `path`.
pub fn save(graph: &MultiplexGraph, path: impl AsRef<Path>) -> io::Result<()> {
    mhg_ckpt::atomic_write(path, &encode(graph))
}

/// Reads a snapshot from a file.
pub fn load(path: impl AsRef<Path>) -> io::Result<MultiplexGraph> {
    let data = std::fs::read(path)?;
    decode(&data).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, RelationId};

    fn sample_graph() -> MultiplexGraph {
        let mut schema = Schema::new();
        let user = schema.add_node_type("user");
        let item = schema.add_node_type("item");
        let view = schema.add_relation("view");
        let buy = schema.add_relation("buy");
        let mut b = GraphBuilder::new(schema);
        let u0 = b.add_node(user);
        let u1 = b.add_node(user);
        let i0 = b.add_node(item);
        let i1 = b.add_node(item);
        b.add_edge(u0, i0, view);
        b.add_edge(u0, i0, buy);
        b.add_edge(u1, i1, view);
        b.add_edge(u0, i1, view);
        b.build()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample_graph();
        let bytes = encode(&g);
        let g2 = decode(&bytes).expect("decode");
        assert_eq!(g.num_nodes(), g2.num_nodes());
        assert_eq!(g.num_edges(), g2.num_edges());
        assert_eq!(g.schema(), g2.schema());
        for v in g.nodes() {
            assert_eq!(g.node_type(v), g2.node_type(v));
            for r in g.schema().relations() {
                assert_eq!(g.neighbors(v, r), g2.neighbors(v, r));
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let _guard = mhg_faults::test_guard(); // save() has injectable IO sites
        let g = sample_graph();
        let dir = std::env::temp_dir().join("mhg_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.mhg");
        save(&g, &path).unwrap();
        let g2 = load(&path).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(decode(b"nope"), Err(WireError::Truncated)));
        assert!(matches!(decode(b"XXXX\x01rest"), Err(WireError::BadMagic)));
        assert!(matches!(
            decode(b"MHG1\x63rest"),
            Err(WireError::UnsupportedVersion(0x63))
        ));
    }

    #[test]
    fn rejects_truncation_at_every_cut() {
        let g = sample_graph();
        let bytes = encode(&g);
        // Chop the buffer at EVERY point; decode must error, not panic.
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "cut at {cut} should fail cleanly"
            );
        }
        let _ = RelationId(0); // silence unused import in cfg(test)
    }

    #[test]
    fn survives_every_single_bit_flip() {
        let g = sample_graph();
        let bytes = encode(&g).to_vec();
        // A flipped bit may still decode to a *different valid* graph
        // (e.g. a changed node id that stays in range) — that's fine. What
        // must never happen is a panic or a runaway allocation.
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                let _ = decode(&corrupt);
            }
        }
    }

    #[test]
    fn hostile_length_prefixes_fail_fast_without_allocating() {
        // A header promising u32::MAX nodes with almost no payload must be
        // rejected before any proportional allocation happens.
        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u8(VERSION);
        w.u16(1); // 1 node type
        w.u16(1);
        w.bytes(b"t");
        w.u16(1); // 1 relation
        w.u16(1);
        w.bytes(b"r");
        w.u32(u32::MAX); // hostile node count
        w.u16(0);
        assert!(matches!(decode(&w.finish()), Err(WireError::Truncated)));

        // Same for a hostile string-list count.
        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u8(VERSION);
        w.u16(u16::MAX); // hostile name count, no payload
        assert!(matches!(decode(&w.finish()), Err(WireError::Truncated)));
    }

    #[test]
    fn save_is_atomic_under_injected_io_faults() {
        use mhg_faults::FaultSite;
        let _guard = mhg_faults::test_guard();
        let g = sample_graph();
        let dir = std::env::temp_dir().join("mhg_persist_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.mhg");
        save(&g, &path).unwrap();

        // With a write fault armed, the failed save must leave the previous
        // snapshot readable.
        mhg_faults::install(mhg_faults::FaultPlan::new().inject(FaultSite::IoWrite, 1));
        assert!(
            save(&g, &path).is_err(),
            "injected write fault must surface"
        );
        mhg_faults::clear();
        let g2 = load(&path).expect("previous snapshot must survive a failed save");
        assert_eq!(g.num_edges(), g2.num_edges());
        std::fs::remove_file(path).ok();
    }
}
