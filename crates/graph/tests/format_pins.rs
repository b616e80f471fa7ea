//! Byte pins for the graph crate's on-disk formats.
//!
//! Each test encodes a small fixed input, checks the FNV-1a 64 hash of the
//! bytes against a pinned value, and decodes the bytes back. A changed pin
//! means the on-disk format changed: files written by older builds would no
//! longer be read back identically.

use mhg_ckpt::fnv1a64;
use mhg_graph::shard_codec::{
    decode_manifest, decode_shard, encode_manifest, encode_shard, Manifest, ShardMeta,
};
use mhg_graph::{persist, GraphBuilder, MultiplexGraph, NodeId, NodeTypeId, Schema};

const MHG1_PIN: u64 = 0x6408_9b3e_ad6c_2cd5;
const MHGS_PIN: u64 = 0x8ec8_f4e9_605b_2025;
const MHSH_PIN: u64 = 0xe499_b488_22d5_9aa6;

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

fn sample_manifest() -> Manifest {
    let mut schema = Schema::new();
    schema.add_node_type("user");
    schema.add_node_type("item");
    schema.add_relation("view");
    Manifest {
        schema,
        node_types: vec![NodeTypeId(0), NodeTypeId(0), NodeTypeId(1)],
        shards: vec![vec![
            ShardMeta {
                start: 0,
                end: 2,
                num_targets: 2,
            },
            ShardMeta {
                start: 2,
                end: 3,
                num_targets: 2,
            },
        ]],
        offsets: vec![vec![0, 1, 2, 4]],
    }
}

#[test]
fn mhg1_snapshot_bytes_are_pinned() {
    let g = sample_graph();
    let bytes = persist::encode(&g);
    assert_eq!(&bytes[..4], b"MHG1");
    let hash = fnv1a64(&bytes);
    assert_eq!(hash, MHG1_PIN, "MHG1 hash {hash:#018x}");
    let back = persist::decode(&bytes).expect("decode");
    assert_eq!(back.schema(), g.schema());
    for v in g.nodes() {
        assert_eq!(back.node_type(v), g.node_type(v));
        for r in g.schema().relations() {
            assert_eq!(back.neighbors(v, r), g.neighbors(v, r));
        }
    }
}

#[test]
fn mhgs_manifest_bytes_are_pinned() {
    let m = sample_manifest();
    let bytes = encode_manifest(&m);
    assert_eq!(&bytes[..4], b"MHGS");
    let hash = fnv1a64(&bytes);
    assert_eq!(hash, MHGS_PIN, "MHGS hash {hash:#018x}");
    let back = decode_manifest(&bytes).expect("decode");
    assert_eq!(back.schema, m.schema);
    assert_eq!(back.node_types, m.node_types);
    assert_eq!(back.shards, m.shards);
    assert_eq!(back.offsets, m.offsets);
}

#[test]
fn mhsh_shard_bytes_are_pinned() {
    let meta = ShardMeta {
        start: 2,
        end: 3,
        num_targets: 2,
    };
    let targets = [NodeId(0), NodeId(1)];
    let bytes = encode_shard(1, 7, &meta, &targets);
    assert_eq!(&bytes[..4], b"MHSH");
    let hash = fnv1a64(&bytes);
    assert_eq!(hash, MHSH_PIN, "MHSH hash {hash:#018x}");
    let back = decode_shard(&bytes, 1, 7, &meta, 3).expect("decode");
    assert_eq!(back, targets);
}
