//! No-panic properties for every decoder built on `mhg_ckpt::wire`.
//!
//! Arbitrary bytes, and valid encodings with random damage (byte edits,
//! cuts, and a re-signed checksum trailer so the damage reaches past the
//! checksum), must decode to `Ok` or `Err` — never panic — and must never
//! request a single allocation larger than a small multiple of the input.
//! A counting global allocator records the largest request per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mhg_ckpt::{fnv1a64, EmbeddingTables, StateDict};
use mhg_graph::shard_codec::{
    decode_manifest, decode_shard, encode_manifest, encode_shard, Manifest, ShardMeta,
};
use mhg_graph::{persist, GraphBuilder, NodeId, NodeTypeId, Schema};
use mhg_tensor::Tensor;
use proptest::prelude::*;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct LargestRequest;

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only records a size in a
// const-initialised thread-local and never allocates.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

const SHARD_META: ShardMeta = ShardMeta {
    start: 1,
    end: 3,
    num_targets: 3,
};

type Decoder = fn(&[u8]) -> bool;

/// Every decoder, with a valid encoding to damage.
fn decoders() -> Vec<(&'static str, Vec<u8>, Decoder)> {
    let mut schema = Schema::new();
    let user = schema.add_node_type("user");
    let item = schema.add_node_type("item");
    let view = schema.add_relation("view");
    let mut b = GraphBuilder::new(schema.clone());
    let u = b.add_node(user);
    let i = b.add_node(item);
    let j = b.add_node(item);
    b.add_edge(u, i, view);
    b.add_edge(u, j, view);
    let graph = b.build();

    let manifest = Manifest {
        schema,
        node_types: vec![NodeTypeId(0), NodeTypeId(1), NodeTypeId(1)],
        shards: vec![vec![
            ShardMeta {
                start: 0,
                end: 1,
                num_targets: 2,
            },
            SHARD_META,
        ]],
        offsets: vec![vec![0, 2, 3, 5]],
    };

    let mut dict = StateDict::new();
    dict.put_tensor("t", Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
    dict.put_u64s("rng", vec![7, 8]);
    dict.put_bytes("blob", vec![1, 2, 3]);
    dict.put_f64("best", 0.5);

    vec![
        ("MHG1", persist::encode(&graph), |b| {
            persist::decode(b).is_ok()
        }),
        ("MHGS", encode_manifest(&manifest), |b| {
            decode_manifest(b).is_ok()
        }),
        (
            "MHSH",
            encode_shard(0, 1, &SHARD_META, &[NodeId(0), NodeId(0), NodeId(2)]),
            |b| decode_shard(b, 0, 1, &SHARD_META, 3).is_ok(),
        ),
        ("MHGC", mhg_ckpt::encode(&dict), |b| {
            mhg_ckpt::decode(b).is_ok()
        }),
        (
            "MHE2",
            EmbeddingTables::new(2, 3, 2, vec![0.25; 12]).encode(),
            |b| EmbeddingTables::decode(b).is_ok(),
        ),
    ]
}

/// Runs `decode` on `input` (a panic fails the property) and checks the
/// largest allocation it requested.
fn check(name: &str, input: &[u8], decode: Decoder) -> Result<(), TestCaseError> {
    LARGEST.with(|l| l.set(0));
    let _ = decode(input);
    let largest = LARGEST.with(Cell::get);
    let bound = 8 * input.len() + 4096;
    prop_assert!(
        largest <= bound,
        "{name}: decoding {} bytes requested {largest} bytes at once",
        input.len()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(
        raw in proptest::collection::vec(any::<u8>(), 0..256),
        keep_header in any::<bool>(),
    ) {
        for (name, valid, decode) in decoders() {
            // Half the cases keep a valid header so the body is reached.
            let mut input = if keep_header { valid[..6].to_vec() } else { Vec::new() };
            input.extend_from_slice(&raw);
            check(name, &input, decode)?;
        }
    }

    #[test]
    fn damaged_encodings_never_panic(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..6),
        cut in any::<usize>(),
        resign in any::<bool>(),
    ) {
        for (name, valid, decode) in decoders() {
            let mut input = valid.clone();
            for &(at, byte) in &edits {
                let at = at % (input.len() + 1);
                if at == input.len() {
                    input.push(byte);
                } else {
                    input[at] = byte;
                }
            }
            input.truncate(cut % (input.len() + 2));
            if resign && input.len() >= 8 {
                let body = input.len() - 8;
                let sum = fnv1a64(&input[..body]);
                input[body..].copy_from_slice(&sum.to_le_bytes());
            }
            check(name, &input, decode)?;
        }
    }
}

#[test]
fn valid_encodings_decode() {
    for (name, valid, decode) in decoders() {
        assert!(decode(&valid), "{name} must decode its own encoding");
    }
}
