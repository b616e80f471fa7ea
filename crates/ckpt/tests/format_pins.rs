//! Byte pin for the checkpoint container `MHGC`.
//!
//! Encodes a small fixed state dictionary, checks the FNV-1a 64 hash of the
//! bytes against a pinned value, and decodes the bytes back. A changed pin
//! means checkpoints written by older builds would no longer resume.

use mhg_ckpt::{decode, encode, fnv1a64, StateDict};
use mhg_tensor::Tensor;

const MHGC_PIN: u64 = 0xaeff_f4d0_bd48_65c5;

#[test]
fn mhgc_checkpoint_bytes_are_pinned() {
    let mut d = StateDict::new();
    d.put_tensor(
        "model/emb",
        Tensor::from_vec(2, 2, vec![1.0, -2.5, 0.0, f32::MIN_POSITIVE]),
    );
    d.put_u64("loop/epoch", 42);
    d.put_f64("loop/best", -0.123456789);
    d.put_u64s("loop/rng", vec![1, u64::MAX, 3]);
    d.put_bytes("model/blob", vec![0xde, 0xad, 0xbe, 0xef]);
    let bytes = encode(&d);
    assert_eq!(&bytes[..4], b"MHGC");
    let hash = fnv1a64(&bytes);
    assert_eq!(hash, MHGC_PIN, "MHGC hash {hash:#018x}");
    assert_eq!(decode(&bytes).expect("decode"), d);
}
