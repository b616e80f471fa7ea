//! The checkpoint container: a named, typed state dictionary with a
//! versioned, checksummed binary encoding.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "MHGC" | version u16 | entry count u32
//! entries: name_len u16, name bytes, tag u8, payload
//! trailer: FNV-1a 64 checksum of everything before it, u64
//! ```
//!
//! Entries are stored in name order (the dictionary is a `BTreeMap`), so
//! encoding is byte-deterministic: the same state always produces the same
//! file. The framing, length guards and checksum trailer are
//! [`crate::wire`]'s, so decoding bounds every allocation by the bytes
//! actually remaining: corrupt length fields can never trigger huge
//! allocations.

use std::collections::BTreeMap;

use mhg_tensor::Tensor;

use crate::error::CkptError;
use crate::wire::{Reader, Writer};

const MAGIC: &[u8; 4] = b"MHGC";
const VERSION: u16 = 1;

const TAG_TENSOR: u8 = 1;
const TAG_U64: u8 = 2;
const TAG_F64: u8 = 3;
const TAG_U64S: u8 = 4;
const TAG_BYTES: u8 = 5;

/// One value in a [`StateDict`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A dense `f32` matrix (parameters, optimizer moments).
    Tensor(Tensor),
    /// An unsigned scalar (counters, cursors, bit-cast floats).
    U64(u64),
    /// A float scalar (metrics, timings) — stored bit-exactly.
    F64(f64),
    /// An unsigned array (RNG state, per-row step counts).
    U64s(Vec<u64>),
    /// An opaque payload (model-specific sub-encodings).
    Bytes(Vec<u8>),
}

/// A named, typed snapshot of training state.
///
/// Keys are flat, slash-separated paths (`"loop/rng"`, `"model/emb"`); the
/// map is ordered, so iteration and encoding are deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StateDict {
    entries: BTreeMap<String, Value>,
}

impl StateDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts or replaces an entry.
    pub fn put(&mut self, name: impl Into<String>, value: Value) {
        self.entries.insert(name.into(), value);
    }

    /// Stores a tensor.
    pub fn put_tensor(&mut self, name: impl Into<String>, t: Tensor) {
        self.put(name, Value::Tensor(t));
    }

    /// Stores a `u64` scalar.
    pub fn put_u64(&mut self, name: impl Into<String>, v: u64) {
        self.put(name, Value::U64(v));
    }

    /// Stores an `f64` scalar (bit-exact).
    pub fn put_f64(&mut self, name: impl Into<String>, v: f64) {
        self.put(name, Value::F64(v));
    }

    /// Stores a `u64` array.
    pub fn put_u64s(&mut self, name: impl Into<String>, v: Vec<u64>) {
        self.put(name, Value::U64s(v));
    }

    /// Stores an opaque byte payload.
    pub fn put_bytes(&mut self, name: impl Into<String>, v: Vec<u8>) {
        self.put(name, Value::Bytes(v));
    }

    /// Looks up an entry by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries.get(name)
    }

    /// Whether an entry named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Iterates entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    fn require(&self, name: &str) -> Result<&Value, CkptError> {
        self.entries
            .get(name)
            .ok_or_else(|| CkptError::MissingField(name.to_string()))
    }

    /// The tensor stored under `name`.
    pub fn tensor(&self, name: &str) -> Result<&Tensor, CkptError> {
        match self.require(name)? {
            Value::Tensor(t) => Ok(t),
            _ => Err(CkptError::WrongType(name.to_string())),
        }
    }

    /// The `u64` stored under `name`.
    pub fn u64(&self, name: &str) -> Result<u64, CkptError> {
        match self.require(name)? {
            Value::U64(v) => Ok(*v),
            _ => Err(CkptError::WrongType(name.to_string())),
        }
    }

    /// The `f64` stored under `name`.
    pub fn f64(&self, name: &str) -> Result<f64, CkptError> {
        match self.require(name)? {
            Value::F64(v) => Ok(*v),
            _ => Err(CkptError::WrongType(name.to_string())),
        }
    }

    /// The `u64` array stored under `name`.
    pub fn u64s(&self, name: &str) -> Result<&[u64], CkptError> {
        match self.require(name)? {
            Value::U64s(v) => Ok(v),
            _ => Err(CkptError::WrongType(name.to_string())),
        }
    }

    /// The byte payload stored under `name`.
    pub fn bytes(&self, name: &str) -> Result<&[u8], CkptError> {
        match self.require(name)? {
            Value::Bytes(v) => Ok(v),
            _ => Err(CkptError::WrongType(name.to_string())),
        }
    }
}

/// Serialises a dictionary to its versioned, checksummed binary form.
pub fn encode(dict: &StateDict) -> Vec<u8> {
    let mut w = Writer::with_capacity(64 + 16 * dict.len());
    w.header(MAGIC, VERSION);
    w.len_u32(dict.len(), "entry count");
    for (name, value) in dict.iter() {
        w.len_u16(name.len(), "name length");
        w.bytes(name.as_bytes());
        match value {
            Value::Tensor(t) => {
                w.u8(TAG_TENSOR);
                w.len_u32(t.rows(), "tensor rows");
                w.len_u32(t.cols(), "tensor cols");
                w.f32s(t.as_slice());
            }
            Value::U64(v) => {
                w.u8(TAG_U64);
                w.u64(*v);
            }
            Value::F64(v) => {
                w.u8(TAG_F64);
                w.f64(*v);
            }
            Value::U64s(vs) => {
                w.u8(TAG_U64S);
                w.len_u32(vs.len(), "u64 array length");
                w.u64s(vs);
            }
            Value::Bytes(bs) => {
                w.u8(TAG_BYTES);
                w.len_u32(bs.len(), "byte payload length");
                w.bytes(bs);
            }
        }
    }
    w.finish_checksummed()
}

/// Deserialises a dictionary, verifying magic, version and checksum (in
/// that order, so a foreign file reports [`CkptError::BadMagic`]). Every
/// length field is checked against the bytes actually present before
/// anything is allocated.
pub fn decode(buf: &[u8]) -> Result<StateDict, CkptError> {
    let mut r = Reader::new(buf);
    r.need(MAGIC.len() + 2 + 4 + 8)?;
    r.header(MAGIC, VERSION)?;
    r.verify_trailer()?;
    let count = r.u32()?;
    let mut dict = StateDict::new();
    for _ in 0..count {
        let name_len = r.u16()?;
        let name = r.string(name_len.into())?;
        let value = match r.u8()? {
            TAG_TENSOR => {
                let rows = r.u32()? as usize;
                let cols = r.u32()? as usize;
                let n = rows.checked_mul(cols).ok_or(CkptError::Truncated)?;
                Value::Tensor(Tensor::from_vec(rows, cols, r.f32s(n)?))
            }
            TAG_U64 => Value::U64(r.u64()?),
            TAG_F64 => Value::F64(r.f64()?),
            TAG_U64S => {
                let n = r.u32()? as usize;
                Value::U64s(r.u64s(n)?)
            }
            TAG_BYTES => {
                let n = r.u32()? as usize;
                Value::Bytes(r.bytes(n)?.to_vec())
            }
            other => return Err(CkptError::BadTag(other)),
        };
        dict.put(name, value);
    }
    r.finish()?;
    Ok(dict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::fnv1a64;

    fn sample_dict() -> StateDict {
        let mut d = StateDict::new();
        d.put_tensor(
            "model/emb",
            Tensor::from_vec(2, 3, vec![1.0, -2.5, 0.0, 3.5, f32::MIN_POSITIVE, 7.0]),
        );
        d.put_u64("loop/epoch", 42);
        d.put_f64("loop/best", -0.123456789);
        d.put_u64s("loop/rng", vec![1, u64::MAX, 3, 4]);
        d.put_bytes("model/blob", vec![0xde, 0xad, 0xbe, 0xef]);
        d
    }

    #[test]
    fn roundtrip_is_exact() {
        let d = sample_dict();
        let bytes = encode(&d);
        let d2 = decode(&bytes).expect("decode");
        assert_eq!(d, d2);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode(&sample_dict()), encode(&sample_dict()));
    }

    #[test]
    fn typed_accessors_check_presence_and_type() {
        let d = sample_dict();
        assert_eq!(d.u64("loop/epoch").unwrap(), 42);
        assert!(matches!(
            d.u64("loop/absent"),
            Err(CkptError::MissingField(_))
        ));
        assert!(matches!(d.u64("loop/best"), Err(CkptError::WrongType(_))));
        assert_eq!(d.u64s("loop/rng").unwrap().len(), 4);
        assert_eq!(d.bytes("model/blob").unwrap(), &[0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = encode(&sample_dict());
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(CkptError::BadMagic)));

        let mut bytes = encode(&sample_dict());
        bytes[4] = 0x63;
        // Re-stamp the checksum so the version check is what fires.
        let n = bytes.len();
        let sum = fnv1a64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(CkptError::UnsupportedVersion(0x63))
        ));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = encode(&sample_dict());
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    decode(&corrupt).is_err(),
                    "flip at byte {byte} bit {bit} must not decode"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode(&sample_dict());
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn hostile_length_fields_do_not_allocate() {
        // A tensor claiming u32::MAX × u32::MAX elements in a tiny buffer
        // must fail on the remaining-byte check, not attempt the allocation.
        let mut d = StateDict::new();
        d.put_tensor("t", Tensor::from_vec(1, 1, vec![1.0]));
        let mut bytes = encode(&d);
        // Entry layout after header(10): name_len(2) "t"(1) tag(1) rows(4) cols(4).
        let rows_at = 10 + 2 + 1 + 1;
        bytes[rows_at..rows_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes[rows_at + 4..rows_at + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let n = bytes.len();
        let sum = fnv1a64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(CkptError::Truncated)));
    }
}
