//! Per-relation embedding tables: the file `train` writes and `recommend`
//! serves from.
//!
//! Layout (all little-endian, framed by [`crate::wire`]):
//!
//! ```text
//! magic "MHE2" | version u16
//! relations u32 | nodes u32 | dim u32
//! f32 × relations·nodes·dim (relation-major, then node, then dimension)
//! trailer: FNV-1a 64 checksum of everything before it, u64
//! ```
//!
//! The header is checked before the trailer, so a file of another kind
//! (including the unchecksummed `MHE1` tables of older builds) reports
//! [`WireError::BadMagic`].

use crate::wire::{Reader, WireError, Writer};

const MAGIC: &[u8; 4] = b"MHE2";
const VERSION: u16 = 1;

/// Dense `f32` embedding tables, one `nodes × dim` table per relation.
#[derive(Clone, Debug, PartialEq)]
pub struct EmbeddingTables {
    relations: usize,
    nodes: usize,
    dim: usize,
    data: Vec<f32>,
}

impl EmbeddingTables {
    /// Tables over a flat buffer laid out relation-major, then node, then
    /// dimension.
    ///
    /// # Panics
    /// If `data` does not hold exactly `relations × nodes × dim` values.
    pub fn new(relations: usize, nodes: usize, dim: usize, data: Vec<f32>) -> Self {
        let expected = relations
            .checked_mul(nodes)
            .and_then(|n| n.checked_mul(dim));
        assert_eq!(
            Some(data.len()),
            expected,
            "embedding tables: {relations} × {nodes} × {dim} does not match the buffer"
        );
        EmbeddingTables {
            relations,
            nodes,
            dim,
            data,
        }
    }

    /// Number of relations (tables).
    pub fn relations(&self) -> usize {
        self.relations
    }

    /// Number of nodes (rows per table).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The embedding of `node` under `relation`.
    pub fn row(&self, relation: usize, node: usize) -> &[f32] {
        let start = (relation * self.nodes + node) * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Serialises the tables to their checksummed binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(26 + 4 * self.data.len());
        w.header(MAGIC, VERSION);
        w.len_u32(self.relations, "relation count");
        w.len_u32(self.nodes, "node count");
        w.len_u32(self.dim, "embedding dimension");
        w.f32s(&self.data);
        w.finish_checksummed()
    }

    /// Deserialises tables, verifying magic, version, checksum and that the
    /// payload holds exactly the promised values.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        r.header(MAGIC, VERSION)?;
        r.verify_trailer()?;
        let relations = r.u32()? as usize;
        let nodes = r.u32()? as usize;
        let dim = r.u32()? as usize;
        let n = relations
            .checked_mul(nodes)
            .and_then(|n| n.checked_mul(dim))
            .ok_or(WireError::Truncated)?;
        let data = r.f32s(n)?;
        r.finish()?;
        Ok(EmbeddingTables {
            relations,
            nodes,
            dim,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EmbeddingTables {
        EmbeddingTables::new(2, 3, 2, (0..12).map(|i| i as f32 * 0.5 - 1.0).collect())
    }

    #[test]
    fn roundtrip_is_exact() {
        let t = sample();
        let back = EmbeddingTables::decode(&t.encode()).expect("decode");
        assert_eq!(back, t);
        assert_eq!(back.row(1, 2), [4.0, 4.5]);
    }

    #[test]
    fn every_bit_flip_and_truncation_is_detected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(EmbeddingTables::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    EmbeddingTables::decode(&corrupt).is_err(),
                    "flip at byte {byte} bit {bit}"
                );
            }
        }
        let mut extended = bytes;
        extended.push(0);
        assert!(EmbeddingTables::decode(&extended).is_err());
    }

    #[test]
    fn older_tables_report_bad_magic() {
        let mut bytes = sample().encode();
        bytes[..4].copy_from_slice(b"MHE1");
        assert_eq!(EmbeddingTables::decode(&bytes), Err(WireError::BadMagic));
    }
}
