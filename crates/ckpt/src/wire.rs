//! The one binary codec behind every on-disk format in the workspace.
//!
//! Five formats are built from these two halves: the graph snapshot
//! (`MHG1`), the sharded store's manifest (`MHGS`) and shard files
//! (`MHSH`), the checkpoint container (`MHGC`) with the HybridGNN attention
//! blob inside it, and the embedding tables file (`MHE2`).
//!
//! * [`Writer`] appends little-endian fields. Length fields go through
//!   [`size_u16`]/[`size_u32`], which fail loudly instead of wrapping, and
//!   [`Writer::finish_checksummed`] seals the bytes with an FNV-1a 64
//!   trailer.
//! * [`Reader`] is a cursor whose every read checks the bytes left first.
//!   Array reads check `n × width` against them *before* allocating, so a
//!   hostile count fails with [`WireError::Truncated`] instead of reserving
//!   gigabytes. Nothing here panics on malformed input.
//!
//! Each format picks its own check order from the same primitives: the
//! shard files verify the trailer before the header
//! ([`Reader::verify_trailer`] first), the checkpoint and embedding files
//! read the header first so a foreign file reports [`WireError::BadMagic`].

/// Errors produced while decoding any wire format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer did not start with the expected magic bytes.
    BadMagic,
    /// Format version not supported by this build.
    UnsupportedVersion(u16),
    /// The buffer ended prematurely, a length field exceeded the bytes
    /// left, or bytes were left over.
    Truncated,
    /// The FNV-1a 64 trailer did not match the bytes before it.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad magic (not the expected file kind)"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            WireError::Truncated => write!(f, "data truncated or inconsistent length"),
            WireError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a 64 over a byte stream (the trailer hash, and the hash the golden
/// tests use).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Checked narrowing of a count to a `u32` wire field: a count that does
/// not fit would silently wrap into a corrupt file, so fail loudly instead.
pub fn size_u32(n: usize, what: &str) -> u32 {
    assert!(
        u32::try_from(n).is_ok(),
        "encode: {what} {n} exceeds the u32 wire format"
    );
    n as u32
}

/// Checked narrowing of a count to a `u16` wire field.
pub fn size_u16(n: usize, what: &str) -> u16 {
    assert!(
        u16::try_from(n).is_ok(),
        "encode: {what} {n} exceeds the u16 wire format"
    );
    n as u16
}

/// An append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

/// A bounds-checked little-endian cursor over an encoded buffer.
///
/// The readable window is `data[pos..end]`; [`Reader::verify_trailer`]
/// moves `end` in front of the checksum trailer.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    end: usize,
}

impl Writer {
    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a 4-byte magic and a `u16` version.
    pub fn header(&mut self, magic: &[u8; 4], version: u16) {
        self.bytes(magic);
        self.u16(version);
    }

    /// Appends a count as a `u16` length field (checked narrowing).
    pub fn len_u16(&mut self, n: usize, what: &str) {
        self.u16(size_u16(n, what));
    }

    /// Appends a count as a `u32` length field (checked narrowing).
    pub fn len_u32(&mut self, n: usize, what: &str) {
        self.u32(size_u32(n, what));
    }

    /// Appends a `u16` count followed by `u16`-length-prefixed strings.
    pub fn str_list(&mut self, items: &[String]) {
        self.len_u16(items.len(), "string-list length");
        for s in items {
            self.len_u16(s.len(), "string length");
            self.bytes(s.as_bytes());
        }
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes followed by their FNV-1a 64 trailer.
    pub fn finish_checksummed(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.u64(sum);
        self.buf
    }
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader {
            data,
            pos: 0,
            end: data.len(),
        }
    }

    /// Bytes left in the readable window.
    pub fn remaining(&self) -> usize {
        self.end - self.pos
    }

    /// Fails with [`WireError::Truncated`] unless `n` bytes are left.
    pub fn need(&self, n: usize) -> Result<(), WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(())
    }

    /// Converts a decoded count to `usize`, failing unless `n` items of at
    /// least `min_width` bytes each fit in the bytes left. Call it before
    /// reserving capacity for variable-width items.
    pub fn count(&self, n: impl Into<u64>, min_width: usize) -> Result<usize, WireError> {
        let n = usize::try_from(n.into()).map_err(|_| WireError::Truncated)?;
        self.need(n.checked_mul(min_width).ok_or(WireError::Truncated)?)?;
        Ok(n)
    }

    /// Splits off the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.need(n)?;
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn fixed<const W: usize>(&mut self) -> Result<[u8; W], WireError> {
        let mut out = [0u8; W];
        out.copy_from_slice(self.bytes(W)?);
        Ok(out)
    }

    fn array<T, const W: usize>(
        &mut self,
        n: usize,
        from: fn([u8; W]) -> T,
    ) -> Result<Vec<T>, WireError> {
        let raw = self.bytes(n.checked_mul(W).ok_or(WireError::Truncated)?)?;
        Ok(raw
            .chunks_exact(W)
            .map(|c| {
                let mut b = [0u8; W];
                b.copy_from_slice(c);
                from(b)
            })
            .collect())
    }

    /// Checks the 4-byte magic.
    pub fn magic(&mut self, magic: &[u8; 4]) -> Result<(), WireError> {
        if self.bytes(4)? != magic {
            return Err(WireError::BadMagic);
        }
        Ok(())
    }

    /// Checks a 4-byte magic and a `u16` version, with the whole 6-byte
    /// header present before either is compared.
    pub fn header(&mut self, magic: &[u8; 4], version: u16) -> Result<(), WireError> {
        self.need(6)?;
        self.magic(magic)?;
        match self.u16()? {
            v if v == version => Ok(()),
            v => Err(WireError::UnsupportedVersion(v)),
        }
    }

    /// Verifies the 8-byte FNV-1a 64 trailer at the end of the window
    /// against every byte of the buffer before it (including bytes already
    /// read), then shrinks the window to exclude the trailer.
    pub fn verify_trailer(&mut self) -> Result<(), WireError> {
        self.need(8)?;
        let body = self.end - 8;
        let mut stored = [0u8; 8];
        stored.copy_from_slice(&self.data[body..self.end]);
        let stored = u64::from_le_bytes(stored);
        let computed = fnv1a64(&self.data[..body]);
        if stored != computed {
            return Err(WireError::ChecksumMismatch { stored, computed });
        }
        self.end = body;
        Ok(())
    }

    /// Reads `len` bytes of UTF-8.
    pub fn string(&mut self, len: usize) -> Result<String, WireError> {
        let raw = self.bytes(len)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| WireError::BadUtf8)
    }

    /// Reads a list written by [`Writer::str_list`].
    pub fn str_list(&mut self) -> Result<Vec<String>, WireError> {
        let n = self.u16()?;
        // Every entry needs at least its 2-byte length prefix.
        let mut out = Vec::with_capacity(self.count(n, 2)?);
        for _ in 0..n {
            let len = self.u16()?;
            out.push(self.string(len.into())?);
        }
        Ok(out)
    }

    /// Fails with [`WireError::Truncated`] if bytes are left over.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() > 0 {
            return Err(WireError::Truncated);
        }
        Ok(())
    }
}

/// Scalar puts and reads, one pair per little-endian type.
macro_rules! scalars {
    ($($t:ty => $put:ident, $get:ident;)*) => {
        impl Writer {$(
            #[doc = concat!("Appends a little-endian `", stringify!($t), "`.")]
            pub fn $put(&mut self, v: $t) {
                self.bytes(&v.to_le_bytes());
            }
        )*}

        impl Reader<'_> {$(
            #[doc = concat!("Reads a little-endian `", stringify!($t), "`.")]
            pub fn $get(&mut self) -> Result<$t, WireError> {
                Ok(<$t>::from_le_bytes(self.fixed()?))
            }
        )*}
    };
}

/// Array puts and guarded array reads.
macro_rules! arrays {
    ($($t:ty => $puts:ident, $gets:ident;)*) => {
        impl Writer {$(
            #[doc = concat!("Appends a slice of little-endian `", stringify!($t), "`s.")]
            pub fn $puts(&mut self, vs: &[$t]) {
                for v in vs {
                    self.bytes(&v.to_le_bytes());
                }
            }
        )*}

        impl Reader<'_> {$(
            #[doc = concat!(
                "Reads `n` little-endian `", stringify!($t), "`s, failing before ",
                "the allocation unless all of them are present."
            )]
            pub fn $gets(&mut self, n: usize) -> Result<Vec<$t>, WireError> {
                self.array(n, <$t>::from_le_bytes)
            }
        )*}
    };
}

scalars! {
    u8 => u8, u8;
    u16 => u16, u16;
    u32 => u32, u32;
    u64 => u64, u64;
    f32 => f32, f32;
    f64 => f64, f64;
}

arrays! {
    u16 => u16s, u16s;
    u32 => u32s, u32s;
    u64 => u64s, u64s;
    f32 => f32s, f32s;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_field_kind() {
        let mut w = Writer::default();
        w.header(b"TEST", 3);
        w.u8(7);
        w.f64(-0.5);
        w.str_list(&["a".to_string(), "héllo".to_string()]);
        w.u32s(&[1, u32::MAX]);
        w.f32s(&[1.5, f32::MIN_POSITIVE]);
        w.u64s(&[u64::MAX]);
        w.u16s(&[9]);
        let bytes = w.finish_checksummed();

        let mut r = Reader::new(&bytes);
        r.header(b"TEST", 3).unwrap();
        r.verify_trailer().unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.f64().unwrap(), -0.5);
        assert_eq!(r.str_list().unwrap(), ["a", "héllo"]);
        assert_eq!(r.u32s(2).unwrap(), [1, u32::MAX]);
        assert_eq!(r.f32s(2).unwrap(), [1.5, f32::MIN_POSITIVE]);
        assert_eq!(r.u64s(1).unwrap(), [u64::MAX]);
        assert_eq!(r.u16s(1).unwrap(), [9]);
        r.finish().unwrap();
    }

    #[test]
    fn hostile_counts_fail_before_allocating() {
        // Each of these would request terabytes (or overflow the byte
        // count) if the guard ran after `Vec::with_capacity`.
        let bytes = [0u8; 16];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u32s(usize::MAX), Err(WireError::Truncated));
        assert_eq!(r.f32s(1 << 40), Err(WireError::Truncated));
        assert_eq!(r.u64s(3), Err(WireError::Truncated));
        assert_eq!(r.u16s(usize::MAX / 2 + 1), Err(WireError::Truncated));
        assert_eq!(r.bytes(17), Err(WireError::Truncated));
        assert_eq!(r.count(u64::MAX, 1), Err(WireError::Truncated));
        assert_eq!(r.count(u32::MAX, 2), Err(WireError::Truncated));
        // A failed read consumes nothing.
        assert_eq!(r.remaining(), 16);
        assert_eq!(r.count(4u32, 4), Ok(4));
        assert_eq!(r.u32s(4).unwrap().len(), 4);

        // A string list promising u16::MAX names with no payload.
        let mut w = Writer::default();
        w.u16(u16::MAX);
        assert_eq!(
            Reader::new(&w.finish()).str_list(),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn header_and_trailer_report_typed_errors() {
        let mut w = Writer::default();
        w.header(b"GOOD", 1);
        let bytes = w.finish_checksummed();

        assert_eq!(
            Reader::new(&bytes).header(b"BAD!", 1),
            Err(WireError::BadMagic)
        );
        assert_eq!(
            Reader::new(&bytes).header(b"GOOD", 2),
            Err(WireError::UnsupportedVersion(1))
        );
        // The whole header must be present before the magic is compared.
        assert_eq!(
            Reader::new(b"BAD!\x01").header(b"GOOD", 1),
            Err(WireError::Truncated)
        );
        assert_eq!(
            Reader::new(&bytes[..7]).verify_trailer(),
            Err(WireError::Truncated)
        );
        let mut flipped = bytes.clone();
        flipped[0] ^= 1;
        assert!(matches!(
            Reader::new(&flipped).verify_trailer(),
            Err(WireError::ChecksumMismatch { .. })
        ));
        // Leftover bytes are an error.
        let mut r = Reader::new(&bytes);
        r.header(b"GOOD", 1).unwrap();
        assert_eq!(r.finish(), Err(WireError::Truncated));
        r.verify_trailer().unwrap();
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(
            Reader::new(b"\x01\x00\xff").str_list(),
            Err(WireError::Truncated)
        );
        assert_eq!(
            Reader::new(b"\x01\x00\x01\x00\xff").str_list(),
            Err(WireError::BadUtf8)
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the u16 wire format")]
    fn oversized_length_fields_fail_loudly() {
        Writer::default().len_u16(1 << 16, "test length");
    }
}
