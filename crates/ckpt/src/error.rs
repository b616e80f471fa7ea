//! The typed error surface of checkpoint encoding, decoding and IO.

use std::io;

use crate::wire::WireError;

/// Everything that can go wrong while saving or loading a checkpoint.
///
/// Decoding never panics and never trusts length fields: corrupt, truncated
/// or version-mismatched inputs all land in one of these variants.
#[derive(Debug)]
pub enum CkptError {
    /// The buffer does not start with the checkpoint magic bytes.
    BadMagic,
    /// The checkpoint was written by an unsupported format version.
    UnsupportedVersion(u16),
    /// The buffer ended prematurely or a length field is inconsistent.
    Truncated,
    /// The payload does not match its checksum (bit rot / partial write).
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// An entry name was not valid UTF-8.
    BadUtf8,
    /// An entry carried an unknown value-type tag.
    BadTag(u8),
    /// A field the loader requires is absent from the dictionary.
    MissingField(String),
    /// A field exists but holds a different value type than required.
    WrongType(String),
    /// A tensor field's shape does not match the destination parameter.
    ShapeMismatch(String),
    /// The underlying filesystem operation failed.
    Io(io::Error),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CkptError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CkptError::Truncated => write!(f, "checkpoint truncated or inconsistent"),
            CkptError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            CkptError::BadUtf8 => write!(f, "invalid UTF-8 in checkpoint entry name"),
            CkptError::BadTag(t) => write!(f, "unknown checkpoint value tag {t}"),
            CkptError::MissingField(name) => write!(f, "checkpoint field `{name}` is missing"),
            CkptError::WrongType(name) => {
                write!(f, "checkpoint field `{name}` has the wrong type")
            }
            CkptError::ShapeMismatch(what) => write!(f, "checkpoint shape mismatch: {what}"),
            CkptError::Io(e) => write!(f, "checkpoint IO error: {e}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CkptError {
    fn from(e: io::Error) -> Self {
        CkptError::Io(e)
    }
}

impl From<WireError> for CkptError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::BadMagic => CkptError::BadMagic,
            WireError::UnsupportedVersion(v) => CkptError::UnsupportedVersion(v),
            WireError::Truncated => CkptError::Truncated,
            WireError::ChecksumMismatch { stored, computed } => {
                CkptError::ChecksumMismatch { stored, computed }
            }
            WireError::BadUtf8 => CkptError::BadUtf8,
        }
    }
}
