//! Crash-safe checkpointing for the training pipeline.
//!
//! Three layers, each usable on its own:
//!
//! * [`StateDict`] + [`encode`] / [`decode`] — a named, typed state
//!   dictionary with a versioned, checksummed, byte-deterministic binary
//!   codec. Corrupt input (bit flips, truncation, hostile length fields,
//!   version skew) always yields a typed [`CkptError`], never a panic or an
//!   unbounded allocation.
//! * [`atomic_write`] / [`atomic_write_retry`] / [`read_file`] — durable
//!   file IO: write-tmp + fsync + rename, with a bounded retry whose
//!   decisions depend only on the attempt count (deterministic under fault
//!   injection; see `mhg-faults`).
//! * [`Checkpointer`] — epoch-indexed checkpoint files in a directory,
//!   with newest-checkpoint discovery for resume.
//! * [`wire`] — the one binary codec (little-endian [`wire::Writer`],
//!   length-guarded [`wire::Reader`], FNV-1a trailer) that every on-disk
//!   format in the workspace is built on, including [`EmbeddingTables`],
//!   the file `hybridgnn-cli train` writes and `recommend` serves from.
//!
//! The `mhg-train` pipeline composes these into `train(k) → crash → resume`
//! runs that are bit-identical to straight-through training; see
//! DESIGN.md §2.11.

mod atomic;
mod checkpoint;
mod codec;
mod embeddings;
mod error;
pub mod wire;

pub use atomic::{
    atomic_write, atomic_write_retry, read_file, write_retries, DEFAULT_WRITE_ATTEMPTS,
};
pub use checkpoint::Checkpointer;
pub use codec::{decode, encode, StateDict, Value};
pub use embeddings::EmbeddingTables;
pub use error::CkptError;
pub use wire::{fnv1a64, WireError};

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared serialization of tests that install process-global fault
    //! plans or write through the fault-injectable IO layer.

    use std::sync::{Mutex, MutexGuard};

    pub fn faults_guard() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }
}
