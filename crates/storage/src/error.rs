//! Error type for the durability subsystem.

use std::fmt;
use std::io;

use ivm_relational::error::RelError;

/// Convenience alias used across the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Errors raised by the codec, write-ahead log, checkpointing and recovery.
///
/// Corruption of on-disk state is always surfaced as a typed variant —
/// recovery never panics on torn or bit-flipped frames, it truncates (WAL
/// tail) or falls back (checkpoints) instead.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying filesystem operation failed.
    Io {
        /// What the storage layer was doing (e.g. "append wal frame").
        context: String,
        /// The operating-system error.
        source: io::Error,
    },
    /// A frame's CRC32 did not match its payload: the bytes were altered
    /// after they were written (bit rot, torn write overlapping the body).
    ChecksumMismatch {
        /// Byte offset of the frame header within the file.
        offset: u64,
        /// Checksum recorded in the frame header.
        expected: u32,
        /// Checksum recomputed over the payload actually on disk.
        actual: u32,
    },
    /// The file ends in the middle of a frame: an interrupted append.
    TornFrame {
        /// Byte offset of the incomplete frame header.
        offset: u64,
        /// Bytes the frame claimed to need.
        needed: u64,
        /// Bytes actually remaining in the file.
        available: u64,
    },
    /// A frame declared a payload larger than the sanity bound, which means
    /// the length prefix itself is garbage.
    FrameTooLarge {
        /// Byte offset of the frame header within the file.
        offset: u64,
        /// The declared payload length.
        declared: u64,
    },
    /// A writer was handed a payload larger than
    /// [`crate::frame::MAX_FRAME_LEN`]. Nothing was written: readers reject
    /// such a frame as corrupt, so it could never be read back.
    PayloadTooLarge {
        /// The payload's length in bytes.
        len: u64,
    },
    /// The payload began with a format version this build does not speak.
    UnsupportedVersion(u8),
    /// A record tag byte was not one of the known kinds.
    UnknownRecordKind(u8),
    /// The payload was structurally malformed (ran out of bytes mid-field,
    /// invalid UTF-8 in a string, impossible enum discriminant, ...).
    Corrupt(String),
    /// Decoded data violated a relational invariant when reassembled
    /// (duplicate attribute, arity mismatch, ...).
    Rel(RelError),
    /// WAL replay produced an LSN sequence that is not strictly
    /// monotonically increasing.
    LsnOutOfOrder {
        /// LSN of the previous record.
        previous: u64,
        /// LSN of the offending record.
        found: u64,
    },
    /// A durability operation (checkpoint, WAL stats, ...) was invoked on a
    /// manager with no durable state attached; the payload says what was
    /// required.
    NoDurableState(String),
    /// A fault-injection failpoint fired (see [`crate::fault`]): the
    /// simulated process died at the named point. Only ever produced when
    /// a [`crate::fault::FailpointPlan`] is installed; the payload is the
    /// failpoint name.
    Injected(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { context, source } => {
                write!(f, "i/o failure while trying to {context}: {source}")
            }
            StorageError::ChecksumMismatch {
                offset,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch in frame at offset {offset}: header says \
                 {expected:#010x}, payload hashes to {actual:#010x}"
            ),
            StorageError::TornFrame {
                offset,
                needed,
                available,
            } => write!(
                f,
                "torn frame at offset {offset}: needs {needed} bytes but only \
                 {available} remain in the file"
            ),
            StorageError::FrameTooLarge { offset, declared } => write!(
                f,
                "frame at offset {offset} declares an implausible payload of \
                 {declared} bytes; length prefix is corrupt"
            ),
            StorageError::PayloadTooLarge { len } => write!(
                f,
                "refused to write a {len}-byte payload: frames hold at most {} bytes",
                crate::frame::MAX_FRAME_LEN
            ),
            StorageError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "storage format version {v} is not supported by this build"
                )
            }
            StorageError::UnknownRecordKind(k) => {
                write!(f, "unknown record kind tag {k:#04x}")
            }
            StorageError::Corrupt(what) => write!(f, "corrupt payload: {what}"),
            StorageError::Rel(e) => write!(f, "decoded state is relationally invalid: {e}"),
            StorageError::LsnOutOfOrder { previous, found } => write!(
                f,
                "wal record lsn {found} does not follow previous lsn {previous}"
            ),
            StorageError::NoDurableState(what) => {
                write!(f, "no durable state: {what}")
            }
            StorageError::Injected(point) => {
                write!(f, "injected crash at failpoint {point}")
            }
        }
    }
}

/// Diagnostic equality: two errors are equal when they render identically.
/// ([`std::io::Error`] is not `PartialEq`, so structural equality is not an
/// option; callers match on variants, tests compare renderings.)
impl PartialEq for StorageError {
    fn eq(&self, other: &Self) -> bool {
        self.to_string() == other.to_string()
    }
}

impl Eq for StorageError {}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            StorageError::Rel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelError> for StorageError {
    fn from(e: RelError) -> Self {
        StorageError::Rel(e)
    }
}

impl StorageError {
    /// Wrap an [`io::Error`] with a description of the attempted operation.
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        StorageError::Io {
            context: context.into(),
            source,
        }
    }

    /// True when this error is an injected failpoint crash (the simulated
    /// process died; the manager that raised it must be discarded and the
    /// storage directory re-opened, exactly as after a real crash).
    pub fn is_injected(&self) -> bool {
        matches!(self, StorageError::Injected(_))
    }

    /// True when this error denotes on-disk corruption (as opposed to an
    /// environmental i/o failure or a caller mistake). Recovery uses this to
    /// decide between "truncate and continue" and "propagate".
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            StorageError::ChecksumMismatch { .. }
                | StorageError::TornFrame { .. }
                | StorageError::FrameTooLarge { .. }
                | StorageError::UnsupportedVersion(_)
                | StorageError::UnknownRecordKind(_)
                | StorageError::Corrupt(_)
                | StorageError::LsnOutOfOrder { .. }
        )
    }
}
