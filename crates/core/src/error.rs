//! Structured errors for the fallible core entry points.

use std::fmt;

/// Why a core entry point could not produce a result.
///
/// These are *caller* errors (mismatched inputs) and *environment* errors
/// (checkpoint I/O or parse failures) — never verdicts about faults. A fault
/// exceeding its budget or panicking inside an isolated worker is reported
/// through [`FaultStatus`](crate::FaultStatus), not through this type.
#[derive(Debug)]
pub enum Error {
    /// The test sequence's pattern width does not match the circuit's
    /// primary-input count.
    SequenceWidthMismatch {
        /// The circuit's number of primary inputs.
        expected: usize,
        /// The sequence's pattern width.
        got: usize,
    },
    /// The supplied fault-free trace does not belong to the supplied
    /// sequence (wrong number of time frames).
    TraceLengthMismatch {
        /// The sequence length.
        expected: usize,
        /// The trace's number of output frames.
        got: usize,
    },
    /// A fault references a net, gate, or flip-flop outside the circuit.
    FaultOutOfRange {
        /// Index of the offending fault in the fault list.
        index: usize,
        /// Debug rendering of the fault.
        fault: String,
    },
    /// A checkpoint file could not be read, parsed, or validated.
    Checkpoint {
        /// Path of the checkpoint file.
        path: String,
        /// 1-based ordinal of the damaged record, when the failure lies in
        /// one (see [`CheckpointSkip::record`](crate::CheckpointSkip)).
        record: Option<usize>,
        /// What went wrong, located by record ordinal and byte offset where
        /// one applies.
        message: String,
    },
    /// A checkpoint file could not be written.
    CheckpointWrite {
        /// Path of the checkpoint file.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// One shard of a partitioned campaign failed (bad partition geometry,
    /// a timed-out or panicked shard worker, an unpublishable shard file).
    Shard {
        /// The failing shard's id.
        shard_id: usize,
        /// What went wrong.
        message: String,
    },
    /// A set of shard files could not be merged into one campaign result
    /// (disagreeing headers, missing/duplicate fault records, or an audit
    /// re-run that panicked and may be retried).
    Merge {
        /// What went wrong.
        message: String,
    },
    /// The campaign was cancelled cooperatively (operator interrupt or
    /// daemon drain). Completed work up to the last batch boundary has been
    /// checkpointed when a checkpoint path was configured, so a rerun with
    /// `resume` picks up where this run stopped.
    Interrupted {
        /// Fault records already completed and checkpointed.
        completed: usize,
        /// Total faults in the campaign.
        total: usize,
    },
    /// A job-spool operation failed (unreadable spool directory, a
    /// malformed or unwritable job spec, a corrupt result file).
    Spool {
        /// Path of the offending spool entry or directory.
        path: String,
        /// What went wrong.
        message: String,
    },
    /// A daemon-level serving failure (bind error, protocol violation, or
    /// an internal worker-pool invariant breach).
    Serve {
        /// What went wrong.
        message: String,
    },
    /// A shard-dispatch failure (invalid dispatch policy, a bad worker id,
    /// an unpublishable shard upload, or a poisoned dispatch table).
    Dispatch {
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::SequenceWidthMismatch { expected, got } => write!(
                f,
                "test sequence has {got}-bit patterns but the circuit has {expected} primary inputs"
            ),
            Error::TraceLengthMismatch { expected, got } => write!(
                f,
                "fault-free trace covers {got} time frames but the sequence has {expected}"
            ),
            Error::FaultOutOfRange { index, fault } => {
                write!(f, "fault #{index} ({fault}) references a site outside the circuit")
            }
            Error::Checkpoint { path, message, .. } => write!(f, "checkpoint {path}: {message}"),
            Error::CheckpointWrite { path, source } => {
                write!(f, "cannot write checkpoint {path}: {source}")
            }
            Error::Shard { shard_id, message } => write!(f, "shard {shard_id}: {message}"),
            Error::Merge { message } => write!(f, "shard merge: {message}"),
            Error::Interrupted { completed, total } => write!(
                f,
                "campaign interrupted after {completed} of {total} fault(s)"
            ),
            Error::Spool { path, message } => write!(f, "spool {path}: {message}"),
            Error::Serve { message } => write!(f, "serve: {message}"),
            Error::Dispatch { message } => write!(f, "dispatch: {message}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::CheckpointWrite { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = Error::SequenceWidthMismatch { expected: 4, got: 7 };
        assert!(e.to_string().contains("7-bit"));
        assert!(e.to_string().contains("4 primary inputs"));
        let e = Error::Checkpoint {
            path: "shard-1.ckpt".into(),
            record: Some(3),
            message: "record 3 at byte 120: checksum mismatch".into(),
        };
        assert_eq!(
            e.to_string(),
            "checkpoint shard-1.ckpt: record 3 at byte 120: checksum mismatch"
        );
        let e = Error::CheckpointWrite {
            path: "cp.ckpt".into(),
            source: std::io::Error::new(std::io::ErrorKind::PermissionDenied, "denied"),
        };
        assert!(e.to_string().contains("cp.ckpt"));
        assert!(std::error::Error::source(&e).is_some());
        let e = Error::Shard {
            shard_id: 3,
            message: "timed out after 2s".into(),
        };
        assert_eq!(e.to_string(), "shard 3: timed out after 2s");
        let e = Error::Merge {
            message: "fault 7 has no record in any shard".into(),
        };
        assert_eq!(e.to_string(), "shard merge: fault 7 has no record in any shard");
        let e = Error::Interrupted { completed: 12, total: 40 };
        assert_eq!(e.to_string(), "campaign interrupted after 12 of 40 fault(s)");
        let e = Error::Spool {
            path: "spool/job-ab".into(),
            message: "spec line 2: unknown key".into(),
        };
        assert_eq!(e.to_string(), "spool spool/job-ab: spec line 2: unknown key");
        let e = Error::Serve { message: "queue full".into() };
        assert_eq!(e.to_string(), "serve: queue full");
        let e = Error::Dispatch { message: "lease expired".into() };
        assert_eq!(e.to_string(), "dispatch: lease expired");
    }
}
