use std::error::Error;
use std::fmt;

/// Errors produced by the trace corpus.
#[derive(Debug)]
#[non_exhaustive]
pub enum CorpusError {
    /// An I/O operation failed.
    Io {
        /// What was being done (usually a path).
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A trace file (or checkpoint blob) violated the binary format.
    Format {
        /// What was wrong.
        message: String,
    },
    /// The CRC-32 footer did not match the stored payload.
    Corrupt {
        /// Checksum recorded in the footer.
        expected: u32,
        /// Checksum recomputed over the payload.
        actual: u32,
    },
    /// A sample was not a finite number (traces store physical watts).
    NonFinite {
        /// 0-based sample index.
        index: u64,
    },
    /// A streaming writer finished with a different cycle count than the
    /// header declared.
    CycleCountMismatch {
        /// Cycles the header declared.
        declared: u64,
        /// Cycles actually written.
        written: u64,
    },
    /// A manifest line was malformed.
    Manifest {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A trace name was not found in the corpus.
    UnknownTrace {
        /// The requested name.
        name: String,
    },
    /// A trace name is already present in the corpus.
    DuplicateTrace {
        /// The clashing name.
        name: String,
    },
    /// A trace name contains characters outside `[A-Za-z0-9._-]`.
    InvalidName {
        /// The offending name.
        name: String,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io { context, source } => write!(f, "{context}: {source}"),
            CorpusError::Format { message } => write!(f, "trace format: {message}"),
            CorpusError::Corrupt { expected, actual } => write!(
                f,
                "integrity check failed: footer CRC32 {expected:#010x}, payload {actual:#010x}"
            ),
            CorpusError::NonFinite { index } => {
                write!(
                    f,
                    "sample {index} is not finite; traces store physical watts"
                )
            }
            CorpusError::CycleCountMismatch { declared, written } => write!(
                f,
                "header declared {declared} cycles but {written} were written"
            ),
            CorpusError::Manifest { line, message } => {
                write!(f, "manifest line {line}: {message}")
            }
            CorpusError::UnknownTrace { name } => write!(f, "no trace named `{name}` in corpus"),
            CorpusError::DuplicateTrace { name } => {
                write!(f, "trace `{name}` already exists in corpus")
            }
            CorpusError::InvalidName { name } => write!(
                f,
                "invalid trace name `{name}`; use only letters, digits, `.`, `_`, `-`"
            ),
        }
    }
}

impl Error for CorpusError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CorpusError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CorpusError {
    fn from(source: std::io::Error) -> Self {
        CorpusError::io("corpus directory", source)
    }
}

impl CorpusError {
    /// Wraps an I/O error with its context (usually the path involved).
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        CorpusError::Io {
            context: context.into(),
            source,
        }
    }

    /// A format error from a message.
    pub fn format(message: impl Into<String>) -> Self {
        CorpusError::Format {
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_and_displays() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CorpusError>();
        let err = CorpusError::Corrupt {
            expected: 0xDEADBEEF,
            actual: 0x12345678,
        };
        assert!(err.to_string().contains("0xdeadbeef"), "{err}");
        assert!(CorpusError::NonFinite { index: 7 }
            .to_string()
            .contains('7'));
    }
}
