//! The fleet crate's error type.

use clockmark::CampaignError;
use clockmark_corpus::CorpusError;

/// Why a fleet run could not produce its merged report.
#[derive(Debug)]
#[non_exhaustive]
pub enum FleetError {
    /// The underlying campaign machinery failed (spec validation, shard
    /// campaign I/O, report assembly).
    Campaign(CampaignError),
    /// The corpus could not be opened or a shard manifest not written.
    Corpus(CorpusError),
    /// A filesystem operation on the fleet directory failed.
    Io {
        /// What the coordinator was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The fleet configuration is unusable (no workers, no traces, …).
    Config {
        /// What is wrong with it.
        message: String,
    },
    /// Every worker died (or never answered) while shards were still
    /// pending; the named shards remain on disk, resumable.
    WorkersLost {
        /// Shards that still had no complete result.
        pending_shards: Vec<u64>,
    },
}

impl FleetError {
    pub(crate) fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        FleetError::Io {
            context: context.into(),
            source,
        }
    }

    pub(crate) fn config(message: impl Into<String>) -> Self {
        FleetError::Config {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Campaign(e) => write!(f, "campaign: {e}"),
            FleetError::Corpus(e) => write!(f, "corpus: {e}"),
            FleetError::Io { context, source } => write!(f, "{context}: {source}"),
            FleetError::Config { message } => write!(f, "fleet config: {message}"),
            FleetError::WorkersLost { pending_shards } => write!(
                f,
                "all workers lost with {} shard(s) pending ({:?}); \
                 the fleet directory is resumable",
                pending_shards.len(),
                pending_shards
            ),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Campaign(e) => Some(e),
            FleetError::Corpus(e) => Some(e),
            FleetError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CampaignError> for FleetError {
    fn from(e: CampaignError) -> Self {
        FleetError::Campaign(e)
    }
}

impl From<CorpusError> for FleetError {
    fn from(e: CorpusError) -> Self {
        FleetError::Corpus(e)
    }
}

impl From<std::io::Error> for FleetError {
    fn from(source: std::io::Error) -> Self {
        FleetError::io("fleet directory", source)
    }
}
