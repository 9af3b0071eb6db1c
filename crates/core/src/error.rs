use std::error::Error;
use std::fmt;

/// The unified error type of the `clockmark` crate.
///
/// Wraps the errors of every substrate — including the corpus store, the
/// campaign engine and (via the `clockmark-serve` crate's `From` impl)
/// the detection server — plus the configuration errors of the watermark
/// layer itself, so callers propagate one type with `?` end to end.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClockmarkError {
    /// Sequence-generator configuration failed.
    Seq(clockmark_seq::SeqError),
    /// Netlist construction failed.
    Netlist(clockmark_netlist::NetlistError),
    /// Simulation failed.
    Sim(clockmark_sim::SimError),
    /// Power-trace arithmetic failed.
    Power(clockmark_power::PowerError),
    /// SoC background simulation failed.
    Soc(clockmark_soc::SocError),
    /// Correlation power analysis failed.
    Cpa(clockmark_cpa::CpaError),
    /// Trace corpus I/O or integrity failed.
    Corpus(clockmark_corpus::CorpusError),
    /// A detection campaign failed.
    Campaign(crate::campaign::CampaignError),
    /// The detection server (or its client) failed. The variant carries a
    /// rendered message because `clockmark-serve` sits above this crate
    /// in the dependency graph; the server crate provides the
    /// `From<ServeError>` conversion.
    Serve {
        /// What went wrong, already rendered.
        message: String,
    },
    /// A watermark architecture was configured with no body registers.
    EmptyWatermarkBody,
    /// More switching registers were requested than the body holds.
    TooManySwitchingRegisters {
        /// Requested switching registers.
        requested: u32,
        /// Registers available in the body.
        available: u32,
    },
    /// The experiment was configured with zero measurement cycles.
    ZeroCycles,
    /// The allocator refused the experiment's one cycle-length array, the
    /// chip's total power (8 bytes per cycle).
    TraceTooLong {
        /// The configured measurement cycles.
        cycles: usize,
    },
}

impl fmt::Display for ClockmarkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClockmarkError::Seq(e) => write!(f, "sequence generator: {e}"),
            ClockmarkError::Netlist(e) => write!(f, "netlist: {e}"),
            ClockmarkError::Sim(e) => write!(f, "simulation: {e}"),
            ClockmarkError::Power(e) => write!(f, "power model: {e}"),
            ClockmarkError::Soc(e) => write!(f, "soc model: {e}"),
            ClockmarkError::Cpa(e) => write!(f, "cpa: {e}"),
            ClockmarkError::Corpus(e) => write!(f, "corpus: {e}"),
            ClockmarkError::Campaign(e) => write!(f, "campaign: {e}"),
            ClockmarkError::Serve { message } => write!(f, "serve: {message}"),
            ClockmarkError::EmptyWatermarkBody => {
                write!(f, "watermark body must contain at least one register")
            }
            ClockmarkError::TooManySwitchingRegisters {
                requested,
                available,
            } => {
                write!(
                    f,
                    "requested {requested} switching registers but the body holds {available}"
                )
            }
            ClockmarkError::ZeroCycles => {
                write!(f, "experiment needs at least one measurement cycle")
            }
            ClockmarkError::TraceTooLong { cycles } => write!(
                f,
                "cannot reserve the total power of {cycles} cycles (8 bytes per cycle)"
            ),
        }
    }
}

impl Error for ClockmarkError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClockmarkError::Seq(e) => Some(e),
            ClockmarkError::Netlist(e) => Some(e),
            ClockmarkError::Sim(e) => Some(e),
            ClockmarkError::Power(e) => Some(e),
            ClockmarkError::Soc(e) => Some(e),
            ClockmarkError::Cpa(e) => Some(e),
            ClockmarkError::Corpus(e) => Some(e),
            ClockmarkError::Campaign(e) => Some(e),
            _ => None,
        }
    }
}

macro_rules! from_sub_error {
    ($sub:ty => $variant:ident) => {
        impl From<$sub> for ClockmarkError {
            fn from(e: $sub) -> Self {
                ClockmarkError::$variant(e)
            }
        }
    };
}

from_sub_error!(clockmark_seq::SeqError => Seq);
from_sub_error!(clockmark_netlist::NetlistError => Netlist);
from_sub_error!(clockmark_sim::SimError => Sim);
from_sub_error!(clockmark_power::PowerError => Power);
from_sub_error!(clockmark_soc::SocError => Soc);
from_sub_error!(clockmark_cpa::CpaError => Cpa);
from_sub_error!(clockmark_corpus::CorpusError => Corpus);
from_sub_error!(crate::campaign::CampaignError => Campaign);

/// Trace-driven detection over a corpus reader surfaces either a CPA
/// failure or a corpus I/O/integrity failure; both fold into the unified
/// error so `Detector::detect_trace(reader)?` works at the top level.
impl From<clockmark_cpa::TraceInputError<clockmark_corpus::CorpusError>> for ClockmarkError {
    fn from(e: clockmark_cpa::TraceInputError<clockmark_corpus::CorpusError>) -> Self {
        match e {
            clockmark_cpa::TraceInputError::Cpa(e) => ClockmarkError::Cpa(e),
            clockmark_cpa::TraceInputError::Input(e) => ClockmarkError::Corpus(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_errors_convert_and_chain() {
        let err: ClockmarkError = clockmark_seq::SeqError::ZeroSeed.into();
        assert!(err.source().is_some());
        assert!(err.to_string().contains("sequence generator"));

        let err: ClockmarkError = clockmark_cpa::CpaError::ConstantPattern.into();
        assert!(err.to_string().contains("cpa"));

        let err: ClockmarkError = clockmark_corpus::CorpusError::Corrupt {
            expected: 1,
            actual: 2,
        }
        .into();
        assert!(err.source().is_some());
        assert!(err.to_string().contains("corpus"));

        let err: ClockmarkError =
            crate::campaign::CampaignError::Cpa(clockmark_cpa::CpaError::ConstantPattern).into();
        assert!(err.source().is_some());
        assert!(err.to_string().contains("campaign"));
    }

    #[test]
    fn trace_input_error_splits_into_cpa_and_corpus() {
        let err: ClockmarkError =
            clockmark_cpa::TraceInputError::<clockmark_corpus::CorpusError>::Cpa(
                clockmark_cpa::CpaError::ConstantPattern,
            )
            .into();
        assert!(matches!(err, ClockmarkError::Cpa(_)));

        let err: ClockmarkError =
            clockmark_cpa::TraceInputError::Input(clockmark_corpus::CorpusError::Format {
                message: "truncated".into(),
            })
            .into();
        assert!(matches!(err, ClockmarkError::Corpus(_)));
    }

    #[test]
    fn serve_variant_renders_message() {
        let err = ClockmarkError::Serve {
            message: "pool exhausted".into(),
        };
        assert_eq!(err.to_string(), "serve: pool exhausted");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ClockmarkError>();
    }
}
