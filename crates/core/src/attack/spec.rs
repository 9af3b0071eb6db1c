//! Serializable attack, defense and scenario specifications.
//!
//! These are the wire vocabulary of the adversarial engine: every variant
//! encodes as a small JSON object with a `kind` tag, and decodes
//! *tolerantly* — unknown extra fields are ignored and missing parameter
//! fields fall back to the variant's documented default, so a spec written
//! by a newer build still drives an older one (and vice versa), while an
//! ill-typed value is an error: the one policy every persisted record
//! decodes under (`docs/api.md`).

use clockmark_obs::json::{self, DecimalU64, DecodeError, FromJson, Json, Record};
use std::fmt;
use std::fmt::Write as _;

/// A malformed or out-of-range specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What was wrong.
    pub message: String,
}

impl SpecError {
    fn new(message: impl Into<String>) -> Self {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

impl From<DecodeError> for SpecError {
    fn from(e: DecodeError) -> Self {
        SpecError::new(e.to_string())
    }
}

fn finite(name: &str, v: f64) -> Result<(), SpecError> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(SpecError::new(format!("{name} must be finite, got {v}")))
    }
}

/// What the adversary does to a captured trace, as data.
///
/// Each variant is a deterministic transform: [`AttackSpec::build`]
/// produces an [`Attack`](super::Attack) whose output bytes depend only on
/// the spec, the seed and the input samples. The threat shapes follow the
/// adversarial literature named in `docs/attacks.md`: capture-time
/// desynchronization (jitter, DVFS), informed structural degradation
/// (gate-disable), spectrum jamming, and smart-grid-style sequence
/// estimation + replay forgery.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackSpec {
    /// No attack — the identity transform.
    None,
    /// Capture-clock jitter: each measured cycle is displaced backwards by
    /// `|N(0, sigma_cycles)|` cycles (independently hashed per cycle),
    /// smearing the alignment between the pattern and the measurement.
    /// The physically-faithful version (jitter inside the oscilloscope's
    /// sampling loop) lives in `clockmark_measure::CaptureAttack`; this is
    /// its post-capture equivalent for stored traces.
    ClockJitter {
        /// Standard deviation of the per-cycle displacement, in cycles.
        sigma_cycles: f64,
    },
    /// DVFS-style desynchronization: the device hops frequency every
    /// `dwell_cycles`, so each dwell segment of the capture is phase-offset
    /// by a hash-drawn shift in `0..=max_shift` cycles. Detection folds the
    /// segments incoherently.
    Dvfs {
        /// Cycles between (simulated) frequency hops.
        dwell_cycles: u64,
        /// Largest per-segment phase shift, in cycles.
        max_shift: u64,
    },
    /// Selective clock-gate disabling: the adversary estimates the
    /// per-residue watermark profile from the first `estimate_cycles`
    /// captured cycles and subtracts `fraction` of it — the trace-level
    /// effect of disabling that fraction of the modulated ICGs. The
    /// structural half (which gates an informed adversary picks) is
    /// [`gate_disable_plan`](super::gate_disable_plan).
    GateDisable {
        /// Fraction of the watermark's modulated power removed (0..=1).
        fraction: f64,
        /// Captured cycles the adversary averages to estimate the profile.
        estimate_cycles: u64,
    },
    /// Additive jamming tuned to the LFSR spectrum: the adversary knows
    /// the public m-sequence and injects a phase-shifted copy of it, which
    /// raises a decoy peak in exactly the band the detector inspects and
    /// destroys the peak-to-floor ratio.
    Jamming {
        /// Amplitude of the injected decoy sequence, in watts.
        amplitude_watts: f64,
    },
    /// Replay/forgery: the adversary estimates the sequence and amplitude
    /// from `estimate_cycles` captured cycles (smart-grid-style cracking
    /// of a noise-based dynamic watermark) and presents a fully synthetic
    /// trace — estimated mean + estimated per-residue profile + fresh
    /// noise — in place of the real device.
    Replay {
        /// Captured cycles the forger averages to estimate the sequence.
        estimate_cycles: u64,
        /// White-noise σ of the synthetic trace, in watts.
        noise_watts: f64,
    },
}

impl AttackSpec {
    /// The spec's `kind` tag (also the row label in scenario reports).
    pub fn kind(&self) -> &'static str {
        match self {
            AttackSpec::None => "none",
            AttackSpec::ClockJitter { .. } => "clock_jitter",
            AttackSpec::Dvfs { .. } => "dvfs",
            AttackSpec::GateDisable { .. } => "gate_disable",
            AttackSpec::Jamming { .. } => "jamming",
            AttackSpec::Replay { .. } => "replay",
        }
    }

    /// Every attack kind with its default parameters — the template the
    /// CLI's `scenario template` emits and the determinism proptest sweeps.
    pub fn all_defaults() -> Vec<AttackSpec> {
        vec![
            AttackSpec::None,
            AttackSpec::ClockJitter { sigma_cycles: 2.0 },
            AttackSpec::Dvfs {
                dwell_cycles: 2_048,
                max_shift: 32,
            },
            AttackSpec::GateDisable {
                fraction: 0.5,
                estimate_cycles: 16_384,
            },
            AttackSpec::Jamming {
                amplitude_watts: 1.5e-3,
            },
            AttackSpec::Replay {
                estimate_cycles: 16_384,
                noise_watts: 0.045,
            },
        ]
    }

    /// Serialises the spec as one JSON object, appended to `out`.
    pub fn encode_into(&self, out: &mut String) {
        match self {
            AttackSpec::None => out.push_str("{\"kind\":\"none\"}"),
            AttackSpec::ClockJitter { sigma_cycles } => {
                out.push_str("{\"kind\":\"clock_jitter\",\"sigma_cycles\":");
                json::write_f64(out, *sigma_cycles);
                out.push('}');
            }
            AttackSpec::Dvfs {
                dwell_cycles,
                max_shift,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"dvfs\",\"dwell_cycles\":{dwell_cycles},\"max_shift\":{max_shift}}}"
                );
            }
            AttackSpec::GateDisable {
                fraction,
                estimate_cycles,
            } => {
                out.push_str("{\"kind\":\"gate_disable\",\"fraction\":");
                json::write_f64(out, *fraction);
                let _ = write!(out, ",\"estimate_cycles\":{estimate_cycles}}}");
            }
            AttackSpec::Jamming { amplitude_watts } => {
                out.push_str("{\"kind\":\"jamming\",\"amplitude_watts\":");
                json::write_f64(out, *amplitude_watts);
                out.push('}');
            }
            AttackSpec::Replay {
                estimate_cycles,
                noise_watts,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"replay\",\"estimate_cycles\":{estimate_cycles}"
                );
                out.push_str(",\"noise_watts\":");
                json::write_f64(out, *noise_watts);
                out.push('}');
            }
        }
    }

    /// Serialises the spec as one JSON object.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Parses a spec from JSON text, tolerantly (see the module docs): a
    /// known `kind` missing parameter fields takes the variant's defaults.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for malformed JSON, a missing or unknown `kind`, or
    /// an ill-typed parameter.
    pub fn decode(text: &str) -> Result<Self, SpecError> {
        Ok(json::decode(text)?)
    }

    /// Checks every parameter is in range.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the offending field.
    pub fn validate(&self) -> Result<(), SpecError> {
        match self {
            AttackSpec::None => Ok(()),
            AttackSpec::ClockJitter { sigma_cycles } => {
                finite("sigma_cycles", *sigma_cycles)?;
                if *sigma_cycles < 0.0 {
                    return Err(SpecError::new("sigma_cycles must be >= 0"));
                }
                Ok(())
            }
            AttackSpec::Dvfs {
                dwell_cycles,
                max_shift,
            } => {
                if *dwell_cycles == 0 {
                    return Err(SpecError::new("dvfs dwell_cycles must be >= 1"));
                }
                if *max_shift > 1 << 20 {
                    return Err(SpecError::new("dvfs max_shift is implausibly large"));
                }
                Ok(())
            }
            AttackSpec::GateDisable {
                fraction,
                estimate_cycles,
            } => {
                finite("fraction", *fraction)?;
                if !(0.0..=1.0).contains(fraction) {
                    return Err(SpecError::new("gate_disable fraction must be in 0..=1"));
                }
                if *estimate_cycles == 0 {
                    return Err(SpecError::new("gate_disable estimate_cycles must be >= 1"));
                }
                Ok(())
            }
            AttackSpec::Jamming { amplitude_watts } => {
                finite("amplitude_watts", *amplitude_watts)?;
                if *amplitude_watts < 0.0 {
                    return Err(SpecError::new("jamming amplitude_watts must be >= 0"));
                }
                Ok(())
            }
            AttackSpec::Replay {
                estimate_cycles,
                noise_watts,
            } => {
                finite("noise_watts", *noise_watts)?;
                if *estimate_cycles == 0 {
                    return Err(SpecError::new("replay estimate_cycles must be >= 1"));
                }
                if *noise_watts < 0.0 {
                    return Err(SpecError::new("replay noise_watts must be >= 0"));
                }
                Ok(())
            }
        }
    }
}

impl FromJson<'_> for AttackSpec {
    fn from_json(value: &Json, path: impl FnOnce() -> String) -> Result<Self, DecodeError> {
        let f = Record::from_json(value, path)?;
        Ok(match f.req::<&str>("kind")? {
            "none" => AttackSpec::None,
            "clock_jitter" => AttackSpec::ClockJitter {
                sigma_cycles: f.or("sigma_cycles", 2.0)?,
            },
            "dvfs" => AttackSpec::Dvfs {
                dwell_cycles: f.or("dwell_cycles", 2_048)?,
                max_shift: f.or("max_shift", 32)?,
            },
            "gate_disable" => AttackSpec::GateDisable {
                fraction: f.or("fraction", 0.5)?,
                estimate_cycles: f.or("estimate_cycles", 16_384)?,
            },
            "jamming" => AttackSpec::Jamming {
                amplitude_watts: f.or("amplitude_watts", 1.5e-3)?,
            },
            "replay" => AttackSpec::Replay {
                estimate_cycles: f.or("estimate_cycles", 16_384)?,
                noise_watts: f.or("noise_watts", 0.045)?,
            },
            other => return Err(f.error("kind", format!("unknown attack kind `{other}`"))),
        })
    }
}

/// What the verifier deploys against the adversary.
///
/// A defense has two halves, both executed by the scenario engine: an
/// *embedding schedule* (what watermark signal the defended device emits,
/// overlaid onto the stored base trace at the cell's SNR-scaled amplitude)
/// and a *verification procedure* (how the verifier decides, which may be
/// stricter than plain peak detection). [`DefenseSpec::None`] deploys
/// nothing: the verifier runs plain detection of the campaign pattern
/// against whatever the corpus trace natively carries.
#[derive(Debug, Clone, PartialEq)]
pub enum DefenseSpec {
    /// No defense: plain detection of the campaign pattern.
    None,
    /// Multi-watermark coexistence: alongside the primary pattern, one
    /// extra m-sequence watermark per listed LFSR width is embedded
    /// (different widths → coprime-ish periods → near-orthogonal spectra).
    /// Verification requires a majority of all embedded watermarks to be
    /// detected, so an attack that strips or jams the primary still fails
    /// to evade the secondaries.
    MultiWatermark {
        /// LFSR widths of the extra watermarks (each 2..=32, and distinct
        /// from the primary's period).
        extra_widths: Vec<u32>,
    },
    /// Seed-hopping: every `dwell_cycles` the WGC hops to a new
    /// hash-scheduled phase of the sequence. The verifier knows the
    /// schedule, detects each dwell segment independently and checks the
    /// de-hopped phases agree; an adversary without the schedule sees a
    /// non-periodic signal that defeats estimation.
    SeedHopping {
        /// Cycles between phase hops (must cover at least two periods of
        /// the campaign pattern).
        dwell_cycles: u64,
    },
    /// SIGNED-style challenge-response: mid-trace, the verifier commands
    /// the WGC to advance its phase by `phase_delta` cycles. Verification
    /// detects both halves and accepts only when the response half shows
    /// exactly the commanded phase change — a replayed or forged trace
    /// estimated from old captures cannot answer the challenge.
    ChallengeResponse {
        /// The commanded phase advance, in cycles (non-zero modulo the
        /// pattern period).
        phase_delta: u64,
    },
}

impl DefenseSpec {
    /// The spec's `kind` tag (also the column label in scenario reports).
    pub fn kind(&self) -> &'static str {
        match self {
            DefenseSpec::None => "none",
            DefenseSpec::MultiWatermark { .. } => "multi_watermark",
            DefenseSpec::SeedHopping { .. } => "seed_hopping",
            DefenseSpec::ChallengeResponse { .. } => "challenge_response",
        }
    }

    /// Every defense kind with its default parameters.
    pub fn all_defaults() -> Vec<DefenseSpec> {
        vec![
            DefenseSpec::None,
            DefenseSpec::MultiWatermark {
                extra_widths: vec![5, 7],
            },
            DefenseSpec::SeedHopping {
                dwell_cycles: 2_048,
            },
            DefenseSpec::ChallengeResponse { phase_delta: 17 },
        ]
    }

    /// Serialises the spec as one JSON object, appended to `out`.
    pub fn encode_into(&self, out: &mut String) {
        match self {
            DefenseSpec::None => out.push_str("{\"kind\":\"none\"}"),
            DefenseSpec::MultiWatermark { extra_widths } => {
                out.push_str("{\"kind\":\"multi_watermark\",\"extra_widths\":");
                json::write_list(out, extra_widths, |out, w| {
                    let _ = write!(out, "{w}");
                });
                out.push('}');
            }
            DefenseSpec::SeedHopping { dwell_cycles } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"seed_hopping\",\"dwell_cycles\":{dwell_cycles}}}"
                );
            }
            DefenseSpec::ChallengeResponse { phase_delta } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"challenge_response\",\"phase_delta\":{phase_delta}}}"
                );
            }
        }
    }

    /// Serialises the spec as one JSON object.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Parses a spec from JSON text (same tolerance policy as
    /// [`AttackSpec::decode`]).
    ///
    /// # Errors
    ///
    /// [`SpecError`] for malformed JSON, a missing or unknown `kind`, or
    /// an ill-typed parameter.
    pub fn decode(text: &str) -> Result<Self, SpecError> {
        Ok(json::decode(text)?)
    }

    /// Checks every parameter is in range. Period-dependent constraints
    /// (hopping dwell vs pattern length, challenge delta vs period) are
    /// checked by the scenario engine, which knows the pattern.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the offending field.
    pub fn validate(&self) -> Result<(), SpecError> {
        match self {
            DefenseSpec::None => Ok(()),
            DefenseSpec::MultiWatermark { extra_widths } => {
                if extra_widths.is_empty() {
                    return Err(SpecError::new(
                        "multi_watermark needs at least one extra width",
                    ));
                }
                for &w in extra_widths {
                    if !(clockmark_seq::MIN_LFSR_WIDTH..=clockmark_seq::MAX_LFSR_WIDTH).contains(&w)
                    {
                        return Err(SpecError::new(format!(
                            "multi_watermark width {w} outside the LFSR range"
                        )));
                    }
                }
                Ok(())
            }
            DefenseSpec::SeedHopping { dwell_cycles } => {
                if *dwell_cycles == 0 {
                    return Err(SpecError::new("seed_hopping dwell_cycles must be >= 1"));
                }
                Ok(())
            }
            DefenseSpec::ChallengeResponse { phase_delta } => {
                if *phase_delta == 0 {
                    return Err(SpecError::new(
                        "challenge_response phase_delta must be >= 1",
                    ));
                }
                Ok(())
            }
        }
    }
}

impl FromJson<'_> for DefenseSpec {
    fn from_json(value: &Json, path: impl FnOnce() -> String) -> Result<Self, DecodeError> {
        let f = Record::from_json(value, path)?;
        Ok(match f.req::<&str>("kind")? {
            "none" => DefenseSpec::None,
            "multi_watermark" => DefenseSpec::MultiWatermark {
                extra_widths: f.or("extra_widths", vec![5, 7])?,
            },
            "seed_hopping" => DefenseSpec::SeedHopping {
                dwell_cycles: f.or("dwell_cycles", 2_048)?,
            },
            "challenge_response" => DefenseSpec::ChallengeResponse {
                phase_delta: f.or("phase_delta", 17)?,
            },
            other => return Err(f.error("kind", format!("unknown defense kind `{other}`"))),
        })
    }
}

/// One cell of the attack↔defense matrix: which attack, which defense,
/// at what SNR — persisted into `campaign.json` exactly like the spectrum
/// kernel, so a resumed cell replays the same adversary.
///
/// The SNR axis scales both sides of the signal-to-noise ratio at once:
/// the defense's overlay watermarks are embedded at
/// `amplitude_watts × snr`, and deterministic white measurement noise of
/// `noise_watts × (1/snr − 1)` is added after the attack (zero at
/// `snr = 1`, growing as the cell degrades). A cell with no attack, no
/// defense and `snr = 1` is the *identity cell*: its jobs run the plain
/// campaign path and its `report.json` is byte-for-byte a plain
/// campaign's.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The adversary's trace transform.
    pub attack: AttackSpec,
    /// The verifier's deployment and decision procedure.
    pub defense: DefenseSpec,
    /// Signal-to-noise scale of the cell (1.0 = nominal).
    pub snr: f64,
    /// Overlay watermark amplitude at `snr = 1`, in watts.
    pub amplitude_watts: f64,
    /// Reference measurement-noise σ used by the SNR axis, in watts.
    pub noise_watts: f64,
    /// Root seed of every deterministic draw in the cell (per-job seeds
    /// are counter-hashed from it).
    pub seed: u64,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            attack: AttackSpec::None,
            defense: DefenseSpec::None,
            snr: 1.0,
            // The paper's watermark amplitude and the calibrated chain
            // noise — so snr=1 reproduces Fig. 5 conditions.
            amplitude_watts: 1.5e-3,
            noise_watts: 0.045,
            seed: 0,
        }
    }
}

impl ScenarioSpec {
    /// Whether this cell is the identity scenario: no attack, no defense,
    /// nominal SNR. Identity jobs run the plain campaign path (streaming
    /// fold, mid-trace checkpoints) and land byte-identical outcomes to a
    /// plain campaign over the same traces.
    pub fn is_identity(&self) -> bool {
        self.attack == AttackSpec::None && self.defense == DefenseSpec::None && self.snr == 1.0
    }

    /// The σ of the deterministic white noise this cell adds, in watts.
    pub fn added_noise_sigma(&self) -> f64 {
        if self.snr >= 1.0 {
            0.0
        } else {
            self.noise_watts * (1.0 / self.snr - 1.0)
        }
    }

    /// The overlay watermark amplitude of this cell, in watts.
    pub fn overlay_amplitude(&self) -> f64 {
        self.amplitude_watts * self.snr
    }

    /// Serialises the spec as one JSON object, appended to `out`.
    pub fn encode_into(&self, out: &mut String) {
        out.push_str("{\"attack\":");
        self.attack.encode_into(out);
        out.push_str(",\"defense\":");
        self.defense.encode_into(out);
        out.push_str(",\"snr\":");
        json::write_f64(out, self.snr);
        out.push_str(",\"amplitude_watts\":");
        json::write_f64(out, self.amplitude_watts);
        out.push_str(",\"noise_watts\":");
        json::write_f64(out, self.noise_watts);
        // The seed is a full-range u64 (cell seeds are splitmix64 output).
        // It stays a decimal string, the form every persisted spec uses;
        // the reader takes that or an exact integer.
        let _ = write!(out, ",\"seed\":\"{}\"}}", self.seed);
    }

    /// Serialises the spec as one JSON object.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(160);
        self.encode_into(&mut out);
        out
    }

    /// Parses a spec from JSON text. Missing numeric fields fall back
    /// to [`ScenarioSpec::default`]'s values; missing attack or defense
    /// objects mean "none".
    ///
    /// # Errors
    ///
    /// [`SpecError`] for malformed JSON, unknown attack/defense kinds, or
    /// an ill-typed field.
    pub fn decode(text: &str) -> Result<Self, SpecError> {
        Ok(json::decode(text)?)
    }

    /// Checks every parameter (and both sub-specs) is in range.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the offending field.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.attack.validate()?;
        self.defense.validate()?;
        finite("snr", self.snr)?;
        if self.snr <= 0.0 {
            return Err(SpecError::new("snr must be > 0"));
        }
        finite("amplitude_watts", self.amplitude_watts)?;
        if self.amplitude_watts < 0.0 {
            return Err(SpecError::new("amplitude_watts must be >= 0"));
        }
        finite("noise_watts", self.noise_watts)?;
        if self.noise_watts < 0.0 {
            return Err(SpecError::new("noise_watts must be >= 0"));
        }
        Ok(())
    }
}

impl FromJson<'_> for ScenarioSpec {
    fn from_json(value: &Json, path: impl FnOnce() -> String) -> Result<Self, DecodeError> {
        let f = Record::from_json(value, path)?;
        let defaults = ScenarioSpec::default();
        Ok(ScenarioSpec {
            attack: f.or("attack", defaults.attack)?,
            defense: f.or("defense", defaults.defense)?,
            snr: f.or("snr", defaults.snr)?,
            amplitude_watts: f.or("amplitude_watts", defaults.amplitude_watts)?,
            noise_watts: f.or("noise_watts", defaults.noise_watts)?,
            seed: f.or("seed", DecimalU64(defaults.seed))?.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_specs_round_trip_through_json() {
        for spec in AttackSpec::all_defaults() {
            let text = spec.encode();
            let back = AttackSpec::decode(&text).expect("round trips");
            assert_eq!(back, spec, "{text}");
            spec.validate().expect("defaults validate");
        }
    }

    #[test]
    fn defense_specs_round_trip_through_json() {
        for spec in DefenseSpec::all_defaults() {
            let text = spec.encode();
            let back = DefenseSpec::decode(&text).expect("round trips");
            assert_eq!(back, spec, "{text}");
            spec.validate().expect("defaults validate");
        }
    }

    #[test]
    fn scenario_spec_round_trips_through_json() {
        for attack in AttackSpec::all_defaults() {
            for defense in DefenseSpec::all_defaults() {
                let spec = ScenarioSpec {
                    attack: attack.clone(),
                    defense,
                    snr: 0.5,
                    amplitude_watts: 2e-3,
                    noise_watts: 0.03,
                    // A full-range u64 (past 2^53): cell seeds are
                    // splitmix64 output, and the round-trip must not
                    // squeeze them through an f64.
                    seed: 0x9e37_79b9_7f4a_7c15,
                };
                let back = ScenarioSpec::decode(&spec.encode()).expect("round trips");
                assert_eq!(back, spec);
            }
        }
    }

    #[test]
    fn hand_written_numeric_seeds_are_accepted() {
        let spec = ScenarioSpec::decode("{\"seed\":42}").expect("valid");
        assert_eq!(spec.seed, 42);
        assert!(ScenarioSpec::decode("{\"seed\":\"not a number\"}").is_err());
    }

    #[test]
    fn decode_is_tolerant_of_missing_and_unknown_fields() {
        // A bare kind uses the documented defaults.
        assert_eq!(
            AttackSpec::decode("{\"kind\":\"clock_jitter\"}").expect("tolerant"),
            AttackSpec::ClockJitter { sigma_cycles: 2.0 }
        );
        // Unknown extra fields are ignored.
        assert_eq!(
            DefenseSpec::decode("{\"kind\":\"seed_hopping\",\"dwell_cycles\":512,\"future\":1}")
                .expect("tolerant"),
            DefenseSpec::SeedHopping { dwell_cycles: 512 }
        );
        // A legacy scenario object with neither side means identity-ish.
        let spec = ScenarioSpec::decode("{\"snr\":1}").expect("tolerant");
        assert!(spec.is_identity());
        // Unknown kinds fail loudly — silently running the wrong adversary
        // would corrupt a whole campaign.
        assert!(AttackSpec::decode("{\"kind\":\"quantum\"}").is_err());
        assert!(DefenseSpec::decode("{\"kind\":\"prayer\"}").is_err());
    }

    #[test]
    fn validation_rejects_out_of_range_parameters() {
        assert!(AttackSpec::ClockJitter { sigma_cycles: -1.0 }
            .validate()
            .is_err());
        assert!(AttackSpec::GateDisable {
            fraction: 1.5,
            estimate_cycles: 1024
        }
        .validate()
        .is_err());
        assert!(AttackSpec::Dvfs {
            dwell_cycles: 0,
            max_shift: 4
        }
        .validate()
        .is_err());
        assert!(DefenseSpec::MultiWatermark {
            extra_widths: vec![]
        }
        .validate()
        .is_err());
        assert!(DefenseSpec::ChallengeResponse { phase_delta: 0 }
            .validate()
            .is_err());
        let bad_snr = ScenarioSpec {
            snr: 0.0,
            ..ScenarioSpec::default()
        };
        assert!(bad_snr.validate().is_err());
    }

    #[test]
    fn identity_detection_is_exact() {
        assert!(ScenarioSpec::default().is_identity());
        let attacked = ScenarioSpec {
            attack: AttackSpec::Jamming {
                amplitude_watts: 1e-3,
            },
            ..ScenarioSpec::default()
        };
        assert!(!attacked.is_identity());
        let degraded = ScenarioSpec {
            snr: 0.5,
            ..ScenarioSpec::default()
        };
        assert!(!degraded.is_identity());
        assert!(degraded.added_noise_sigma() > 0.0);
    }
}
