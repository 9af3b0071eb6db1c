//! Golden pins of the end-to-end experiment's exact output.
//!
//! Each digest is FNV-1a over the `to_bits()` of every ρ in the spread
//! spectrum, so the simulator, power model, background, measurement chain
//! and CPA must together reproduce the recorded spectrum bit for bit. The
//! digests were recorded with the per-cell interpreting simulator and the
//! scalar measurement chain that the compiled netlist and the batched
//! noise kernel replaced.

use clockmark::{
    ClockModulationWatermark, Experiment, LoadCircuitWatermark, WatermarkArchitecture, WgcConfig,
};

/// 64-bit FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn spectrum_digest<A: WatermarkArchitecture>(experiment: &Experiment, arch: &A) -> u64 {
    let outcome = experiment.run(arch).expect("runs");
    fnv1a(outcome.spectrum.rho().iter().map(|r| r.to_bits()))
}

#[test]
fn quick_experiment_spectrum_is_pinned() {
    // The paper's 12-bit, 1,024-register block over two LFSR periods.
    let digest = spectrum_digest(
        &Experiment::quick(8_190, 7),
        &ClockModulationWatermark::paper(),
    );
    assert_eq!(digest, 15393280126448858066);
}

#[test]
fn switching_and_load_circuit_spectra_are_pinned() {
    let switching = ClockModulationWatermark {
        switching_registers: 512,
        wgc: WgcConfig::MaxLengthLfsr { width: 8, seed: 1 },
        ..ClockModulationWatermark::paper()
    };
    let gated = LoadCircuitWatermark {
        wgc: WgcConfig::MaxLengthLfsr { width: 8, seed: 1 },
        ..LoadCircuitWatermark::paper_equivalent()
    };
    let ungated = LoadCircuitWatermark {
        clock_gated: false,
        ..gated.clone()
    };
    let experiment = Experiment::quick(4_000, 11);
    let digests = [
        spectrum_digest(&experiment, &switching),
        spectrum_digest(&experiment, &gated),
        spectrum_digest(&experiment, &ungated),
    ];
    assert_eq!(
        digests,
        [
            8638207425363156943,
            11609214531799450338,
            9386461327918650950
        ]
    );
}
