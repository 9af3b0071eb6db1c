//! Early-stopping detection with the streaming CPA detector: instead of
//! the paper's fixed 300,000 cycles, stop as soon as a single significant
//! peak resolves — and see how the required trace length moves with the
//! watermark's amplitude.
//!
//! ```sh
//! cargo run --release --example early_stopping
//! ```

use clockmark::prelude::*;
use clockmark_measure::Acquisition;
use clockmark_netlist::Netlist;
use clockmark_power::{EnergyLibrary, Frequency, PowerModel};
use clockmark_sim::{CycleSim, SignalDriver};
use clockmark_soc::Soc;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MAX_CYCLES: usize = 120_000;
const CHUNK: usize = 1_000;

fn cycles_to_detect(words: u32, seed: u64) -> Result<Option<u64>, Box<dyn std::error::Error>> {
    let arch = ClockModulationWatermark {
        words,
        regs_per_word: 32,
        switching_registers: 0,
        wgc: WgcConfig::MaxLengthLfsr { width: 8, seed: 1 },
    };

    // Build and prime the simulation.
    let mut netlist = Netlist::new();
    let clk = netlist.add_clock_root("clk");
    let wm = arch.embed(&mut netlist, clk.into())?;
    let mut sim = CycleSim::new(&netlist)?;
    sim.drive(wm.enable, SignalDriver::Constant(true))?;

    let f_clk = Frequency::from_megahertz(10.0);
    let model = PowerModel::new(EnergyLibrary::tsmc65ll(), f_clk);
    let mut chain = Acquisition::paper_chain(f_clk);
    chain.scope = chain.scope.with_vertical_noise(15e-3);
    let mut soc = Soc::chip_i()?;
    let mut rng = StdRng::seed_from_u64(seed);

    // Stream chunks of measured cycles into a detection session.
    let mut session = Detector::new(&wm.pattern)?.detect_streaming();
    while session.cycles() < MAX_CYCLES as u64 {
        let activity = sim.run(CHUNK)?;
        let mut power = model.trace(&activity);
        power.add_offset(model.static_power(netlist.register_count()));
        let background = soc.run(CHUNK, &mut rng)?;
        let total = power.checked_add(&background)?;
        let measured = chain.acquire(&total, &mut rng);
        session.push_chunk(measured.as_watts());
        if session.finalize().result.detected {
            return Ok(Some(session.cycles()));
        }
    }
    Ok(None)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = PowerModel::new(EnergyLibrary::tsmc65ll(), Frequency::from_megahertz(10.0));
    println!("early-stopping detection (streaming CPA, chip-I background, quiet probe)\n");
    println!(
        "{:>10} {:>12} {:>18}",
        "registers", "amplitude", "cycles to detect"
    );
    for words in [4u32, 8, 16, 32, 64] {
        let arch = ClockModulationWatermark {
            words,
            regs_per_word: 32,
            switching_registers: 0,
            wgc: WgcConfig::MaxLengthLfsr { width: 8, seed: 1 },
        };
        let amplitude = arch.signal_amplitude(&model);
        let cycles = cycles_to_detect(words, 7 + words as u64)?;
        match cycles {
            Some(n) => println!("{:>10} {:>12} {:>18}", words * 32, amplitude.to_string(), n),
            None => println!(
                "{:>10} {:>12} {:>18}",
                words * 32,
                amplitude.to_string(),
                format!("> {MAX_CYCLES}")
            ),
        }
    }
    println!(
        "\ndetection cost scales ~1/amplitude^2 (the correlation z-score grows with \
         amplitude · sqrt(N)); the paper's fixed 300,000 cycles covers its 1.5 mW \
         watermark with generous margin on the noisier real measurement chain"
    );
    Ok(())
}
