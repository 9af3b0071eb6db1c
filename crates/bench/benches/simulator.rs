//! Criterion benchmarks of the substrates: cycle simulation of the
//! paper-sized watermark netlist, the SoC background model and the
//! measurement chain.
//!
//! Besides the paper's clock-only block (where the compiled simulator
//! turns 1,024 `Hold` registers into 32 bucket adds), the suite times the
//! paths that shortcut does not cover: the load circuit's 576 `ShiftFrom`
//! registers, a block whose 512 `Toggle` registers switch data on every
//! gated edge, and an acquisition with the PDN filter active.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use clockmark::{ClockModulationWatermark, LoadCircuitWatermark, WatermarkArchitecture};
use clockmark_measure::{Acquisition, PdnModel};
use clockmark_netlist::Netlist;
use clockmark_power::{Frequency, Power, PowerTrace};
use clockmark_sim::{CycleSim, SignalDriver};
use clockmark_soc::Soc;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CYCLES: usize = 10_000;

fn bench_netlist_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates");
    group.throughput(Throughput::Elements(CYCLES as u64));

    // Paper-sized watermark netlist: 1,024 gated + 12 WGC registers.
    group.bench_function("cycle_sim/1036_registers", |b| {
        bench_sim(b, &ClockModulationWatermark::paper())
    });
    group.bench_function("cycle_sim/512_switching_registers", |b| {
        let arch = ClockModulationWatermark {
            switching_registers: 512,
            ..ClockModulationWatermark::paper()
        };
        bench_sim(b, &arch)
    });
    group.bench_function("cycle_sim/load_circuit_576_registers", |b| {
        bench_sim(b, &LoadCircuitWatermark::paper_equivalent())
    });

    group.bench_function("soc_background/chip_i", |b| {
        let mut soc = Soc::chip_i().expect("builds");
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(soc.run(CYCLES, &mut rng).expect("runs")))
    });

    group.bench_function("soc_background/chip_ii", |b| {
        let mut soc = Soc::chip_ii().expect("builds");
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(soc.run(CYCLES, &mut rng).expect("runs")))
    });

    group.bench_function("acquisition/50_samples_per_cycle", |b| {
        let chain = Acquisition::paper_chain(Frequency::from_megahertz(10.0));
        let power = PowerTrace::constant(Power::from_milliwatts(5.0), CYCLES);
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(chain.acquire(&power, &mut rng)))
    });

    group.bench_function("acquisition/pdn_typical", |b| {
        let mut chain = Acquisition::paper_chain(Frequency::from_megahertz(10.0));
        chain.pdn = PdnModel::typical();
        let power = PowerTrace::constant(Power::from_milliwatts(5.0), CYCLES);
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| black_box(chain.acquire(&power, &mut rng)))
    });

    group.finish();
}

/// Simulates `CYCLES` cycles of `arch` embedded alone, watermark enabled.
fn bench_sim<A: WatermarkArchitecture>(b: &mut criterion::Bencher, arch: &A) {
    let mut netlist = Netlist::new();
    let clk = netlist.add_clock_root("clk");
    let wm = arch.embed(&mut netlist, clk.into()).expect("embeds");
    let mut sim = CycleSim::new(&netlist).expect("valid");
    sim.drive(wm.enable, SignalDriver::Constant(true))
        .expect("external");
    b.iter(|| {
        sim.reset();
        black_box(sim.run(CYCLES).expect("runs"))
    })
}

criterion_group!(benches, bench_netlist_sim);
criterion_main!(benches);
