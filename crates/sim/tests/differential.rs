//! Differential tests: the compiled `CycleSim` against the per-cell
//! interpreter it replaced (`reference::ScalarSim`).
//!
//! Every cycle, both engines must report the same per-group activity, and
//! agree on every register value, every signal value and every cell's
//! clock activity. The netlists are random (several roots, groups and
//! clock layers, every data source, rewired enables, roots stopped and
//! restarted and resets mid-run) and paper-shaped (a 12-bit structural
//! LFSR gating 32 clock gates × 32 registers, over two LFSR periods).

mod reference;

use clockmark_netlist::{
    CellId, ClockInput, ClockRootId, DataSource, GroupId, Netlist, RegisterConfig, SignalExpr,
    SignalId,
};
use clockmark_seq::{maximal_taps, Lfsr};
use clockmark_sim::{CycleSim, SignalDriver};
use proptest::prelude::*;
use reference::ScalarSim;

/// How one external signal is driven; instantiated once per engine.
#[derive(Debug, Clone)]
enum DriverSpec {
    Undriven,
    Bits(Vec<bool>, bool),
    Lfsr(u32),
}

impl DriverSpec {
    fn make(&self) -> Option<SignalDriver> {
        match self {
            DriverSpec::Undriven => None,
            DriverSpec::Bits(bits, repeat) => Some(SignalDriver::bits(bits.clone(), *repeat)),
            DriverSpec::Lfsr(width) => Some(SignalDriver::generator(
                Lfsr::maximal(*width).expect("valid width"),
            )),
        }
    }
}

/// Something done to both engines before a cycle.
#[derive(Debug, Clone, Copy)]
enum Event {
    StopRoot(usize),
    StartRoot(usize),
    Reset,
}

/// Both engines over one netlist, driven identically.
struct Pair<'a> {
    netlist: &'a Netlist,
    compiled: CycleSim,
    reference: ScalarSim,
}

impl<'a> Pair<'a> {
    fn new(netlist: &'a Netlist, drivers: &[(SignalId, DriverSpec)]) -> Self {
        let mut compiled = CycleSim::new(netlist).expect("valid netlist");
        let mut reference = ScalarSim::new(netlist);
        for (signal, spec) in drivers {
            if let (Some(a), Some(b)) = (spec.make(), spec.make()) {
                compiled.drive(*signal, a).expect("external");
                reference.drive(*signal, b);
            }
        }
        Pair {
            netlist,
            compiled,
            reference,
        }
    }

    fn apply(&mut self, event: Event) {
        match event {
            Event::StopRoot(r) | Event::StartRoot(r) => {
                let root = ClockRootId::from_index(r % self.netlist.clock_root_count());
                let running = matches!(event, Event::StartRoot(_));
                self.compiled
                    .set_root_running(root, running)
                    .expect("known root");
                self.reference.set_root_running(root, running);
            }
            Event::Reset => {
                self.compiled.reset();
                self.reference.reset();
            }
        }
    }

    /// Steps both engines once; describes the first disagreement.
    fn step(&mut self) -> Result<(), String> {
        let cycle = self.compiled.cycle();
        let got = self.compiled.step().to_vec();
        let want = self.reference.step().to_vec();
        if got != want {
            return Err(format!("cycle {cycle}: activity {got:?} != {want:?}"));
        }
        self.check()
    }

    /// Compares every register value, clock activity and signal value.
    fn check(&self) -> Result<(), String> {
        let cycle = self.compiled.cycle();
        for (id, _) in self.netlist.cells() {
            if self.compiled.register_value(id) != self.reference.register_value(id) {
                return Err(format!("cycle {cycle}: register value of {id}"));
            }
            if self.compiled.clock_was_active(id) != self.reference.clock_was_active(id) {
                return Err(format!("cycle {cycle}: clock activity of {id}"));
            }
        }
        for (id, _) in self.netlist.signals() {
            if self.compiled.signal_value(id) != self.reference.signal_value(id) {
                return Err(format!("cycle {cycle}: signal value of {id}"));
            }
        }
        Ok(())
    }
}

/// A recipe for one random netlist. Every `*_pick` is reduced modulo the
/// length of the list it picks from.
#[derive(Debug, Clone)]
struct Recipe {
    roots: usize,
    groups: usize,
    externals: Vec<DriverSpec>,
    /// (is a clock gate, parent pick, group pick, enable pick)
    sources: Vec<(bool, usize, usize, usize)>,
    registers: Vec<RegRecipe>,
    /// (operator, operand a pick, operand b pick), declared after the
    /// registers so `RegOutput` can read them.
    derived: Vec<(usize, usize, usize)>,
    /// (register pick, source pick, whether the source is a signal rather
    /// than another register): data rewired after everything exists, so
    /// registers can read later registers and derived signals.
    rewire: Vec<(usize, usize, bool)>,
    /// (clock gate pick, signal pick): enables retargeted to derived logic.
    regate: Vec<(usize, usize)>,
    /// (cycle, event)
    events: Vec<(usize, Event)>,
}

#[derive(Debug, Clone)]
struct RegRecipe {
    clock_pick: usize,
    group_pick: usize,
    data_pick: usize,
    init: bool,
    enable_pick: Option<usize>,
}

fn driver_strategy() -> impl Strategy<Value = DriverSpec> {
    (0usize..4, any::<u64>(), 1usize..40).prop_map(|(kind, seed, len)| match kind {
        0 => DriverSpec::Undriven,
        1 => DriverSpec::Lfsr(3 + (seed % 6) as u32),
        _ => DriverSpec::Bits(
            (0..len).map(|k| (seed >> (k % 64)) & 1 != 0).collect(),
            kind == 2,
        ),
    })
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    let register = (
        0usize..100,
        0usize..100,
        0usize..6,
        any::<bool>(),
        proptest::option::of(0usize..100),
    )
        .prop_map(
            |(clock_pick, group_pick, data_pick, init, enable_pick)| RegRecipe {
                clock_pick,
                group_pick,
                data_pick,
                init,
                enable_pick,
            },
        );
    let source = (any::<bool>(), 0usize..100, 0usize..100, 0usize..100);
    let derived = (0usize..6, 0usize..100, 0usize..100);
    let event = (0usize..3, 0usize..100).prop_map(|(kind, root)| match kind {
        0 => Event::StopRoot(root),
        1 => Event::StartRoot(root),
        _ => Event::Reset,
    });
    let shape = (
        1usize..4,
        1usize..4,
        proptest::collection::vec(driver_strategy(), 1..5),
    );
    let logic = (
        proptest::collection::vec(source, 0..8),
        proptest::collection::vec(register, 1..40),
        proptest::collection::vec(derived, 0..10),
    );
    let edits = (
        proptest::collection::vec((0usize..100, 0usize..100, any::<bool>()), 0..8),
        proptest::collection::vec((0usize..100, 0usize..100), 0..4),
        proptest::collection::vec((0usize..64, event), 0..6),
    );
    (shape, logic, edits).prop_map(
        |((roots, groups, externals), (sources, registers, derived), (rewire, regate, events))| {
            Recipe {
                roots,
                groups,
                externals,
                sources,
                registers,
                derived,
                rewire,
                regate,
                events,
            }
        },
    )
}

/// Materialises a recipe. Always produces a valid netlist.
fn build(recipe: &Recipe) -> (Netlist, Vec<(SignalId, DriverSpec)>) {
    let mut n = Netlist::new();
    let roots: Vec<ClockRootId> = (0..recipe.roots)
        .map(|i| n.add_clock_root(&format!("clk{i}")))
        .collect();
    let mut groups = vec![GroupId::TOP];
    for i in 1..recipe.groups {
        groups.push(n.add_group(&format!("g{i}")));
    }
    let group = |pick: usize| groups[pick % groups.len()];

    let drivers: Vec<(SignalId, DriverSpec)> = recipe
        .externals
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let signal = n
                .add_signal(&format!("ext{i}"), SignalExpr::External)
                .expect("valid");
            (signal, spec.clone())
        })
        .collect();
    let mut signals: Vec<SignalId> = drivers.iter().map(|(s, _)| *s).collect();

    let mut clocks: Vec<ClockInput> = roots.iter().map(|&r| r.into()).collect();
    let mut icgs = Vec::new();
    for &(is_icg, parent, group_pick, enable) in &recipe.sources {
        let parent = clocks[parent % clocks.len()];
        let cell = if is_icg {
            let icg = n
                .add_icg(group(group_pick), parent, signals[enable % signals.len()])
                .expect("valid");
            icgs.push(icg);
            icg
        } else {
            n.add_buffer(group(group_pick), parent).expect("valid")
        };
        clocks.push(cell.into());
    }

    let mut registers: Vec<CellId> = Vec::new();
    for r in &recipe.registers {
        let data = match r.data_pick {
            0 => DataSource::Hold,
            1 => DataSource::Toggle,
            2 => DataSource::Constant(r.init),
            3 => DataSource::Constant(!r.init),
            4 if !registers.is_empty() => {
                DataSource::ShiftFrom(registers[r.clock_pick % registers.len()])
            }
            _ => DataSource::Signal(signals[r.clock_pick % signals.len()]),
        };
        let mut config = RegisterConfig::new(clocks[r.clock_pick % clocks.len()])
            .data(data)
            .init(r.init);
        if let Some(pick) = r.enable_pick {
            config = config.sync_enable(signals[pick % signals.len()]);
        }
        registers.push(n.add_register(group(r.group_pick), config).expect("valid"));
    }

    for (i, &(op, a, b)) in recipe.derived.iter().enumerate() {
        let sa = signals[a % signals.len()];
        let sb = signals[b % signals.len()];
        let expr = match op {
            0 => SignalExpr::RegOutput(registers[a % registers.len()]),
            1 => SignalExpr::And(sa, sb),
            2 => SignalExpr::Or(sa, sb),
            3 => SignalExpr::Xor(sa, sb),
            4 => SignalExpr::Not(sa),
            _ => SignalExpr::Const(b % 2 == 0),
        };
        signals.push(n.add_signal(&format!("d{i}"), expr).expect("valid"));
    }

    for &(reg, src, to_signal) in &recipe.rewire {
        let data = if to_signal {
            DataSource::Signal(signals[src % signals.len()])
        } else {
            DataSource::ShiftFrom(registers[src % registers.len()])
        };
        n.set_register_data(registers[reg % registers.len()], data)
            .expect("valid");
    }
    if !icgs.is_empty() {
        for &(icg, signal) in &recipe.regate {
            n.set_icg_enable(icgs[icg % icgs.len()], signals[signal % signals.len()])
                .expect("valid");
        }
    }
    (n, drivers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compiled_engine_matches_the_scalar_reference(recipe in recipe_strategy()) {
        let (netlist, drivers) = build(&recipe);
        let mut pair = Pair::new(&netlist, &drivers);
        for cycle in 0..64 {
            for &(_, event) in recipe.events.iter().filter(|(at, _)| *at == cycle) {
                pair.apply(event);
            }
            // Compare the state the events left, then the cycle itself.
            let outcome = pair.check().and_then(|()| pair.step());
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }
}

/// How the gated block's registers are wired.
#[derive(Debug, Clone, Copy)]
enum Body {
    /// Clock power only (the paper's headline configuration).
    Hold,
    /// The first half toggles data on every gated edge.
    HalfToggle,
    /// Each word is a circular shift ring seeded 1010….
    ShiftRings,
}

/// The paper's watermark shape: a 12-bit structural LFSR whose output,
/// ANDed with an external enable, gates 32 words of 32 registers.
fn paper_shaped(body: Body) -> (Netlist, SignalId) {
    let mut n = Netlist::new();
    let clk = n.add_clock_root("clk");
    let wm = n.add_group("watermark");

    let width = 12;
    let lfsr: Vec<CellId> = (0..width)
        .map(|i| {
            n.add_register(wm, RegisterConfig::new(clk.into()).init(i == 0))
                .expect("valid")
        })
        .collect();
    for i in 0..width - 1 {
        n.set_register_data(lfsr[i], DataSource::ShiftFrom(lfsr[i + 1]))
            .expect("valid");
    }
    let mut feedback: Option<SignalId> = None;
    for &tap in maximal_taps(width as u32).expect("tabulated") {
        let bit = width - tap as usize;
        let q = n
            .add_signal(&format!("q{bit}"), SignalExpr::RegOutput(lfsr[bit]))
            .expect("valid");
        feedback = Some(match feedback {
            None => q,
            Some(acc) => n
                .add_signal(&format!("fb{bit}"), SignalExpr::Xor(acc, q))
                .expect("valid"),
        });
    }
    n.set_register_data(lfsr[width - 1], DataSource::Signal(feedback.expect("taps")))
        .expect("valid");

    let raw = n
        .add_signal("wmark_raw", SignalExpr::RegOutput(lfsr[0]))
        .expect("valid");
    let enable = n
        .add_signal("wm_enable", SignalExpr::External)
        .expect("valid");
    let wmark = n
        .add_signal("wmark", SignalExpr::And(raw, enable))
        .expect("valid");
    for word in 0..32 {
        let icg = n.add_icg(wm, clk.into(), wmark).expect("valid");
        let first = n.cell_count();
        for bit in 0..32 {
            let data = match body {
                Body::Hold => DataSource::Hold,
                Body::HalfToggle if word < 16 => DataSource::Toggle,
                Body::HalfToggle => DataSource::Hold,
                Body::ShiftRings => DataSource::Constant(false),
            };
            let config = RegisterConfig::new(icg.into())
                .data(data)
                .init(bit % 2 == 0);
            n.add_register(wm, config).expect("valid");
        }
        if let Body::ShiftRings = body {
            for bit in 0..32 {
                let cell = CellId::from_index(first + bit);
                let from = CellId::from_index(first + (bit + 31) % 32);
                n.set_register_data(cell, DataSource::ShiftFrom(from))
                    .expect("valid");
            }
        }
    }
    (n, enable)
}

#[test]
fn paper_shaped_netlists_match_over_two_lfsr_periods() {
    for body in [Body::Hold, Body::HalfToggle, Body::ShiftRings] {
        let (netlist, enable) = paper_shaped(body);
        // The enable drops for a stretch mid-run, as a disabled watermark.
        let pattern: Vec<bool> = (0..5_000).map(|c| !(2_000..2_600).contains(&c)).collect();
        let mut pair = Pair::new(&netlist, &[(enable, DriverSpec::Bits(pattern, true))]);
        for _ in 0..2 * 4_095 {
            if let Err(diff) = pair.step() {
                panic!("{body:?}: {diff}");
            }
        }
    }
}
