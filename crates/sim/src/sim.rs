use crate::{ActivityTrace, GroupActivity, SignalDriver, SimError};
use clockmark_netlist::{
    CellId, CellKind, ClockInput, ClockRootId, DataSource, Netlist, SignalExpr, SignalId,
};

/// A buffer or clock gate, compiled to clock-net indices. Its output net
/// is the root count plus its position among the sources.
#[derive(Debug, Clone, Copy)]
struct ClockSource {
    /// The net driving the source's clock input (always an earlier net:
    /// a clock input must exist before the cell it drives).
    input: u32,
    /// The gate's enable signal; `None` for a buffer.
    enable: Option<u32>,
    group: u32,
}

/// The registers of one group clocked by one net: an edge on the net is
/// `count` register clock events for the group.
#[derive(Debug, Clone, Copy)]
struct ClockBucket {
    net: u32,
    group: u32,
    count: u32,
}

/// A register whose output can change, with its next-state function.
#[derive(Debug, Clone, Copy)]
struct LiveRegister {
    cell: u32,
    net: u32,
    group: u32,
    sync_enable: Option<u32>,
    data: DataSource,
}

/// A deterministic cycle-based simulator over a [`Netlist`].
///
/// Construction compiles the netlist once, in O(cells), so the simulator
/// owns its state and the netlist can be dropped or mutated afterwards.
/// The compiled form has three parts: the clock sources in netlist order,
/// one register count per (clock net, group) so a clock edge is one add
/// per bucket, and the list of registers whose value can change at all
/// (`Hold` registers, and `Constant` ones already at their constant,
/// never do). Each [`step`](CycleSim::step) advances one full clock cycle
/// with standard synchronous semantics:
///
/// 1. combinational signals are evaluated from *pre-edge* register outputs
///    and external drivers;
/// 2. clock enables are resolved through the (possibly gated) clock tree;
/// 3. clocked registers sample their data inputs simultaneously.
///
/// Activity counters are accumulated per cell group so that watermark and
/// system power can be separated later.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct CycleSim {
    signal_exprs: Vec<SignalExpr>,
    sources: Vec<ClockSource>,
    buckets: Vec<ClockBucket>,
    live: Vec<LiveRegister>,
    /// Per cell, the net [`clock_was_active`](CycleSim::clock_was_active)
    /// reports: a register's clock input, a clock source's output.
    cell_net: Vec<u32>,
    /// Initial register values, for [`reset`](CycleSim::reset).
    init_values: Vec<bool>,
    /// Current register output per cell slot (unused for non-registers).
    reg_values: Vec<bool>,
    /// Next-state values. Only live registers are written; every other
    /// slot always equals its `reg_values` twin, so the two can be swapped.
    next_values: Vec<bool>,
    /// Current signal values.
    signal_values: Vec<bool>,
    /// Per-signal external driver (None = undriven or non-external).
    drivers: Vec<Option<SignalDriver>>,
    root_running: Vec<bool>,
    /// Per clock net (roots, then sources in netlist order): whether it
    /// ran in the most recent cycle.
    net_active: Vec<bool>,
    group_scratch: Vec<GroupActivity>,
    cycle: u64,
}

impl CycleSim {
    /// Prepares a simulator for `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Netlist`] when the netlist fails validation
    /// (e.g. a clock cycle).
    pub fn new(netlist: &Netlist) -> Result<Self, SimError> {
        netlist.validate()?;

        let n_roots = netlist.clock_root_count();
        let n_cells = netlist.cell_count();
        let mut init_values = vec![false; n_cells];
        let mut cell_net = vec![0u32; n_cells];
        let mut sources = Vec::new();
        let mut buckets: Vec<ClockBucket> = Vec::new();
        let mut live = Vec::with_capacity(n_cells);
        // The bucket most recently opened on each net. A net's registers
        // usually share a group and sit together, so this finds their
        // bucket without a search; an interleaved group just opens another
        // bucket on the same net, which sums the same.
        let mut net_bucket: Vec<Option<u32>> = vec![None; n_roots];

        // Clock sources precede the cells they drive, so the net of a
        // cell's clock input is always compiled already.
        let net_of = |clock: ClockInput, cell_net: &[u32]| match clock {
            ClockInput::Root(r) => r.index() as u32,
            ClockInput::Cell(c) => cell_net[c.index()],
        };
        for (id, cell) in netlist.cells() {
            let group = cell.group.index() as u32;
            let (clock, enable) = match cell.kind {
                CellKind::Register(config) => {
                    let net = net_of(config.clock, &cell_net);
                    cell_net[id.index()] = net;
                    init_values[id.index()] = config.init;
                    let slot = &mut net_bucket[net as usize];
                    match slot.map(|b| &mut buckets[b as usize]) {
                        Some(bucket) if bucket.group == group => bucket.count += 1,
                        _ => {
                            *slot = Some(buckets.len() as u32);
                            buckets.push(ClockBucket {
                                net,
                                group,
                                count: 1,
                            });
                        }
                    }
                    let can_change = match config.data {
                        DataSource::Hold => false,
                        DataSource::Constant(v) => v != config.init,
                        DataSource::Toggle | DataSource::ShiftFrom(_) | DataSource::Signal(_) => {
                            true
                        }
                    };
                    if can_change {
                        live.push(LiveRegister {
                            cell: id.index() as u32,
                            net,
                            group,
                            sync_enable: config.sync_enable.map(|s| s.index() as u32),
                            data: config.data,
                        });
                    }
                    continue;
                }
                CellKind::ClockGate { clock, enable } => (clock, Some(enable.index() as u32)),
                CellKind::ClockBuffer { clock } => (clock, None),
            };
            // A clock source drives a net of its own.
            let input = net_of(clock, &cell_net);
            cell_net[id.index()] = (n_roots + sources.len()) as u32;
            sources.push(ClockSource {
                input,
                enable,
                group,
            });
            net_bucket.push(None);
        }

        let signal_exprs: Vec<SignalExpr> = netlist.signals().map(|(_, s)| s.expr).collect();
        let n_signals = signal_exprs.len();
        let n_nets = n_roots + sources.len();

        Ok(CycleSim {
            signal_exprs,
            sources,
            buckets,
            live,
            cell_net,
            reg_values: init_values.clone(),
            next_values: init_values.clone(),
            init_values,
            signal_values: vec![false; n_signals],
            drivers: (0..n_signals).map(|_| None).collect(),
            root_running: vec![true; n_roots],
            net_active: vec![false; n_nets],
            group_scratch: vec![GroupActivity::default(); netlist.group_count()],
            cycle: 0,
        })
    }

    /// Attaches a driver to an external signal.
    ///
    /// Replaces any previous driver. Undriven external signals read as
    /// `false`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DriverForNonExternal`] when the signal's
    /// expression is not [`SignalExpr::External`], and
    /// [`SimError::Netlist`] for a dangling id.
    pub fn drive(&mut self, signal: SignalId, driver: SignalDriver) -> Result<(), SimError> {
        let expr = self
            .signal_exprs
            .get(signal.index())
            .ok_or(SimError::Netlist(
                clockmark_netlist::NetlistError::UnknownSignal { signal },
            ))?;
        if !matches!(expr, SignalExpr::External) {
            return Err(SimError::DriverForNonExternal { signal });
        }
        self.drivers[signal.index()] = Some(driver);
        Ok(())
    }

    /// Starts or stops a top-level clock root. Roots start running.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Netlist`] for a dangling id.
    pub fn set_root_running(&mut self, root: ClockRootId, running: bool) -> Result<(), SimError> {
        let slot = self
            .root_running
            .get_mut(root.index())
            .ok_or(SimError::Netlist(
                clockmark_netlist::NetlistError::UnknownClockRoot,
            ))?;
        *slot = running;
        Ok(())
    }

    /// Number of cycles simulated since construction or the last
    /// [`reset`](CycleSim::reset).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The current output value of a register.
    ///
    /// # Panics
    ///
    /// Panics when `cell` is out of range (it must come from the simulated
    /// netlist).
    pub fn register_value(&self, cell: CellId) -> bool {
        self.reg_values[cell.index()]
    }

    /// The value a signal evaluated to in the most recent cycle.
    ///
    /// # Panics
    ///
    /// Panics when `signal` is out of range.
    pub fn signal_value(&self, signal: SignalId) -> bool {
        self.signal_values[signal.index()]
    }

    /// Whether a cell's clock was active in the most recent cycle (for
    /// clock sources: whether their *output* clock ran).
    ///
    /// # Panics
    ///
    /// Panics when `cell` is out of range.
    pub fn clock_was_active(&self, cell: CellId) -> bool {
        self.net_active[self.cell_net[cell.index()] as usize]
    }

    /// Returns registers and drivers to their initial state.
    pub fn reset(&mut self) {
        self.reg_values.copy_from_slice(&self.init_values);
        self.next_values.copy_from_slice(&self.init_values);
        for d in self.drivers.iter_mut().flatten() {
            d.reset();
        }
        self.signal_values.fill(false);
        self.net_active.fill(false);
        self.cycle = 0;
    }

    /// Advances one clock cycle and returns per-group activity counters.
    ///
    /// The returned slice is indexed by
    /// [`GroupId::index`](clockmark_netlist::GroupId::index) and is valid
    /// until the next call.
    pub fn step(&mut self) -> &[GroupActivity] {
        self.group_scratch.fill(GroupActivity::default());

        // Phase 1: evaluate signals in declaration order (declaration order
        // is topological because forward references are rejected at build
        // time).
        for i in 0..self.signal_exprs.len() {
            let value = match self.signal_exprs[i] {
                SignalExpr::Const(v) => v,
                SignalExpr::External => match &mut self.drivers[i] {
                    Some(d) => d.next_value(),
                    None => false,
                },
                SignalExpr::RegOutput(cell) => self.reg_values[cell.index()],
                SignalExpr::And(a, b) => {
                    self.signal_values[a.index()] && self.signal_values[b.index()]
                }
                SignalExpr::Or(a, b) => {
                    self.signal_values[a.index()] || self.signal_values[b.index()]
                }
                SignalExpr::Xor(a, b) => {
                    self.signal_values[a.index()] ^ self.signal_values[b.index()]
                }
                SignalExpr::Not(a) => !self.signal_values[a.index()],
            };
            self.signal_values[i] = value;
        }

        // Phase 2: resolve the clock nets. Roots follow their running flag;
        // each source reads its earlier input net, so one forward pass
        // suffices.
        let n_roots = self.root_running.len();
        self.net_active[..n_roots].copy_from_slice(&self.root_running);
        for (i, source) in self.sources.iter().enumerate() {
            let up = self.net_active[source.input as usize];
            let group = &mut self.group_scratch[source.group as usize];
            self.net_active[n_roots + i] = match source.enable {
                Some(enable) => {
                    group.icg_events += u32::from(up);
                    up && self.signal_values[enable as usize]
                }
                None => {
                    group.buffer_events += u32::from(up);
                    up
                }
            };
        }

        // Phase 3: register clock events, one add per bucket.
        for bucket in &self.buckets {
            if self.net_active[bucket.net as usize] {
                self.group_scratch[bucket.group as usize].reg_clock_events += bucket.count;
            }
        }

        // Phase 4: next states of the live registers, from pre-edge values
        // only; then commit them all at once.
        for reg in &self.live {
            let cell = reg.cell as usize;
            let current = self.reg_values[cell];
            let mut next = current;
            let enabled = reg
                .sync_enable
                .is_none_or(|s| self.signal_values[s as usize]);
            if self.net_active[reg.net as usize] && enabled {
                next = match reg.data {
                    DataSource::Constant(v) => v,
                    DataSource::Toggle => !current,
                    DataSource::ShiftFrom(src) => self.reg_values[src.index()],
                    DataSource::Signal(sig) => self.signal_values[sig.index()],
                    DataSource::Hold => current,
                };
                self.group_scratch[reg.group as usize].reg_data_toggles +=
                    u32::from(next != current);
            }
            self.next_values[cell] = next;
        }
        std::mem::swap(&mut self.reg_values, &mut self.next_values);
        self.cycle += 1;
        &self.group_scratch
    }

    /// Runs `cycles` cycles and collects the per-cycle activity trace.
    pub fn run(&mut self, cycles: usize) -> Result<ActivityTrace, SimError> {
        let _span = clockmark_obs::span("sim.run")
            .field("cycles", cycles)
            .field("groups", self.group_scratch.len());
        let mut trace = ActivityTrace::new(self.group_scratch.len());
        for _ in 0..cycles {
            trace.push_cycle(self.step());
        }
        clockmark_obs::counter_add("sim.cycles", cycles as u64);
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockmark_netlist::{GroupId, RegisterConfig};
    use clockmark_seq::{Lfsr, SequenceGenerator};

    fn base() -> (Netlist, ClockRootId) {
        let mut n = Netlist::new();
        let clk = n.add_clock_root("clk");
        (n, clk)
    }

    #[test]
    fn toggle_register_toggles_every_cycle() {
        let (mut n, clk) = base();
        let reg = n
            .add_register(
                GroupId::TOP,
                RegisterConfig::new(clk.into()).data(DataSource::Toggle),
            )
            .expect("register");
        let mut sim = CycleSim::new(&n).expect("valid");
        let mut values = Vec::new();
        for _ in 0..4 {
            sim.step();
            values.push(sim.register_value(reg));
        }
        assert_eq!(values, [true, false, true, false]);
        let trace = {
            sim.reset();
            sim.run(4).expect("runs")
        };
        for c in 0..4 {
            let a = trace.total(c);
            assert_eq!(a.reg_clock_events, 1);
            assert_eq!(a.reg_data_toggles, 1);
        }
    }

    #[test]
    fn hold_register_burns_clock_but_no_data_power() {
        let (mut n, clk) = base();
        n.add_register(
            GroupId::TOP,
            RegisterConfig::new(clk.into()).data(DataSource::Hold),
        )
        .expect("register");
        let mut sim = CycleSim::new(&n).expect("valid");
        let trace = sim.run(5).expect("runs");
        for c in 0..5 {
            assert_eq!(trace.total(c).reg_clock_events, 1);
            assert_eq!(trace.total(c).reg_data_toggles, 0);
        }
    }

    #[test]
    fn gated_register_consumes_nothing_when_disabled() {
        let (mut n, clk) = base();
        let en = n.add_signal("en", SignalExpr::External).expect("signal");
        let icg = n.add_icg(GroupId::TOP, clk.into(), en).expect("icg");
        n.add_register(
            GroupId::TOP,
            RegisterConfig::new(icg.into()).data(DataSource::Toggle),
        )
        .expect("register");

        let mut sim = CycleSim::new(&n).expect("valid");
        sim.drive(en, SignalDriver::bits([true, false, false, true], false))
            .expect("external");
        let trace = sim.run(4).expect("runs");

        let clocks: Vec<u32> = (0..4).map(|c| trace.total(c).reg_clock_events).collect();
        assert_eq!(clocks, [1, 0, 0, 1]);
        // The ICG itself still sees its input clock every cycle.
        let icgs: Vec<u32> = (0..4).map(|c| trace.total(c).icg_events).collect();
        assert_eq!(icgs, [1, 1, 1, 1]);
        let _ = icg;
    }

    #[test]
    fn circular_shift_chain_rotates() {
        // 3-stage circular chain seeded 1,0,0 — the loop is closed with
        // set_register_data after all stages exist.
        let (mut n, clk) = base();
        let r0 = n
            .add_register(GroupId::TOP, RegisterConfig::new(clk.into()).init(true))
            .expect("r0");
        let r1 = n
            .add_register(
                GroupId::TOP,
                RegisterConfig::new(clk.into()).data(DataSource::ShiftFrom(r0)),
            )
            .expect("r1");
        let r2 = n
            .add_register(
                GroupId::TOP,
                RegisterConfig::new(clk.into()).data(DataSource::ShiftFrom(r1)),
            )
            .expect("r2");
        n.set_register_data(r0, DataSource::ShiftFrom(r2))
            .expect("close loop");

        let mut sim = CycleSim::new(&n).expect("valid");
        let mut states = Vec::new();
        for _ in 0..6 {
            sim.step();
            states.push([
                sim.register_value(r0),
                sim.register_value(r1),
                sim.register_value(r2),
            ]);
        }
        // The single 1 walks around the ring with period 3.
        assert_eq!(states[0], [false, true, false]);
        assert_eq!(states[1], [false, false, true]);
        assert_eq!(states[2], [true, false, false]);
        assert_eq!(states[3], states[0]);
    }

    #[test]
    fn structural_lfsr_matches_software_model() {
        // Build a 4-bit Fibonacci LFSR (taps 4,3) out of registers and
        // signals and verify it reproduces the software Lfsr bit stream.
        // State bit i lives in register s[i]; shifting right, the output is
        // s[0]; feedback = s[0] ^ s[1] (taps n and n−1 read state bits 0
        // and 1 in the right-shift convention) enters at s[3].
        let (mut n, clk) = base();
        let s: Vec<_> = (0..4)
            .map(|i| {
                n.add_register(GroupId::TOP, RegisterConfig::new(clk.into()).init(i == 0))
                    .expect("state register")
            })
            .collect();
        for i in 0..3 {
            n.set_register_data(s[i], DataSource::ShiftFrom(s[i + 1]))
                .expect("shift");
        }
        let q0 = n.add_signal("q0", SignalExpr::RegOutput(s[0])).expect("q0");
        let q1 = n.add_signal("q1", SignalExpr::RegOutput(s[1])).expect("q1");
        let fb = n.add_signal("fb", SignalExpr::Xor(q0, q1)).expect("fb");
        n.set_register_data(s[3], DataSource::Signal(fb))
            .expect("feedback");

        let mut reference = Lfsr::maximal_with_seed(4, 1).expect("valid");
        let mut sim = CycleSim::new(&n).expect("valid");
        for cycle in 0..45 {
            // Output is the pre-edge value of s[0], matching the software
            // model which returns the bit shifted out.
            let hardware = sim.register_value(s[0]);
            let software = reference.next_bit();
            assert_eq!(hardware, software, "divergence at cycle {cycle}");
            sim.step();
        }
    }

    #[test]
    fn stopping_the_root_freezes_everything() {
        let (mut n, clk) = base();
        n.add_register(
            GroupId::TOP,
            RegisterConfig::new(clk.into()).data(DataSource::Toggle),
        )
        .expect("register");
        let mut sim = CycleSim::new(&n).expect("valid");
        sim.set_root_running(clk, false).expect("known root");
        let trace = sim.run(3).expect("runs");
        for c in 0..3 {
            assert_eq!(trace.total(c).total_events(), 0);
        }
    }

    #[test]
    fn sync_enable_gates_data_but_not_clock() {
        let (mut n, clk) = base();
        let en = n.add_signal("en", SignalExpr::External).expect("signal");
        n.add_register(
            GroupId::TOP,
            RegisterConfig::new(clk.into())
                .data(DataSource::Toggle)
                .sync_enable(en),
        )
        .expect("register");
        let mut sim = CycleSim::new(&n).expect("valid");
        sim.drive(en, SignalDriver::bits([false, true, false], false))
            .expect("external");
        let trace = sim.run(3).expect("runs");
        let clocks: Vec<u32> = (0..3).map(|c| trace.total(c).reg_clock_events).collect();
        let toggles: Vec<u32> = (0..3).map(|c| trace.total(c).reg_data_toggles).collect();
        assert_eq!(clocks, [1, 1, 1], "clock pin toggles regardless of enable");
        assert_eq!(toggles, [0, 1, 0], "data only moves when enabled");
    }

    #[test]
    fn driver_on_non_external_signal_is_rejected() {
        let (mut n, _clk) = base();
        let c = n.add_signal("c", SignalExpr::Const(true)).expect("signal");
        let mut sim = CycleSim::new(&n).expect("valid");
        let err = sim.drive(c, SignalDriver::Constant(false)).unwrap_err();
        assert_eq!(err, SimError::DriverForNonExternal { signal: c });
    }

    #[test]
    fn generator_driver_controls_icg_like_a_wgc() {
        let (mut n, clk) = base();
        let wm = n.add_group("watermark");
        let wmark = n.add_signal("wmark", SignalExpr::External).expect("signal");
        let icg = n.add_icg(wm, clk.into(), wmark).expect("icg");
        for _ in 0..8 {
            n.add_register(wm, RegisterConfig::new(icg.into()).data(DataSource::Toggle))
                .expect("register");
        }

        let mut sim = CycleSim::new(&n).expect("valid");
        sim.drive(
            wmark,
            SignalDriver::generator(Lfsr::maximal(6).expect("valid")),
        )
        .expect("external");
        let trace = sim.run(63).expect("runs");

        let mut reference = Lfsr::maximal(6).expect("valid");
        for c in 0..63 {
            let expected = if reference.next_bit() { 8 } else { 0 };
            assert_eq!(
                trace.activity(c, wm).reg_clock_events,
                expected,
                "cycle {c}: gated block clocks iff WMARK is 1"
            );
        }
    }

    #[test]
    fn reset_restores_initial_state_and_replays() {
        let (mut n, clk) = base();
        let en = n.add_signal("en", SignalExpr::External).expect("signal");
        let icg = n.add_icg(GroupId::TOP, clk.into(), en).expect("icg");
        n.add_register(
            GroupId::TOP,
            RegisterConfig::new(icg.into()).data(DataSource::Toggle),
        )
        .expect("register");

        let mut sim = CycleSim::new(&n).expect("valid");
        sim.drive(
            en,
            SignalDriver::generator(Lfsr::maximal(5).expect("valid")),
        )
        .expect("external");
        let first = sim.run(40).expect("runs");
        sim.reset();
        assert_eq!(sim.cycle(), 0);
        let second = sim.run(40).expect("runs");
        assert_eq!(first, second);
    }
}
