//! The per-cell interpreting simulator that `CycleSim` compiles away,
//! kept verbatim as the differential tests' reference engine.
//!
//! Every cycle it matches on every cell: clock sources propagate their
//! input clock in netlist order, and each register — `Hold` ones included
//! — counts its own clock event and computes its next state. It is slow
//! and obviously correct, which is the point.

use clockmark_netlist::{
    CellId, CellKind, ClockInput, ClockRootId, DataSource, Netlist, SignalExpr, SignalId,
};
use clockmark_sim::{GroupActivity, SignalDriver};

#[derive(Debug, Clone, Copy)]
enum PreparedCell {
    Register {
        group: usize,
        clock: PreparedClock,
        data: DataSource,
        sync_enable: Option<usize>,
    },
    Icg {
        group: usize,
        clock: PreparedClock,
        enable: usize,
    },
    Buffer {
        group: usize,
        clock: PreparedClock,
    },
}

#[derive(Debug, Clone, Copy)]
enum PreparedClock {
    Root(usize),
    Cell(usize),
}

/// The scalar reference simulator, with `CycleSim`'s observable surface.
pub struct ScalarSim {
    cells: Vec<PreparedCell>,
    signal_exprs: Vec<SignalExpr>,
    init_values: Vec<bool>,
    reg_values: Vec<bool>,
    next_values: Vec<bool>,
    signal_values: Vec<bool>,
    drivers: Vec<Option<SignalDriver>>,
    root_running: Vec<bool>,
    clock_active: Vec<bool>,
    group_scratch: Vec<GroupActivity>,
}

impl ScalarSim {
    pub fn new(netlist: &Netlist) -> Self {
        netlist.validate().expect("valid netlist");
        let mut cells = Vec::with_capacity(netlist.cell_count());
        let mut init_values = vec![false; netlist.cell_count()];
        let prep_clock = |clock: ClockInput| match clock {
            ClockInput::Root(r) => PreparedClock::Root(r.index()),
            ClockInput::Cell(c) => PreparedClock::Cell(c.index()),
        };
        for (id, cell) in netlist.cells() {
            let group = cell.group.index();
            let prepared = match cell.kind {
                CellKind::Register(config) => {
                    init_values[id.index()] = config.init;
                    PreparedCell::Register {
                        group,
                        clock: prep_clock(config.clock),
                        data: config.data,
                        sync_enable: config.sync_enable.map(|s| s.index()),
                    }
                }
                CellKind::ClockGate { clock, enable } => PreparedCell::Icg {
                    group,
                    clock: prep_clock(clock),
                    enable: enable.index(),
                },
                CellKind::ClockBuffer { clock } => PreparedCell::Buffer {
                    group,
                    clock: prep_clock(clock),
                },
            };
            cells.push(prepared);
        }
        let signal_exprs: Vec<SignalExpr> = netlist.signals().map(|(_, s)| s.expr).collect();
        let n_cells = cells.len();
        let n_signals = signal_exprs.len();
        ScalarSim {
            cells,
            signal_exprs,
            reg_values: init_values.clone(),
            next_values: init_values.clone(),
            init_values,
            signal_values: vec![false; n_signals],
            drivers: (0..n_signals).map(|_| None).collect(),
            root_running: vec![true; netlist.clock_root_count()],
            clock_active: vec![false; n_cells],
            group_scratch: vec![GroupActivity::default(); netlist.group_count()],
        }
    }

    pub fn drive(&mut self, signal: SignalId, driver: SignalDriver) {
        assert!(matches!(
            self.signal_exprs[signal.index()],
            SignalExpr::External
        ));
        self.drivers[signal.index()] = Some(driver);
    }

    pub fn set_root_running(&mut self, root: ClockRootId, running: bool) {
        self.root_running[root.index()] = running;
    }

    pub fn register_value(&self, cell: CellId) -> bool {
        self.reg_values[cell.index()]
    }

    pub fn signal_value(&self, signal: SignalId) -> bool {
        self.signal_values[signal.index()]
    }

    pub fn clock_was_active(&self, cell: CellId) -> bool {
        self.clock_active[cell.index()]
    }

    pub fn reset(&mut self) {
        self.reg_values.copy_from_slice(&self.init_values);
        self.next_values.copy_from_slice(&self.init_values);
        for d in self.drivers.iter_mut().flatten() {
            d.reset();
        }
        for v in &mut self.signal_values {
            *v = false;
        }
        for a in &mut self.clock_active {
            *a = false;
        }
    }

    pub fn step(&mut self) -> &[GroupActivity] {
        for g in &mut self.group_scratch {
            *g = GroupActivity::default();
        }

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

        for i in 0..self.cells.len() {
            let upstream = |clock: PreparedClock, active: &[bool], roots: &[bool]| match clock {
                PreparedClock::Root(r) => roots[r],
                PreparedClock::Cell(c) => active[c],
            };
            match self.cells[i] {
                PreparedCell::Buffer { group, clock } => {
                    let up = upstream(clock, &self.clock_active, &self.root_running);
                    self.clock_active[i] = up;
                    if up {
                        self.group_scratch[group].buffer_events += 1;
                    }
                }
                PreparedCell::Icg {
                    group,
                    clock,
                    enable,
                } => {
                    let up = upstream(clock, &self.clock_active, &self.root_running);
                    self.clock_active[i] = up && self.signal_values[enable];
                    if up {
                        self.group_scratch[group].icg_events += 1;
                    }
                }
                PreparedCell::Register {
                    group,
                    clock,
                    data,
                    sync_enable,
                } => {
                    let clocked = upstream(clock, &self.clock_active, &self.root_running);
                    self.clock_active[i] = clocked;
                    let current = self.reg_values[i];
                    let mut next = current;
                    if clocked {
                        self.group_scratch[group].reg_clock_events += 1;
                        let enabled = match sync_enable {
                            Some(s) => self.signal_values[s],
                            None => true,
                        };
                        if enabled {
                            next = match data {
                                DataSource::Constant(v) => v,
                                DataSource::Toggle => !current,
                                DataSource::ShiftFrom(src) => self.reg_values[src.index()],
                                DataSource::Signal(sig) => self.signal_values[sig.index()],
                                DataSource::Hold => current,
                            };
                        }
                        if next != current {
                            self.group_scratch[group].reg_data_toggles += 1;
                        }
                    }
                    self.next_values[i] = next;
                }
            }
        }

        std::mem::swap(&mut self.reg_values, &mut self.next_values);
        &self.group_scratch
    }
}
