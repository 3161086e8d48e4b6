//! The two analytical workloads: the paper's artifacts (`figures`) and a
//! long-horizon design sweep (`mission`).

use super::{pin_first, Phase, Workload};
use crate::stats::{Fnv, Rng};
use rsmem::experiments::{
    run_with, ExperimentId, ExperimentOutput, PERMANENT_RATES_PER_SYMBOL_DAY, SCRUB_PERIODS_S,
    SEU_RATES_PER_BIT_DAY, WORST_CASE_SEU,
};
use rsmem::units::{ErasureRate, SeuRate, Time, TimeGrid};
use rsmem::{
    Arrangement, BerCurve, CodeParams, DuplexModel, MemorySystem, Parallelism, Scrubbing,
    SimplexModel,
};
use rsmem_ctmc::StateSpace;
use std::time::{Duration, Instant};

/// Result fingerprints of the seven artifacts, in paper order. They do
/// not depend on the seed; fig5 and fig7 equal the `rsmem bench` ones.
pub const FIGURE_FINGERPRINTS: [(ExperimentId, u64); 7] = [
    (ExperimentId::Fig5, 0x363c_0358_c0e2_85c2),
    (ExperimentId::Fig6, 0xbcb7_82ac_95cf_bfe1),
    (ExperimentId::Fig7, 0x67fc_6870_89d9_2bc2),
    (ExperimentId::Fig8, 0x1c7c_ff89_7218_240a),
    (ExperimentId::Fig9, 0x8316_d600_057d_7173),
    (ExperimentId::Fig10, 0x3107_8c78_1aaa_57ba),
    (ExperimentId::Complexity, 0xa78d_cff1_88d7_ed82),
];

/// Fingerprint of the first `mission` sweep at [`PINNED_SEED`](super::PINNED_SEED).
pub const MISSION_FINGERPRINT: u64 = 0xb100_1600_662f_4455;

/// Codes of the mission sweep, `(n, k)` over GF(2^8).
const MISSION_CODES: [(usize, usize); 2] = [(18, 16), (20, 16)];

/// Scrub periods of the mission sweep, seconds.
const MISSION_SCRUB_S: [f64; 2] = [900.0, 3600.0];

/// Mission horizon and grid.
const MISSION_MONTHS: f64 = 24.0;
const MISSION_POINTS: usize = 25;

/// Ranges the seed draws each sweep's fault environment from
/// (log-uniform): SEU per bit per day, erasure per symbol per day.
const MISSION_SEU: (f64, f64) = (1e-5, 3e-5);
const MISSION_ERASURE: (f64, f64) = (3e-7, 3e-6);

/// Fingerprint of one artifact's results; the same bytes `rsmem bench`
/// hashes.
fn artifact_fingerprint(output: &ExperimentOutput) -> u64 {
    let mut hash = Fnv::default();
    match (output.figure(), output.table()) {
        (Some(fig), _) => {
            for series in &fig.series {
                hash.write(series.label.as_bytes());
                for &(x, y) in &series.points {
                    hash.write_f64(x);
                    hash.write_f64(y);
                }
            }
        }
        (_, Some(rows)) => {
            for row in rows {
                hash.write(row.label.as_bytes());
                hash.write_u64(row.decode_cycles);
            }
        }
        _ => unreachable!("experiment output is a figure or a table"),
    }
    hash.finish()
}

/// The systems an artifact solves, for timing their state-space build.
fn figure_systems(id: ExperimentId) -> Vec<MemorySystem> {
    let rs18 = CodeParams::rs18_16();
    let seu = |base: MemorySystem| -> Vec<MemorySystem> {
        SEU_RATES_PER_BIT_DAY
            .iter()
            .map(|&r| base.with_seu_rate(SeuRate::per_bit_day(r)))
            .collect()
    };
    let permanent = |base: MemorySystem| -> Vec<MemorySystem> {
        PERMANENT_RATES_PER_SYMBOL_DAY
            .iter()
            .map(|&r| base.with_erasure_rate(ErasureRate::per_symbol_day(r)))
            .collect()
    };
    match id {
        ExperimentId::Fig5 => seu(MemorySystem::simplex(rs18)),
        ExperimentId::Fig6 => seu(MemorySystem::duplex(rs18)),
        ExperimentId::Fig7 => SCRUB_PERIODS_S
            .iter()
            .map(|&period| {
                MemorySystem::duplex(rs18)
                    .with_seu_rate(SeuRate::per_bit_day(WORST_CASE_SEU))
                    .with_scrubbing(Scrubbing::every_seconds(period))
            })
            .collect(),
        ExperimentId::Fig8 => permanent(MemorySystem::simplex(rs18)),
        ExperimentId::Fig9 => permanent(MemorySystem::duplex(rs18)),
        ExperimentId::Fig10 => permanent(MemorySystem::simplex(CodeParams::rs36_16())),
        ExperimentId::Complexity => Vec::new(),
    }
}

/// Builds `system`'s Markov chain the way its solve does, booking the
/// build time, states and transitions on the traced phase.
fn explore(system: &MemorySystem, phase: &mut Phase) {
    let started = Instant::now();
    let built = match system.arrangement() {
        Arrangement::Simplex => StateSpace::explore(&SimplexModel::new(
            system.code(),
            system.rates(),
            system.scrubbing(),
        ))
        .map(|s| (s.len(), s.rates().nnz())),
        Arrangement::Duplex(options) => StateSpace::explore(&DuplexModel::with_options(
            system.code(),
            system.rates(),
            system.scrubbing(),
            options,
        ))
        .map(|s| (s.len(), s.rates().nnz())),
    };
    let ms = started.elapsed().as_secs_f64() * 1e3;
    match built {
        Ok((states, nnz)) => {
            phase.add("ctmc.explore_ms", ms);
            phase.add("ctmc.states", states as f64);
            phase.add("ctmc.nnz", nnz as f64);
        }
        Err(e) => phase.fail(format!("state-space build: {e}")),
    }
}

/// `figures`: every paper artifact per operation, in a seed-shuffled
/// order, each checked against its pinned fingerprint.
pub struct Figures {
    seed: u64,
    parallelism: Parallelism,
    next: u64,
    fingerprint: u64,
}

impl Figures {
    pub fn new(seed: u64, parallelism: Parallelism) -> Figures {
        Figures {
            seed,
            parallelism,
            next: 0,
            fingerprint: 0,
        }
    }
}

/// Checks one set of artifacts against the pinned fingerprints; returns
/// the set's fingerprint in paper order.
fn check_figures(
    order: &[ExperimentId],
    outputs: Vec<Result<ExperimentOutput, rsmem::Error>>,
) -> Result<u64, String> {
    let mut by_id = Vec::with_capacity(order.len());
    for (&id, output) in order.iter().zip(outputs) {
        let output = output.map_err(|e| format!("{id}: {e}"))?;
        by_id.push((id, artifact_fingerprint(&output)));
    }
    let mut hash = Fnv::default();
    let mut mismatches = Vec::new();
    for (id, pinned) in FIGURE_FINGERPRINTS {
        let got = by_id
            .iter()
            .find(|(i, _)| *i == id)
            .map(|&(_, fp)| fp)
            .ok_or_else(|| format!("{id}: missing from the set"))?;
        if got != pinned {
            mismatches.push(format!("{id} fingerprint {got:016x}, pinned {pinned:016x}"));
        }
        hash.write_u64(got);
    }
    if mismatches.is_empty() {
        Ok(hash.finish())
    } else {
        Err(mismatches.join("; "))
    }
}

impl Workload for Figures {
    fn setup(&mut self) -> Result<(), String> {
        for id in ExperimentId::ALL {
            run_with(id, &self.parallelism).map_err(|e| format!("{id}: {e}"))?;
        }
        Ok(())
    }

    fn run(&mut self, budget: Duration, traced: bool) -> Phase {
        let mut phase = Phase::new(budget);
        while phase.more() {
            let mut order = ExperimentId::ALL;
            Rng::new(self.seed, self.next).shuffle(&mut order);
            let outputs = phase.time(|| {
                order
                    .iter()
                    .map(|&id| run_with(id, &self.parallelism))
                    .collect()
            });
            let checked = check_figures(&order, outputs);
            if let (0, Ok(fp)) = (self.next, &checked) {
                self.fingerprint = *fp;
            }
            phase.record(checked.map(|_| 1.0));
            if traced {
                for system in order.iter().flat_map(|&id| figure_systems(id)) {
                    explore(&system, &mut phase);
                }
            }
            self.next += 1;
        }
        phase.finish()
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// `mission`: one design sweep per operation over
/// [`MISSION_CODES`] × simplex/duplex × [`MISSION_SCRUB_S`], in a fault
/// environment the seed draws per sweep.
pub struct Mission {
    seed: u64,
    next: u64,
    grid: TimeGrid,
    fingerprint: u64,
}

impl Mission {
    pub fn new(seed: u64) -> Mission {
        Mission {
            seed,
            next: 0,
            grid: TimeGrid::linspace(
                Time::zero(),
                Time::from_months(MISSION_MONTHS),
                MISSION_POINTS,
            ),
            fingerprint: 0,
        }
    }

    /// The design points of sweep `index`.
    fn systems(&self, index: u64) -> Vec<MemorySystem> {
        let mut rng = Rng::new(self.seed, index);
        let seu = SeuRate::per_bit_day(rng.log_uniform(MISSION_SEU.0, MISSION_SEU.1));
        let erasure =
            ErasureRate::per_symbol_day(rng.log_uniform(MISSION_ERASURE.0, MISSION_ERASURE.1));
        let mut systems = Vec::new();
        for (n, k) in MISSION_CODES {
            let code = CodeParams::new(n, k, 8).expect("mission codes are valid");
            for base in [MemorySystem::simplex(code), MemorySystem::duplex(code)] {
                for period in MISSION_SCRUB_S {
                    systems.push(
                        base.with_seu_rate(seu)
                            .with_erasure_rate(erasure)
                            .with_scrubbing(Scrubbing::every_seconds(period)),
                    );
                }
            }
        }
        systems
    }
}

/// Checks that every `P_Fail(t)` is a probability and never decreases
/// (Fail is absorbing); returns the sweep's fingerprint.
fn check_mission(curves: Vec<Result<BerCurve, rsmem::Error>>) -> Result<u64, String> {
    let mut hash = Fnv::default();
    for (i, curve) in curves.into_iter().enumerate() {
        let curve = curve.map_err(|e| format!("design point {i}: {e}"))?;
        let p = &curve.fail_probability;
        if let Some(bad) = p.iter().find(|x| !(0.0..=1.0).contains(*x)) {
            return Err(format!("design point {i}: P_Fail {bad} outside [0, 1]"));
        }
        if let Some(w) = p.windows(2).find(|w| w[1] < w[0] * (1.0 - 1e-9)) {
            return Err(format!(
                "design point {i}: P_Fail decreases from {} to {}",
                w[0], w[1]
            ));
        }
        for &x in p {
            hash.write_f64(x);
        }
    }
    Ok(hash.finish())
}

impl Workload for Mission {
    fn setup(&mut self) -> Result<(), String> {
        for system in self.systems(u64::MAX) {
            system.state_count().map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn run(&mut self, budget: Duration, traced: bool) -> Phase {
        let mut phase = Phase::new(budget);
        while phase.more() {
            let systems = self.systems(self.next);
            let times = self.grid.points();
            let curves = phase.time(|| systems.iter().map(|s| s.ber_curve(times)).collect());
            let checked = check_mission(curves).and_then(|fp| {
                let (seed, next) = (self.seed, self.next);
                pin_first(
                    "mission",
                    seed,
                    next,
                    fp,
                    MISSION_FINGERPRINT,
                    &mut self.fingerprint,
                )?;
                Ok(systems.len() as f64)
            });
            phase.record(checked);
            if traced {
                for system in &systems {
                    explore(system, &mut phase);
                }
            }
            self.next += 1;
        }
        phase.finish()
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}
