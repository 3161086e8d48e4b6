//! Reproduction of every evaluation artifact in the paper.
//!
//! The DATE 2005 paper's Section 6 contains six figures and one
//! complexity comparison:
//!
//! | id | artifact |
//! |---|---|
//! | [`ExperimentId::Fig5`] | BER of simplex RS(18,16) vs time under three SEU rates |
//! | [`ExperimentId::Fig6`] | BER of duplex RS(18,16) vs time under three SEU rates |
//! | [`ExperimentId::Fig7`] | BER of duplex RS(18,16), worst-case SEU rate, four scrub periods |
//! | [`ExperimentId::Fig8`] | BER of simplex RS(18,16) over 24 months, seven permanent-fault rates |
//! | [`ExperimentId::Fig9`] | BER of duplex RS(18,16), same sweep |
//! | [`ExperimentId::Fig10`] | BER of simplex RS(36,16), same sweep |
//! | [`ExperimentId::Complexity`] | Section-6 decoder latency/area comparison |
//!
//! [`run`] produces the series data; `rsmem experiment <id>` prints the
//! regenerated rows, `tests/figure_shapes.rs` asserts the paper's
//! claims on them, and `EXPERIMENTS.md` records paper-vs-measured values.

mod complexity;
mod permanent;
mod transient;

use crate::{Error, Parallelism};
use std::fmt;

pub use rsmem_code::complexity::ComplexityRow;

/// The paper's SEU-rate sweep (errors/bit/day), Figs. 5–6.
pub const SEU_RATES_PER_BIT_DAY: [f64; 3] = [7.3e-7, 3.6e-6, 1.7e-5];

/// The paper's worst-case SEU rate (Fig. 7).
pub const WORST_CASE_SEU: f64 = 1.7e-5;

/// The paper's scrub-period sweep in seconds (Fig. 7).
pub const SCRUB_PERIODS_S: [f64; 4] = [900.0, 1200.0, 1800.0, 3600.0];

/// The paper's permanent-fault-rate sweep (per symbol/day), Figs. 8–10.
pub const PERMANENT_RATES_PER_SYMBOL_DAY: [f64; 7] = [1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10];

/// Storage horizon of the transient-fault studies (Figs. 5–7).
pub(crate) const TRANSIENT_HORIZON_HOURS: f64 = 48.0;

/// Storage horizon of the permanent-fault studies (Figs. 8–10).
pub(crate) const PERMANENT_HORIZON_MONTHS: f64 = 24.0;

/// Points per curve in the regenerated figures.
pub const GRID_POINTS: usize = 25;

/// Identifier of one paper artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// Fig. 5 — simplex RS(18,16), SEU sweep.
    Fig5,
    /// Fig. 6 — duplex RS(18,16), SEU sweep.
    Fig6,
    /// Fig. 7 — duplex RS(18,16), scrub-period sweep.
    Fig7,
    /// Fig. 8 — simplex RS(18,16), permanent-fault sweep.
    Fig8,
    /// Fig. 9 — duplex RS(18,16), permanent-fault sweep.
    Fig9,
    /// Fig. 10 — simplex RS(36,16), permanent-fault sweep.
    Fig10,
    /// Section-6 decoder complexity comparison.
    Complexity,
}

impl ExperimentId {
    /// All artifacts, in paper order.
    pub const ALL: [ExperimentId; 7] = [
        ExperimentId::Fig5,
        ExperimentId::Fig6,
        ExperimentId::Fig7,
        ExperimentId::Fig8,
        ExperimentId::Fig9,
        ExperimentId::Fig10,
        ExperimentId::Complexity,
    ];

    /// All artifacts, in paper order (alias for [`ExperimentId::ALL`]).
    pub fn all() -> [ExperimentId; 7] {
        Self::ALL
    }

    /// The `Display` name as a `&'static str` — span names must be
    /// static, so the profiler can key call-tree nodes by pointer-free
    /// `(target, name)` pairs.
    pub fn static_name(self) -> &'static str {
        match self {
            ExperimentId::Fig5 => "fig5",
            ExperimentId::Fig6 => "fig6",
            ExperimentId::Fig7 => "fig7",
            ExperimentId::Fig8 => "fig8",
            ExperimentId::Fig9 => "fig9",
            ExperimentId::Fig10 => "fig10",
            ExperimentId::Complexity => "complexity",
        }
    }
}

/// Error returned when parsing an [`ExperimentId`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExperimentIdError {
    input: String,
}

impl fmt::Display for ParseExperimentIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown experiment {:?} (expected one of fig5..fig10, complexity)",
            self.input
        )
    }
}

impl std::error::Error for ParseExperimentIdError {}

impl std::str::FromStr for ExperimentId {
    type Err = ParseExperimentIdError;

    /// Parses the names printed by `Display`: `fig5`…`fig10`, `complexity`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ExperimentId::ALL
            .into_iter()
            .find(|id| id.to_string() == s)
            .ok_or_else(|| ParseExperimentIdError {
                input: s.to_owned(),
            })
    }
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentId::Fig5 => write!(f, "fig5"),
            ExperimentId::Fig6 => write!(f, "fig6"),
            ExperimentId::Fig7 => write!(f, "fig7"),
            ExperimentId::Fig8 => write!(f, "fig8"),
            ExperimentId::Fig9 => write!(f, "fig9"),
            ExperimentId::Fig10 => write!(f, "fig10"),
            ExperimentId::Complexity => write!(f, "complexity"),
        }
    }
}

/// One labelled curve of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. the swept rate, as the paper prints it).
    pub label: String,
    /// `(x, y)` points; `x` in the figure's natural unit, `y` is BER.
    pub points: Vec<(f64, f64)>,
}

/// A regenerated figure: axes plus one series per legend entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Which artifact this is.
    pub id: ExperimentId,
    /// Title, mirroring the paper's caption.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

/// Output of [`run`]: a figure or the complexity table.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentOutput {
    /// A BER-vs-time figure.
    Figure(Figure),
    /// The Section-6 complexity rows.
    Table(Vec<ComplexityRow>),
}

impl ExperimentOutput {
    /// The figure, if this output is one.
    pub fn figure(&self) -> Option<&Figure> {
        match self {
            ExperimentOutput::Figure(fig) => Some(fig),
            ExperimentOutput::Table(_) => None,
        }
    }

    /// The table, if this output is one.
    pub fn table(&self) -> Option<&[ComplexityRow]> {
        match self {
            ExperimentOutput::Table(rows) => Some(rows),
            ExperimentOutput::Figure(_) => None,
        }
    }
}

/// Regenerates one paper artifact with the default parallelism
/// ([`Parallelism::Auto`]: one worker per available core).
///
/// # Errors
///
/// Solver/configuration errors from the underlying crates (none occur for
/// the built-in parameterizations).
pub fn run(id: ExperimentId) -> Result<ExperimentOutput, Error> {
    run_with(id, &Parallelism::Auto)
}

/// Regenerates one paper artifact, fanning the sweep's rate curves
/// across `par` workers. Results are identical for every parallelism
/// degree — curves are solved independently and assembled in sweep
/// order.
///
/// # Errors
///
/// See [`run`].
pub fn run_with(id: ExperimentId, par: &Parallelism) -> Result<ExperimentOutput, Error> {
    run_with_observer(id, par, &|_, _| {})
}

/// A sweep progress callback: invoked with `(curves_done, curves_total)`
/// after each completed curve, from whichever worker finished it (so it
/// must be `Sync`).
pub type SweepObserver<'a> = &'a (dyn Fn(usize, usize) + Sync);

/// [`run_with`] plus a progress observer: `observer(done, total)` fires
/// once per completed curve. The CLI uses this for rate-limited status
/// lines on long sweeps; the observer has no effect on the results.
///
/// # Errors
///
/// See [`run`].
pub fn run_with_observer(
    id: ExperimentId,
    par: &Parallelism,
    observer: SweepObserver<'_>,
) -> Result<ExperimentOutput, Error> {
    let _figure_span =
        rsmem_obs::span_at(rsmem_obs::Level::Info, "core.experiments", id.static_name());
    match id {
        ExperimentId::Fig5 => transient::fig5(par, observer).map(ExperimentOutput::Figure),
        ExperimentId::Fig6 => transient::fig6(par, observer).map(ExperimentOutput::Figure),
        ExperimentId::Fig7 => transient::fig7(par, observer).map(ExperimentOutput::Figure),
        ExperimentId::Fig8 => permanent::fig8(par, observer).map(ExperimentOutput::Figure),
        ExperimentId::Fig9 => permanent::fig9(par, observer).map(ExperimentOutput::Figure),
        ExperimentId::Fig10 => permanent::fig10(par, observer).map(ExperimentOutput::Figure),
        ExperimentId::Complexity => {
            let rows = complexity::table();
            observer(1, 1);
            Ok(ExperimentOutput::Table(rows))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_through_display() {
        let names: Vec<String> = ExperimentId::all().iter().map(|i| i.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "complexity"
            ]
        );
    }

    #[test]
    fn static_name_matches_display() {
        for id in ExperimentId::ALL {
            assert_eq!(id.static_name(), id.to_string());
        }
    }

    #[test]
    fn ids_roundtrip_through_fromstr() {
        for id in ExperimentId::ALL {
            let parsed: ExperimentId = id.to_string().parse().unwrap();
            assert_eq!(parsed, id);
        }
        let err = "fig99".parse::<ExperimentId>().unwrap_err();
        assert!(err.to_string().contains("fig99"));
        assert!("FIG5".parse::<ExperimentId>().is_err()); // names are lowercase
    }

    #[test]
    fn complexity_output_is_a_table() {
        let out = run(ExperimentId::Complexity).unwrap();
        assert!(out.table().is_some());
        assert!(out.figure().is_none());
        assert_eq!(out.table().unwrap().len(), 3);
    }

    #[test]
    fn parallel_sweep_output_is_identical_to_serial() {
        // Curves are independent jobs slotted back by index: every
        // parallelism degree must reproduce the serial figure exactly.
        let serial = run_with(ExperimentId::Fig5, &Parallelism::Serial).unwrap();
        for par in [Parallelism::threads(2), Parallelism::threads(4)] {
            assert_eq!(serial, run_with(ExperimentId::Fig5, &par).unwrap());
        }
    }

    #[test]
    fn fig5_output_shape() {
        let out = run(ExperimentId::Fig5).unwrap();
        let fig = out.figure().expect("fig5 is a figure");
        assert_eq!(fig.series.len(), SEU_RATES_PER_BIT_DAY.len());
        for s in &fig.series {
            assert_eq!(s.points.len(), GRID_POINTS);
            // x axis in hours, ending at the 48 h horizon.
            assert!((s.points.last().unwrap().0 - 48.0).abs() < 1e-9);
        }
    }
}
