//! Proves the solver's O(1)-allocation contract with a counting global
//! allocator: a grid solve through a warm [`UniformizationWorkspace`]
//! allocates only the returned distribution rows — the count is
//! independent of how many Poisson terms the series needs. The same
//! holds for a projected solve.

use rsmem_ctmc::uniformization::{
    transient_grid_projected_with, transient_grid_with, UniformizationOptions,
    UniformizationWorkspace,
};
use rsmem_ctmc::{MarkovModel, StateSpace};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

/// Good --λ--> Degraded --λ--> Fail, with scrubbing back to Good: a small
/// cyclic chain whose series needs thousands of terms at large Λt.
struct ScrubbedChain {
    lambda: f64,
    scrub: f64,
}

impl MarkovModel for ScrubbedChain {
    type State = u8;
    fn initial_state(&self) -> u8 {
        0
    }
    fn transitions(&self, s: &u8, out: &mut Vec<(u8, f64)>) {
        match s {
            0 => out.push((1, self.lambda)),
            1 => {
                out.push((2, self.lambda));
                out.push((0, self.scrub));
            }
            _ => {}
        }
    }
}

#[test]
fn warm_workspace_grid_solve_allocates_only_the_output() {
    let space = StateSpace::explore(&ScrubbedChain {
        lambda: 1e-4,
        scrub: 50.0,
    })
    .unwrap();
    let opts = UniformizationOptions::default();
    let mut ws = UniformizationWorkspace::new();
    let times_short: [f64; 4] = [0.0, 0.5, 1.0, 2.0];
    // Λt up to 100: thousands of series terms.
    let times_long: [f64; 4] = [0.0, 0.5, 1.0, 2.0].map(|t| t * 1000.0);

    // Warm the workspace on the *larger* grid first so the measured
    // solves never grow a buffer.
    let p0 = space.initial_distribution();
    transient_grid_with(&space, &p0, &times_long, &opts, &mut ws).unwrap();

    let count = |times: &[f64], ws: &mut UniformizationWorkspace| {
        let before = allocations();
        let grid = transient_grid_with(&space, &p0, times, &opts, ws).unwrap();
        let after = allocations();
        drop(grid);
        after - before
    };

    let short_allocs = count(&times_short, &mut ws);
    let long_allocs = count(&times_long, &mut ws);

    // The only allocations are the returned rows: the Vec of rows plus
    // one Vec per time point — identical for both grids even though the
    // long grid runs ~50× more series terms.
    assert_eq!(
        short_allocs, long_allocs,
        "allocation count must not depend on the term count"
    );
    assert!(
        long_allocs <= 2 * times_long.len() + 2,
        "expected only output allocations, got {long_allocs}"
    );
}

#[test]
fn warm_workspace_projected_solve_allocates_only_the_output() {
    let space = StateSpace::explore(&ScrubbedChain {
        lambda: 1e-4,
        scrub: 50.0,
    })
    .unwrap();
    let opts = UniformizationOptions::default();
    let mut ws = UniformizationWorkspace::new();
    let fail = [2usize];
    // Λt up to 100 and 1000: the early points of each grid are summed
    // for the Fail state alone, the late ones in full.
    let times_short: [f64; 6] = [0.0, 0.1, 0.5, 1.0, 1.5, 2.0];
    let times_long = times_short.map(|t| t * 10.0);

    // Warm on both grids: they sum different numbers of points in full,
    // so either may need the larger scratch.
    let p0 = space.initial_distribution();
    for times in [&times_short, &times_long] {
        transient_grid_projected_with(&space, &p0, times, &fail, &opts, &mut ws).unwrap();
    }

    let count = |times: &[f64], ws: &mut UniformizationWorkspace| {
        let before = allocations();
        let rows = transient_grid_projected_with(&space, &p0, times, &fail, &opts, ws).unwrap();
        let after = allocations();
        assert!(rows.iter().all(|r| r.len() == fail.len()));
        drop(rows);
        after - before
    };

    let short_allocs = count(&times_short, &mut ws);
    let long_allocs = count(&times_long, &mut ws);

    // The Vec of rows plus one single-component row per time point.
    assert_eq!(
        short_allocs, long_allocs,
        "allocation count must not depend on the term count"
    );
    assert_eq!(
        long_allocs,
        times_long.len() + 1,
        "expected only output allocations"
    );
}
