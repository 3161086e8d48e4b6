//! SURE-style path bounds for acyclic highly-reliable chains.
//!
//! NASA's SURE program bounds the probability of reaching a "death state"
//! in a semi-Markov model by enumerating paths and bounding each path's
//! traversal probability algebraically (White's theorem). For the pure
//! CTMC, no-scrubbing case of the paper (Figures 5, 6, 8, 9, 10) the chain
//! is **acyclic**, and each path `s₀ →r₁ s₁ →r₂ … →r_K target` satisfies
//!
//! ```text
//! ∏ rᵢ · (tᴷ/K!) · e^(−D·t)  ≤  P(path traversed by t)  ≤  ∏ rᵢ · tᴷ/K!
//! ```
//!
//! where `D` is the largest exit rate along the path. Summing over all
//! paths gives two-sided bounds on the absorption probability. All
//! arithmetic is in **log space**, so results far below the f64 range
//! (the paper's Figure 10 reaches 1e-200) remain representable as
//! logarithms and the bounds stay meaningful even past 1e-308.
//!
//! These bounds are tight when `D·t ≪ 1` — precisely the highly-reliable
//! regime the tool targets — and are used to cross-validate the
//! uniformization solver.

use crate::model::StateSpace;
use crate::poisson::ln_factorial;
use crate::CtmcError;
use std::fmt::Debug;
use std::hash::Hash;

/// Two-sided bounds on a probability, carried as natural logarithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathBound {
    /// `ln` of the lower bound (`-inf` when the target is unreachable).
    pub ln_lower: f64,
    /// `ln` of the upper bound (`-inf` when the target is unreachable).
    pub ln_upper: f64,
}

impl PathBound {
    /// The lower bound as a plain probability (may flush to 0).
    pub fn lower(&self) -> f64 {
        self.ln_lower.exp()
    }

    /// The upper bound as a plain probability (may flush to 0).
    pub fn upper(&self) -> f64 {
        self.ln_upper.exp()
    }

    /// Width of the bound in log space (0 = exact; small = tight).
    pub fn ln_width(&self) -> f64 {
        self.ln_upper - self.ln_lower
    }

    /// True when `ln p` falls inside the bounds (inclusive, with slack).
    pub fn contains_ln(&self, ln_p: f64, slack: f64) -> bool {
        ln_p >= self.ln_lower - slack && ln_p <= self.ln_upper + slack
    }
}

/// Options for the path enumerator.
#[derive(Debug, Clone, PartialEq)]
pub struct PathOptions {
    /// Cap on the number of enumerated paths (default `50_000_000`).
    pub max_paths: usize,
}

impl Default for PathOptions {
    fn default() -> Self {
        PathOptions {
            max_paths: 50_000_000,
        }
    }
}

/// Streaming log-sum-exp accumulator.
#[derive(Debug, Clone, Copy)]
struct LogSum {
    max: f64,
    sum: f64,
}

impl LogSum {
    fn new() -> Self {
        LogSum {
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }
    fn add(&mut self, ln_x: f64) {
        if ln_x == f64::NEG_INFINITY {
            return;
        }
        if ln_x > self.max {
            self.sum = self.sum * (self.max - ln_x).exp() + 1.0;
            self.max = ln_x;
        } else {
            self.sum += (ln_x - self.max).exp();
        }
    }
    fn ln_total(&self) -> f64 {
        if self.sum == 0.0 {
            f64::NEG_INFINITY
        } else {
            self.max + self.sum.ln()
        }
    }
}

/// Checks the chain is acyclic and returns `Ok(())` or
/// [`CtmcError::NotAcyclic`].
///
/// # Errors
///
/// [`CtmcError::NotAcyclic`] when any directed cycle exists.
fn check_acyclic<S>(space: &StateSpace<S>) -> Result<(), CtmcError>
where
    S: Clone + Eq + Hash + Debug,
{
    // Iterative three-color DFS.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let n = space.len();
    let mut color = vec![WHITE; n];
    for root in 0..n {
        if color[root] != WHITE {
            continue;
        }
        let mut stack: Vec<(usize, Vec<usize>, usize)> = Vec::new();
        let succ: Vec<usize> = space.rates().row(root).map(|(j, _)| j).collect();
        color[root] = GRAY;
        stack.push((root, succ, 0));
        while let Some((node, succ, idx)) = stack.last_mut() {
            if *idx >= succ.len() {
                color[*node] = BLACK;
                stack.pop();
                continue;
            }
            let next = succ[*idx];
            *idx += 1;
            match color[next] {
                WHITE => {
                    color[next] = GRAY;
                    let ns: Vec<usize> = space.rates().row(next).map(|(j, _)| j).collect();
                    stack.push((next, ns, 0));
                }
                GRAY => return Err(CtmcError::NotAcyclic),
                _ => {}
            }
        }
    }
    Ok(())
}

/// Bounds the probability of being absorbed in `target` by time `t`.
///
/// # Errors
///
/// * [`CtmcError::NotAcyclic`] — the chain has a cycle (e.g. scrubbing);
/// * [`CtmcError::NoAbsorbingState`] — `target` has outgoing transitions;
/// * [`CtmcError::InvalidTime`] — bad `t`;
/// * [`CtmcError::NotConverged`] — more than `max_paths` paths.
pub fn absorption_bounds<S>(
    space: &StateSpace<S>,
    target: usize,
    t: f64,
    opts: &PathOptions,
) -> Result<PathBound, CtmcError>
where
    S: Clone + Eq + Hash + Debug,
{
    if !(t.is_finite() && t >= 0.0) {
        return Err(CtmcError::InvalidTime { time: t });
    }
    if space.exit_rate(target) != 0.0 {
        return Err(CtmcError::NoAbsorbingState);
    }
    check_acyclic(space)?;

    // Restrict the walk to states that can reach the target (reverse BFS).
    let n = space.len();
    let mut reaches = vec![false; n];
    reaches[target] = true;
    // Build reverse adjacency once.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for (j, _) in space.rates().row(i) {
            rev[j].push(i);
        }
    }
    let mut frontier = vec![target];
    while let Some(v) = frontier.pop() {
        for &u in &rev[v] {
            if !reaches[u] {
                reaches[u] = true;
                frontier.push(u);
            }
        }
    }
    if !reaches[space.initial_index()] {
        return Ok(PathBound {
            ln_lower: f64::NEG_INFINITY,
            ln_upper: f64::NEG_INFINITY,
        });
    }

    let ln_t = if t == 0.0 { f64::NEG_INFINITY } else { t.ln() };
    let mut lower = LogSum::new();
    let mut upper = LogSum::new();
    let mut paths_seen = 0usize;

    // DFS stack: (state, edges, next_edge, ln_rate_product, depth, max_exit).
    struct Frame {
        edges: Vec<(usize, f64)>,
        next: usize,
        ln_prod: f64,
        max_exit: f64,
    }
    let init = space.initial_index();
    let first_edges: Vec<(usize, f64)> = space
        .rates()
        .row(init)
        .filter(|&(j, _)| reaches[j])
        .collect();
    let mut stack = vec![Frame {
        edges: first_edges,
        next: 0,
        ln_prod: 0.0,
        max_exit: space.exit_rate(init),
    }];
    if init == target {
        // Degenerate: already absorbed.
        return Ok(PathBound {
            ln_lower: 0.0,
            ln_upper: 0.0,
        });
    }

    while let Some(top) = stack.last_mut() {
        if top.next >= top.edges.len() {
            stack.pop();
            continue;
        }
        let (j, rate) = top.edges[top.next];
        top.next += 1;
        let ln_prod = top.ln_prod + rate.ln();
        let max_exit = top.max_exit.max(space.exit_rate(j));
        if j == target {
            paths_seen += 1;
            if paths_seen > opts.max_paths {
                return Err(CtmcError::NotConverged {
                    iterations: paths_seen,
                });
            }
            let k = stack.len() as u64; // path length in transitions
            let ln_core = ln_prod + k as f64 * ln_t - ln_factorial(k);
            upper.add(ln_core);
            lower.add(ln_core - max_exit * t);
        } else {
            let edges: Vec<(usize, f64)> = space
                .rates()
                .row(j)
                .filter(|&(jj, _)| reaches[jj])
                .collect();
            stack.push(Frame {
                edges,
                next: 0,
                ln_prod,
                max_exit,
            });
        }
    }

    Ok(PathBound {
        ln_lower: lower.ln_total().min(0.0),
        ln_upper: upper.ln_total().min(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uniformization::{transient, UniformizationOptions};
    use crate::MarkovModel;

    struct Chain {
        rates: Vec<f64>,
    }
    impl MarkovModel for Chain {
        type State = usize;
        fn initial_state(&self) -> usize {
            0
        }
        fn transitions(&self, s: &usize, out: &mut Vec<(usize, f64)>) {
            if *s < self.rates.len() {
                out.push((s + 1, self.rates[*s]));
            }
        }
    }

    #[test]
    fn single_hop_bounds_bracket_exact_value() {
        let space = StateSpace::explore(&Chain { rates: vec![1e-6] }).unwrap();
        let t = 10.0;
        let b = absorption_bounds(&space, 1, t, &PathOptions::default()).unwrap();
        let exact = 1.0 - (-1e-6 * t).exp();
        assert!(b.contains_ln(exact.ln(), 1e-9), "{b:?} vs {}", exact.ln());
        assert!(b.ln_width() < 1e-4); // D·t = 1e-5 → very tight
    }

    #[test]
    fn multi_hop_bounds_match_uniformization() {
        let space = StateSpace::explore(&Chain {
            rates: vec![1e-8, 2e-8, 5e-9],
        })
        .unwrap();
        let t = 100.0;
        let b = absorption_bounds(&space, 3, t, &PathOptions::default()).unwrap();
        let p = transient(&space, t, &UniformizationOptions::default()).unwrap();
        assert!(p[3] > 0.0);
        assert!(b.contains_ln(p[3].ln(), 1e-6), "{b:?} vs {}", p[3].ln());
    }

    #[test]
    fn bounds_work_far_below_f64_range() {
        // Three hops at 1e-120 each: P ≈ (1e-120)³·t³/6 = 1.7e-361 < min f64.
        let space = StateSpace::explore(&Chain {
            rates: vec![1e-120, 1e-120, 1e-120],
        })
        .unwrap();
        let b = absorption_bounds(&space, 3, 1.0, &PathOptions::default()).unwrap();
        let expect_ln = 3.0 * (1e-120f64).ln() - 6.0f64.ln();
        assert!((b.ln_upper - expect_ln).abs() < 1e-9);
        assert!(b.lower() == 0.0, "materializes as 0, but the log is exact");
        assert!(b.ln_lower.is_finite());
    }

    struct Diamond;
    impl MarkovModel for Diamond {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn transitions(&self, s: &u8, out: &mut Vec<(u8, f64)>) {
            match s {
                0 => {
                    out.push((1, 1e-6));
                    out.push((2, 3e-6));
                }
                1 | 2 => out.push((3, 2e-6)),
                _ => {}
            }
        }
    }

    #[test]
    fn diamond_sums_both_paths() {
        let space = StateSpace::explore(&Diamond).unwrap();
        let t = 5.0;
        let b = absorption_bounds(&space, 3, t, &PathOptions::default()).unwrap();
        // Σ paths: (1e-6·2e-6 + 3e-6·2e-6)·t²/2 = 8e-12·25/2 = 1e-10.
        let expect = 1e-10f64;
        assert!((b.ln_upper - expect.ln()).abs() < 1e-6);
        let p = transient(&space, t, &UniformizationOptions::default()).unwrap();
        assert!(b.contains_ln(p[3].ln(), 1e-6));
    }

    struct Cyclic;
    impl MarkovModel for Cyclic {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn transitions(&self, s: &u8, out: &mut Vec<(u8, f64)>) {
            match s {
                0 => out.push((1, 1.0)),
                1 => {
                    out.push((0, 1.0)); // cycle (like scrubbing)
                    out.push((2, 1.0));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn cyclic_chain_is_rejected() {
        let space = StateSpace::explore(&Cyclic).unwrap();
        assert_eq!(
            absorption_bounds(&space, 2, 1.0, &PathOptions::default()),
            Err(CtmcError::NotAcyclic)
        );
        assert_eq!(check_acyclic(&space), Err(CtmcError::NotAcyclic));
    }

    #[test]
    fn non_absorbing_target_is_rejected() {
        let space = StateSpace::explore(&Chain {
            rates: vec![1.0, 1.0],
        })
        .unwrap();
        assert_eq!(
            absorption_bounds(&space, 1, 1.0, &PathOptions::default()),
            Err(CtmcError::NoAbsorbingState)
        );
    }

    #[test]
    fn unreachable_target_gives_zero() {
        struct Split;
        impl MarkovModel for Split {
            type State = u8;
            fn initial_state(&self) -> u8 {
                0
            }
            fn transitions(&self, s: &u8, out: &mut Vec<(u8, f64)>) {
                if *s == 0 {
                    out.push((1, 1.0));
                }
                // state 2 exists only via is_absorbing trick — emulate by
                // exploring a chain that includes 2 from another branch.
                if *s == 1 {
                    out.push((2, 1.0));
                }
            }
        }
        let space = StateSpace::explore(&Split).unwrap();
        // Target = initial (trivially "reached" only at depth 0); instead
        // test t=0 gives -inf for a real target.
        let b = absorption_bounds(&space, 2, 0.0, &PathOptions::default()).unwrap();
        assert_eq!(b.upper(), 0.0);
    }
}
