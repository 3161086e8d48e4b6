//! Implicit Markov models and breadth-first state-space exploration.

use crate::sparse::CsrMatrix;
use crate::step::UniformizedStep;
use crate::CtmcError;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt::Debug;
use std::hash::Hash;

/// An implicitly-described continuous-time Markov chain.
///
/// Implementors provide the initial state and, for each state, the
/// outgoing transitions with their rates. [`StateSpace::explore`] turns
/// this into an explicit indexed chain.
///
/// Emitting two transitions to the same target state is allowed; their
/// rates are summed (this happens naturally in the duplex memory model
/// when distinct physical events lead to the same counted state).
pub trait MarkovModel {
    /// The state representation. Must be hashable for deduplication.
    type State: Clone + Eq + Hash + Debug;

    /// The state the chain starts in at `t = 0`.
    fn initial_state(&self) -> Self::State;

    /// Appends all outgoing transitions `(target, rate)` of `state` to
    /// `out`. Rates must be positive and finite; zero-rate transitions
    /// may be emitted and are dropped.
    fn transitions(&self, state: &Self::State, out: &mut Vec<(Self::State, f64)>);

    /// True for states that should not be expanded (absorbing by fiat,
    /// e.g. a lumped Fail state). Defaults to asking for transitions and
    /// is overridden for efficiency.
    fn is_absorbing(&self, state: &Self::State) -> bool {
        let _ = state;
        false
    }
}

/// Default exploration limit — generous for the paper's models
/// (duplex RS(36,16) stays below this).
const DEFAULT_MAX_STATES: usize = 2_000_000;

/// An explored, indexed CTMC: states, generator and initial distribution.
#[derive(Debug, Clone)]
pub struct StateSpace<S> {
    states: Vec<S>,
    initial: usize,
    /// Off-diagonal rates, row = source.
    rates: CsrMatrix,
    /// Transpose of `rates` (row = target): row `j` lists the inflows of
    /// state `j` in ascending source order.
    rates_t: CsrMatrix,
    /// Exit rate per state (sum of the row).
    exit: Vec<f64>,
    /// The uniformized step `v·P`, planned from `rates_t` and `exit`.
    step: UniformizedStep,
}

impl<S: Clone + Eq + Hash + Debug> StateSpace<S> {
    /// Explores the model breadth-first from its initial state with the
    /// default state cap.
    ///
    /// # Errors
    ///
    /// [`CtmcError::StateExplosion`] past the cap,
    /// [`CtmcError::InvalidRate`] on negative/non-finite rates.
    pub fn explore<M>(model: &M) -> Result<Self, CtmcError>
    where
        M: MarkovModel<State = S>,
    {
        Self::explore_with_limit(model, DEFAULT_MAX_STATES)
    }

    /// Explores with an explicit state cap.
    ///
    /// # Errors
    ///
    /// See [`StateSpace::explore`].
    fn explore_with_limit<M>(model: &M, max_states: usize) -> Result<Self, CtmcError>
    where
        M: MarkovModel<State = S>,
    {
        let mut states: Vec<S> = Vec::new();
        let mut index: HashMap<S, usize> = HashMap::new();
        let mut adjacency: Vec<Vec<(usize, f64)>> = Vec::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut scratch: Vec<(S, f64)> = Vec::new();

        let init = model.initial_state();
        states.push(init.clone());
        index.insert(init, 0);
        adjacency.push(Vec::new());
        queue.push_back(0);

        while let Some(i) = queue.pop_front() {
            let state = states[i].clone();
            if model.is_absorbing(&state) {
                continue;
            }
            scratch.clear();
            model.transitions(&state, &mut scratch);
            let mut row: Vec<(usize, f64)> = Vec::with_capacity(scratch.len());
            for (target, rate) in scratch.drain(..) {
                if rate == 0.0 {
                    continue;
                }
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(CtmcError::InvalidRate { rate });
                }
                let j = match index.get(&target) {
                    Some(&j) => j,
                    None => {
                        if states.len() >= max_states {
                            return Err(CtmcError::StateExplosion { limit: max_states });
                        }
                        let j = states.len();
                        states.push(target.clone());
                        index.insert(target, j);
                        adjacency.push(Vec::new());
                        queue.push_back(j);
                        j
                    }
                };
                if i == j {
                    // Self-loops are no-ops in a CTMC; drop them.
                    continue;
                }
                row.push((j, rate));
            }
            adjacency[i] = row;
        }

        let n = states.len();
        let rates = CsrMatrix::from_rows(n, &adjacency)?;
        let rates_t = rates.transpose();
        let exit: Vec<f64> = (0..n).map(|i| rates.row_sum(i)).collect();
        let step = UniformizedStep::new(&rates_t, &exit);
        Ok(StateSpace {
            states,
            initial: 0,
            rates,
            rates_t,
            exit,
            step,
        })
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True if the space is empty (cannot happen via exploration).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The states, in exploration (BFS) order.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// The state at index `i`.
    pub fn state(&self, i: usize) -> &S {
        &self.states[i]
    }

    /// Index of a state, if it was reached during exploration.
    pub fn index_of(&self, state: &S) -> Option<usize> {
        self.states.iter().position(|s| s == state)
    }

    /// Index of the initial state (always 0).
    pub fn initial_index(&self) -> usize {
        self.initial
    }

    /// The initial distribution (a point mass on the initial state).
    pub fn initial_distribution(&self) -> Vec<f64> {
        let mut p = vec![0.0; self.len()];
        p[self.initial] = 1.0;
        p
    }

    /// Off-diagonal transition-rate matrix (row = source state).
    pub fn rates(&self) -> &CsrMatrix {
        &self.rates
    }

    /// Cached transpose of [`StateSpace::rates`] (row = target state):
    /// row `j` lists the rates into state `j`, in ascending source order.
    /// The uniformized step `v·P` that the solvers share is planned from
    /// it when the space is built.
    pub fn rates_transposed(&self) -> &CsrMatrix {
        &self.rates_t
    }

    /// The uniformized step `v·P` of this chain.
    pub(crate) fn uniformized_step(&self) -> &UniformizedStep {
        &self.step
    }

    /// Exit rate of state `i` (the negated generator diagonal).
    pub fn exit_rate(&self, i: usize) -> f64 {
        self.exit[i]
    }

    /// Maximum exit rate over all states (the uniformization constant base).
    pub fn max_exit_rate(&self) -> f64 {
        self.step.lambda()
    }

    /// Indices of absorbing states (no outgoing transitions).
    pub fn absorbing_states(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.exit[i] == 0.0).collect()
    }

    /// Rebuilds the transition rates over the *same* state set from a
    /// different model (e.g. the same memory system in a different fault
    /// environment). The new model's transitions must stay within this
    /// space's states.
    ///
    /// This is the primitive behind piecewise-constant (mission-phase)
    /// transient analysis: explore once with a superset environment, then
    /// solve each phase with its own rates over the shared state indexing.
    ///
    /// # Errors
    ///
    /// [`CtmcError::InvalidRate`] on bad rates;
    /// [`CtmcError::StateExplosion`] (with the current size as the limit)
    /// if the new model transitions to a state this space does not
    /// contain.
    pub fn with_model_rates<M>(&self, model: &M) -> Result<Self, CtmcError>
    where
        M: MarkovModel<State = S>,
    {
        let n = self.len();
        let index: HashMap<&S, usize> = self
            .states
            .iter()
            .enumerate()
            .map(|(i, s)| (s, i))
            .collect();
        let mut adjacency: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut scratch: Vec<(S, f64)> = Vec::new();
        for (i, state) in self.states.iter().enumerate() {
            if model.is_absorbing(state) {
                continue;
            }
            scratch.clear();
            model.transitions(state, &mut scratch);
            for (target, rate) in scratch.drain(..) {
                if rate == 0.0 {
                    continue;
                }
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(CtmcError::InvalidRate { rate });
                }
                let Some(&j) = index.get(&target) else {
                    return Err(CtmcError::StateExplosion { limit: n });
                };
                if i != j {
                    adjacency[i].push((j, rate));
                }
            }
        }
        let rates = CsrMatrix::from_rows(n, &adjacency)?;
        let rates_t = rates.transpose();
        let exit: Vec<f64> = (0..n).map(|i| rates.row_sum(i)).collect();
        let step = UniformizedStep::new(&rates_t, &exit);
        Ok(StateSpace {
            states: self.states.clone(),
            initial: self.initial,
            rates,
            rates_t,
            exit,
            step,
        })
    }

    /// Applies the generator from the left: `y = p·Q`, where
    /// `Q = rates − diag(exit)`.
    pub fn apply_generator(&self, p: &[f64]) -> Result<Vec<f64>, CtmcError> {
        if p.len() != self.len() {
            return Err(CtmcError::DimensionMismatch {
                got: p.len(),
                expected: self.len(),
            });
        }
        let mut y = vec![0.0; self.len()];
        self.rates.acc_left_mul(p, &mut y);
        for i in 0..self.len() {
            y[i] -= p[i] * self.exit[i];
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A birth–death chain on 0..=n with birth rate λ and death rate μ.
    struct BirthDeath {
        n: u32,
        lambda: f64,
        mu: f64,
    }

    impl MarkovModel for BirthDeath {
        type State = u32;
        fn initial_state(&self) -> u32 {
            0
        }
        fn transitions(&self, s: &u32, out: &mut Vec<(u32, f64)>) {
            if *s < self.n {
                out.push((s + 1, self.lambda));
            }
            if *s > 0 {
                out.push((s - 1, self.mu));
            }
        }
    }

    #[test]
    fn explores_full_birth_death_chain() {
        let space = StateSpace::explore(&BirthDeath {
            n: 5,
            lambda: 1.0,
            mu: 2.0,
        })
        .unwrap();
        assert_eq!(space.len(), 6);
        assert_eq!(space.initial_index(), 0);
        assert_eq!(space.index_of(&5), Some(5));
        assert!(space.absorbing_states().is_empty());
    }

    #[test]
    fn exit_rates_are_row_sums() {
        let space = StateSpace::explore(&BirthDeath {
            n: 3,
            lambda: 1.5,
            mu: 0.5,
        })
        .unwrap();
        assert_eq!(space.exit_rate(0), 1.5);
        let mid = space.index_of(&1).unwrap();
        assert_eq!(space.exit_rate(mid), 2.0);
        let top = space.index_of(&3).unwrap();
        assert_eq!(space.exit_rate(top), 0.5);
    }

    #[test]
    fn generator_rows_sum_to_zero() {
        let space = StateSpace::explore(&BirthDeath {
            n: 4,
            lambda: 0.7,
            mu: 1.3,
        })
        .unwrap();
        for i in 0..space.len() {
            let mut p = vec![0.0; space.len()];
            p[i] = 1.0;
            let row = space.apply_generator(&p).unwrap();
            let sum: f64 = row.iter().sum();
            assert!(sum.abs() < 1e-12, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn state_explosion_is_reported() {
        let err = StateSpace::explore_with_limit(
            &BirthDeath {
                n: 100,
                lambda: 1.0,
                mu: 1.0,
            },
            10,
        )
        .unwrap_err();
        assert_eq!(err, CtmcError::StateExplosion { limit: 10 });
    }

    struct NegativeRate;
    impl MarkovModel for NegativeRate {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn transitions(&self, _s: &u8, out: &mut Vec<(u8, f64)>) {
            out.push((1, -1.0));
        }
    }

    #[test]
    fn negative_rates_are_rejected() {
        assert!(matches!(
            StateSpace::explore(&NegativeRate),
            Err(CtmcError::InvalidRate { .. })
        ));
    }

    struct Absorbing;
    impl MarkovModel for Absorbing {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn transitions(&self, s: &u8, out: &mut Vec<(u8, f64)>) {
            if *s == 0 {
                out.push((1, 2.0));
            } else {
                // Would be a self-perpetuating expansion if not marked
                // absorbing; transitions from 1 are never requested.
                out.push((2, 1.0));
            }
        }
        fn is_absorbing(&self, s: &u8) -> bool {
            *s == 1
        }
    }

    #[test]
    fn absorbing_states_are_not_expanded() {
        let space = StateSpace::explore(&Absorbing).unwrap();
        assert_eq!(space.len(), 2);
        assert_eq!(space.absorbing_states(), vec![1]);
    }

    struct SelfLoop;
    impl MarkovModel for SelfLoop {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn transitions(&self, s: &u8, out: &mut Vec<(u8, f64)>) {
            if *s == 0 {
                out.push((0, 5.0)); // self-loop: must be dropped
                out.push((1, 1.0));
            }
        }
    }

    #[test]
    fn self_loops_are_dropped() {
        let space = StateSpace::explore(&SelfLoop).unwrap();
        assert_eq!(space.exit_rate(0), 1.0);
    }

    struct Duplicated;
    impl MarkovModel for Duplicated {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn transitions(&self, s: &u8, out: &mut Vec<(u8, f64)>) {
            if *s == 0 {
                out.push((1, 1.0));
                out.push((1, 2.0)); // distinct physical events, same state
            }
        }
    }

    #[test]
    fn duplicate_targets_sum_rates() {
        let space = StateSpace::explore(&Duplicated).unwrap();
        assert_eq!(space.exit_rate(0), 3.0);
        assert_eq!(space.rates().nnz(), 1);
    }

    #[test]
    fn cached_transpose_tracks_rates() {
        let space = StateSpace::explore(&BirthDeath {
            n: 4,
            lambda: 0.7,
            mu: 1.3,
        })
        .unwrap();
        assert_eq!(space.rates_transposed(), &space.rates().transpose());
        let swapped = space
            .with_model_rates(&BirthDeath {
                n: 4,
                lambda: 2.0,
                mu: 0.1,
            })
            .unwrap();
        assert_eq!(swapped.rates_transposed(), &swapped.rates().transpose());
        // The uniformized step is planned again from the new rates.
        let fresh = StateSpace::explore(&BirthDeath {
            n: 4,
            lambda: 2.0,
            mu: 0.1,
        })
        .unwrap();
        let opts = crate::uniformization::UniformizationOptions::default();
        assert_eq!(
            crate::uniformization::transient(&swapped, 1.5, &opts).unwrap(),
            crate::uniformization::transient(&fresh, 1.5, &opts).unwrap()
        );
    }

    #[test]
    fn with_model_rates_swaps_rates_over_same_states() {
        let probe = BirthDeath {
            n: 4,
            lambda: 1.0,
            mu: 1.0,
        };
        let space = StateSpace::explore(&probe).unwrap();
        let other = BirthDeath {
            n: 4,
            lambda: 2.5,
            mu: 0.5,
        };
        let swapped = space.with_model_rates(&other).unwrap();
        assert_eq!(swapped.len(), space.len());
        assert_eq!(swapped.states(), space.states());
        assert_eq!(swapped.exit_rate(0), 2.5);
        let mid = swapped.index_of(&2).unwrap();
        assert_eq!(swapped.exit_rate(mid), 3.0);
    }

    #[test]
    fn with_model_rates_rejects_escaping_transitions() {
        let small = BirthDeath {
            n: 2,
            lambda: 1.0,
            mu: 1.0,
        };
        let space = StateSpace::explore(&small).unwrap();
        let bigger = BirthDeath {
            n: 5,
            lambda: 1.0,
            mu: 1.0,
        };
        assert!(matches!(
            space.with_model_rates(&bigger),
            Err(CtmcError::StateExplosion { .. })
        ));
    }

    #[test]
    fn with_model_rates_drops_to_subchain() {
        // A model with mu = 0 over the probe's space: death transitions
        // vanish, exit rates shrink, states stay.
        let probe = BirthDeath {
            n: 3,
            lambda: 1.0,
            mu: 2.0,
        };
        let space = StateSpace::explore(&probe).unwrap();
        // Emulate mu = 0 by a model emitting zero-rate deaths.
        struct BirthOnly;
        impl MarkovModel for BirthOnly {
            type State = u32;
            fn initial_state(&self) -> u32 {
                0
            }
            fn transitions(&self, s: &u32, out: &mut Vec<(u32, f64)>) {
                if *s < 3 {
                    out.push((s + 1, 0.7));
                }
            }
        }
        let sub = space.with_model_rates(&BirthOnly).unwrap();
        let top = sub.index_of(&3).unwrap();
        assert_eq!(sub.exit_rate(top), 0.0);
        assert_eq!(sub.absorbing_states(), vec![top]);
    }
}
