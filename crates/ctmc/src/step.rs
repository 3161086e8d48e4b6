//! The uniformized step `v ↦ v·P`, `P = I + Q/Λ`, as a row-grouped
//! gather kernel shared by the transient and the cumulative solvers.
//!
//! Component `j` of `v·P` is `v[j]·(1 − exit_j/Λ) + (Σ_i v[i]·r_ij)/Λ`,
//! where the inflow sum gathers row `j` of the transposed rates `Rᵀ` in
//! ascending source order. Looping over the rows one by one makes each
//! row one short serial add chain whose trip count changes from row to
//! row, so the loop exit mispredicts and the rows run one after another.
//! The plan instead stable-sorts the rows by length and cuts every run
//! of equal-length rows into groups of [`LANES`] rows stored
//! lane-interleaved: a group runs `LANES` independent add chains with
//! one fixed trip count. Rows that fill no whole group (the run
//! remainders, and typically an absorbing Fail state's long row) run
//! one at a time, as the remainder loop of the blocked kernel.
//!
//! The result is bit-identical to the per-row gather: every row still
//! adds its terms to `0.0` in the same column order, nothing is padded,
//! `1 − exit_j/Λ` is the same expression (evaluated once per space
//! instead of once per term), and the inflow is still divided by `Λ`,
//! not multiplied by `1/Λ`.

use crate::sparse::CsrMatrix;

/// Rows per group: the independent add chains a group keeps in flight.
const LANES: usize = 8;

/// The uniformized step of one chain, planned once per state space.
/// Costs 12 bytes per nonzero (a `u32` source index and an `f64` rate).
#[derive(Debug, Clone)]
pub(crate) struct UniformizedStep {
    /// The uniformization rate Λ, the largest exit rate.
    lambda: f64,
    /// `1 − exit_j/Λ` per state (unused when Λ = 0: every caller
    /// returns before stepping a chain without dynamics).
    diag: Vec<f64>,
    /// Output rows of the grouped part, `LANES` per group.
    group_rows: Vec<u32>,
    /// Entries per row of each group.
    group_len: Vec<u32>,
    /// Output rows of the remainder, one at a time.
    tail_rows: Vec<u32>,
    /// Entries of each remainder row.
    tail_len: Vec<u32>,
    /// Source state of every entry: the groups lane-interleaved (entry
    /// `k` of lane `l` at `LANES·k + l` within its group), then the
    /// remainder rows one after another.
    cols: Vec<u32>,
    /// Rate of every entry, laid out like `cols`.
    vals: Vec<f64>,
}

impl UniformizedStep {
    /// Plans the step for the transposed rates `rates_t` (row = target)
    /// with exit rates `exit`, in O(states + nnz).
    pub(crate) fn new(rates_t: &CsrMatrix, exit: &[f64]) -> Self {
        let n = rates_t.nrows();
        let index = |j: usize| u32::try_from(j).expect("state index fits in u32");
        let lambda = exit.iter().fold(0.0, |a: f64, &b| a.max(b));
        let diag = exit.iter().map(|&e| 1.0 - e / lambda).collect();

        // Stable counting sort of the rows by length.
        let lens: Vec<usize> = (0..n).map(|j| rates_t.row(j).count()).collect();
        let max_len = lens.iter().copied().max().unwrap_or(0);
        let mut slot = vec![0usize; max_len + 1];
        for &len in &lens {
            slot[len] += 1;
        }
        let mut start = 0;
        for s in &mut slot {
            let count = *s;
            *s = start;
            start += count;
        }
        let mut order = vec![0usize; n];
        for (j, &len) in lens.iter().enumerate() {
            order[slot[len]] = j;
            slot[len] += 1;
        }

        let mut step = UniformizedStep {
            lambda,
            diag,
            group_rows: Vec::new(),
            group_len: Vec::new(),
            tail_rows: Vec::new(),
            tail_len: Vec::new(),
            cols: Vec::with_capacity(rates_t.nnz()),
            vals: Vec::with_capacity(rates_t.nnz()),
        };
        let mut tail = Vec::new();
        for run in order.chunk_by(|&a, &b| lens[a] == lens[b]) {
            let (groups, rest) = run.as_chunks::<LANES>();
            for group in groups {
                let mut lanes = group.map(|j| rates_t.row(j));
                for _ in 0..lens[group[0]] {
                    for lane in &mut lanes {
                        let (i, r) = lane.next().expect("equal-length rows");
                        step.cols.push(index(i));
                        step.vals.push(r);
                    }
                }
                step.group_rows.extend(group.iter().map(|&j| index(j)));
                step.group_len.push(index(lens[group[0]]));
            }
            tail.extend_from_slice(rest);
        }
        for j in tail {
            for (i, r) in rates_t.row(j) {
                step.cols.push(index(i));
                step.vals.push(r);
            }
            step.tail_rows.push(index(j));
            step.tail_len.push(index(lens[j]));
        }
        step
    }

    /// The uniformization rate Λ.
    pub(crate) fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Number of states.
    pub(crate) fn len(&self) -> usize {
        self.diag.len()
    }

    /// Writes `v·P` into `next`.
    pub(crate) fn apply(&self, v: &[f64], next: &mut [f64]) {
        debug_assert_eq!(v.len(), self.len());
        debug_assert_eq!(next.len(), self.len());
        let lambda = self.lambda;
        let mut at = 0;
        let (groups, _) = self.group_rows.as_chunks::<LANES>();
        for (rows, &len) in groups.iter().zip(&self.group_len) {
            let end = at + len as usize * LANES;
            let (cols, _) = self.cols[at..end].as_chunks::<LANES>();
            let (vals, _) = self.vals[at..end].as_chunks::<LANES>();
            let mut acc = [0.0f64; LANES];
            for (c, r) in cols.iter().zip(vals) {
                for ((a, &i), &r) in acc.iter_mut().zip(c).zip(r) {
                    *a += v[i as usize] * r;
                }
            }
            for (&j, a) in rows.iter().zip(acc) {
                let j = j as usize;
                next[j] = v[j] * self.diag[j] + a / lambda;
            }
            at = end;
        }
        for (&j, &len) in self.tail_rows.iter().zip(&self.tail_len) {
            let end = at + len as usize;
            let mut acc = 0.0;
            for (&i, &r) in self.cols[at..end].iter().zip(&self.vals[at..end]) {
                acc += v[i as usize] * r;
            }
            let j = j as usize;
            next[j] = v[j] * self.diag[j] + acc / lambda;
            at = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `v·P` in scatter form over the untransposed rates.
    fn scatter_step(rates: &CsrMatrix, exit: &[f64], lambda: f64, v: &[f64]) -> Vec<f64> {
        let mut inflow = vec![0.0; v.len()];
        rates.acc_left_mul(v, &mut inflow);
        (0..v.len())
            .map(|j| v[j] * (1.0 - exit[j] / lambda) + inflow[j] / lambda)
            .collect()
    }

    /// A 21-state chain: in-degree 1 for states 1..=9 (one full group
    /// and a remainder of one), in-degree 2 for 10..=19 (one group and a
    /// remainder of two), and a sink fed by every other state.
    fn grouped_chain() -> CsrMatrix {
        let rows: Vec<Vec<(usize, f64)>> = (0..21)
            .map(|i| match i {
                20 => Vec::new(),
                _ => {
                    let mut row = vec![(20, 0.25 + 0.01 * i as f64)];
                    if i < 9 {
                        row.push((i + 1, 1.5 + 0.1 * i as f64));
                    }
                    if (10..=19).contains(&(i + 10)) {
                        row.push((i + 10, 0.7 + 0.03 * i as f64));
                    }
                    if (10..=19).contains(&(i + 1)) {
                        row.push((i + 1, 2.0 / (1.0 + i as f64)));
                    }
                    row
                }
            })
            .collect();
        CsrMatrix::from_rows(21, &rows).unwrap()
    }

    #[test]
    fn step_matches_scatter_left_mul_bit_for_bit() {
        let rates = grouped_chain();
        let rates_t = rates.transpose();
        let exit: Vec<f64> = (0..rates.nrows()).map(|i| rates.row_sum(i)).collect();
        let step = UniformizedStep::new(&rates_t, &exit);
        assert!(!step.group_len.is_empty() && !step.tail_rows.is_empty());
        assert_eq!(step.cols.len(), rates.nnz());
        let mut v: Vec<f64> = (0..21).map(|j| 1.0 / (1.0 + (j * j) as f64)).collect();
        v[3] = 0.0;
        let mut next = vec![f64::NAN; 21];
        for _ in 0..5 {
            let expect = scatter_step(&rates, &exit, step.lambda(), &v);
            step.apply(&v, &mut next);
            let bits = |x: &[f64]| x.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&next), bits(&expect));
            std::mem::swap(&mut v, &mut next);
        }
    }

    #[test]
    fn rows_are_grouped_by_length_and_the_rest_run_alone() {
        let rates_t = grouped_chain().transpose();
        let exit = vec![1.0; 21];
        let step = UniformizedStep::new(&rates_t, &exit);
        // Length 0: state 0 alone; 1: states 1..=9; 2: states 10..=19;
        // 20: the sink.
        assert_eq!(step.group_len, vec![1, 2]);
        assert_eq!(step.group_rows[..LANES], [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(step.group_rows[LANES..], [10, 11, 12, 13, 14, 15, 16, 17]);
        assert_eq!(step.tail_rows, vec![0, 9, 18, 19, 20]);
        assert_eq!(step.tail_len, vec![0, 1, 2, 2, 20]);
    }
}
