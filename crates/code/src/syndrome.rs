//! Syndrome computation.

use crate::RsCode;
use rsmem_gf::Symbol;

/// Computes the `n − k` syndromes `S_j = r(α^{b+j})`, `j = 0..n−k`,
/// of the received word `r`.
///
/// All syndromes are zero iff `r` is a codeword.
pub fn syndromes(code: &RsCode, word: &[Symbol]) -> Vec<Symbol> {
    let mut out = Vec::with_capacity(code.parity_symbols());
    syndromes_into(code, word, &mut out);
    out
}

/// [`syndromes`] into a caller-owned buffer (cleared first).
pub(crate) fn syndromes_into(code: &RsCode, word: &[Symbol], out: &mut Vec<Symbol>) {
    out.clear();
    for table in code.syndrome_tables() {
        // Horner evaluation of the received polynomial at α^{b+j},
        // through the precomputed multiply-by-root table (identical
        // products to `field.mul`, one lookup instead of three).
        let mut acc: Symbol = 0;
        for &c in word.iter().rev() {
            acc = table.mul(acc) ^ c;
        }
        out.push(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_syndromes_match_direct_field_horner() {
        // The cached multiply-by-root tables must reproduce the plain
        // log/exp Horner ladder bit for bit.
        for (n, k, m, b) in [
            (15usize, 9usize, 4u32, 0u32),
            (18, 16, 8, 0),
            (36, 16, 8, 112),
        ] {
            let code = RsCode::with_first_root(n, k, m, b).unwrap();
            let f = code.field();
            let mut word: Vec<Symbol> = (0..n as u32)
                .map(|i| ((i * 37 + 11) % f.size()) as Symbol)
                .collect();
            word[n / 2] ^= 1;
            let got = syndromes(&code, &word);
            for (j, &s) in got.iter().enumerate() {
                let x = f.alpha_pow(b + j as u32);
                let mut acc: Symbol = 0;
                for &c in word.iter().rev() {
                    acc = f.mul(acc, x) ^ c;
                }
                assert_eq!(s, acc, "n={n} k={k} j={j}");
            }
        }
    }

    #[test]
    fn syndromes_of_codeword_are_zero() {
        let code = RsCode::new(15, 9, 4).unwrap();
        let data: Vec<Symbol> = (0..9).map(|i| (i + 2) % 16).collect();
        let word = code.encode(&data).unwrap();
        assert!(syndromes(&code, &word).iter().all(|&s| s == 0));
    }

    #[test]
    fn single_error_syndromes_follow_locator_law() {
        // For e at position p with magnitude v: S_j = v · α^{p(b+j)}.
        let code = RsCode::new(15, 9, 4).unwrap();
        let f = code.field();
        let data = vec![0 as Symbol; 9];
        let mut word = code.encode(&data).unwrap();
        let (pos, val) = (7usize, 5 as Symbol);
        word[pos] ^= val;
        let syn = syndromes(&code, &word);
        for (j, &s) in syn.iter().enumerate() {
            let expect = f.mul(val, f.pow(f.alpha_pow(pos as u32), j as u64));
            assert_eq!(s, expect, "syndrome {j}");
        }
    }

    #[test]
    fn syndromes_are_linear_in_the_error() {
        let code = RsCode::new(18, 16, 8).unwrap();
        let data: Vec<Symbol> = (10..26).collect();
        let word = code.encode(&data).unwrap();
        let mut e1 = word.clone();
        e1[3] ^= 0x21;
        let mut e2 = word.clone();
        e2[11] ^= 0x7;
        let mut e12 = word.clone();
        e12[3] ^= 0x21;
        e12[11] ^= 0x7;
        let s1 = syndromes(&code, &e1);
        let s2 = syndromes(&code, &e2);
        let s12 = syndromes(&code, &e12);
        for j in 0..s1.len() {
            assert_eq!(s12[j], s1[j] ^ s2[j]);
        }
    }
}
