//! Decoder latency and area complexity models (paper Section 6).
//!
//! The paper cites the Altera RS codec IP-core data \[5\] for two
//! closed-form hardware-complexity models:
//!
//! * **Latency**: the decode time for a non-time-continuous access profile
//!   (as applicable to a memory) is `Td ≈ 3n + 10(n − k)` clock cycles —
//!   74 cycles for RS(18,16) and 308 for RS(36,16), i.e. the wide simplex
//!   code pays **more than 4×** the access latency of the duplex
//!   arrangement built from two narrow decoders.
//! * **Area**: the gate count of a decoder grows almost linearly with the
//!   symbol width `m` and the number of check symbols `n − k`, so one
//!   RS(36,16) decoder exceeds the area of *two* RS(18,16) decoders.
//!
//! These models feed the `decoder_complexity` bench and example, which
//! also measure this crate's software decoder as an empirical analogue.

/// Decode latency in clock cycles, `Td ≈ 3n + 10(n − k)`.
///
/// # Examples
///
/// ```
/// use rsmem_code::complexity::decode_cycles;
/// assert_eq!(decode_cycles(18, 16), 74);   // paper: Td ≈ 54 + 20
/// assert_eq!(decode_cycles(36, 16), 308);  // paper: Td ≈ 108 + 200
/// ```
pub fn decode_cycles(n: usize, k: usize) -> u64 {
    debug_assert!(k < n);
    (3 * n + 10 * (n - k)) as u64
}

/// Relative decoder area in arbitrary gate units, `≈ c·m·(n − k)`.
///
/// Only *ratios* of this figure are meaningful; the constant is normalized
/// so that RS(18,16) with byte symbols scores `m·(n−k) = 16`.
pub fn area_units(m: u32, n: usize, k: usize) -> u64 {
    debug_assert!(k < n);
    m as u64 * (n - k) as u64
}

/// A summary row comparing arrangements, as printed by the complexity
/// experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComplexityRow {
    /// Human-readable arrangement label.
    pub label: String,
    /// Short code-family name (`rs`, `rm`, `irs`) so per-family rows
    /// share one CSV/JSON schema.
    pub family: String,
    /// Codeword length.
    pub n: usize,
    /// Dataword length.
    pub k: usize,
    /// Decode latency in cycles for one access.
    pub decode_cycles: u64,
    /// Total decoder area units (duplex counts both decoders).
    pub area_units: u64,
    /// Total redundant symbols stored per dataword (duplex counts the
    /// full replica: `n + (n − k)` extra symbols vs. `k`).
    pub redundant_symbols: usize,
}

/// Builds the paper's Section 6 comparison: simplex RS(18,16), duplex
/// RS(18,16) and simplex RS(36,16) — the latter chosen because a duplex
/// RS(18,16) stores the same number of redundant symbols as a simplex
/// RS(36,16).
pub fn section6_comparison() -> Vec<ComplexityRow> {
    let _span = rsmem_obs::span("code.complexity", "section6_comparison");
    let narrow = (18usize, 16usize);
    let wide = (36usize, 16usize);
    let m = 8;
    vec![
        ComplexityRow {
            label: "simplex RS(18,16)".to_owned(),
            family: "rs".to_owned(),
            n: narrow.0,
            k: narrow.1,
            decode_cycles: decode_cycles(narrow.0, narrow.1),
            area_units: area_units(m, narrow.0, narrow.1),
            redundant_symbols: narrow.0 - narrow.1,
        },
        ComplexityRow {
            label: "duplex RS(18,16)".to_owned(),
            family: "rs".to_owned(),
            n: narrow.0,
            k: narrow.1,
            // The two decoders operate in parallel: latency is one decode.
            decode_cycles: decode_cycles(narrow.0, narrow.1),
            // ...but both decoders occupy area.
            area_units: 2 * area_units(m, narrow.0, narrow.1),
            // The replica module adds a full extra codeword.
            redundant_symbols: 2 * narrow.0 - narrow.1,
        },
        ComplexityRow {
            label: "simplex RS(36,16)".to_owned(),
            family: "rs".to_owned(),
            n: wide.0,
            k: wide.1,
            decode_cycles: decode_cycles(wide.0, wide.1),
            area_units: area_units(m, wide.0, wide.1),
            redundant_symbols: wide.0 - wide.1,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_latency_figures_reproduced() {
        assert_eq!(decode_cycles(18, 16), 74);
        assert_eq!(decode_cycles(36, 16), 308);
        // "more than four times higher" (paper Section 6).
        assert!(decode_cycles(36, 16) as f64 / decode_cycles(18, 16) as f64 > 4.0);
    }

    #[test]
    fn wide_decoder_larger_than_two_narrow() {
        // One RS(36,16) decoder requires more area than two RS(18,16).
        assert!(area_units(8, 36, 16) > 2 * area_units(8, 18, 16));
    }

    #[test]
    fn section6_rows_are_consistent() {
        let rows = section6_comparison();
        assert_eq!(rows.len(), 3);
        // Duplex and wide simplex store a comparable amount of redundancy
        // relative to the dataword (paper: "same amount of redundant code
        // symbols"): duplex = 18+2 = 20 extra, RS(36,16) = 20 extra.
        assert_eq!(rows[1].redundant_symbols, rows[2].redundant_symbols);
        // Duplex decode latency beats the wide simplex by > 4x.
        assert!(rows[2].decode_cycles > 4 * rows[1].decode_cycles);
    }
}
