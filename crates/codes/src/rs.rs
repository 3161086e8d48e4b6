//! [`MemoryCode`] for the paper's `rsmem_code::RsCode`.

use crate::MemoryCode;
use rsmem_code::complexity::{area_units, decode_cycles, ComplexityRow};
use rsmem_code::{
    BatchDecoder, BatchOutcome, CodeError, DecodeOpts, DecodeOutcome, RsCode, Symbol,
};
use rsmem_models::CodeParams;
use std::borrow::Cow;
use std::cell::RefCell;

thread_local! {
    /// The batch plane's workspace for this thread's `decode_batch`
    /// calls: its buffers stay warm across MC shards.
    static DECODER: RefCell<BatchDecoder> = RefCell::new(BatchDecoder::new());
}

/// The paper's Reed–Solomon code speaks [`MemoryCode`] directly: every
/// method forwards to the inherent [`RsCode`] method, so trait-level
/// outcomes are bit-identical to calling the code itself. The batch path
/// runs on one [`BatchDecoder`] per thread, reused across calls.
impl MemoryCode for RsCode {
    fn params(&self) -> CodeParams {
        CodeParams::new(self.n(), self.k(), self.symbol_bits())
            .expect("a constructed RsCode has valid parameters")
    }

    fn encode(&self, data: &[Symbol]) -> Result<Vec<Symbol>, CodeError> {
        RsCode::encode(self, data)
    }

    fn encode_into(&self, data: &[Symbol], word: &mut [Symbol]) -> Result<(), CodeError> {
        RsCode::encode_into(self, data, word)
    }

    fn decode(&self, word: &[Symbol], erasures: &[usize]) -> Result<DecodeOutcome, CodeError> {
        // Recorder events and solver metrics come from the decode core
        // inside `RsCode`; the trait layer only adds the family label.
        let result = RsCode::decode(self, word, erasures);
        if let Ok(outcome) = &result {
            crate::metrics::record_outcome("rs", outcome);
        }
        result
    }

    fn decode_in_place(
        &self,
        word: &mut [Symbol],
        erasures: &[usize],
    ) -> Result<BatchOutcome, CodeError> {
        let outcome = RsCode::decode_in_place(self, word, erasures)?;
        crate::metrics::record_batch("rs", std::slice::from_ref(&outcome));
        Ok(outcome)
    }

    fn data_of<'w>(&self, word: &'w [Symbol]) -> Result<Cow<'w, [Symbol]>, CodeError> {
        RsCode::data_of(self, word).map(Cow::Borrowed)
    }

    fn decode_batch(
        &self,
        words: &mut [Vec<Symbol>],
        erasures: &[Vec<usize>],
        out: &mut Vec<BatchOutcome>,
    ) -> Result<(), CodeError> {
        DECODER.with_borrow_mut(|decoder| {
            decoder.decode_batch(self, words, erasures, &DecodeOpts::default(), out)
        })?;
        crate::metrics::record_batch("rs", out);
        Ok(())
    }

    fn complexity_model(&self) -> ComplexityRow {
        let (n, k, m) = (self.n(), self.k(), self.symbol_bits());
        ComplexityRow {
            label: self.params().to_string(),
            family: "rs".to_owned(),
            n,
            k,
            decode_cycles: decode_cycles(n, k),
            area_units: area_units(m, n, k),
            redundant_symbols: n - k,
        }
    }

    // The geometry accessors read the code directly rather than
    // re-validating `CodeParams` on every call.
    fn n(&self) -> usize {
        RsCode::n(self)
    }

    fn k(&self) -> usize {
        RsCode::k(self)
    }

    fn symbol_bits(&self) -> u32 {
        RsCode::symbol_bits(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_forwards_encode_decode() {
        let code = RsCode::new(18, 16, 8).unwrap();
        let dyn_code: &dyn MemoryCode = &code;
        let data: Vec<Symbol> = (0..16).map(|i| (i * 7 + 3) as Symbol).collect();
        let word = dyn_code.encode(&data).unwrap();
        assert_eq!(word, code.encode(&data).unwrap());
        let mut corrupted = word.clone();
        corrupted[5] ^= 0x2a;
        assert_eq!(
            dyn_code.decode(&corrupted, &[]).unwrap(),
            code.decode(&corrupted, &[]).unwrap()
        );
        assert_eq!(
            dyn_code.data_of(&word).unwrap().as_ref(),
            code.data_of(&word).unwrap()
        );
        assert!(matches!(dyn_code.data_of(&word).unwrap(), Cow::Borrowed(_)));
        assert_eq!(
            (dyn_code.n(), dyn_code.k(), dyn_code.symbol_bits()),
            (18, 16, 8)
        );
        assert_eq!(dyn_code.params(), CodeParams::rs18_16());
    }

    #[test]
    fn complexity_row_matches_paper_model() {
        let row = RsCode::new(18, 16, 8).unwrap().complexity_model();
        assert_eq!(row.decode_cycles, 74);
        assert_eq!(row.area_units, 16);
        assert_eq!(row.family, "rs");
        assert_eq!(row.label, CodeParams::rs18_16().to_string());
    }
}
