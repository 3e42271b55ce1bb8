//! Analytic ECC model for 64 B (512-bit) codewords.
//!
//! The simulator never carries data payloads, so ECC outcomes are decided
//! from the *shape* of the injected error pattern — how many bits flipped
//! and how many distinct symbols they touch — using the standard decoding
//! guarantees of each code:
//!
//! - **SEC-DED** (single-error-correct, double-error-detect Hamming):
//!   1 flipped bit is corrected, 2 are detected, and ≥3 alias onto the
//!   syndrome space — odd weights look like a correctable single-bit error
//!   (miscorrection), even weights land on detectable syndromes.
//! - **Chipkill** (wide-symbol RS-style code over 8-bit symbols): any
//!   number of flipped bits confined to one symbol is corrected, two
//!   corrupted symbols are detected, and ≥3 alias the same way (odd symbol
//!   counts miscorrect, even ones detect).
//!
//! These rules are exact for weights ≤ 2 (the cases that dominate at
//! realistic fault rates) and the conventional worst-case convention for
//! higher weights.

/// Data bits in one ECC word (64 B cache line).
pub const DATA_BITS: u32 = 512;
/// Bits per chipkill symbol (one x8 device's contribution per beat).
pub const SYMBOL_BITS: u32 = 8;
/// Symbols per ECC word.
pub const SYMBOLS: u32 = DATA_BITS / SYMBOL_BITS;

/// ECC scheme protecting each 64 B access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EccMode {
    /// No ECC: every injected error is consumed silently.
    None,
    /// Per-64 B SEC-DED Hamming code.
    SecDed,
    /// Chipkill-style wide-symbol code (8-bit symbols).
    Chipkill,
}

impl EccMode {
    pub fn name(self) -> &'static str {
        match self {
            EccMode::None => "none",
            EccMode::SecDed => "secded",
            EccMode::Chipkill => "chipkill",
        }
    }
}

/// Shape of the error affecting one codeword: flipped-bit count and the
/// number of distinct symbols containing at least one flipped bit. No bit
/// positions are stored — contributions from independent fault sources are
/// assumed to land in disjoint bits/symbols (the collision probability at
/// modeled rates is negligible), so patterns combine by addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ErrorPattern {
    pub bits: u32,
    pub symbols: u32,
}

impl ErrorPattern {
    pub const CLEAN: ErrorPattern = ErrorPattern {
        bits: 0,
        symbols: 0,
    };

    /// Pattern shape from explicit flipped-bit positions in `0..DATA_BITS`
    /// (duplicates collapse): the constructor the property tests drive.
    pub fn from_bit_positions(positions: &[u16]) -> Self {
        let mut bits = [false; DATA_BITS as usize];
        let mut syms = [false; SYMBOLS as usize];
        for &p in positions {
            let p = p as usize % DATA_BITS as usize;
            bits[p] = true;
            syms[p / SYMBOL_BITS as usize] = true;
        }
        ErrorPattern {
            bits: bits.iter().filter(|&&b| b).count() as u32,
            symbols: syms.iter().filter(|&&s| s).count() as u32,
        }
    }

    /// `k` flipped bits assumed to hit `k` distinct symbols (exact for the
    /// sparse transient/stuck contributions this models).
    pub fn scattered_bits(k: u32) -> Self {
        ErrorPattern {
            bits: k,
            symbols: k.min(SYMBOLS),
        }
    }

    /// A region-fault pattern: wholesale garbage (wordline / subarray /
    /// bank scope). Uncorrectable under both codes.
    pub const GARBAGE: ErrorPattern = ErrorPattern {
        bits: DATA_BITS / 2,
        symbols: SYMBOLS,
    };

    pub fn is_clean(self) -> bool {
        self.bits == 0
    }

    /// Combine two independent contributions (disjoint-support shortcut).
    pub fn combine(self, other: ErrorPattern) -> ErrorPattern {
        ErrorPattern {
            bits: (self.bits + other.bits).min(DATA_BITS),
            symbols: (self.symbols + other.symbols).min(SYMBOLS),
        }
    }
}

/// Decoder verdict for one access. Exactly one outcome per access — a
/// codeword is never simultaneously corrected and uncorrectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccOutcome {
    /// No error present.
    Clean,
    /// Error present and corrected; data delivered is good.
    Corrected,
    /// Error detected but uncorrectable; data delivery fails.
    Detected,
    /// Error aliased onto a correctable syndrome (or no ECC at all): bad
    /// data delivered silently.
    Miscorrected,
}

/// Decide the decoder outcome for `pattern` under `mode`.
pub fn decide(mode: EccMode, pattern: ErrorPattern) -> EccOutcome {
    if pattern.is_clean() {
        return EccOutcome::Clean;
    }
    match mode {
        EccMode::None => EccOutcome::Miscorrected,
        EccMode::SecDed => match pattern.bits {
            1 => EccOutcome::Corrected,
            2 => EccOutcome::Detected,
            n if n % 2 == 1 => EccOutcome::Miscorrected,
            _ => EccOutcome::Detected,
        },
        EccMode::Chipkill => match pattern.symbols {
            1 => EccOutcome::Corrected,
            2 => EccOutcome::Detected,
            n if n % 2 == 1 => EccOutcome::Miscorrected,
            _ => EccOutcome::Detected,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_is_clean_under_all_modes() {
        for mode in [EccMode::None, EccMode::SecDed, EccMode::Chipkill] {
            assert_eq!(decide(mode, ErrorPattern::CLEAN), EccOutcome::Clean);
        }
    }

    #[test]
    fn secded_ladder() {
        let p = ErrorPattern::scattered_bits;
        assert_eq!(decide(EccMode::SecDed, p(1)), EccOutcome::Corrected);
        assert_eq!(decide(EccMode::SecDed, p(2)), EccOutcome::Detected);
        assert_eq!(decide(EccMode::SecDed, p(3)), EccOutcome::Miscorrected);
        assert_eq!(decide(EccMode::SecDed, p(4)), EccOutcome::Detected);
    }

    #[test]
    fn chipkill_corrects_multi_bit_single_symbol() {
        // All 8 bits of one symbol dead: SEC-DED is lost, chipkill corrects.
        let p = ErrorPattern::from_bit_positions(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(p.symbols, 1);
        assert_eq!(decide(EccMode::Chipkill, p), EccOutcome::Corrected);
        assert_eq!(decide(EccMode::SecDed, p), EccOutcome::Detected);
    }

    #[test]
    fn no_ecc_swallows_everything_silently() {
        assert_eq!(
            decide(EccMode::None, ErrorPattern::scattered_bits(1)),
            EccOutcome::Miscorrected
        );
        assert_eq!(
            decide(EccMode::None, ErrorPattern::GARBAGE),
            EccOutcome::Miscorrected
        );
    }

    #[test]
    fn garbage_is_never_corrected() {
        for mode in [EccMode::SecDed, EccMode::Chipkill] {
            assert_eq!(decide(mode, ErrorPattern::GARBAGE), EccOutcome::Detected);
        }
    }

    #[test]
    fn bit_positions_deduplicate() {
        let p = ErrorPattern::from_bit_positions(&[9, 9, 9]);
        assert_eq!(p.bits, 1);
        assert_eq!(p.symbols, 1);
    }

    #[test]
    fn combine_saturates_at_word_shape() {
        let g = ErrorPattern::GARBAGE.combine(ErrorPattern::GARBAGE);
        assert!(g.bits <= DATA_BITS);
        assert_eq!(g.symbols, SYMBOLS);
    }
}
