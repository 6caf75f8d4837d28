//! Operand → (set index, tag, stored value) encodings.
//!
//! The paper's indexing scheme (§3.1):
//!
//! * **integer** operands — XOR of the *n* least-significant bits of the two
//!   operands, where 2ⁿ is the number of sets;
//! * **floating-point** operands — XOR of the *n* most-significant bits of
//!   the two mantissas.
//!
//! Tags are either the full operand bit patterns ([`TagPolicy::FullValue`])
//! or only the mantissas ([`TagPolicy::MantissaOnly`], §2.1). In mantissa
//! mode the entry stores the result's mantissa plus a tiny exponent
//! adjustment, and the sign/exponent data path recomputes the rest — so a
//! pair of operands that differs from a cached pair only in sign or
//! exponent still hits.

use crate::config::{HashScheme, TagPolicy};
use crate::op::{Op, OpKind, Value};

/// Number of explicit fraction bits in an IEEE-754 double.
const FRAC_BITS: u32 = 52;
/// Mask of the fraction field.
const FRAC_MASK: u64 = (1u64 << FRAC_BITS) - 1;
/// Exponent bias.
const BIAS: i32 = 1023;

/// A tag ready for comparison against table entries.
///
/// `kind` is compared alongside the packed operand bits so that tables
/// shared between different operation types never alias entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    /// Operation kind this key belongs to.
    pub kind: OpKind,
    /// Packed operand bits (full values or mantissas, per the tag policy).
    pub tag: u128,
}

/// Decompose a **normal** double into `(sign, unbiased exponent, fraction)`.
///
/// # Panics
///
/// Panics in debug builds if `x` is not normal; callers must check
/// [`f64::is_normal`] first.
#[must_use]
pub fn fp_parts(x: f64) -> (bool, i32, u64) {
    debug_assert!(x.is_normal(), "fp_parts requires a normal double, got {x}");
    let bits = x.to_bits();
    let sign = (bits >> 63) != 0;
    let exp = ((bits >> FRAC_BITS) & 0x7ff) as i32 - BIAS;
    (sign, exp, bits & FRAC_MASK)
}

/// Rebuild a double from `(sign, unbiased exponent, fraction)` when the
/// exponent is within the normal range; `None` otherwise.
#[must_use]
fn fp_build(sign: bool, exp: i32, frac: u64) -> Option<f64> {
    if !(-1022..=1023).contains(&exp) {
        return None;
    }
    let bits = ((sign as u64) << 63) | (((exp + BIAS) as u64) << FRAC_BITS) | (frac & FRAC_MASK);
    Some(f64::from_bits(bits))
}

/// `true` if `x` is normal or zero — the only values the mantissa-only
/// data path can process without a slow-path fallback.
#[must_use]
pub fn is_normal_or_zero(x: f64) -> bool {
    x.is_normal() || x == 0.0
}

/// `true` if every floating-point operand of `op` is normal (mantissa-mode
/// tables bypass anything else).
fn operands_normal(op: &Op) -> bool {
    match *op {
        Op::IntMul(..) => true,
        Op::FpMul(a, b) | Op::FpDiv(a, b) => a.is_normal() && b.is_normal(),
        // Square root of a negative is NaN; the mantissa path also cannot
        // represent it, so only positive normals qualify.
        Op::FpSqrt(a) => a.is_normal() && a > 0.0,
    }
}

/// Encode the comparison tag for `op`, or `None` if the operands cannot be
/// represented under `policy` and the access must bypass the table.
#[must_use]
pub fn encode_tag(op: &Op, policy: TagPolicy) -> Option<Key> {
    let kind = op.kind();
    match policy {
        TagPolicy::FullValue => {
            let (a, b) = op.operand_bits();
            Some(Key { kind, tag: ((a as u128) << 64) | b as u128 })
        }
        TagPolicy::MantissaOnly => match *op {
            // Integer multiplies keep full tags; mantissas are an fp notion.
            Op::IntMul(a, b) => {
                Some(Key { kind, tag: ((a as u128) << 64) | (b as u64) as u128 })
            }
            Op::FpMul(a, b) | Op::FpDiv(a, b) => {
                if !operands_normal(op) {
                    return None;
                }
                let (_, _, fa) = fp_parts(a);
                let (_, _, fb) = fp_parts(b);
                Some(Key { kind, tag: ((fa as u128) << FRAC_BITS) | fb as u128 })
            }
            Op::FpSqrt(a) => {
                if !operands_normal(op) {
                    return None;
                }
                let (_, ea, fa) = fp_parts(a);
                // The result mantissa depends on the exponent's parity:
                // sqrt(m·2^e) = sqrt(m·2^(e mod 2)) · 2^⌊e/2⌋.
                let parity = ea.rem_euclid(2) as u128;
                Some(Key { kind, tag: ((fa as u128) << 1) | parity })
            }
        },
    }
}

/// The set index for `op` in a table with `sets` sets.
///
/// `sets` must be a power of two (guaranteed by [`crate::MemoConfig`]).
#[must_use]
pub fn set_index(op: &Op, sets: usize, scheme: HashScheme) -> usize {
    debug_assert!(sets.is_power_of_two());
    if sets == 1 {
        return 0;
    }
    let n = sets.trailing_zeros();
    let mask = (sets - 1) as u64;
    match scheme {
        HashScheme::PaperXor => match *op {
            Op::IntMul(a, b) => ((a as u64 ^ b as u64) & mask) as usize,
            Op::FpMul(a, b) | Op::FpDiv(a, b) => {
                let fa = a.to_bits() & FRAC_MASK;
                let fb = b.to_bits() & FRAC_MASK;
                (((fa >> (FRAC_BITS - n)) ^ (fb >> (FRAC_BITS - n))) & mask) as usize
            }
            Op::FpSqrt(a) => {
                let fa = a.to_bits() & FRAC_MASK;
                ((fa >> (FRAC_BITS - n)) & mask) as usize
            }
        },
        HashScheme::FoldMix => {
            let (a, b) = op.operand_bits();
            let h = (a ^ b.rotate_left(31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (h >> (64 - n)) as usize
        }
    }
}

/// How a precomputed [`SetSel`] word maps to a set index for a given set
/// count: the paper's two XOR forms plus the multiplicative mixer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetForm {
    /// Integer PaperXor: low-bit mask of the XORed operands.
    IntLow,
    /// Floating-point PaperXor: top fraction bits of the XORed mantissas.
    FpHigh,
    /// FoldMix: top bits of the multiplicative hash.
    Mix,
}

/// The mixing form [`set_index`] uses for `kind` under `scheme`.
fn set_form(kind: OpKind, scheme: HashScheme) -> SetForm {
    match scheme {
        HashScheme::PaperXor => {
            if kind == OpKind::IntMul {
                SetForm::IntLow
            } else {
                SetForm::FpHigh
            }
        }
        HashScheme::FoldMix => SetForm::Mix,
    }
}

/// A set selection with the operand mixing hoisted: [`set_index`] re-mixes
/// the operands for every distinct set count, but the XOR/multiply half is
/// independent of the count — only the final shift/mask depends on it. A
/// `SetSel` carries the mixed word so a multi-level consumer (the stack
/// sweep walks one level per distinct set count) pays the mixing once per
/// operation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetSel {
    word: u64,
    form: SetForm,
}

impl SetSel {
    /// Mix `op`'s operands once; [`SetSel::set`] then serves any set count.
    pub(crate) fn of(op: &Op, scheme: HashScheme) -> SetSel {
        let form = set_form(op.kind(), scheme);
        let word = match scheme {
            HashScheme::PaperXor => match *op {
                Op::IntMul(a, b) => a as u64 ^ b as u64,
                Op::FpMul(a, b) | Op::FpDiv(a, b) => (a.to_bits() ^ b.to_bits()) & FRAC_MASK,
                Op::FpSqrt(a) => a.to_bits() & FRAC_MASK,
            },
            HashScheme::FoldMix => {
                let (a, b) = op.operand_bits();
                (a ^ b.rotate_left(31)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            }
        };
        SetSel { word, form }
    }

    /// The set index for a table with `sets` sets — bit-identical to
    /// [`set_index`] on the originating operands.
    #[inline]
    #[must_use]
    pub(crate) fn set(self, sets: usize) -> usize {
        debug_assert!(sets.is_power_of_two());
        if sets == 1 {
            return 0;
        }
        let n = sets.trailing_zeros();
        let mask = (sets - 1) as u64;
        match self.form {
            SetForm::IntLow => (self.word & mask) as usize,
            SetForm::FpHigh => ((self.word >> (FRAC_BITS - n)) & mask) as usize,
            SetForm::Mix => (self.word >> (64 - n)) as usize,
        }
    }
}

/// Encode the 64-bit payload stored in an entry for `op`'s `result`.
///
/// Under full-value tags this is simply the raw result bits. Under
/// mantissa-only tags it is the result's fraction plus a 2-bit exponent
/// delta; `None` means the result is not a normal double and cannot be
/// stored by the mantissa data path.
#[must_use]
pub fn encode_value(op: &Op, result: Value, policy: TagPolicy) -> Option<u64> {
    match policy {
        TagPolicy::FullValue => Some(result.to_bits()),
        TagPolicy::MantissaOnly => match *op {
            Op::IntMul(..) => Some(result.to_bits()),
            Op::FpMul(..) | Op::FpDiv(..) | Op::FpSqrt(..) => {
                let r = result.as_f64();
                if !r.is_normal() {
                    return None;
                }
                let (_, er, fr) = fp_parts(r);
                let base = expected_exponent(op)?;
                let delta = er - base;
                debug_assert!((-1..=1).contains(&delta), "exponent delta {delta} out of range");
                // Encode delta ∈ {-1, 0, 1} as 0, 1, 2 above the fraction.
                Some(fr | (((delta + 1) as u64) << FRAC_BITS))
            }
        },
    }
}

/// Reconstruct the result of `op` from a stored payload.
///
/// Under mantissa-only tags the sign and exponent are recomputed from the
/// *current* operands; `None` means the reconstructed exponent falls
/// outside the normal range (the hardware would fall back to the
/// conventional unit, i.e. the probe is treated as a miss).
#[must_use]
pub fn decode_value(op: &Op, stored: u64, policy: TagPolicy) -> Option<Value> {
    match policy {
        TagPolicy::FullValue => Some(Value::from_bits(op.kind(), stored)),
        TagPolicy::MantissaOnly => match *op {
            Op::IntMul(..) => Some(Value::Int(stored as i64)),
            Op::FpMul(a, b) => {
                let (sa, ..) = fp_parts(a);
                let (sb, ..) = fp_parts(b);
                rebuild(op, stored, sa ^ sb)
            }
            Op::FpDiv(a, b) => {
                let (sa, ..) = fp_parts(a);
                let (sb, ..) = fp_parts(b);
                rebuild(op, stored, sa ^ sb)
            }
            Op::FpSqrt(_) => rebuild(op, stored, false),
        },
    }
}

/// The result exponent before normalization adjustment, from the current
/// operands. `None` if the operands are unsuitable (never happens after a
/// tag hit, which already filtered non-normals).
fn expected_exponent(op: &Op) -> Option<i32> {
    match *op {
        Op::IntMul(..) => None,
        Op::FpMul(a, b) => {
            let (_, ea, _) = fp_parts(a);
            let (_, eb, _) = fp_parts(b);
            Some(ea + eb)
        }
        Op::FpDiv(a, b) => {
            let (_, ea, _) = fp_parts(a);
            let (_, eb, _) = fp_parts(b);
            Some(ea - eb)
        }
        Op::FpSqrt(a) => {
            let (_, ea, _) = fp_parts(a);
            Some(ea.div_euclid(2))
        }
    }
}

fn rebuild(op: &Op, stored: u64, sign: bool) -> Option<Value> {
    let frac = stored & FRAC_MASK;
    let delta = ((stored >> FRAC_BITS) & 0b11) as i32 - 1;
    let exp = expected_exponent(op)? + delta;
    fp_build(sign, exp, frac).map(Value::Fp)
}

// ---------------------------------------------------------------------------
// Lane-parallel set hashing over raw operand columns (the batched front end
// of `MemoTable`): one kind/scheme dispatch for the whole tile, then a plain
// loop over the lanes that the optimizer can vectorize. The output is
// bit-identical to calling [`set_index`] on `batch.op(i)` — asserted
// lane-for-lane by the tests at the bottom of this file.
// ---------------------------------------------------------------------------

/// Column form of [`set_index`]. When `swapped` is set the indices are for
/// the swapped operand order (identical under the symmetric `PaperXor`
/// scheme; `FoldMix` mixes asymmetrically and genuinely differs).
pub(crate) fn fill_set_indices(
    kind: OpKind,
    scheme: HashScheme,
    sets: usize,
    a: &[u64],
    b: &[u64],
    swapped: bool,
    out: &mut [u32],
) {
    debug_assert!(sets.is_power_of_two());
    let n = a.len();
    if sets == 1 {
        out[..n].fill(0);
        return;
    }
    let bits = sets.trailing_zeros();
    let mask = (sets - 1) as u64;
    match scheme {
        HashScheme::PaperXor => match kind {
            // XOR is symmetric: the swapped order lands in the same set.
            OpKind::IntMul => {
                for i in 0..n {
                    out[i] = ((a[i] ^ b[i]) & mask) as u32;
                }
            }
            OpKind::FpMul | OpKind::FpDiv => {
                let shift = FRAC_BITS - bits;
                for i in 0..n {
                    let fa = a[i] & FRAC_MASK;
                    let fb = b[i] & FRAC_MASK;
                    out[i] = (((fa >> shift) ^ (fb >> shift)) & mask) as u32;
                }
            }
            OpKind::FpSqrt => {
                let shift = FRAC_BITS - bits;
                for i in 0..n {
                    out[i] = (((a[i] & FRAC_MASK) >> shift) & mask) as u32;
                }
            }
        },
        HashScheme::FoldMix => {
            let shift = 64 - bits;
            if kind == OpKind::FpSqrt {
                for i in 0..n {
                    let h = (a[i] ^ a[i].rotate_left(31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    out[i] = (h >> shift) as u32;
                }
            } else if swapped {
                for i in 0..n {
                    let h = (b[i] ^ a[i].rotate_left(31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    out[i] = (h >> shift) as u32;
                }
            } else {
                for i in 0..n {
                    let h = (a[i] ^ b[i].rotate_left(31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    out[i] = (h >> shift) as u32;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fast hashing for Key-keyed maps.
// ---------------------------------------------------------------------------

/// A multiply–xorshift hasher specialized for [`Key`]-keyed maps.
///
/// `SipHash` (the `std` default) dominates the profile of the unbounded
/// table and the stack-distance simulator's key store. Keys are fixed-size
/// values an adversary does not control — the operand streams come from our
/// own workloads — so HashDoS resistance buys nothing here. This hasher
/// folds each written word into a 64-bit state with the golden-ratio
/// multiplier and finishes with a SplitMix64-style avalanche. Only use it
/// with maps accessed by `get`/`insert`/`remove`; anything sensitive to
/// iteration order would become sensitive to this choice of mixer.
#[derive(Debug, Default, Clone)]
pub struct KeyHasher {
    state: u64,
}

impl KeyHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl std::hash::Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut x = self.state;
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.mix(v as u64);
        self.mix((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` for [`KeyHasher`]-backed maps.
pub type KeyHashBuilder = std::hash::BuildHasherDefault<KeyHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_parts_roundtrip() {
        for x in [1.0, -2.5, 1.5e300, -3.7e-200, std::f64::consts::PI] {
            let (s, e, f) = fp_parts(x);
            assert_eq!(fp_build(s, e, f), Some(x));
        }
    }

    #[test]
    fn fp_build_rejects_out_of_range() {
        assert_eq!(fp_build(false, 1024, 0), None);
        assert_eq!(fp_build(false, -1023, 0), None);
    }

    #[test]
    fn full_tags_pack_both_operands() {
        let op = Op::FpMul(2.0, 3.0);
        let key = encode_tag(&op, TagPolicy::FullValue).unwrap();
        assert_eq!(key.tag >> 64, 2.0f64.to_bits() as u128);
        assert_eq!(key.tag & u128::from(u64::MAX), 3.0f64.to_bits() as u128);
    }

    #[test]
    fn full_tags_accept_any_bit_pattern() {
        for op in [
            Op::FpMul(f64::NAN, 1.0),
            Op::FpDiv(f64::INFINITY, 0.0),
            Op::FpSqrt(-1.0),
            Op::FpMul(f64::MIN_POSITIVE / 2.0, 1.0), // subnormal
        ] {
            assert!(encode_tag(&op, TagPolicy::FullValue).is_some());
        }
    }

    #[test]
    fn mantissa_tags_ignore_sign_and_exponent() {
        let k1 = encode_tag(&Op::FpMul(1.5, 2.5), TagPolicy::MantissaOnly).unwrap();
        let k2 = encode_tag(&Op::FpMul(-1.5 * 8.0, 2.5 * 0.25), TagPolicy::MantissaOnly).unwrap();
        assert_eq!(k1, k2, "same mantissas must share a tag");
        let k3 = encode_tag(&Op::FpMul(1.25, 2.5), TagPolicy::MantissaOnly).unwrap();
        assert_ne!(k1, k3);
    }

    #[test]
    fn mantissa_tags_bypass_non_normals() {
        for op in [
            Op::FpMul(0.0, 1.0),
            Op::FpDiv(1.0, f64::NAN),
            Op::FpSqrt(-4.0),
            Op::FpSqrt(0.0),
            Op::FpMul(f64::MIN_POSITIVE / 4.0, 2.0),
        ] {
            assert_eq!(encode_tag(&op, TagPolicy::MantissaOnly), None, "{op}");
        }
    }

    #[test]
    fn sqrt_tag_distinguishes_exponent_parity() {
        // 2.0 = 1.0·2^1 (odd), 4.0 = 1.0·2^2 (even): same mantissa, different
        // parity — must not share an entry, since sqrt(2)≠sqrt(4)/2 mantissa.
        let k1 = encode_tag(&Op::FpSqrt(2.0), TagPolicy::MantissaOnly).unwrap();
        let k2 = encode_tag(&Op::FpSqrt(4.0), TagPolicy::MantissaOnly).unwrap();
        assert_ne!(k1, k2);
        // 4.0 and 16.0 are both even-exponent with mantissa 1.0: shared.
        let k3 = encode_tag(&Op::FpSqrt(16.0), TagPolicy::MantissaOnly).unwrap();
        assert_eq!(k2, k3);
    }

    #[test]
    fn paper_index_xors_int_lsbs() {
        let sets = 8;
        let idx = set_index(&Op::IntMul(0b1011, 0b0110), sets, HashScheme::PaperXor);
        assert_eq!(idx, (0b1011 ^ 0b0110) & 0b111);
    }

    #[test]
    fn paper_index_xors_fp_mantissa_msbs() {
        let sets = 8;
        // 1.5 has fraction 0b100…, 1.25 has 0b010…; top-3 bits 100 ^ 010 = 110.
        let idx = set_index(&Op::FpMul(1.5, 1.25), sets, HashScheme::PaperXor);
        assert_eq!(idx, 0b110);
    }

    #[test]
    fn index_is_in_range_for_all_schemes() {
        for sets in [1usize, 2, 8, 1024] {
            for scheme in [HashScheme::PaperXor, HashScheme::FoldMix] {
                for op in [
                    Op::IntMul(-7, 13),
                    Op::FpMul(3.25, -0.125),
                    Op::FpDiv(9.5, 3.0),
                    Op::FpSqrt(7.0),
                ] {
                    assert!(set_index(&op, sets, scheme) < sets);
                }
            }
        }
    }

    #[test]
    fn mantissa_value_roundtrip_mul() {
        let op = Op::FpMul(1.7, 3.3);
        let truth = op.compute();
        let stored = encode_value(&op, truth, TagPolicy::MantissaOnly).unwrap();
        assert_eq!(decode_value(&op, stored, TagPolicy::MantissaOnly), Some(truth));

        // Same mantissas at different exponents reconstruct exactly.
        let op2 = Op::FpMul(1.7 * 1024.0, 3.3 / 65536.0);
        let truth2 = op2.compute();
        assert_eq!(decode_value(&op2, stored, TagPolicy::MantissaOnly), Some(truth2));
    }

    #[test]
    fn mantissa_value_roundtrip_div_and_sqrt() {
        let d = Op::FpDiv(10.0, 3.0);
        let s = encode_value(&d, d.compute(), TagPolicy::MantissaOnly).unwrap();
        assert_eq!(decode_value(&d, s, TagPolicy::MantissaOnly), Some(d.compute()));

        let q = Op::FpSqrt(7.0);
        let s = encode_value(&q, q.compute(), TagPolicy::MantissaOnly).unwrap();
        assert_eq!(decode_value(&q, s, TagPolicy::MantissaOnly), Some(q.compute()));
        // Even/odd exponent variants of the same mantissa reconstruct too.
        let q2 = Op::FpSqrt(7.0 * 4.0);
        let s2 = encode_value(&q2, q2.compute(), TagPolicy::MantissaOnly).unwrap();
        assert_eq!(decode_value(&q2, s2, TagPolicy::MantissaOnly), Some(q2.compute()));
    }

    #[test]
    fn mantissa_decode_rejects_overflowing_exponent() {
        let op = Op::FpMul(1.5, 1.5);
        let stored = encode_value(&op, op.compute(), TagPolicy::MantissaOnly).unwrap();
        // Same mantissas, enormous exponents: the true product overflows, so
        // the reconstruction must refuse (treated as a miss upstream).
        let huge = Op::FpMul(1.5e300, 1.5e300);
        assert_eq!(decode_value(&huge, stored, TagPolicy::MantissaOnly), None);
    }

    #[test]
    fn mantissa_encode_rejects_non_normal_results() {
        // Product underflows to subnormal: cannot be stored.
        let op = Op::FpMul(1.5e-200, 1.5e-200);
        assert_eq!(encode_value(&op, op.compute(), TagPolicy::MantissaOnly), None);
    }

    /// An operand soup stressing every encode/hash edge: zeros of both
    /// signs, ones, subnormals, infinities, NaN, negatives, and ordinary
    /// normals at assorted exponents.
    fn fp_soup() -> Vec<u64> {
        [
            0.0f64,
            -0.0,
            1.0,
            -1.0,
            2.0,
            4.0,
            1.5,
            -3.7e-200,
            1.5e300,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            std::f64::consts::PI,
            -0.125,
        ]
        .iter()
        .map(|x| x.to_bits())
        .collect()
    }

    fn int_soup() -> Vec<u64> {
        [0i64, 1, -1, 2, 42, -42, i64::MAX, i64::MIN, 7, 1 << 40]
            .iter()
            .map(|&x| x as u64)
            .collect()
    }

    fn soup_columns(kind: OpKind) -> (Vec<u64>, Vec<u64>) {
        let pool = if kind == OpKind::IntMul { int_soup() } else { fp_soup() };
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (i, &x) in pool.iter().enumerate() {
            for (j, &y) in pool.iter().enumerate() {
                a.push(x);
                b.push(if (i + j) % 3 == 0 { x } else { y });
            }
        }
        if kind == OpKind::FpSqrt {
            b.clear();
        }
        (a, b)
    }

    fn lane_op(kind: OpKind, a: u64, b: u64) -> Op {
        match kind {
            OpKind::IntMul => Op::IntMul(a as i64, b as i64),
            OpKind::FpMul => Op::FpMul(f64::from_bits(a), f64::from_bits(b)),
            OpKind::FpDiv => Op::FpDiv(f64::from_bits(a), f64::from_bits(b)),
            OpKind::FpSqrt => Op::FpSqrt(f64::from_bits(a)),
        }
    }

    #[test]
    fn lane_set_indices_match_scalar_hash() {
        for kind in OpKind::ALL {
            let (a, b) = soup_columns(kind);
            let n = a.len();
            let mut out = vec![0u32; n];
            for sets in [1usize, 2, 8, 1024] {
                for scheme in [HashScheme::PaperXor, HashScheme::FoldMix] {
                    fill_set_indices(kind, scheme, sets, &a, &b, false, &mut out);
                    for i in 0..n {
                        let op = lane_op(kind, a[i], *b.get(i).unwrap_or(&0));
                        assert_eq!(
                            out[i] as usize,
                            set_index(&op, sets, scheme),
                            "{op} set under {scheme:?}/{sets}"
                        );
                    }
                    if kind.is_commutative() {
                        fill_set_indices(kind, scheme, sets, &a, &b, true, &mut out);
                        for i in 0..n {
                            let op = lane_op(kind, a[i], b[i]);
                            let swapped = op.swapped().expect("commutative kind");
                            assert_eq!(
                                out[i] as usize,
                                set_index(&swapped, sets, scheme),
                                "swapped {op} set under {scheme:?}/{sets}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hoisted_set_selector_matches_scalar_hash() {
        for kind in OpKind::ALL {
            let (a, b) = soup_columns(kind);
            for scheme in [HashScheme::PaperXor, HashScheme::FoldMix] {
                for (i, &ai) in a.iter().enumerate() {
                    let op = lane_op(kind, ai, *b.get(i).unwrap_or(&0));
                    let sel = SetSel::of(&op, scheme);
                    for sets in [1usize, 2, 8, 64, 1024] {
                        assert_eq!(
                            sel.set(sets),
                            set_index(&op, sets, scheme),
                            "{op} set under {scheme:?}/{sets}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn key_hasher_spreads_and_is_deterministic() {
        use std::hash::{BuildHasher, Hash, Hasher};
        let build = KeyHashBuilder::default();
        let mut seen = std::collections::HashSet::new();
        for kind in OpKind::ALL {
            for tag in 0u128..512 {
                let key = Key { kind, tag: tag.wrapping_mul(0x10001) };
                let mut h1 = build.build_hasher();
                key.hash(&mut h1);
                
                
                assert_eq!(h1.finish(), build.hash_one(key), "hashing must be deterministic");
                seen.insert(h1.finish());
            }
        }
        // 4 kinds × 512 tags: a usable hasher collides rarely on this set.
        assert!(seen.len() > 2000, "only {} distinct hashes", seen.len());
    }
}
