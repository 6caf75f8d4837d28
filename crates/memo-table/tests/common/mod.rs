//! Operand streams shared by the memo-table integration tests.

use memo_table::rng::SplitMix64;
use memo_table::OpKind;

/// Deterministic same-kind operand columns with the hazards the batched
/// front end must classify exactly like the scalar one:
///
/// * **reuse** — earlier pairs are replayed so hits occur at every depth;
/// * **orientation** — replayed commutative pairs are emitted in *swapped*
///   order about half the time, exercising the second-probe / canonical-key
///   logic;
/// * **trivial operands** — 0 / ±0 / 1 at a healthy rate;
/// * **mantissa-hostile values** — NaN, infinities, subnormals, negative
///   sqrt inputs, and magnitudes that overflow the mantissa-only
///   recombination, forcing encode/decode bypasses.
pub fn stream(kind: OpKind, seed: u64, len: usize) -> (Vec<u64>, Vec<u64>) {
    let mut rng = SplitMix64::new(seed).split(kind.label());
    let mut a = Vec::with_capacity(len);
    let mut b = Vec::with_capacity(len);
    let mut history: Vec<(u64, u64)> = Vec::new();

    let fp_value = |rng: &mut SplitMix64| -> u64 {
        match rng.next_u64() % 16 {
            0 => 0.0f64.to_bits(),
            1 => (-0.0f64).to_bits(),
            2 => 1.0f64.to_bits(),
            3 => f64::INFINITY.to_bits(),
            4 => f64::NAN.to_bits(),
            5 => (f64::MIN_POSITIVE / 2.0).to_bits(), // subnormal
            6 => 1.5e300f64.to_bits(),                // exponent-sum overflow
            7 => 1.5e-300f64.to_bits(),               // exponent-sum underflow
            _ => {
                // A small lattice of normal values so reuse happens even
                // without explicit history replay.
                let frac = (rng.next_u64() % 8) as f64 / 8.0;
                let exp = (rng.next_u64() % 7) as i32 - 3;
                let sign = if rng.next_u64().is_multiple_of(4) { -1.0 } else { 1.0 };
                (sign * (1.0 + frac) * f64::powi(2.0, exp)).to_bits()
            }
        }
    };
    let int_value = |rng: &mut SplitMix64| -> u64 {
        const POOL: [i64; 10] = [0, 1, -1, 2, 3, 7, 42, -5, 255, i64::MIN];
        POOL[(rng.next_u64() % POOL.len() as u64) as usize] as u64
    };

    for _ in 0..len {
        let replay = !history.is_empty() && rng.next_u64().is_multiple_of(4);
        let (x, y) = if replay {
            let (px, py) = history[(rng.next_u64() as usize) % history.len()];
            if rng.next_u64().is_multiple_of(2) {
                (py, px) // swapped orientation
            } else {
                (px, py)
            }
        } else if kind == OpKind::IntMul {
            (int_value(&mut rng), int_value(&mut rng))
        } else {
            (fp_value(&mut rng), fp_value(&mut rng))
        };
        history.push((x, y));
        a.push(x);
        if kind != OpKind::FpSqrt {
            b.push(y);
        }
    }
    (a, b)
}
