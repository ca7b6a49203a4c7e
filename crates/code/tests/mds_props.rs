//! Property tests: the MDS property must hold for randomized shapes,
//! erasure patterns, and payloads — this is the foundation STAIR's fault
//! tolerance proof builds on. The codewords are field elements, combined
//! with the coefficients `recovery_coefficients` solves.

use proptest::prelude::*;
use stair_code::MdsCode;
use stair_gf::{Field, Gf16, Gf8};

/// The symbols `wanted` of a codeword, from its symbols `available`:
/// `c[wanted[j]] = Σ_i M[i][j] · c[available[i]]`.
fn recover<F: Field>(
    code: &MdsCode<F>,
    codeword: &[F::Elem],
    available: &[usize],
    wanted: &[usize],
) -> Vec<F::Elem> {
    let coeff = code.recovery_coefficients(available, wanted).unwrap();
    (0..wanted.len())
        .map(|j| {
            available
                .iter()
                .enumerate()
                .fold(F::zero(), |acc, (i, &a)| {
                    F::add(acc, F::mul(coeff.get(i, j), codeword[a]))
                })
        })
        .collect()
}

/// The whole codeword of `data`: the data, then its parity.
fn encode<F: Field>(code: &MdsCode<F>, data: &[F::Elem]) -> Vec<F::Elem> {
    let data_idx: Vec<usize> = (0..code.data_len()).collect();
    let parity_idx: Vec<usize> = (code.data_len()..code.total_len()).collect();
    let parity = recover(code, data, &data_idx, &parity_idx);
    data.iter().copied().chain(parity).collect()
}

/// Exhaustive on a small code: every κ-subset of the symbols recovers
/// the whole codeword, data and parity alike.
#[test]
fn any_k_of_n_recovers_exhaustive() {
    let code: MdsCode<Gf8> = MdsCode::new(7, 4).unwrap();
    let data: Vec<u8> = (0..4).map(|i| (i * 37 + 11) as u8).collect();
    let full = encode(&code, &data);
    let all: Vec<usize> = (0..7).collect();
    for mask in 0u32..(1 << 7) {
        if mask.count_ones() != 4 {
            continue;
        }
        let survivors: Vec<usize> = all
            .iter()
            .copied()
            .filter(|i| mask & (1 << i) != 0)
            .collect();
        assert_eq!(
            recover(&code, &full, &survivors, &all),
            full,
            "mask {mask:b}"
        );
    }
}

proptest! {
    /// decode(erase(encode(data))) == data for any κ-sized surviving set.
    #[test]
    fn any_k_surviving_symbols_recover_gf8(
        total in 3usize..24,
        seed in any::<u64>(),
    ) {
        let data_len = 1 + (seed as usize % (total - 1));
        let code: MdsCode<Gf8> = MdsCode::new(total, data_len).unwrap();
        let data: Vec<u8> = (0..data_len).map(|i| (seed >> (i % 8) ^ i as u64) as u8).collect();
        let full = encode(&code, &data);

        // Choose a pseudo-random surviving set of exactly κ symbols.
        let mut order: Vec<usize> = (0..total).collect();
        let mut state = seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let (survivors, erased) = order.split_at(data_len);
        let lost: Vec<u8> = erased.iter().map(|&i| full[i]).collect();
        prop_assert_eq!(recover(&code, &full, survivors, erased), lost);
    }
}

proptest! {
    // The (300,297) construction solves a 297×297 system per case; a few
    // random cases give the coverage we need.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// GF(2^16) codes support lengths beyond 256.
    #[test]
    fn wide_field_code_round_trips(seed in any::<u64>()) {
        let code: MdsCode<Gf16> = MdsCode::new(300, 297).unwrap();
        let data: Vec<u16> = (0..297).map(|i| (seed ^ (i as u64 * 2654435761)) as u16).collect();
        let full = encode(&code, &data);
        let survivors: Vec<usize> = (0..300).filter(|i| ![0, 150, 299].contains(i)).collect();
        prop_assert_eq!(recover(&code, &full, &survivors, &[0, 150]), [data[0], data[150]]);
    }
}
