//! Property tests: the MDS property must hold for randomized shapes,
//! erasure patterns, and payloads — this is the foundation STAIR's fault
//! tolerance proof builds on.

use proptest::prelude::*;
use stair_gf::{Gf16, Gf8};
use stair_rs::MdsCode;

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
        let parity = code.encode_elems(&data).unwrap();
        let full: Vec<u8> = data.iter().chain(&parity).copied().collect();

        // Choose a pseudo-random surviving set of exactly κ symbols.
        let mut order: Vec<usize> = (0..total).collect();
        let mut state = seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let survivors = &order[..data_len];
        let cw: Vec<Option<u8>> = (0..total)
            .map(|i| survivors.contains(&i).then_some(full[i]))
            .collect();
        prop_assert_eq!(code.decode_elems(&cw).unwrap(), full);
    }

    /// Region-level decode agrees with element-level decode on every byte.
    #[test]
    fn region_and_element_decode_agree(
        payload in proptest::collection::vec(any::<u8>(), 5 * 8),
    ) {
        let code: MdsCode<Gf8> = MdsCode::new(8, 5).unwrap();
        let regions: Vec<&[u8]> = payload.chunks_exact(8).collect();
        let mut parities: Vec<Vec<u8>> = (0..3).map(|_| vec![0u8; 8]).collect();
        {
            let mut prefs: Vec<&mut [u8]> = parities.iter_mut().map(Vec::as_mut_slice).collect();
            code.encode_regions(&regions, &mut prefs).unwrap();
        }
        // Erase data 1, 4 and parity 6; decode data back from the rest.
        let coeff = code.recovery_coefficients(&[0, 2, 3, 5, 7], &[1, 4]).unwrap();
        let available: Vec<&[u8]> =
            vec![regions[0], regions[2], regions[3], &parities[0], &parities[2]];
        let mut r1 = vec![0u8; 8];
        let mut r4 = vec![0u8; 8];
        {
            let mut out: Vec<&mut [u8]> = vec![&mut r1, &mut r4];
            code.apply_coefficients(&coeff, &available, &mut out).unwrap();
        }
        prop_assert_eq!(r1.as_slice(), regions[1]);
        prop_assert_eq!(r4.as_slice(), regions[4]);
    }

}

proptest! {
    // The (300,297) construction inverts a 297×297 matrix per case; a few
    // random cases give the coverage we need.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// GF(2^16) codes support lengths beyond 256.
    #[test]
    fn wide_field_code_round_trips(seed in any::<u64>()) {
        let code: MdsCode<Gf16> = MdsCode::new(300, 297).unwrap();
        let data: Vec<u16> = (0..297).map(|i| (seed ^ (i as u64 * 2654435761)) as u16).collect();
        let parity = code.encode_elems(&data).unwrap();
        let mut cw: Vec<Option<u16>> = data.iter().chain(&parity).map(|&x| Some(x)).collect();
        cw[0] = None;
        cw[150] = None;
        cw[299] = None;
        let full = code.decode_elems(&cw).unwrap();
        prop_assert_eq!(&full[..297], &data[..]);
    }
}
