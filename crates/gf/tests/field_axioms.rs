//! Property tests: every `Field` implementation must satisfy the field
//! axioms, since all erasure-coding correctness in the workspace rests on
//! them.

use proptest::prelude::*;
use stair_gf::{Field, Gf16, Gf8};

macro_rules! axioms {
    ($modname:ident, $f:ty, $max:expr) => {
        mod $modname {
            use super::*;

            fn elem() -> impl Strategy<Value = <$f as Field>::Elem> {
                (0usize..=$max).prop_map(<$f>::elem)
            }

            proptest! {
                #[test]
                fn addition_is_commutative_and_self_inverse(a in elem(), b in elem()) {
                    prop_assert_eq!(<$f>::add(a, b), <$f>::add(b, a));
                    prop_assert_eq!(<$f>::add(<$f>::add(a, b), b), a);
                }

                #[test]
                fn multiplication_is_commutative_associative(
                    a in elem(), b in elem(), c in elem()
                ) {
                    prop_assert_eq!(<$f>::mul(a, b), <$f>::mul(b, a));
                    prop_assert_eq!(
                        <$f>::mul(<$f>::mul(a, b), c),
                        <$f>::mul(a, <$f>::mul(b, c))
                    );
                }

                #[test]
                fn multiplication_distributes_over_addition(
                    a in elem(), b in elem(), c in elem()
                ) {
                    prop_assert_eq!(
                        <$f>::mul(a, <$f>::add(b, c)),
                        <$f>::add(<$f>::mul(a, b), <$f>::mul(a, c))
                    );
                }

                #[test]
                fn identities_behave(a in elem()) {
                    prop_assert_eq!(<$f>::add(a, <$f>::zero()), a);
                    prop_assert_eq!(<$f>::mul(a, <$f>::one()), a);
                    prop_assert_eq!(<$f>::mul(a, <$f>::zero()), <$f>::zero());
                }

                #[test]
                fn inverse_and_division_agree(a in elem(), b in elem()) {
                    if b == <$f>::zero() {
                        prop_assert_eq!(<$f>::inv(b), None);
                        prop_assert_eq!(<$f>::div(a, b), None);
                    } else {
                        let q = <$f>::div(a, b).unwrap();
                        prop_assert_eq!(<$f>::mul(q, b), a);
                    }
                }

                #[test]
                fn log_exp_round_trip(a in elem()) {
                    match <$f>::log(a) {
                        None => prop_assert_eq!(a, <$f>::zero()),
                        Some(l) => prop_assert_eq!(<$f>::exp(l), a),
                    }
                }

                #[test]
                fn pow_is_repeated_mul(a in elem(), n in 0usize..12) {
                    let mut acc = <$f>::one();
                    for _ in 0..n {
                        acc = <$f>::mul(acc, a);
                    }
                    prop_assert_eq!(<$f>::pow(a, n), acc);
                }
            }
        }
    };
}

axioms!(gf8, Gf8, 255);
axioms!(gf16, Gf16, 65535);

mod regions {
    use super::*;

    proptest! {
        /// mult_xor twice with the same constant is a no-op (char-2 field).
        #[test]
        fn gf8_mult_xor_region_is_involutive(
            data in proptest::collection::vec(any::<u8>(), 1..200),
            c in 0usize..=255
        ) {
            let c = Gf8::elem(c);
            let src: Vec<u8> = data.iter().rev().cloned().collect();
            let mut dst = data.clone();
            Gf8::mult_xor_region(&mut dst, &src, c);
            Gf8::mult_xor_region(&mut dst, &src, c);
            prop_assert_eq!(dst, data);
        }

        /// Region multiplication is linear: c·(a⊕b) = c·a ⊕ c·b.
        #[test]
        fn gf8_region_linear(
            a in proptest::collection::vec(any::<u8>(), 64),
            b in proptest::collection::vec(any::<u8>(), 64),
            c in 0usize..=255
        ) {
            let c = Gf8::elem(c);
            let mut ab = vec![0u8; 64];
            for i in 0..64 { ab[i] = a[i] ^ b[i]; }
            let mut lhs = vec![0u8; 64];
            Gf8::mult_xor_region(&mut lhs, &ab, c);
            let mut rhs = vec![0u8; 64];
            Gf8::mult_xor_region(&mut rhs, &a, c);
            Gf8::mult_xor_region(&mut rhs, &b, c);
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn gf16_region_matches_scalar(
            words in proptest::collection::vec(any::<u16>(), 1..64),
            c in 0usize..=65535
        ) {
            let c = Gf16::elem(c);
            let src: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let mut dst = vec![0u8; src.len()];
            Gf16::mult_region(&mut dst, &src, c);
            for (chunk, &w) in dst.chunks_exact(2).zip(&words) {
                let got = u16::from_le_bytes([chunk[0], chunk[1]]);
                prop_assert_eq!(got, Gf16::mul(c, w));
            }
        }
    }
}
