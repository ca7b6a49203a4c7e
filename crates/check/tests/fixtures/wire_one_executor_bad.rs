// Fixture: a codec crate running its own multi-term region products
// beside `Plan::execute` — the fused kernel called through the field,
// the zeroing dot product, the fused kernel handed on as a value, and
// the overwriting fused kernel.
use stair_gf::Field;

pub fn encode_parity<F: Field>(data: &[&[u8]], parity: &mut [&mut [u8]], coeffs: &[F::Elem]) {
    for p in parity.iter_mut() {
        let terms: Vec<_> = data.iter().copied().zip(coeffs.iter().copied()).collect();
        F::mult_xor_regions(p, &terms);
    }
}

pub fn recover_sector<F: Field>(out: &mut [u8], terms: &[(&[u8], F::Elem)]) {
    F::dot_regions(out, terms.iter().copied());
}

pub fn kernel<F: Field>() -> fn(&mut [u8], &[(&[u8], F::Elem)]) {
    F::mult_xor_regions
}

pub fn overwrite_sector<F: Field>(out: &mut [u8], terms: &[(&[u8], F::Elem)]) {
    F::mult_regions(out, terms);
}
