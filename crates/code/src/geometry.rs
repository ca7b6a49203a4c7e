//! Stripe geometry: shape, cell roles, and advertised tolerance.

use crate::CellIdx;

/// What a codec's stripes look like and what failures it claims to
/// tolerate.
///
/// The store derives everything layout-related from this: device-file
/// shapes from `n`/`r`, and the logical block space from `data_cells` (one
/// block per data cell, in this order). Which failure patterns a code
/// survives is [`crate::CodecSpec::covers`].
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Geometry {
    /// Devices (chunks) per stripe.
    pub n: usize,
    /// Sectors (symbols) per chunk.
    pub r: usize,
    /// Whole-device failures tolerated per stripe.
    pub m: usize,
    /// Additional sector failures tolerated beyond the `m` devices
    /// (STAIR's `s = Σ e_i`, SD's `s`; `0` for plain Reed–Solomon).
    pub s: usize,
    /// Largest sector burst tolerated in a *single* surviving chunk on
    /// top of `m` device failures (STAIR's `e_max`, SD's `s`, `0` for
    /// RS).
    pub burst: usize,
    /// Cells holding user data, in logical payload order.
    pub data_cells: Vec<CellIdx>,
    /// Cells holding parity.
    pub parity_cells: Vec<CellIdx>,
}

impl Geometry {
    /// User-data sectors per stripe.
    pub fn data_per_stripe(&self) -> usize {
        self.data_cells.len()
    }

    /// Fraction of stored sectors holding user data.
    pub fn storage_efficiency(&self) -> f64 {
        self.data_cells.len() as f64 / (self.n * self.r) as f64
    }
}
