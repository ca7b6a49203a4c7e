//! The stored stripe: `r × n` sector buffers plus, for outside placement,
//! the `s` external global-parity buffers.

use stair_code::{CellLookup, CodeError, Lent, StripeBuf};

use crate::layout::{Cell, CellKind, Layout};
use crate::{Config, GlobalPlacement};

/// One stripe's worth of sectors.
///
/// Cell `(i, j)` is sector `i` of device `j`'s chunk. Data, row-parity, and
/// (for inside placement) global-parity sectors all live in this grid, at
/// the positions described by [`Layout`]. The grid itself is a flat
/// [`StripeBuf`] — one contiguous allocation shared with the codec-generic
/// [`stair_code::ErasureCode`] world, so stripes move between the two APIs
/// without copying.
///
/// # Example
///
/// ```
/// use stair::{Config, Stripe};
///
/// let config = Config::new(8, 4, 2, &[1, 1, 2])?;
/// let mut stripe = Stripe::new(config, 512)?;
/// assert_eq!(stripe.data_capacity(), (4 * 6 - 4) * 512);
/// let payload = vec![7u8; stripe.data_capacity()];
/// stripe.write_data(&payload)?;
/// assert_eq!(stripe.read_data(), payload);
/// # Ok::<(), stair_code::CodeError>(())
/// ```
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Stripe {
    config: Config,
    layout: Layout,
    /// The `r × n` sector grid, flat and contiguous.
    grid: StripeBuf,
    /// Outside placement only: the `s` global-parity buffers, in the
    /// `(l, h)` order of [`Layout::outside_global_cells`].
    outside_globals: Vec<Vec<u8>>,
}

impl Stripe {
    /// Allocates a zeroed stripe with the given sector (symbol) size.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::ShapeMismatch`] if `symbol_size` is zero.
    pub fn new(config: Config, symbol_size: usize) -> Result<Self, CodeError> {
        let grid = StripeBuf::new(config.r(), config.n(), symbol_size)?;
        let layout = Layout::new(&config);
        let globals = match config.placement() {
            GlobalPlacement::Outside => vec![vec![0u8; symbol_size]; config.s()],
            GlobalPlacement::Inside => Vec::new(),
        };
        Ok(Stripe {
            config,
            layout,
            grid,
            outside_globals: globals,
        })
    }

    /// The configuration this stripe was allocated for.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Bytes per sector.
    pub fn symbol_size(&self) -> usize {
        self.grid.symbol()
    }

    /// Total user-data bytes the stripe holds.
    pub fn data_capacity(&self) -> usize {
        self.config.data_symbols() * self.grid.symbol()
    }

    /// Borrows sector `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn cell(&self, row: usize, col: usize) -> &[u8] {
        assert!(
            row < self.config.r() && col < self.config.n(),
            "cell out of range"
        );
        self.grid.cell((row, col))
    }

    /// Mutably borrows sector `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn cell_mut(&mut self, row: usize, col: usize) -> &mut [u8] {
        assert!(
            row < self.config.r() && col < self.config.n(),
            "cell out of range"
        );
        self.grid.cell_mut((row, col))
    }

    /// The flat `r × n` sector grid.
    pub fn grid(&self) -> &StripeBuf {
        &self.grid
    }

    /// The outside global-parity buffers (empty for inside placement), in
    /// `(l, h)` order.
    pub fn outside_globals(&self) -> &[Vec<u8>] {
        &self.outside_globals
    }

    /// Writes a user payload across the data sectors in row-major order
    /// (skipping parity positions).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::ShapeMismatch`] unless
    /// `payload.len() == self.data_capacity()`.
    pub fn write_data(&mut self, payload: &[u8]) -> Result<(), CodeError> {
        if payload.len() != self.data_capacity() {
            return Err(CodeError::ShapeMismatch(format!(
                "payload is {} bytes, stripe holds {}",
                payload.len(),
                self.data_capacity()
            )));
        }
        let symbol = self.grid.symbol();
        for (chunk, (row, col)) in payload.chunks_exact(symbol).zip(self.layout.data_cells()) {
            self.cell_mut(row, col).copy_from_slice(chunk);
        }
        Ok(())
    }

    /// Reads the user payload back out of the data sectors.
    pub fn read_data(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data_capacity());
        for (row, col) in self.layout.data_cells() {
            out.extend_from_slice(self.cell(row, col));
        }
        out
    }

    /// Simulates sector loss: zero-fills each listed sector. (Decoding does
    /// not read erased cells, but zeroing makes accidental reads fail tests
    /// loudly.)
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidPattern`] for out-of-range or duplicate
    /// coordinates.
    pub fn erase(&mut self, erased: &[(usize, usize)]) -> Result<(), CodeError> {
        self.config.erasure_counts(erased)?; // validates
        for &(row, col) in erased {
            self.cell_mut(row, col).fill(0);
        }
        Ok(())
    }

    /// Fills every data sector from the RNG-free deterministic pattern
    /// `cell(i,j)[b] = (i·131 + j·197 + b·13 + seed) mod 256`; handy for
    /// tests and benchmarks that need distinct, reproducible content.
    pub fn fill_pattern(&mut self, seed: u8) {
        for (row, col) in self.layout.data_cells() {
            let base = (row.wrapping_mul(131)).wrapping_add(col.wrapping_mul(197)) as u8;
            let symbol = self.cell_mut(row, col);
            for (b, byte) in symbol.iter_mut().enumerate() {
                *byte = base
                    .wrapping_add((b as u8).wrapping_mul(13))
                    .wrapping_add(seed);
            }
        }
    }

    /// Classifies a stored cell (delegates to [`Layout::kind`]).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn kind(&self, row: usize, col: usize) -> CellKind {
        self.layout.kind((row, col))
    }
}

/// A stripe as a plan's lookup: the grid, plus the outside globals where
/// the placement stores them, as sources and as targets.
impl CellLookup for Stripe {
    fn symbol(&self) -> usize {
        self.grid.symbol()
    }

    fn source(&self, cell: Cell) -> Option<&[u8]> {
        if self.layout.is_stored(cell) {
            return self.grid.source(cell);
        }
        let at = self.layout.outside_global_index(cell)?;
        self.outside_globals.get(at).map(Vec::as_slice)
    }

    fn recovered(&mut self, cell: Cell, bytes: &[u8]) -> Result<(), CodeError> {
        let at = self.layout.outside_global_index(cell);
        match at.and_then(|at| self.outside_globals.get_mut(at)) {
            Some(global) if global.len() == bytes.len() => {
                global.copy_from_slice(bytes);
                Ok(())
            }
            _ => self.grid.recovered(cell, bytes),
        }
    }

    /// The grid lends what it holds; a plan that reads or writes the
    /// outside globals runs through `source` and `recovered`.
    fn lend(&mut self, sources: &[Cell], targets: &[Cell]) -> Option<Lent<'_>> {
        self.grid.lend(sources, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripe() -> Stripe {
        Stripe::new(Config::new(8, 4, 2, &[1, 1, 2]).unwrap(), 16).unwrap()
    }

    #[test]
    fn payload_round_trip_skips_parity_positions() {
        let mut s = stripe();
        let payload: Vec<u8> = (0..s.data_capacity()).map(|i| (i % 251) as u8).collect();
        s.write_data(&payload).unwrap();
        assert_eq!(s.read_data(), payload);
        // Inside-global position (3,3) must not hold payload bytes.
        assert_eq!(s.kind(3, 3), CellKind::InsideGlobal { h: 0, l: 0 });
        assert!(s.cell(3, 3).iter().all(|&b| b == 0));
    }

    #[test]
    fn wrong_payload_size_rejected() {
        let mut s = stripe();
        assert!(matches!(
            s.write_data(&[0u8; 3]),
            Err(CodeError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn erase_zeroes_cells_and_validates() {
        let mut s = stripe();
        s.fill_pattern(1);
        assert!(s.cell(0, 0).iter().any(|&b| b != 0));
        s.erase(&[(0, 0)]).unwrap();
        assert!(s.cell(0, 0).iter().all(|&b| b == 0));
        assert!(matches!(
            s.erase(&[(9, 0)]),
            Err(CodeError::InvalidPattern(_))
        ));
    }

    #[test]
    fn outside_placement_allocates_global_buffers() {
        let cfg = Config::with_placement(8, 4, 2, &[1, 1, 2], GlobalPlacement::Outside).unwrap();
        let s = Stripe::new(cfg, 16).unwrap();
        assert_eq!(s.outside_globals().len(), 4);
        assert_eq!(s.data_capacity(), 4 * 6 * 16);
    }

    #[test]
    fn zero_symbol_size_rejected() {
        let cfg = Config::new(8, 4, 2, &[1]).unwrap();
        assert!(matches!(
            Stripe::new(cfg, 0),
            Err(CodeError::ShapeMismatch(_))
        ));
    }
}
