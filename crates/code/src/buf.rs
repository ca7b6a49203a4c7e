//! The flat stripe buffer shared by every codec.

use crate::{CellIdx, CellLookup, CodeError, Lent};

/// One stripe's worth of sectors in a single contiguous allocation.
///
/// Cell `(row, col)` is sector `row` of device `col`'s chunk, stored
/// row-major: the whole of row `i` occupies the contiguous byte range
/// `[i·cols·symbol, (i+1)·cols·symbol)`, with device `j`'s sector at
/// offset `j·symbol` within it. Row contiguity lets row-oriented codecs
/// split a row into data and parity regions without copying.
///
/// # Example
///
/// ```
/// use stair_code::StripeBuf;
///
/// let mut buf = StripeBuf::new(4, 8, 64)?;
/// buf.cell_mut((2, 3)).fill(0xA5);
/// assert!(buf.cell((2, 3)).iter().all(|&b| b == 0xA5));
/// assert!(buf.cell((0, 0)).iter().all(|&b| b == 0));
/// # Ok::<(), stair_code::CodeError>(())
/// ```
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct StripeBuf {
    rows: usize,
    cols: usize,
    symbol: usize,
    data: Vec<u8>,
}

impl StripeBuf {
    /// Allocates a zeroed `rows × cols` stripe with `symbol`-byte sectors.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::ShapeMismatch`] for a degenerate shape (any
    /// dimension zero) or a total size that overflows `usize`.
    pub fn new(rows: usize, cols: usize, symbol: usize) -> Result<Self, CodeError> {
        if rows == 0 || cols == 0 || symbol == 0 {
            return Err(CodeError::ShapeMismatch(format!(
                "stripe dimensions must be positive (got {rows}x{cols}, symbol {symbol})"
            )));
        }
        let total = rows
            .checked_mul(cols)
            .and_then(|c| c.checked_mul(symbol))
            .ok_or_else(|| {
                CodeError::ShapeMismatch(format!("stripe size {rows}x{cols}x{symbol} overflows"))
            })?;
        Ok(StripeBuf {
            rows,
            cols,
            symbol,
            data: vec![0u8; total],
        })
    }

    /// Rows (sectors per chunk, the code's `r`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns (devices per stripe, the code's `n`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bytes per sector.
    pub fn symbol(&self) -> usize {
        self.symbol
    }

    /// True if the buffer has the given shape.
    pub fn has_shape(&self, rows: usize, cols: usize) -> bool {
        self.rows == rows && self.cols == cols
    }

    /// Validates that the buffer is `rows × cols` with a symbol size that
    /// is a multiple of `elem_bytes` (the codec's field element size) —
    /// the common entry check of [`crate::ErasureCode`]'s methods.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::ShapeMismatch`] describing the mismatch.
    pub fn check_shape(
        &self,
        rows: usize,
        cols: usize,
        elem_bytes: usize,
    ) -> Result<(), CodeError> {
        if !self.has_shape(rows, cols) {
            return Err(CodeError::ShapeMismatch(format!(
                "stripe is {}x{}, code needs {rows}x{cols}",
                self.rows, self.cols
            )));
        }
        if !self.symbol.is_multiple_of(elem_bytes.max(1)) {
            return Err(CodeError::ShapeMismatch(format!(
                "symbol size {} is not a multiple of the field element size {elem_bytes}",
                self.symbol
            )));
        }
        Ok(())
    }

    /// The front half of a parity-delta update: validates the
    /// replacement contents' length and the cell coordinate and returns
    /// the XOR delta `old ⊕ new` an update plan reads for the cell (the
    /// buffer is not changed).
    ///
    /// # Errors
    ///
    /// * [`CodeError::ShapeMismatch`] on a length mismatch;
    /// * [`CodeError::InvalidPattern`] on out-of-range coordinates.
    pub fn delta(&self, cell: CellIdx, new_contents: &[u8]) -> Result<Vec<u8>, CodeError> {
        if new_contents.len() != self.symbol {
            return Err(CodeError::ShapeMismatch(format!(
                "sector update is {} bytes, sectors are {}",
                new_contents.len(),
                self.symbol
            )));
        }
        let (row, col) = cell;
        if row >= self.rows || col >= self.cols {
            return Err(CodeError::InvalidPattern(format!(
                "({row},{col}) out of range"
            )));
        }
        let mut delta = new_contents.to_vec();
        for (d, &o) in delta.iter_mut().zip(self.cell(cell)) {
            *d ^= o;
        }
        Ok(delta)
    }

    #[inline]
    fn offset(&self, (row, col): CellIdx) -> usize {
        assert!(
            row < self.rows && col < self.cols,
            "cell ({row},{col}) out of range for {}x{} stripe",
            self.rows,
            self.cols
        );
        (row * self.cols + col) * self.symbol
    }

    /// Borrows sector `cell`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    #[inline]
    pub fn cell(&self, cell: CellIdx) -> &[u8] {
        let at = self.offset(cell);
        &self.data[at..at + self.symbol]
    }

    /// Mutably borrows sector `cell`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    #[inline]
    pub fn cell_mut(&mut self, cell: CellIdx) -> &mut [u8] {
        let at = self.offset(cell);
        &mut self.data[at..at + self.symbol]
    }

    /// The contiguous bytes of one row: all `cols` sectors of sector-index
    /// `row` across the devices.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> &[u8] {
        let at = self.offset((row, 0));
        &self.data[at..at + self.cols * self.symbol]
    }

    /// The whole allocation, row-major.
    pub fn as_flat(&self) -> &[u8] {
        &self.data
    }

    /// Copies `src` into sector `cell`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates or a length mismatch.
    pub fn set_cell(&mut self, cell: CellIdx, src: &[u8]) {
        self.cell_mut(cell).copy_from_slice(src);
    }

    /// Zero-fills the listed cells (simulated loss; decoding never reads
    /// erased cells, but zeroing makes accidental reads fail tests loudly).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates.
    pub fn erase(&mut self, cells: &[CellIdx]) {
        for &c in cells {
            self.cell_mut(c).fill(0);
        }
    }

    /// Scatters `payload` across `cells` in order, one symbol per cell.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::ShapeMismatch`] unless
    /// `payload.len() == cells.len() · symbol`.
    pub fn write_cells(&mut self, cells: &[CellIdx], payload: &[u8]) -> Result<(), CodeError> {
        if payload.len() != cells.len() * self.symbol {
            return Err(CodeError::ShapeMismatch(format!(
                "payload is {} bytes, {} cells hold {}",
                payload.len(),
                cells.len(),
                cells.len() * self.symbol
            )));
        }
        for (chunk, &cell) in payload.chunks_exact(self.symbol).zip(cells) {
            self.set_cell(cell, chunk);
        }
        Ok(())
    }

    /// Gathers the listed cells, in order, into one contiguous payload.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates.
    pub fn read_cells(&self, cells: &[CellIdx]) -> Vec<u8> {
        let mut out = Vec::with_capacity(cells.len() * self.symbol);
        for &cell in cells {
            out.extend_from_slice(self.cell(cell));
        }
        out
    }
}

/// A whole stripe as a plan's lookup: every cell is a source, and
/// targets are written in place.
impl CellLookup for StripeBuf {
    fn symbol(&self) -> usize {
        self.symbol
    }

    fn source(&self, (row, col): CellIdx) -> Option<&[u8]> {
        (row < self.rows && col < self.cols).then(|| self.cell((row, col)))
    }

    fn recovered(&mut self, (row, col): CellIdx, bytes: &[u8]) -> Result<(), CodeError> {
        if row >= self.rows || col >= self.cols || bytes.len() != self.symbol {
            return Err(CodeError::InvalidPattern(format!(
                "({row},{col}) is not a cell of this {}x{} stripe",
                self.rows, self.cols
            )));
        }
        self.set_cell((row, col), bytes);
        Ok(())
    }

    fn lend(&mut self, sources: &[CellIdx], targets: &[CellIdx]) -> Option<Lent<'_>> {
        let (rows, cols) = (self.rows, self.cols);
        let mut cells: Vec<Option<&mut [u8]>> =
            self.data.chunks_exact_mut(self.symbol).map(Some).collect();
        let mut take = |(row, col): CellIdx| {
            let at = (row < rows && col < cols).then_some(row * cols + col)?;
            cells[at].take()
        };
        let targets: Option<Vec<&mut [u8]>> = targets.iter().map(|&c| take(c)).collect();
        let sources: Option<Vec<&[u8]>> = sources.iter().map(|&c| take(c).map(|s| &*s)).collect();
        Some((sources?, targets?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_validation() {
        assert!(StripeBuf::new(0, 8, 4).is_err());
        assert!(StripeBuf::new(4, 0, 4).is_err());
        assert!(StripeBuf::new(4, 8, 0).is_err());
        assert!(StripeBuf::new(usize::MAX, 2, 2).is_err());
        assert!(StripeBuf::new(4, 8, 16).is_ok());
    }

    #[test]
    fn cells_are_disjoint_views_of_one_allocation() {
        let mut buf = StripeBuf::new(2, 3, 4).unwrap();
        buf.cell_mut((0, 1)).fill(1);
        buf.cell_mut((1, 2)).fill(2);
        assert_eq!(buf.cell((0, 1)), &[1, 1, 1, 1]);
        assert_eq!(buf.cell((1, 2)), &[2, 2, 2, 2]);
        assert_eq!(buf.cell((0, 0)), &[0, 0, 0, 0]);
        // Row-major flat layout: row 0 = cells (0,0),(0,1),(0,2).
        assert_eq!(&buf.as_flat()[..12], &[0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0]);
        assert_eq!(buf.row(0), &buf.as_flat()[..12]);
    }

    #[test]
    fn write_read_cells_round_trip() {
        let mut buf = StripeBuf::new(2, 2, 2).unwrap();
        let cells = [(0, 0), (1, 1), (0, 1)];
        buf.write_cells(&cells, &[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(buf.read_cells(&cells), vec![1, 2, 3, 4, 5, 6]);
        assert!(buf.write_cells(&cells, &[0; 5]).is_err());
        buf.erase(&[(1, 1)]);
        assert_eq!(buf.cell((1, 1)), &[0, 0]);
    }

    #[test]
    fn lends_each_cell_once_in_the_order_asked() {
        let mut buf = StripeBuf::new(2, 2, 1).unwrap();
        buf.write_cells(&[(0, 0), (0, 1), (1, 0), (1, 1)], &[1, 2, 3, 4])
            .unwrap();
        let (sources, mut targets) = buf.lend(&[(1, 1), (0, 0)], &[(1, 0)]).unwrap();
        assert_eq!(sources, [&[4][..], &[1]]);
        targets[0][0] = 9;
        assert_eq!(buf.cell((1, 0)), &[9]);
        for (sources, targets) in [(&[(0, 0)][..], &[(0, 0)][..]), (&[(2, 0)], &[])] {
            assert!(
                buf.lend(sources, targets).is_none(),
                "{sources:?} {targets:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cell_panics() {
        let buf = StripeBuf::new(2, 2, 2).unwrap();
        let _ = buf.cell((2, 0));
    }
}
