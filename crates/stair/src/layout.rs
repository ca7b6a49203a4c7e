//! Coordinate mapping for the canonical stripe (Fig. 3 of the paper).
//!
//! The canonical stripe is the `(r + e_max) × (n + m')` product-code array:
//!
//! ```text
//!            col: 0 .. n−m−1 | n−m .. n−1   | n .. n+m'−1
//! row 0..r−1      data chunks| row parity   | intermediate parity
//! row r..r+e_max  virtual d* | virtual p*   | global parities g (stair)
//! ```
//!
//! With [`crate::GlobalPlacement::Inside`], `s` cells at the bottoms of the
//! `m'` rightmost *data* chunks hold the inside global parities `ĝ` instead
//! of data (Fig. 5), and the outside `g` cells are pinned to zero.

use crate::{Config, GlobalPlacement};

/// A cell of the canonical stripe, addressed as `(row, col)`.
///
/// Rows `0..r` and columns `0..n` are *stored* cells; everything else is
/// virtual (recomputed on demand, never stored).
pub type Cell = (usize, usize);

/// Classification of a canonical-stripe cell.
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub enum CellKind {
    /// A stored data sector `d_{i,j}`.
    Data,
    /// A stored row-parity sector `p_{i,k}` (device-level parity).
    RowParity,
    /// A stored inside global parity `ĝ_{h,l}` (inside placement only).
    InsideGlobal {
        /// Index within the `l`-th global-parity column, `0 ≤ h < e_l`.
        h: usize,
        /// Which of the `m'` global-parity columns, `0 ≤ l < m'`.
        l: usize,
    },
    /// A virtual intermediate parity `p'_{i,l}` (never stored).
    Intermediate,
    /// An outside global parity `g_{h,l}` in the augmented rows. Stored
    /// only with outside placement; pinned to zero with inside placement.
    OutsideGlobal {
        /// Row within the augmented block, `0 ≤ h < e_l`.
        h: usize,
        /// Which intermediate chunk it belongs to, `0 ≤ l < m'`.
        l: usize,
    },
    /// A virtual parity `d*_{h,j}` / `p*_{h,k}` in the augmented rows
    /// (never stored), or a dummy global-parity position (`el < e_max`).
    Virtual,
}

/// Index mapping between the paper's coordinates and linear buffer indices.
///
/// # Example
///
/// ```
/// use stair::{Config, Layout};
///
/// let cfg = Config::new(8, 4, 2, &[1, 1, 2])?;
/// let layout = Layout::new(&cfg);
/// // ĝ_{0,0} replaces the bottom sector of data chunk 3 (Fig. 5).
/// assert_eq!(layout.inside_global_cell(0, 0), (3, 3));
/// # Ok::<(), stair_code::CodeError>(())
/// ```
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct Layout {
    n: usize,
    r: usize,
    m: usize,
    e: Vec<usize>,
    placement: GlobalPlacement,
}

impl Layout {
    /// Builds the layout for a validated configuration.
    pub fn new(config: &Config) -> Self {
        Layout {
            n: config.n(),
            r: config.r(),
            m: config.m(),
            e: config.e().to_vec(),
            placement: config.placement(),
        }
    }

    /// Total rows of the canonical stripe, `r + e_max`.
    pub fn canonical_rows(&self) -> usize {
        self.r + self.e_max()
    }

    /// Total columns of the canonical stripe, `n + m'`.
    pub fn canonical_cols(&self) -> usize {
        self.n + self.e.len()
    }

    /// Number of devices `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Where the global parities live.
    pub(crate) fn placement(&self) -> GlobalPlacement {
        self.placement
    }

    /// Sectors per chunk `r`.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Tolerated device failures `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Largest element of `e`.
    pub fn e_max(&self) -> usize {
        *self.e.last().expect("e is non-empty")
    }

    /// Number of partially-failed chunks covered, `m' = e.len()`.
    pub fn m_prime(&self) -> usize {
        self.e.len()
    }

    /// Classifies a canonical cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is outside the canonical stripe.
    pub fn kind(&self, cell: Cell) -> CellKind {
        let (row, col) = cell;
        assert!(
            row < self.canonical_rows() && col < self.canonical_cols(),
            "cell ({row},{col}) outside the canonical stripe"
        );
        let m_prime = self.m_prime();
        if row < self.r {
            if col < self.n - self.m {
                if self.placement == GlobalPlacement::Inside {
                    if let Some((h, l)) = self.as_inside_global(cell) {
                        return CellKind::InsideGlobal { h, l };
                    }
                }
                CellKind::Data
            } else if col < self.n {
                CellKind::RowParity
            } else {
                CellKind::Intermediate
            }
        } else {
            let h = row - self.r;
            if col >= self.n {
                let l = col - self.n;
                debug_assert!(l < m_prime);
                if h < self.e[l] {
                    CellKind::OutsideGlobal { h, l }
                } else {
                    CellKind::Virtual // dummy global position
                }
            } else {
                CellKind::Virtual // d* or p*
            }
        }
    }

    /// If `cell` is an inside-global position, returns `(h, l)`.
    ///
    /// Inside globals occupy the bottom `e_l` sectors of data chunk
    /// `n − m − m' + l` (stair layout, Fig. 5).
    pub fn as_inside_global(&self, cell: Cell) -> Option<(usize, usize)> {
        let (row, col) = cell;
        let base = self.n - self.m - self.m_prime();
        if self.placement != GlobalPlacement::Inside || col < base || col >= self.n - self.m {
            return None;
        }
        let l = col - base;
        let el = self.e[l];
        if row >= self.r - el {
            Some((row - (self.r - el), l))
        } else {
            None
        }
    }

    /// The stored cell holding inside global parity `ĝ_{h,l}`.
    ///
    /// # Panics
    ///
    /// Panics if `l ≥ m'` or `h ≥ e_l`, or with outside placement.
    pub fn inside_global_cell(&self, h: usize, l: usize) -> Cell {
        assert_eq!(
            self.placement,
            GlobalPlacement::Inside,
            "inside placement required"
        );
        assert!(
            l < self.m_prime() && h < self.e[l],
            "ĝ index ({h},{l}) out of range"
        );
        let col = self.n - self.m - self.m_prime() + l;
        (self.r - self.e[l] + h, col)
    }

    /// Iterates the stored data cells in row-major order — the order in
    /// which [`crate::Stripe::write_data`] lays out user payload.
    pub fn data_cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for row in 0..self.r {
            for col in 0..self.n - self.m {
                if self.kind((row, col)) == CellKind::Data {
                    cells.push((row, col));
                }
            }
        }
        cells
    }

    /// Iterates every stored parity cell: row parities, plus inside globals
    /// under inside placement.
    pub fn parity_cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for row in 0..self.r {
            for col in 0..self.n {
                match self.kind((row, col)) {
                    CellKind::RowParity | CellKind::InsideGlobal { .. } => cells.push((row, col)),
                    _ => {}
                }
            }
        }
        cells
    }

    /// Every cell an encode writes: [`Layout::parity_cells`], then, where
    /// the placement stores them, [`Layout::outside_global_cells`].
    pub(crate) fn encode_targets(&self) -> Vec<Cell> {
        let mut cells = self.parity_cells();
        if self.placement == GlobalPlacement::Outside {
            cells.extend(self.outside_global_cells());
        }
        cells
    }

    /// All outside-global canonical cells `g_{h,l}` in `(l, h)` order.
    pub fn outside_global_cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for (l, &el) in self.e.iter().enumerate() {
            for h in 0..el {
                cells.push((self.r + h, self.n + l));
            }
        }
        cells
    }

    /// Where `cell` sits in [`Layout::outside_global_cells`] order, if it
    /// is an outside global `g_{h,l}`.
    pub(crate) fn outside_global_index(&self, (row, col): Cell) -> Option<usize> {
        let (h, l) = (row.checked_sub(self.r)?, col.checked_sub(self.n)?);
        let before: usize = self.e.get(..l)?.iter().sum();
        (h < *self.e.get(l)?).then_some(before + h)
    }

    /// True for cells that are stored on devices (`row < r`, `col < n`).
    pub fn is_stored(&self, cell: Cell) -> bool {
        cell.0 < self.r && cell.1 < self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_layout() -> Layout {
        Layout::new(&Config::new(8, 4, 2, &[1, 1, 2]).unwrap())
    }

    #[test]
    fn canonical_dimensions() {
        let l = paper_layout();
        assert_eq!(l.canonical_rows(), 6);
        assert_eq!(l.canonical_cols(), 11);
    }

    #[test]
    fn inside_global_positions_match_figure_5() {
        let l = paper_layout();
        // Fig. 5: ĝ_{0,0} at d_{3,3}, ĝ_{0,1} at d_{3,4}, ĝ_{0,2} at d_{2,5},
        // ĝ_{1,2} at d_{3,5}.
        assert_eq!(l.inside_global_cell(0, 0), (3, 3));
        assert_eq!(l.inside_global_cell(0, 1), (3, 4));
        assert_eq!(l.inside_global_cell(0, 2), (2, 5));
        assert_eq!(l.inside_global_cell(1, 2), (3, 5));
        assert_eq!(l.kind((3, 3)), CellKind::InsideGlobal { h: 0, l: 0 });
        assert_eq!(l.kind((2, 5)), CellKind::InsideGlobal { h: 0, l: 2 });
        assert_eq!(l.kind((1, 5)), CellKind::Data);
    }

    #[test]
    fn kinds_by_region() {
        let l = paper_layout();
        assert_eq!(l.kind((0, 0)), CellKind::Data);
        assert_eq!(l.kind((0, 6)), CellKind::RowParity);
        assert_eq!(l.kind((0, 7)), CellKind::RowParity);
        assert_eq!(l.kind((0, 8)), CellKind::Intermediate);
        assert_eq!(l.kind((4, 8)), CellKind::OutsideGlobal { h: 0, l: 0 });
        // e_0 = 1, so (5, 8) is a dummy global position.
        assert_eq!(l.kind((5, 8)), CellKind::Virtual);
        assert_eq!(l.kind((5, 10)), CellKind::OutsideGlobal { h: 1, l: 2 });
        assert_eq!(l.kind((4, 0)), CellKind::Virtual); // d*
        assert_eq!(l.kind((4, 6)), CellKind::Virtual); // p*
    }

    #[test]
    fn data_and_parity_cell_counts() {
        let l = paper_layout();
        assert_eq!(l.data_cells().len(), 4 * 6 - 4);
        // 2 parity chunks × 4 rows + 4 inside globals.
        assert_eq!(l.parity_cells().len(), 8 + 4);
        assert_eq!(l.outside_global_cells().len(), 4);
        for (i, &cell) in l.outside_global_cells().iter().enumerate() {
            assert_eq!(l.outside_global_index(cell), Some(i));
        }
        for cell in [(5, 8), (4, 0), (0, 8), (4, 11)] {
            assert_eq!(l.outside_global_index(cell), None, "{cell:?}");
        }
    }

    #[test]
    fn outside_placement_has_no_inside_globals() {
        let cfg = Config::with_placement(8, 4, 2, &[1, 1, 2], GlobalPlacement::Outside).unwrap();
        let l = Layout::new(&cfg);
        assert_eq!(l.kind((3, 3)), CellKind::Data);
        assert_eq!(l.data_cells().len(), 24);
        assert_eq!(l.parity_cells().len(), 8);
        assert_eq!(l.as_inside_global((3, 3)), None);
    }

    #[test]
    #[should_panic(expected = "outside the canonical stripe")]
    fn kind_out_of_bounds_panics() {
        let l = paper_layout();
        let _ = l.kind((6, 0));
    }
}
