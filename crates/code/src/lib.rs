//! The shared erasure-code vocabulary of the workspace.
//!
//! The STAIR paper's central claim is *comparative*: STAIR codes tolerate
//! the same device-plus-sector failure patterns as SD codes with less
//! space and cheaper updates, and both improve on plain Reed–Solomon.
//! Making that comparison on a real I/O path requires all three codecs to
//! speak one language. This crate defines that language; the codec crates
//! (`stair`, `stair-sd`) implement it, and `stair-store` consumes it.
//!
//! # The trait
//!
//! [`ErasureCode`] is the contract every codec satisfies:
//!
//! * [`ErasureCode::geometry`] — the stripe shape: `n` devices × `r`
//!   sectors, which cells hold data (in logical payload order) and which
//!   hold parity, and the advertised failure tolerance;
//! * [`ErasureCode::codec_id`] — which codec this is, as its plans
//!   record it;
//! * [`ErasureCode::encode`] — recompute every parity cell of a stripe;
//! * [`ErasureCode::plan_recover`] / [`ErasureCode::plan`] — turn an
//!   [`ErasureSet`] and the lost cells wanted back (all of them, for
//!   `plan`) into a reusable [`Plan`] that names the stored cells it
//!   reads ([`Plan::sources`]), so a degraded read loads those and not
//!   the stripe;
//! * [`ErasureCode::apply`] — execute a plan against one stripe.
//!   Provided: every codec's plan is the same concrete program of dot
//!   products, run by the one executor, [`Plan::execute`], which reads
//!   through a [`CellLookup`] — a [`StripeBuf`] here, only the sectors a
//!   degraded read loaded in `stair-store`;
//! * [`ErasureCode::dependents`] / [`ErasureCode::fold_delta`] — the
//!   small-write primitives: which parity cells a data cell's update
//!   patches, and `parity ^= c·(old ⊕ new)` for one of them. A caller
//!   that holds only those cells (the store's partial-stripe write) works
//!   from these directly;
//! * [`ErasureCode::update`] — the same over a whole [`StripeBuf`]:
//!   overwrite one data cell and patch its dependents in place, returning
//!   which parity cells were touched. Provided, so the delta arithmetic
//!   has one definition per codec.
//!
//! # The stripe buffer
//!
//! [`StripeBuf`] is the one stripe representation shared by every
//! implementation: a single contiguous allocation of `rows × cols ×
//! symbol` bytes, row-major, with `(row, col)` cell views. One row is
//! contiguous (`cols · symbol` bytes), so row-oriented codecs can split a
//! row into data and parity regions without copying. It replaces the
//! per-cell `Vec<Vec<u8>>` shapes the codec crates used to carry.
//!
//! # Addressing
//!
//! A [`CellIdx`] is `(row, col)`: sector `row` of device `col`'s chunk —
//! the paper's coordinates, identical across codecs. An [`ErasureSet`] is
//! a validated, sorted, duplicate-free set of erased cells.
//!
//! # Codec specs
//!
//! [`CodecSpec`] is the one-line grammar the store and CLI use to name a
//! codec (`stair dev init --code <spec>`):
//!
//! ```text
//! stair:n,r,m,e1-e2-...   e.g. stair:8,4,2,1-1-2
//! sd:n,r,m,s              e.g. sd:6,4,1,2
//! rs:n,r,m                e.g. rs:8,4,2
//! ```
//!
//! Specs round-trip through `Display`/`FromStr` and are embedded in the
//! store superblock, so a store directory records which codec wrote it.

// A no-panic zone: library code returns errors instead (tests may panic).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

mod buf;
mod erasure;
mod error;
mod geometry;
mod plan;
mod spec;
mod update;

pub use buf::StripeBuf;
pub use erasure::{CellIdx, ErasureSet};
pub use error::CodeError;
pub use geometry::Geometry;
pub use plan::{CellLookup, CodecId, Plan, PlanBuilder};
pub use spec::CodecSpec;
pub use update::UpdateMap;

/// The common interface every erasure code in the workspace implements.
///
/// Implementations operate on [`StripeBuf`] stripes of their
/// [`Geometry`]'s shape. All methods validate the buffer shape and return
/// [`CodeError::ShapeMismatch`] rather than panicking on foreign stripes.
pub trait ErasureCode: Send + Sync {
    /// The stripe geometry: shape, cell roles, and failure tolerance.
    fn geometry(&self) -> Geometry;

    /// Which codec this is: recorded in every plan it builds, and
    /// required of every plan it applies.
    fn codec_id(&self) -> &CodecId;

    /// Recomputes every parity cell from the data cells, in place.
    ///
    /// # Errors
    ///
    /// [`CodeError::ShapeMismatch`] if the buffer does not match the
    /// geometry.
    fn encode(&self, stripe: &mut StripeBuf) -> Result<(), CodeError>;

    /// Builds a reusable plan recovering every cell of `erased`:
    /// [`ErasureCode::plan_recover`] with everything wanted.
    ///
    /// # Errors
    ///
    /// * [`CodeError::InvalidPattern`] for out-of-range coordinates;
    /// * [`CodeError::Unrecoverable`] if the pattern exceeds the code's
    ///   capability.
    fn plan(&self, erased: &ErasureSet) -> Result<Plan, CodeError> {
        self.plan_recover(erased, erased.cells())
    }

    /// Builds a plan recovering only the `wanted` subset of `erased` — the
    /// degraded-read path. The plan does, and [`Plan::sources`] names,
    /// only what the wanted cells need (§4.2.1: "recover only the symbols
    /// that will later be used"), so a caller reads that much of the
    /// stripe and no more.
    ///
    /// # Errors
    ///
    /// As [`ErasureCode::plan`], plus [`CodeError::InvalidPattern`] if
    /// `wanted` is not a subset of `erased`.
    fn plan_recover(&self, erased: &ErasureSet, wanted: &[CellIdx]) -> Result<Plan, CodeError>;

    /// Executes a plan against one stripe, reconstructing the cells in
    /// [`Plan::recovers`] in place. Reads only [`Plan::sources`]: the
    /// one executor, [`Plan::execute`], with the stripe as its lookup.
    ///
    /// # Errors
    ///
    /// * [`CodeError::ShapeMismatch`] for foreign buffers;
    /// * [`CodeError::InvalidPattern`] if the plan was built by a
    ///   different codec ([`ErasureCode::codec_id`]).
    fn apply(&self, plan: &Plan, stripe: &mut StripeBuf) -> Result<(), CodeError> {
        let id = self.codec_id();
        stripe.check_shape(id.spec.r(), id.spec.n(), id.elem_bytes())?;
        plan.execute(id, stripe)
    }

    /// The parity cells an update of data cell `cell` patches — with
    /// `cell` itself, the footprint of a small write (§6.3's update
    /// penalty is this slice's length). Precomputed per codec.
    ///
    /// # Errors
    ///
    /// * [`CodeError::InvalidPattern`] if `cell` is out of range or not a
    ///   data cell;
    /// * [`CodeError::Unsupported`] if the codec's parities do not all
    ///   live in the `r × n` grid.
    fn dependents(&self, cell: CellIdx) -> Result<&[CellIdx], CodeError>;

    /// Folds the change `delta = old ⊕ new` of data cell `cell` into the
    /// contents `into` of its dependent `parity`: `into ^= c·delta`,
    /// with `c` the coefficient of `cell` in `parity`.
    ///
    /// # Errors
    ///
    /// * [`CodeError::InvalidPattern`] if `parity` is not one of
    ///   [`ErasureCode::dependents`]`(cell)`;
    /// * [`CodeError::ShapeMismatch`] if `delta` and `into` differ in
    ///   length or are not whole field elements.
    fn fold_delta(
        &self,
        cell: CellIdx,
        parity: CellIdx,
        delta: &[u8],
        into: &mut [u8],
    ) -> Result<(), CodeError>;

    /// Overwrites data cell `cell` with `new_contents` and patches every
    /// dependent parity cell in place, returning the parity cells touched
    /// (the realized update penalty, §6.3 of the paper).
    ///
    /// The stripe must already be consistently encoded; after the call it
    /// is again consistently encoded.
    ///
    /// # Errors
    ///
    /// * [`CodeError::InvalidPattern`] if `cell` is not a data cell;
    /// * [`CodeError::ShapeMismatch`] for foreign buffers or wrong-length
    ///   contents.
    fn update(
        &self,
        stripe: &mut StripeBuf,
        cell: CellIdx,
        new_contents: &[u8],
    ) -> Result<Vec<CellIdx>, CodeError> {
        let parities = self.dependents(cell)?;
        let geom = self.geometry();
        stripe.check_shape(geom.r, geom.n, 1)?;
        let delta = stripe.delta(cell, new_contents)?;
        // Parities first: a shape error fails every fold alike, so the
        // stripe is either fully updated or untouched.
        for &parity in parities {
            self.fold_delta(cell, parity, &delta, stripe.cell_mut(parity))?;
        }
        stripe.set_cell(cell, new_contents);
        Ok(parities.to_vec())
    }
}
