//! The shared erasure-code vocabulary of the workspace.
//!
//! The STAIR paper's central claim is *comparative*: STAIR codes tolerate
//! the same device-plus-sector failure patterns as SD codes with less
//! space and cheaper updates, and both improve on plain Reed–Solomon.
//! Making that comparison on a real I/O path requires all three codecs to
//! speak one language. This crate defines that language; the codec crates
//! (`stair`, `stair-sd`) implement it, and `stair-store` consumes it.
//!
//! # The traits
//!
//! [`CodecCore`] is what a codec defines, and all it defines:
//!
//! * [`CodecCore::geometry`] — the stripe shape: `n` devices × `r`
//!   sectors, which cells hold data (in logical payload order) and which
//!   hold parity, and the advertised failure tolerance;
//! * [`CodecCore::codec_id`] — which codec this is, as its plans
//!   record it;
//! * [`CodecCore::encode_plan`] — the [`Plan`] that computes every
//!   parity cell from the data cells, built once at construction;
//! * [`CodecCore::plan_recover`] — turn an [`ErasureSet`] and the lost
//!   cells wanted back into a reusable [`Plan`] that names the stored
//!   cells it reads ([`Plan::sources`]), so a degraded read loads those
//!   and not the stripe;
//! * [`CodecCore::update_map`] — the small write: per data cell, the
//!   parity cells that depend on it and with what coefficient, built once
//!   at construction.
//!
//! [`ErasureCode`] is the contract every codec satisfies, written once
//! over that core by one blanket impl, so no codec can define (or
//! override) any of it:
//!
//! * [`ErasureCode::encode`] runs the encode plan over a stripe;
//! * [`ErasureCode::plan`] plans the recovery of every erased cell;
//! * [`ErasureCode::apply`] executes a plan against one stripe. Every
//!   codec's plans, for encode and decode alike, are the same concrete
//!   program of dot products, run by the one executor,
//!   [`Plan::execute`], which reads through a [`CellLookup`] — a
//!   [`StripeBuf`] here, only the sectors a degraded read loaded in
//!   `stair-store`;
//! * [`ErasureCode::dependents`] names a data cell's parities (with the
//!   cell itself, a small write's footprint), and
//!   [`ErasureCode::update_plan`] is the [`Plan`] that adds the changed
//!   cells' deltas `c·(old ⊕ new)` into the parities a caller holds, run
//!   by the same executor through the one [`Patch`] lookup — the store's
//!   partial-stripe write and [`ErasureCode::update`], which overwrites
//!   one data cell of a whole [`StripeBuf`] and returns the parity cells
//!   it touched.
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
//! # The MDS construction
//!
//! [`MdsCode`] is the systematic Cauchy Reed–Solomon `(η, κ)` code that
//! STAIR's `C_row`/`C_col` and the RS array are built from: a generator
//! and the coefficient matrices it solves, remembered. It touches no
//! bytes; the codecs lower its coefficients to [`Plan`] steps. Its
//! matrices are [`Matrix`], the workspace's one dense matrix over
//! GF(2^w), with one solver ([`Matrix::solve`]) that SD's check
//! equations use too.
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

use std::collections::BTreeMap;

mod buf;
mod erasure;
mod error;
mod geometry;
mod matrix;
mod mds;
mod plan;
mod spec;
mod update;

pub use buf::StripeBuf;
pub use erasure::{CellIdx, ErasureSet};
pub use error::CodeError;
pub use geometry::Geometry;
pub use matrix::Matrix;
pub use mds::MdsCode;
pub use plan::{CellLookup, CodecId, Lent, Plan, PlanBuilder};
pub use spec::CodecSpec;
pub use update::{Patch, UpdateMap};

/// What a codec defines: its shape, its identity, its encode plan, its
/// recovery planner and its small-write relation — and nothing else.
///
/// Every [`CodecCore`] is an [`ErasureCode`] through one blanket impl,
/// which writes the rest of the contract once over these five methods.
/// Implementations operate on [`StripeBuf`] stripes of their
/// [`Geometry`]'s shape, and return [`CodeError::ShapeMismatch`] rather
/// than panicking on foreign stripes.
pub trait CodecCore: Send + Sync {
    /// The stripe geometry: shape, cell roles, and failure tolerance.
    fn geometry(&self) -> Geometry;

    /// Which codec this is: recorded in every plan it builds, and
    /// required of every plan it applies.
    fn codec_id(&self) -> &CodecId;

    /// The plan that encodes a stripe, built once per codec: the data
    /// cells are its sources, the parity cells its targets (in
    /// [`Geometry::parity_cells`] order), and whatever a family computes
    /// on the way — STAIR's virtual cells — its intermediates. Its
    /// [`Plan::mult_xors`] is the codec's encoding cost (§5.3).
    ///
    /// # Errors
    ///
    /// [`CodeError::Unsupported`] if the codec's parities do not all live
    /// in the `r × n` grid.
    fn encode_plan(&self) -> Result<&Plan, CodeError>;

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

    /// The small-write relation: per data cell, the parity cells that
    /// depend on it and their coefficients (§6.3's update penalty is the
    /// number of them), built once per codec.
    ///
    /// # Errors
    ///
    /// [`CodeError::Unsupported`] if the codec's parities do not all live
    /// in the `r × n` grid.
    fn update_map(&self) -> Result<&UpdateMap, CodeError>;
}

/// The common interface every erasure code in the workspace offers:
/// encode, plan, apply and update, written once over [`CodecCore`].
///
/// A codec implements [`CodecCore`] and gets every method here from the
/// one blanket impl, so each runs [`Plan::execute`], the one executor. A
/// codec that writes its own encoder or decoder beside the plan does not
/// compile: its `impl ErasureCode` conflicts with the blanket impl.
///
/// ```compile_fail,E0119
/// # use stair_code::{CellIdx, CodeError, CodecCore, CodecId, ErasureCode, ErasureSet};
/// # use stair_code::{Geometry, Plan, StripeBuf, UpdateMap};
/// struct Fork {
///     id: CodecId,
///     encode: Plan,
///     updates: UpdateMap,
/// }
///
/// impl CodecCore for Fork {
///     fn geometry(&self) -> Geometry {
///         unimplemented!()
///     }
///     fn codec_id(&self) -> &CodecId {
///         &self.id
///     }
///     fn encode_plan(&self) -> Result<&Plan, CodeError> {
///         Ok(&self.encode)
///     }
///     fn plan_recover(&self, _: &ErasureSet, _: &[CellIdx]) -> Result<Plan, CodeError> {
///         unimplemented!()
///     }
///     fn update_map(&self) -> Result<&UpdateMap, CodeError> {
///         Ok(&self.updates)
///     }
/// }
///
/// impl ErasureCode for Fork {
///     fn encode(&self, _: &mut StripeBuf) -> Result<(), CodeError> {
///         Ok(())
///     }
///
///     fn apply(&self, _: &Plan, _: &mut StripeBuf) -> Result<(), CodeError> {
///         Ok(())
///     }
/// }
/// ```
///
/// And a codec without an encode plan does not compile:
///
/// ```compile_fail,E0046
/// # use stair_code::{CellIdx, CodeError, CodecCore, CodecId, ErasureSet};
/// # use stair_code::{Geometry, Plan, UpdateMap};
/// struct Legacy {
///     id: CodecId,
///     updates: UpdateMap,
/// }
///
/// impl CodecCore for Legacy {
///     fn geometry(&self) -> Geometry {
///         unimplemented!()
///     }
///     fn codec_id(&self) -> &CodecId {
///         &self.id
///     }
///     fn plan_recover(&self, _: &ErasureSet, _: &[CellIdx]) -> Result<Plan, CodeError> {
///         unimplemented!()
///     }
///     fn update_map(&self) -> Result<&UpdateMap, CodeError> {
///         Ok(&self.updates)
///     }
/// }
/// ```
pub trait ErasureCode: CodecCore {
    /// Recomputes every parity cell from the data cells, in place: the
    /// [`CodecCore::encode_plan`], applied to the stripe.
    ///
    /// # Errors
    ///
    /// * [`CodeError::ShapeMismatch`] if the buffer does not match the
    ///   geometry;
    /// * [`CodeError::Unsupported`] as [`CodecCore::encode_plan`].
    fn encode(&self, stripe: &mut StripeBuf) -> Result<(), CodeError> {
        self.apply(self.encode_plan()?, stripe)
    }

    /// Builds a reusable plan recovering every cell of `erased`:
    /// [`CodecCore::plan_recover`] with everything wanted.
    ///
    /// # Errors
    ///
    /// * [`CodeError::InvalidPattern`] for out-of-range coordinates;
    /// * [`CodeError::Unrecoverable`] if the pattern exceeds the code's
    ///   capability.
    fn plan(&self, erased: &ErasureSet) -> Result<Plan, CodeError> {
        self.plan_recover(erased, erased.cells())
    }

    /// Executes a plan against one stripe, reconstructing the cells in
    /// [`Plan::recovers`] in place. Reads only [`Plan::sources`]: the
    /// one executor, [`Plan::execute`], with the stripe as its lookup.
    ///
    /// # Errors
    ///
    /// * [`CodeError::ShapeMismatch`] for foreign buffers;
    /// * [`CodeError::InvalidPattern`] if the plan was built by a
    ///   different codec ([`CodecCore::codec_id`]).
    fn apply(&self, plan: &Plan, stripe: &mut StripeBuf) -> Result<(), CodeError> {
        let id = self.codec_id();
        stripe.check_shape(id.spec.r(), id.spec.n(), id.elem_bytes())?;
        plan.execute(id, stripe)
    }

    /// The parity cells an update of data cell `cell` patches — with
    /// `cell` itself, the footprint of a small write (§6.3's update
    /// penalty is this slice's length), in [`Geometry::parity_cells`]
    /// order.
    ///
    /// # Errors
    ///
    /// * [`CodeError::InvalidPattern`] if `cell` is out of range or not a
    ///   data cell;
    /// * [`CodeError::Unsupported`] as [`CodecCore::update_map`].
    fn dependents(&self, cell: CellIdx) -> Result<&[CellIdx], CodeError> {
        self.update_map()?.dependents(cell)
    }

    /// The plan of a small write that changed the data `cells`: it reads
    /// each as its delta `old ⊕ new` and adds `Σ c·Δ` into every
    /// dependent parity that lies `within` what the caller holds, one
    /// fused step per parity, through a [`Patch`]. Its
    /// [`Plan::mult_xors`] is the number of (cell, parity) pairs — for
    /// one cell, the length of [`ErasureCode::dependents`], and a plan
    /// built once ([`UpdateMap::plan`]) if all of them are held.
    ///
    /// # Errors
    ///
    /// As [`ErasureCode::dependents`], for any of `cells`.
    fn update_plan(
        &self,
        cells: &[CellIdx],
        within: &dyn Fn(CellIdx) -> bool,
    ) -> Result<std::borrow::Cow<'_, Plan>, CodeError> {
        self.update_map()?.plan(cells, within)
    }

    /// Overwrites data cell `cell` with `new_contents` and patches every
    /// dependent parity cell in place — the [`ErasureCode::update_plan`]
    /// of that one cell, run over the stripe's parities — returning the
    /// parity cells touched (the realized update penalty, §6.3 of the
    /// paper).
    ///
    /// The stripe must already be consistently encoded; after the call it
    /// is again consistently encoded.
    ///
    /// # Errors
    ///
    /// * [`CodeError::InvalidPattern`] if `cell` is not a data cell;
    /// * [`CodeError::ShapeMismatch`] for foreign buffers or wrong-length
    ///   contents;
    /// * [`CodeError::Unsupported`] as [`CodecCore::update_map`].
    fn update(
        &self,
        stripe: &mut StripeBuf,
        cell: CellIdx,
        new_contents: &[u8],
    ) -> Result<Vec<CellIdx>, CodeError> {
        let plan = self.update_plan(&[cell], &|_| true)?;
        let id = self.codec_id();
        stripe.check_shape(id.spec.r(), id.spec.n(), id.elem_bytes())?;
        let deltas = BTreeMap::from([(cell, stripe.delta(cell, new_contents)?)]);
        let symbol = stripe.symbol();
        // A stripe lends every cell of its shape; the patch refuses a
        // target it was not lent.
        let (_, parities) = stripe.lend(&[], plan.recovers()).unwrap_or_default();
        let parities = plan.recovers().iter().copied().zip(parities).collect();
        // The plan checks every shape before it patches a parity, so the
        // stripe is either fully updated or untouched.
        let mut patch = Patch {
            symbol,
            deltas: &deltas,
            parities,
        };
        plan.execute(id, &mut patch)?;
        stripe.set_cell(cell, new_contents);
        Ok(plan.recovers().to_vec())
    }
}

/// Every codec is an [`ErasureCode`] through this impl, and through no
/// other: a second one is E0119 (the `compile_fail` doctest on the
/// trait), so no codec overrides a provided method.
impl<T: CodecCore + ?Sized> ErasureCode for T {}
