//! Integer wavelet transforms for the modified sliding window architecture.
//!
//! This crate implements the transform substrate of
//! *"A Modified Sliding Window Architecture for Efficient BRAM Resource
//! Utilization"* (Qasaimeh, Zambreno, Jones — IPDPS RAW 2017):
//!
//! * the **integer Haar wavelet transform** (also known as the S-transform),
//!   which the paper's IWT / IIWT hardware blocks compute (Section V-A / V-D,
//!   Figures 5 and 10). The transform is exactly reversible over the integers,
//!   which is what makes the paper's *lossless* compression mode possible.
//! * the **LeGall 5/3 integer wavelet**, which the paper mentions as a rejected
//!   design alternative ("We also chose the Haar wavelet transform instead of
//!   other transformations like 5/3 and 7/9 for the same reasons"). It is
//!   implemented here so the ablation benchmark can quantify that choice.
//! * **multi-level** 2-D decompositions, which the paper evaluated and
//!   rejected ("using 2 or 3 levels of decomposition did not increase the
//!   compression ratio significantly") — again reproduced as an ablation.
//!
//! # Conventions
//!
//! Coefficients are carried as [`Coeff`] (`i16`). The paper treats
//! coefficients as 8-bit values, but for 8-bit input pixels the Haar high-pass
//! output spans ±255 (9 bits) and a second horizontal stage applied to
//! high-pass values spans ±510 (10 bits); `i16` is the smallest integer type
//! that makes the lossless path *actually* lossless for arbitrary inputs.
//! See `DESIGN.md` ("Coefficient width") for the full discussion.
//!
//! All division by two inside the lifting steps is the **arithmetic shift
//! right** (`>> 1`, i.e. floor division), exactly matching the paper's
//! hardware which implements `/2` "as a shift right by 1".
//!
//! # Paper erratum
//!
//! The paper's inverse equations (3)–(4) read
//! `X(i,j+1) = H(i,j)/2 − L(i,j)`, which negates the reconstruction and does
//! not invert equations (1)–(2). This crate implements the algebraically
//! correct S-transform inverse (`X2 = L − (H >> 1)`, `X1 = X2 + H`); the
//! property tests in this crate prove exact round-trips over the full input
//! range.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod haar;
pub mod haar2d;
pub mod lanes;
pub mod legall;
pub mod multilevel;
pub mod sample;
pub mod subband;

pub use haar::{haar_fwd_pair, haar_inv_pair, HaarLifter};
pub use haar2d::{
    haar2d_fwd_quad, haar2d_inv_quad, ColumnPairInverse, ColumnPairTransformer, Quad,
};
pub use sample::Sample;
pub use subband::{SubBand, SubbandPlanes};

/// Integer type carrying wavelet coefficients.
///
/// Wide enough for two cascaded Haar lifting stages applied to `u8` pixels
/// (worst case ±510, 10 bits two's complement) with ample headroom for the
/// multi-level ablations.
pub type Coeff = i16;

/// Integer type carrying input pixels (the paper uses 8-bit gray pixels).
pub type Pixel = u8;
