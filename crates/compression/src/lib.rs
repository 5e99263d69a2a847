//! # compression — error-bounded lossy and lossless time-series codecs
//!
//! Implements the three pointwise error-bounded lossy compressors (PEBLC)
//! the paper evaluates — [`pmc::Pmc`], [`swing::Swing`] and [`sz::Sz`] —
//! plus the lossless [`gorilla::Gorilla`] baseline, on top of
//! from-scratch substrates:
//!
//! * [`bitstream`] — MSB-first bit I/O with word-level multi-bit fast
//!   paths.
//! * [`block`] — blocked bitpacking kernels (128-value lanes, zigzag,
//!   varint spills, word-backed bitsets) with a runtime-selected scalar
//!   fallback (DESIGN.md §11).
//! * [`huffman`] — canonical, length-limited Huffman coding.
//! * [`deflate`] — an LZ77 + Huffman lossless codec standing in for gzip
//!   (§3.2 applies gzip to every representation and to the raw data).
//! * [`timestamps`] — the shared timestamp header (§3.2).
//! * [`codec`] — the [`codec::PeblcCompressor`] trait, sizing rules (Eq. 3)
//!   and the paper's 13 error bounds.
//! * [`reader`] — the length-checked [`reader::ByteReader`] cursor every
//!   decode path is built on: malformed input is an error, never a panic
//!   (DESIGN.md §10).
//! * [`mutate`] — the seeded corpus mutator behind the decode-totality
//!   fuzz harness (`tests/fuzz_decode.rs` and the artifact fuzz in
//!   `evalcore`).
//!
//! PMC, Swing, Gorilla values and varbit timestamps each have exactly one
//! encoder, an online one that takes a point at a time
//! ([`StreamingPmc`], [`StreamingSwing`], [`gorilla::ValueAppender`],
//! [`timestamps::StreamAppender`]). The batch `compress` of each codec is
//! a fold over that encoder, and so are [`streaming::compress_source`]
//! and the store's chunk appends, so every path writes the same frame
//! bytes.
//!
//! All lossy compressors guarantee the *relative* pointwise bound of
//! Definition 4: `|v̂ - v| <= ε·|v|` for every point.
//!
//! ```
//! use compression::{Pmc, PeblcCompressor, find_bound_violation};
//! use tsdata::series::RegularTimeSeries;
//!
//! let series = RegularTimeSeries::new(0, 60, vec![10.0, 10.4, 10.1, 12.0]).unwrap();
//! let (decompressed, frame) = Pmc.transform(&series, 0.05).unwrap();
//! assert_eq!(decompressed.len(), series.len());
//! assert!(find_bound_violation(series.values(), decompressed.values(), 0.05, 1e-9).is_none());
//! assert!(frame.num_segments >= 1);
//! ```

pub mod bitstream;
pub mod block;
pub mod codec;
pub mod crc;
pub mod deflate;
pub mod gorilla;
pub mod huffman;
pub mod mutate;
pub mod pmc;
pub mod reader;
mod streaming;
pub mod swing;
pub mod sz;
pub mod timestamps;

pub use codec::{
    find_bound_violation, raw_bytes, raw_compressed_size, CodecError, CompressedSeries,
    PeblcCompressor, ERROR_BOUNDS,
};
pub use crc::crc32;
pub use gorilla::Gorilla;
pub use pmc::{Pmc, StreamingPmc};
pub use reader::ByteReader;
pub use streaming::compress_source;
pub use swing::{StreamingSwing, Swing};
pub use sz::Sz;

/// The three lossy methods in the paper's order, as trait objects.
pub fn all_lossy() -> Vec<Box<dyn PeblcCompressor>> {
    vec![Box::new(Pmc), Box::new(Swing), Box::new(Sz)]
}

/// Lossy method identifiers, matching [`all_lossy`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Poor Man's Compression (PMC-Mean).
    Pmc,
    /// Swing filter.
    Swing,
    /// SZ.
    Sz,
}

/// All lossy methods in the paper's order.
pub const ALL_METHODS: [Method; 3] = [Method::Pmc, Method::Swing, Method::Sz];

impl Method {
    /// Name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Method::Pmc => "PMC",
            Method::Swing => "SWING",
            Method::Sz => "SZ",
        }
    }

    /// Returns the compressor implementation.
    pub fn compressor(self) -> Box<dyn PeblcCompressor> {
        match self {
            Method::Pmc => Box::new(Pmc),
            Method::Swing => Box::new(Swing),
            Method::Sz => Box::new(Sz),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names_match_paper() {
        assert_eq!(Method::Pmc.name(), "PMC");
        assert_eq!(Method::Swing.name(), "SWING");
        assert_eq!(Method::Sz.name(), "SZ");
        assert_eq!(all_lossy().len(), 3);
    }

    #[test]
    fn method_dispatch_consistent() {
        for (m, c) in ALL_METHODS.iter().zip(all_lossy()) {
            assert_eq!(m.name(), c.name());
            assert_eq!(m.compressor().name(), c.name());
        }
    }
}
