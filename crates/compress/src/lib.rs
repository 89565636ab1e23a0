//! `monster-compress` — a from-scratch DEFLATE-family codec ("mzlib").
//!
//! The paper's final optimization (§IV-B4, Figs. 18–19) compresses Metrics
//! Builder JSON responses with zlib before transmission, shrinking payloads
//! to ≈5 % and roughly doubling end-to-end response speed. The workspace
//! builds its own codec in the same family: LZ77 sliding-window matching
//! (32 KiB window, matches up to 258 bytes) followed by canonical Huffman
//! entropy coding, framed with an Adler-32 integrity checksum.
//!
//! The container format ("MZ2") is private to MonSTer — both producer and
//! consumer live in this workspace — but the compression machinery is the
//! real thing: hash-chain match search with lazy evaluation and a
//! cost-aware acceptance rule, length/distance symbol alphabets with extra
//! bits, and canonical code tables per 128 KiB block. Blocks are cut at
//! fixed input offsets and share nothing but the 32 KiB of input before
//! them, so large inputs are compressed on every core and the bytes do not
//! depend on how many there were (DESIGN.md "Response compression").
//!
//! # Quick use
//!
//! ```
//! use monster_compress::{compress, decompress, Level};
//! let data = br#"{"nodes": [{"power": 273.8}, {"power": 273.8}]}"#.repeat(50);
//! let packed = compress(&data, Level::default());
//! assert!(packed.len() < data.len() / 4);
//! assert_eq!(decompress(&packed).unwrap(), data);
//! ```

#![warn(missing_docs)]

mod adler;
pub mod bitio;
mod format;
mod huffman;
mod lz77;

pub use adler::adler32;
pub use format::{compress, decompress, decompress_within, CompressStats};
pub use lz77::Level;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_shape_holds() {
        let data = br#"{"nodes": [{"power": 273.8}]}"#.repeat(100);
        let packed = compress(&data, Level::default());
        assert!(packed.len() < data.len() / 4);
        assert_eq!(decompress(&packed).unwrap(), data);
    }
}
