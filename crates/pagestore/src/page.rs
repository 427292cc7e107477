//! Fixed-size pages and their byte-level codec.
//!
//! Page size is 8 KiB — the R*-tree node size used in Beckmann-era setups;
//! with a 6-dimensional feature space this yields a branching factor in the
//! tens, matching the paper's index geometry.

use std::fmt;

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page on a [`crate::Disk`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Sentinel meaning "no page".
    pub const INVALID: PageId = PageId(u32::MAX);

    /// True unless this is the [`INVALID`](Self::INVALID) sentinel.
    pub fn is_valid(self) -> bool {
        self != Self::INVALID
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(f, "P{}", self.0)
        } else {
            write!(f, "P<invalid>")
        }
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A heap-allocated page buffer with bounds-checked little-endian accessors.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl Page {
    /// A page of all zeroes.
    pub fn zeroed() -> Self {
        Self {
            data: vec![0u8; PAGE_SIZE]
                .into_boxed_slice()
                .try_into()
                .expect("sized"),
        }
    }

    /// Raw bytes.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable raw bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    /// Reads a `u16` at `off`.
    pub fn get_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.data[off..off + 2].try_into().expect("in bounds"))
    }

    /// Writes a `u16` at `off`.
    pub fn put_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u32` at `off`.
    pub fn get_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.data[off..off + 4].try_into().expect("in bounds"))
    }

    /// Writes a `u32` at `off`.
    pub fn put_u32(&mut self, off: usize, v: u32) {
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a `u64` at `off`.
    pub fn get_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.data[off..off + 8].try_into().expect("in bounds"))
    }

    /// Writes a `u64` at `off`.
    pub fn put_u64(&mut self, off: usize, v: u64) {
        self.data[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads an `f64` at `off`.
    pub fn get_f64(&self, off: usize) -> f64 {
        f64::from_bits(self.get_u64(off))
    }

    /// Writes an `f64` at `off`.
    pub fn put_f64(&mut self, off: usize, v: f64) {
        self.put_u64(off, v.to_bits());
    }

    /// Copies a byte slice into the page at `off`.
    pub fn put_bytes(&mut self, off: usize, src: &[u8]) {
        self.data[off..off + src.len()].copy_from_slice(src);
    }

    /// Borrows `len` bytes at `off`.
    pub fn get_bytes(&self, off: usize, len: usize) -> &[u8] {
        &self.data[off..off + len]
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nonzero = self.data.iter().filter(|b| **b != 0).count();
        write!(f, "Page({nonzero}/{PAGE_SIZE} nonzero bytes)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_roundtrips() {
        let mut p = Page::zeroed();
        p.put_u16(0, 0xBEEF);
        p.put_u32(2, 0xDEAD_BEEF);
        p.put_u64(6, u64::MAX - 7);
        p.put_f64(14, -123.456e78);
        assert_eq!(p.get_u16(0), 0xBEEF);
        assert_eq!(p.get_u32(2), 0xDEAD_BEEF);
        assert_eq!(p.get_u64(6), u64::MAX - 7);
        assert_eq!(p.get_f64(14), -123.456e78);
    }

    #[test]
    fn nan_survives_bit_roundtrip() {
        let mut p = Page::zeroed();
        p.put_f64(0, f64::NAN);
        assert!(p.get_f64(0).is_nan());
        p.put_f64(0, f64::NEG_INFINITY);
        assert_eq!(p.get_f64(0), f64::NEG_INFINITY);
    }

    #[test]
    fn bytes_roundtrip_at_tail() {
        let mut p = Page::zeroed();
        let payload = [1u8, 2, 3, 4, 5];
        p.put_bytes(PAGE_SIZE - 5, &payload);
        assert_eq!(p.get_bytes(PAGE_SIZE - 5, 5), payload);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        let mut p = Page::zeroed();
        p.put_u64(PAGE_SIZE - 4, 1);
    }

    #[test]
    fn invalid_page_id() {
        assert!(!PageId::INVALID.is_valid());
        assert!(PageId(0).is_valid());
        assert_eq!(format!("{}", PageId(7)), "P7");
        assert_eq!(format!("{}", PageId::INVALID), "P<invalid>");
    }
}
