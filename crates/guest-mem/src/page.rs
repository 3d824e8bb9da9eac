//! Page-granularity address newtypes.
//!
//! Guest-physical addresses and page indices are distinct types
//! (C-NEWTYPE) so offsets into the guest memory file, page numbers, and
//! byte addresses can never be confused — the exact bug class the paper's
//! "inject the first page fault at the first byte" offset-translation trick
//! (§5.2.1) is prone to.

use std::fmt;

/// Size of one guest page in bytes (x86-64 base pages).
pub const PAGE_SIZE: usize = 4096;

/// Index of a guest-physical page (page frame number).
///
/// # Example
///
/// ```
/// use guest_mem::{GuestAddr, PageIdx};
///
/// let addr = GuestAddr::new(0x2037);
/// assert_eq!(addr.page(), PageIdx::new(2));
/// assert_eq!(addr.page_offset(), 0x37);
/// assert_eq!(PageIdx::new(2).base_addr(), GuestAddr::new(0x2000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageIdx(u64);

impl PageIdx {
    /// Creates a page index.
    pub const fn new(idx: u64) -> Self {
        PageIdx(idx)
    }

    /// Raw index value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// First byte address of this page.
    pub const fn base_addr(self) -> GuestAddr {
        GuestAddr(self.0 * PAGE_SIZE as u64)
    }

    /// Byte offset of this page inside the guest memory file.
    pub const fn file_offset(self) -> u64 {
        self.0 * PAGE_SIZE as u64
    }

    /// The next page.
    pub const fn next(self) -> PageIdx {
        PageIdx(self.0 + 1)
    }

    /// `self + n` pages.
    pub const fn add(self, n: u64) -> PageIdx {
        PageIdx(self.0 + n)
    }
}

impl fmt::Display for PageIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn:{}", self.0)
    }
}

impl From<PageIdx> for u64 {
    fn from(p: PageIdx) -> u64 {
        p.0
    }
}

/// A guest-physical byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GuestAddr(u64);

impl GuestAddr {
    /// Creates an address.
    pub const fn new(addr: u64) -> Self {
        GuestAddr(addr)
    }

    /// Raw address value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Page containing this address.
    pub const fn page(self) -> PageIdx {
        PageIdx(self.0 / PAGE_SIZE as u64)
    }

    /// Offset of this address within its page.
    pub const fn page_offset(self) -> usize {
        (self.0 % PAGE_SIZE as u64) as usize
    }

    /// `self + n` bytes.
    pub const fn add(self, n: u64) -> GuestAddr {
        GuestAddr(self.0 + n)
    }
}

impl fmt::Display for GuestAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpa:{:#x}", self.0)
    }
}

impl From<GuestAddr> for u64 {
    fn from(a: GuestAddr) -> u64 {
        a.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_page_math() {
        let a = GuestAddr::new(0);
        assert_eq!(a.page(), PageIdx::new(0));
        assert_eq!(a.page_offset(), 0);
        let b = GuestAddr::new(4095);
        assert_eq!(b.page(), PageIdx::new(0));
        assert_eq!(b.page_offset(), 4095);
        let c = GuestAddr::new(4096);
        assert_eq!(c.page(), PageIdx::new(1));
        assert_eq!(c.page_offset(), 0);
    }

    #[test]
    fn page_to_addr_round_trip() {
        for i in [0u64, 1, 7, 65535] {
            let p = PageIdx::new(i);
            assert_eq!(p.base_addr().page(), p);
            assert_eq!(p.file_offset(), i * 4096);
        }
        assert_eq!(PageIdx::new(3).next(), PageIdx::new(4));
        assert_eq!(PageIdx::new(3).add(5), PageIdx::new(8));
        assert_eq!(GuestAddr::new(10).add(6), GuestAddr::new(16));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", PageIdx::new(5)), "pfn:5");
        assert_eq!(format!("{}", GuestAddr::new(0x1000)), "gpa:0x1000");
        assert_eq!(u64::from(PageIdx::new(9)), 9);
        assert_eq!(u64::from(GuestAddr::new(9)), 9);
    }
}
