//! The HEVM's memory-likes: Code, Input, Memory, ReturnData (paper
//! Fig. 2), with per-partition layer-1 cache accounting.
//!
//! Each memory-like tracks its byte contents plus how many 1 KB pages it
//! occupies in the execution frame; accesses beyond the layer-1 cache
//! partition are layer-2 hits. The engine *counts* them
//! (`HevmStats::l1_misses`) but charges no virtual time for them yet
//! (ROADMAP item 4 (i)).

use tape_primitives::U256;

/// A byte-addressed, unaligned-access, volatile memory-like.
#[derive(Debug, Clone, Default)]
pub struct MemLike {
    data: Vec<u8>,
    /// Layer-1 cache partition size for this memory-like.
    cache_size: usize,
    /// Accesses that fell beyond the cache partition (layer-2 hits).
    l1_misses: u64,
}

impl MemLike {
    /// An empty memory-like with the given L1 partition size.
    pub fn new(cache_size: usize) -> Self {
        MemLike { data: Vec::new(), cache_size, l1_misses: 0 }
    }

    /// A memory-like pre-filled with `data` (Code and Input).
    pub fn with_data(data: Vec<u8>, cache_size: usize) -> Self {
        MemLike { data, cache_size, l1_misses: 0 }
    }

    /// Current length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Pages (1 KB) occupied in the execution frame.
    pub fn pages(&self, page_size: usize) -> usize {
        self.data.len().div_ceil(page_size)
    }

    /// Layer-1 misses recorded so far.
    pub fn l1_misses(&self) -> u64 {
        self.l1_misses
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Consumes into the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.data
    }

    #[inline]
    fn note_access(&mut self, offset: usize, len: usize) {
        if offset.saturating_add(len) > self.cache_size {
            self.l1_misses += 1;
        }
    }

    /// Expands to cover `offset..offset+len` (32-byte word aligned), like
    /// the reference memory.
    pub fn expand(&mut self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let end = offset.saturating_add(len).div_ceil(32) * 32;
        if end > self.data.len() {
            self.data.resize(end, 0);
        }
    }

    /// Size after covering `offset..offset+len`, without mutating.
    pub fn required_size(&self, offset: usize, len: usize) -> usize {
        if len == 0 {
            return self.data.len();
        }
        (offset.saturating_add(len).div_ceil(32) * 32).max(self.data.len())
    }

    /// Reads a 32-byte word, expanding.
    pub fn load_word(&mut self, offset: usize) -> U256 {
        self.expand(offset, 32);
        self.note_access(offset, 32);
        let mut buf = [0u8; 32];
        buf.copy_from_slice(&self.data[offset..offset + 32]);
        U256::from_be_bytes(buf)
    }

    /// Writes a 32-byte word, expanding.
    pub fn store_word(&mut self, offset: usize, value: U256) {
        self.expand(offset, 32);
        self.note_access(offset, 32);
        self.data[offset..offset + 32].copy_from_slice(&value.to_be_bytes());
    }

    /// Writes one byte, expanding.
    pub fn store_byte(&mut self, offset: usize, value: u8) {
        self.expand(offset, 1);
        self.note_access(offset, 1);
        self.data[offset] = value;
    }

    /// Writes a slice, expanding.
    pub fn store_slice(&mut self, offset: usize, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.expand(offset, bytes.len());
        self.note_access(offset, bytes.len());
        self.data[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// Copy-in with zero padding past the source end.
    pub fn store_padded(&mut self, offset: usize, src: &[u8], src_offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.expand(offset, len);
        self.note_access(offset, len);
        copy_padded(&mut self.data[offset..offset + len], src, src_offset);
    }

    /// Borrows `len` bytes, expanding.
    pub fn slice(&mut self, offset: usize, len: usize) -> &[u8] {
        if len == 0 {
            return &[];
        }
        self.expand(offset, len);
        self.note_access(offset, len);
        &self.data[offset..offset + len]
    }

    /// Reads `len` bytes into an owned buffer, expanding.
    pub fn load_slice(&mut self, offset: usize, len: usize) -> Vec<u8> {
        self.slice(offset, len).to_vec()
    }

    /// Overlap-safe internal copy (MCOPY).
    pub fn copy_within(&mut self, dst: usize, src: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.expand(dst.max(src), len);
        self.note_access(dst.max(src), len);
        self.data.copy_within(src..src + len, dst);
    }

    /// Reads a zero-padded byte at `offset` without expanding (code
    /// fetch).
    pub fn get(&self, offset: usize) -> Option<u8> {
        self.data.get(offset).copied()
    }
}

/// Fills `dst` from `src[src_offset..]`, zero-padding past the source
/// end. A `src_offset` at or beyond the end — the `usize::MAX` sentinel
/// for an offset that does not fit a `usize` included — reads as all
/// padding, never wrapping around to the buffer start.
pub(crate) fn copy_padded(dst: &mut [u8], src: &[u8], src_offset: usize) {
    let tail = src.get(src_offset..).unwrap_or(&[]);
    let copied = tail.len().min(dst.len());
    dst[..copied].copy_from_slice(&tail[..copied]);
    dst[copied..].fill(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_and_word_ops_match_reference_semantics() {
        let mut m = MemLike::new(4096);
        m.store_word(5, U256::from(0xFFu64));
        assert_eq!(m.load_word(5), U256::from(0xFFu64));
        assert_eq!(m.len(), 64); // 37 -> aligned 64
        assert_eq!(m.pages(1024), 1);
    }

    #[test]
    fn l1_miss_counting() {
        let mut m = MemLike::new(64);
        m.store_word(0, U256::ONE); // within cache
        assert_eq!(m.l1_misses(), 0);
        m.store_word(100, U256::ONE); // beyond the 64-byte partition
        assert_eq!(m.l1_misses(), 1);
        m.load_word(100);
        assert_eq!(m.l1_misses(), 2);
    }

    #[test]
    fn padded_copy() {
        let mut m = MemLike::new(1024);
        m.store_padded(0, &[1, 2], 1, 4);
        assert_eq!(&m.as_bytes()[..4], &[2, 0, 0, 0]);
        // Padding overwrites what was there, and a source longer than
        // the window is cut, not spilled.
        m.store_padded(0, &[9, 8, 7, 6, 5], 1, 2);
        assert_eq!(&m.as_bytes()[..4], &[8, 7, 0, 0]);
        m.store_padded(1, &[3], 1, 2);
        assert_eq!(&m.as_bytes()[..4], &[8, 0, 0, 0]);
    }

    #[test]
    fn padded_copy_sentinel_offset_reads_as_padding() {
        // `usize::MAX` stands for "offset does not fit": all zeros, no
        // wrap-around to the buffer start.
        let mut m = MemLike::new(1024);
        m.store_slice(0, &[0xAA; 8]);
        m.store_padded(2, &[1, 2, 3], usize::MAX, 4);
        assert_eq!(&m.as_bytes()[..8], &[0xAA, 0xAA, 0, 0, 0, 0, 0xAA, 0xAA]);
        m.store_padded(0, &[1, 2, 3], usize::MAX - 1, 2);
        assert_eq!(&m.as_bytes()[..2], &[0, 0]);
    }

    #[test]
    fn pages_accounting() {
        let mut m = MemLike::new(4096);
        assert_eq!(m.pages(1024), 0);
        m.expand(0, 1);
        assert_eq!(m.pages(1024), 1);
        m.expand(1024, 1);
        assert_eq!(m.pages(1024), 2);
    }

    #[test]
    fn zero_len_is_noop() {
        let mut m = MemLike::new(16);
        m.expand(1 << 40, 0);
        m.store_slice(1 << 40, &[]);
        assert_eq!(m.len(), 0);
        assert_eq!(m.l1_misses(), 0);
    }
}
