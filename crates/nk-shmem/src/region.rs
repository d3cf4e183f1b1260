//! The shared hugepage region and its chunk allocator.

// nk-lint: allow-file(cross-shard-locks) — the region is shared between a
// guest and the NSMs of one host, and a host and all its components are
// polled by one worker, so the Mutexes serialise same-shard borrows only;
// no cross-shard data ever crosses them (`uplink_pair` is the only
// cross-shard channel).

use nk_types::constants::HUGEPAGE_SIZE;
use nk_types::{DataHandle, NkError, NkResult};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Allocation granularity: chunks are rounded up to one cache line so
/// adjacent payloads never share a line (false sharing would defeat the
/// lockless design).
const ALIGN: usize = 64;

/// Statistics about a hugepage region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegionStats {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Bytes currently allocated (after alignment rounding).
    pub used: usize,
    /// Number of live chunks.
    pub chunks: usize,
    /// Total allocations performed over the region's lifetime.
    pub total_allocs: u64,
    /// Allocation failures (region exhausted or fragmented).
    pub failed_allocs: u64,
}

struct Allocator {
    /// Free extents keyed by offset → length. Invariant: extents are
    /// non-overlapping, non-adjacent (coalesced) and aligned.
    free: BTreeMap<usize, usize>,
    /// Live chunks keyed by offset → rounded length.
    live: BTreeMap<usize, usize>,
    used: usize,
    total_allocs: u64,
    failed_allocs: u64,
}

impl Allocator {
    fn new(capacity: usize) -> Self {
        let mut free = BTreeMap::new();
        free.insert(0, capacity);
        Allocator {
            free,
            live: BTreeMap::new(),
            used: 0,
            total_allocs: 0,
            failed_allocs: 0,
        }
    }

    fn alloc(&mut self, len: usize) -> Option<usize> {
        let rounded = round_up(len.max(1));
        // First fit over the free extents.
        let slot = self
            .free
            .iter()
            .find(|(_, &flen)| flen >= rounded)
            .map(|(&off, &flen)| (off, flen));
        let (off, flen) = match slot {
            Some(s) => s,
            None => {
                self.failed_allocs += 1;
                return None;
            }
        };
        self.free.remove(&off);
        if flen > rounded {
            self.free.insert(off + rounded, flen - rounded);
        }
        self.live.insert(off, rounded);
        self.used += rounded;
        self.total_allocs += 1;
        Some(off)
    }

    fn free(&mut self, off: usize) -> NkResult<usize> {
        let len = self.live.remove(&off).ok_or(NkError::NotFound)?;
        self.used -= len;
        // Insert and coalesce with neighbours.
        let mut start = off;
        let mut end = off + len;
        if let Some((&prev_off, &prev_len)) = self.free.range(..off).next_back() {
            if prev_off + prev_len == start {
                self.free.remove(&prev_off);
                start = prev_off;
            }
        }
        if let Some(&next_len) = self.free.get(&end) {
            self.free.remove(&end);
            end += next_len;
        }
        self.free.insert(start, end - start);
        Ok(len)
    }
}

fn round_up(len: usize) -> usize {
    len.div_ceil(ALIGN) * ALIGN
}

struct Inner {
    data: Mutex<Box<[u8]>>,
    alloc: Mutex<Allocator>,
    capacity: usize,
}

/// A shared hugepage region between one VM and one NSM.
///
/// The region is cheaply clonable (`Arc` inside); GuestLib and ServiceLib each
/// hold a clone, mirroring the paper's mmap of the same IVSHMEM pages into
/// both guests.
#[derive(Clone)]
pub struct HugepageRegion {
    inner: Arc<Inner>,
}

impl HugepageRegion {
    /// Create a region of `pages` hugepages of 2 MB each.
    pub fn new(pages: usize) -> Self {
        Self::with_capacity(pages * HUGEPAGE_SIZE)
    }

    /// Create a region with an explicit byte capacity (useful for tests).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = round_up(capacity.max(ALIGN));
        HugepageRegion {
            inner: Arc::new(Inner {
                data: Mutex::new(vec![0u8; capacity].into_boxed_slice()),
                alloc: Mutex::new(Allocator::new(capacity)),
                capacity,
            }),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Allocate a chunk of at least `len` bytes.
    pub fn alloc(&self, len: usize) -> NkResult<DataHandle> {
        if len > self.inner.capacity {
            return Err(NkError::OutOfHugepages);
        }
        let mut a = self.inner.alloc.lock();
        a.alloc(len)
            .map(|off| DataHandle::from_offset(off as u64))
            .ok_or(NkError::OutOfHugepages)
    }

    /// Free a chunk previously returned by [`HugepageRegion::alloc`].
    pub fn free(&self, handle: DataHandle) -> NkResult<()> {
        if handle.is_null() {
            return Err(NkError::NotFound);
        }
        self.inner.alloc.lock().free(handle.offset() as usize)?;
        Ok(())
    }

    /// Copy `data` into the chunk at `handle`.
    ///
    /// Fails when the handle is unknown or the data is larger than the chunk.
    pub fn write(&self, handle: DataHandle, data: &[u8]) -> NkResult<()> {
        let off = handle.offset() as usize;
        let len = {
            let a = self.inner.alloc.lock();
            *a.live.get(&off).ok_or(NkError::NotFound)?
        };
        if data.len() > len {
            return Err(NkError::InvalidState);
        }
        let mut buf = self.inner.data.lock();
        buf[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Copy `out.len()` bytes from the chunk at `handle` into `out`.
    pub fn read(&self, handle: DataHandle, out: &mut [u8]) -> NkResult<()> {
        let off = handle.offset() as usize;
        let len = {
            let a = self.inner.alloc.lock();
            *a.live.get(&off).ok_or(NkError::NotFound)?
        };
        if out.len() > len {
            return Err(NkError::InvalidState);
        }
        let buf = self.inner.data.lock();
        out.copy_from_slice(&buf[off..off + out.len()]);
        Ok(())
    }

    /// Allocate a chunk, copy `data` into it and return the handle — the
    /// common GuestLib `send()` path (§4.5 "Sending Data").
    pub fn alloc_and_write(&self, data: &[u8]) -> NkResult<DataHandle> {
        let handle = self.alloc(data.len())?;
        // Write cannot fail: the chunk was just allocated with sufficient
        // length, but free it defensively if it somehow does.
        if let Err(e) = self.write(handle, data) {
            let _ = self.free(handle);
            return Err(e);
        }
        Ok(handle)
    }

    /// Read `len` bytes from `handle` into a fresh vector and free the chunk —
    /// the common receive path once the application consumed the data.
    pub fn read_and_free(&self, handle: DataHandle, len: usize) -> NkResult<Vec<u8>> {
        let mut out = vec![0u8; len];
        self.read(handle, &mut out)?;
        self.free(handle)?;
        Ok(out)
    }

    /// Copy `len` bytes from a chunk in this region into a chunk of another
    /// region (or the same one). This is the shared-memory NSM's fast path
    /// (§6.4): payload moves hugepage-to-hugepage without touching a TCP
    /// stack.
    pub fn copy_to(
        &self,
        src: DataHandle,
        dst_region: &HugepageRegion,
        dst: DataHandle,
        len: usize,
    ) -> NkResult<()> {
        let mut tmp = vec![0u8; len];
        self.read(src, &mut tmp)?;
        dst_region.write(dst, &tmp)
    }

    /// Current statistics.
    pub fn stats(&self) -> RegionStats {
        let a = self.inner.alloc.lock();
        RegionStats {
            capacity: self.inner.capacity,
            used: a.used,
            chunks: a.live.len(),
            total_allocs: a.total_allocs,
            failed_allocs: a.failed_allocs,
        }
    }

    /// Bytes currently available for allocation.
    pub fn available(&self) -> usize {
        let a = self.inner.alloc.lock();
        self.inner.capacity - a.used
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read_roundtrip() {
        let region = HugepageRegion::with_capacity(4096);
        let payload = b"hello netkernel".to_vec();
        let h = region.alloc_and_write(&payload).unwrap();
        let mut out = vec![0u8; payload.len()];
        region.read(h, &mut out).unwrap();
        assert_eq!(out, payload);
        region.free(h).unwrap();
        assert_eq!(region.stats().chunks, 0);
    }

    #[test]
    fn read_and_free_returns_data_and_releases() {
        let region = HugepageRegion::with_capacity(4096);
        let h = region.alloc_and_write(b"abc").unwrap();
        let data = region.read_and_free(h, 3).unwrap();
        assert_eq!(data, b"abc");
        assert_eq!(region.available(), region.capacity());
        assert_eq!(region.read(h, &mut [0u8; 1]), Err(NkError::NotFound));
    }

    #[test]
    fn exhaustion_reports_out_of_hugepages() {
        let region = HugepageRegion::with_capacity(256);
        let _a = region.alloc(128).unwrap();
        let _b = region.alloc(128).unwrap();
        assert_eq!(region.alloc(64), Err(NkError::OutOfHugepages));
        assert_eq!(region.stats().failed_allocs, 1);
        assert_eq!(region.alloc(1 << 30), Err(NkError::OutOfHugepages));
    }

    #[test]
    fn free_coalesces_neighbours() {
        let region = HugepageRegion::with_capacity(1024);
        let a = region.alloc(256).unwrap();
        let b = region.alloc(256).unwrap();
        let c = region.alloc(256).unwrap();
        region.free(b).unwrap();
        region.free(a).unwrap();
        region.free(c).unwrap();
        // After freeing everything a full-size allocation must succeed again.
        let big = region.alloc(1024).unwrap();
        region.free(big).unwrap();
    }

    #[test]
    fn double_free_is_rejected() {
        let region = HugepageRegion::with_capacity(1024);
        let a = region.alloc(64).unwrap();
        region.free(a).unwrap();
        assert_eq!(region.free(a), Err(NkError::NotFound));
        assert_eq!(region.free(DataHandle::NULL), Err(NkError::NotFound));
    }

    #[test]
    fn oversized_write_and_read_are_rejected() {
        let region = HugepageRegion::with_capacity(1024);
        let h = region.alloc(64).unwrap();
        assert_eq!(region.write(h, &[0u8; 100]), Err(NkError::InvalidState));
        assert_eq!(region.read(h, &mut [0u8; 100]), Err(NkError::InvalidState));
    }

    #[test]
    fn cross_region_copy() {
        let src_region = HugepageRegion::with_capacity(4096);
        let dst_region = HugepageRegion::with_capacity(4096);
        let src = src_region.alloc_and_write(b"colocated vm payload").unwrap();
        let dst = dst_region.alloc(32).unwrap();
        src_region.copy_to(src, &dst_region, dst, 20).unwrap();
        let mut out = vec![0u8; 20];
        dst_region.read(dst, &mut out).unwrap();
        assert_eq!(&out, b"colocated vm payload");
    }

    #[test]
    fn clones_share_the_same_storage() {
        let guest_side = HugepageRegion::with_capacity(4096);
        let nsm_side = guest_side.clone();
        let h = guest_side.alloc_and_write(b"shared").unwrap();
        let mut out = vec![0u8; 6];
        nsm_side.read(h, &mut out).unwrap();
        assert_eq!(&out, b"shared");
    }

    #[test]
    fn default_region_matches_paper_sizing() {
        let region = HugepageRegion::new(2);
        assert_eq!(region.capacity(), 2 * HUGEPAGE_SIZE);
    }
}
