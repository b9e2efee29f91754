//! The binary's global allocator: every allocation of 2 MiB or more — a
//! row arena, a dedup table, a regrowth of either, the pooling copy — is
//! an anonymous mapping of its own, 2 MiB-aligned and advised
//! `MADV_HUGEPAGE`, so the kernel can back it with transparent huge pages
//! and a million-row closure faults its memory in 2 MiB at a time rather
//! than 4 KiB at a time (DESIGN.md §8, EXPERIMENTS.md P26). A mapping
//! grows by moving its page tables onto a fresh aligned mapping of the
//! grown size, in one `mremap`, not by copying its bytes. Every smaller
//! allocation, and any layout aligned above 2 MiB, goes to `System`.
//!
//! `std` exposes none of the four system calls and the workspace takes no
//! third-party crates, so they are declared here, the way `benchmark/`
//! declares `wait4`: they resolve against the glibc `std` links, which
//! `.cargo/config.toml` links statically on x86_64 Linux. The flag values
//! are Linux's on x86_64 and aarch64, the only targets that compile this
//! module; everywhere else the binary keeps `System`.

#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::ptr;

/// The size from which an allocation gets a mapping of its own, and the
/// alignment and granularity of that mapping: one huge page.
const HUGE: usize = 2 << 20;

const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 2;
const MAP_ANONYMOUS: i32 = 0x20;
const MREMAP_MAYMOVE: i32 = 1;
const MREMAP_FIXED: i32 = 2;
const MADV_HUGEPAGE: i32 = 14;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    fn mremap(old: *mut u8, old_len: usize, new_len: usize, flags: i32, ...) -> *mut u8;
    fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
}

#[global_allocator]
static GLOBAL: HugePages = HugePages;

struct HugePages;

/// Whether an allocation of `layout` gets a mapping of its own.
fn is_huge(layout: Layout) -> bool {
    layout.size() >= HUGE && layout.align() <= HUGE
}

/// The bytes mapped for an allocation of `size` bytes: whole huge pages.
fn span(size: usize) -> usize {
    size.next_multiple_of(HUGE)
}

/// A fresh mapping of `len` bytes (whole huge pages) at a `HUGE`-aligned
/// address, advised for huge pages; null if the kernel refuses it.
fn map(len: usize) -> *mut u8 {
    let prot = PROT_READ | PROT_WRITE;
    // SAFETY: a mapping at an address of the kernel's choosing replaces
    // nothing. The two `munmap`s cut only its own misaligned ends — `lead`
    // bytes before `start` and `HUGE - lead` after `start + len`, both
    // whole pages since `mmap` returns a page-aligned address — and
    // `madvise` touches no byte.
    unsafe {
        // One huge page more than asked, then the misaligned ends unmapped.
        let raw = mmap(ptr::null_mut(), len + HUGE, prot, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if raw.addr() == usize::MAX {
            return ptr::null_mut();
        }
        let lead = raw.addr().next_multiple_of(HUGE) - raw.addr();
        let start = raw.add(lead);
        if lead > 0 {
            munmap(raw, lead);
        }
        munmap(start.add(len), HUGE - lead);
        // Under THP `never`, or without THP, the advice changes nothing.
        madvise(start, len, MADV_HUGEPAGE);
        start
    }
}

/// Moves the `old` mapped bytes at `from` onto `to`, in place of the
/// `new` bytes mapped there, as one mapping of `new` bytes; false if the
/// kernel refused.
///
/// # Safety
///
/// `from..from + old` and `to..to + new` are mappings this allocator made
/// and nothing else uses; they do not overlap.
unsafe fn move_pages(from: *mut u8, old: usize, new: usize, to: *mut u8) -> bool {
    // SAFETY: the caller owns both ranges; on success `from` is unmapped
    // and its pages are the head of `to`.
    unsafe { mremap(from, old, new, MREMAP_MAYMOVE | MREMAP_FIXED, to) == to }
}

/// Resizes the mapping of `old` bytes at `ptr`, whose first `size` bytes
/// are live, to `new` bytes. Returns the mapping's address, or null with
/// `ptr` untouched. `move_pages` is the page move; a test passes one that
/// refuses.
///
/// # Safety
///
/// `ptr..ptr + old` is a mapping made by `map` (or resized by this
/// function) that nothing else uses, `size <= old`, and `old` and `new`
/// are whole huge pages.
unsafe fn resize(
    ptr: *mut u8,
    size: usize,
    old: usize,
    new: usize,
    move_pages: unsafe fn(*mut u8, usize, usize, *mut u8) -> bool,
) -> *mut u8 {
    if new <= old {
        if new < old {
            // SAFETY: the tail past `new` is part of the caller's mapping.
            unsafe { munmap(ptr.add(new), old - new) };
        }
        return ptr;
    }
    // `to` only reserves an aligned address: the move replaces it whole,
    // and the grown block is one mapping, so the next grow moves one too.
    let to = map(new);
    // SAFETY: `to` is a fresh mapping of `new > old` bytes, so it cannot
    // overlap the caller's.
    if to.is_null() || unsafe { move_pages(ptr, old, new, to) } {
        return to;
    }
    // A refused move may have unmapped `to` before it failed, and another
    // thread may since have been given that range, so it is left alone: at
    // worst `new` bytes of address space, never touched, stay reserved.
    // SAFETY: the second fresh mapping overlaps nothing; `size <= old <
    // new`, and the caller's mapping is freed only after the copy.
    unsafe {
        let to = map(new);
        if !to.is_null() {
            ptr::copy_nonoverlapping(ptr, to, size);
            munmap(ptr, old);
        }
        to
    }
}

// SAFETY: every block either comes from `System` and goes back to it, or is
// a mapping of its own of `span(size)` bytes, 2 MiB-aligned; which one is a
// function of the layout alone, and `GlobalAlloc` callers pass the layout a
// block was allocated (or last reallocated) with.
unsafe impl GlobalAlloc for HugePages {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if is_huge(layout) {
            map(span(layout.size()))
        } else {
            // SAFETY: forwarded with the caller's guarantees.
            unsafe { System.alloc(layout) }
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // A fresh anonymous mapping reads as zeros.
        if is_huge(layout) {
            map(span(layout.size()))
        } else {
            // SAFETY: forwarded with the caller's guarantees.
            unsafe { System.alloc_zeroed(layout) }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `layout` says which allocator made `ptr`, and for a
        // mapping how long it is.
        unsafe {
            if is_huge(layout) {
                munmap(ptr, span(layout.size()));
            } else {
                System.dealloc(ptr, layout);
            }
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `new_size` is nonzero and does not
        // overflow `isize` rounded up to `layout.align()`, so the new layout
        // is valid; `layout` says which allocator made `ptr`; a copy reads
        // what both blocks hold.
        unsafe {
            let new_layout = Layout::from_size_align_unchecked(new_size, layout.align());
            match (is_huge(layout), is_huge(new_layout)) {
                (false, false) => System.realloc(ptr, layout, new_size),
                (true, true) => resize(ptr, layout.size(), span(layout.size()), span(new_size), move_pages),
                _ => {
                    let new = self.alloc(new_layout);
                    if !new.is_null() {
                        ptr::copy_nonoverlapping(ptr, new, layout.size().min(new_size));
                        self.dealloc(ptr, layout);
                    }
                    new
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicPtr, Ordering};

    const PAGE: usize = 4096;

    /// Bytes that differ from their neighbours and from zero; a block
    /// seeded `s` holds `pattern[s..s + len]`.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len + 256).map(|i| (i % 251) as u8 + 1).collect()
    }

    /// # Safety
    ///
    /// `ptr..ptr + len` is a live block.
    unsafe fn holds(ptr: *mut u8, len: usize, want: &[u8]) -> bool {
        // SAFETY: the caller's guarantee.
        unsafe { std::slice::from_raw_parts(ptr, len) == &want[..len] }
    }

    /// # Safety
    ///
    /// `ptr..ptr + len` is a live block.
    unsafe fn fill(ptr: *mut u8, len: usize, from: &[u8]) {
        // SAFETY: the caller's guarantee.
        unsafe { std::slice::from_raw_parts_mut(ptr, len).copy_from_slice(&from[..len]) }
    }

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 8).unwrap()
    }

    #[test]
    fn a_span_is_whole_huge_pages_and_huge_starts_at_two_mib() {
        assert_eq!(span(HUGE), HUGE);
        assert_eq!(span(HUGE - PAGE + 1), HUGE);
        assert_eq!(span(HUGE + 1), 2 * HUGE);
        assert_eq!(span(2 * HUGE - PAGE), 2 * HUGE);
        assert_eq!(span(2 * HUGE + PAGE), 3 * HUGE);
        assert!(!is_huge(layout(HUGE - 1)) && is_huge(layout(HUGE)));
        assert!(is_huge(Layout::from_size_align(HUGE, HUGE).unwrap()));
    }

    /// small → huge → larger span (the page move) → same span (same
    /// pointer) → smaller span → small, writing the whole block after each
    /// step and reading back what both sizes hold. Every huge size but the
    /// same-span one ends in the last page of its span, which must be mapped.
    #[test]
    fn realloc_keeps_the_contents_across_every_transition() {
        let sizes = [100_000, 2 * HUGE - 1, 3 * HUGE - 1, 5 * HUGE / 2 + 1, 2 * HUGE - 3, 70_000];
        let want = pattern(3 * HUGE);
        // SAFETY: each block is used at the size it was last given.
        unsafe {
            let mut ptr = HugePages.alloc(layout(sizes[0]));
            fill(ptr, sizes[0], &want);
            for pair in sizes.windows(2) {
                let (old, new) = (pair[0], pair[1]);
                let moved = HugePages.realloc(ptr, layout(old), new);
                assert!(!moved.is_null());
                assert!(holds(moved, old.min(new), &want), "{old} -> {new}");
                if span(old) == span(new) && is_huge(layout(old)) {
                    assert_eq!(moved, ptr, "{old} -> {new} stays in its span");
                }
                if is_huge(layout(new)) {
                    assert_eq!(moved.addr() % HUGE, 0);
                }
                fill(moved, new, &want);
                ptr = moved;
            }
            HugePages.dealloc(ptr, layout(sizes[sizes.len() - 1]));
        }
    }

    /// Whether `ptr..ptr + len` lies inside one mapping of
    /// `/proc/self/maps`.
    fn one_mapping(ptr: *mut u8, len: usize) -> bool {
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
        maps.lines().any(|line| {
            let (start, end) = line.split_whitespace().next().unwrap().split_once('-').unwrap();
            let hex = |s| usize::from_str_radix(s, 16).unwrap();
            hex(start) <= ptr.addr() && ptr.addr() + len <= hex(end)
        })
    }

    /// A block grown again and again stays one mapping, so each grow is a
    /// move of one mapping, which every kernel can make.
    #[test]
    fn a_grown_block_is_one_mapping() {
        let sizes = [HUGE + 1, 3 * HUGE, 5 * HUGE + PAGE, 8 * HUGE];
        let want = pattern(8 * HUGE);
        // SAFETY: each block is used at the size it was last given.
        unsafe {
            let mut ptr = HugePages.alloc(layout(sizes[0]));
            fill(ptr, sizes[0], &want);
            for pair in sizes.windows(2) {
                let (old, new) = (pair[0], pair[1]);
                ptr = HugePages.realloc(ptr, layout(old), new);
                assert!(holds(ptr, old, &want), "{old} -> {new}");
                assert!(one_mapping(ptr, span(new)), "{old} -> {new} is one mapping");
                fill(ptr, new, &want);
            }
            HugePages.dealloc(ptr, layout(sizes[sizes.len() - 1]));
        }
    }

    /// If the kernel refuses to move the pages, the bytes are copied, and
    /// the range the move was aimed at is left alone: the kernel may have
    /// unmapped it before refusing, and another thread may have it now.
    #[test]
    fn a_refused_page_move_falls_back_to_a_copy() {
        const MAP_FIXED: i32 = 0x10;
        static STRANGER: AtomicPtr<u8> = AtomicPtr::new(ptr::null_mut());
        /// Unmaps the target as the kernel may, lets a stranger map its
        /// head, and refuses.
        unsafe fn refuse(_: *mut u8, _: usize, new: usize, to: *mut u8) -> bool {
            // SAFETY: `to..to + new` is the caller's reservation, and the
            // stranger's mapping replaces only that.
            unsafe {
                munmap(to, new);
                let prot = PROT_READ | PROT_WRITE;
                let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED;
                assert_eq!(mmap(to, HUGE, prot, flags, -1, 0), to);
                to.write_bytes(7, HUGE);
            }
            STRANGER.store(to, Ordering::Relaxed);
            false
        }
        let size = 3 * HUGE / 2 + 5;
        let want = pattern(3 * HUGE);
        let ptr = map(span(size));
        assert!(!ptr.is_null());
        // SAFETY: `ptr` is a mapping of `span(size)` bytes, then `grown` one
        // of `3 * HUGE`, and the stranger's one of `HUGE`.
        unsafe {
            fill(ptr, size, &want);
            let grown = resize(ptr, size, span(size), 3 * HUGE, refuse);
            assert!(!grown.is_null() && grown != ptr);
            assert!(holds(grown, size, &want));
            fill(grown, 3 * HUGE, &want);
            munmap(grown, 3 * HUGE);
            let stranger = STRANGER.load(Ordering::Relaxed);
            assert!(one_mapping(stranger, HUGE), "the stranger's mapping survives");
            assert!(holds(stranger, HUGE, &vec![7; HUGE]));
            munmap(stranger, HUGE);
        }
    }

    #[test]
    fn alloc_zeroed_returns_zeros() {
        for size in [HUGE + PAGE, 3 * HUGE, 1000] {
            // SAFETY: each block is used at its own size, then freed.
            unsafe {
                let dirty = HugePages.alloc(layout(size));
                fill(dirty, size, &pattern(size));
                HugePages.dealloc(dirty, layout(size));
                let ptr = HugePages.alloc_zeroed(layout(size));
                assert!(std::slice::from_raw_parts(ptr, size).iter().all(|&b| b == 0), "{size}");
                HugePages.dealloc(ptr, layout(size));
            }
        }
    }

    #[test]
    fn a_layout_aligned_above_a_huge_page_goes_to_the_system_allocator() {
        let big = Layout::from_size_align(2 * HUGE, 2 * HUGE).unwrap();
        assert!(!is_huge(big));
        // SAFETY: each block is used at its own size, then freed.
        unsafe {
            for _ in 0..3 {
                let ptr = HugePages.alloc(big);
                assert_eq!(ptr.addr() % (2 * HUGE), 0);
                fill(ptr, big.size(), &pattern(big.size()));
                HugePages.dealloc(ptr, big);
            }
        }
    }

    /// Two threads allocate, grow, shrink and free blocks of both classes
    /// at random; every byte a block held is checked before it is resized
    /// or freed.
    #[test]
    fn two_threads_of_random_resizes_keep_every_byte() {
        const MAX: usize = 7 << 20;
        let want = pattern(MAX);
        std::thread::scope(|scope| {
            for seed in [0x9e37_79b9_7f4a_7c15_u64, 0xd1b5_4a32_d192_ed03] {
                let want = &want;
                scope.spawn(move || {
                    let mut state = seed;
                    // (address, size, pattern offset) per slot.
                    let mut slots: [Option<(*mut u8, usize, usize)>; 4] = [None; 4];
                    for _ in 0..200 {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let r = state;
                        let size = match r & 1 {
                            0 => 1 + (r >> 8) as usize % 300_000,
                            _ => HUGE + (r >> 8) as usize % (MAX - HUGE),
                        };
                        let offset = (r >> 40) as usize % 256;
                        let slot = &mut slots[(r >> 4) as usize % 4];
                        // SAFETY: a slot's block is live at the size it records.
                        *slot = unsafe {
                            match *slot {
                                None => {
                                    let ptr = HugePages.alloc(layout(size));
                                    fill(ptr, size, &want[offset..]);
                                    Some((ptr, size, offset))
                                }
                                Some((ptr, old, at)) if r & 2 == 0 => {
                                    assert!(holds(ptr, old, &want[at..]), "{old} bytes before a free");
                                    HugePages.dealloc(ptr, layout(old));
                                    None
                                }
                                Some((ptr, old, at)) => {
                                    assert!(holds(ptr, old, &want[at..]), "{old} bytes before a resize");
                                    let ptr = HugePages.realloc(ptr, layout(old), size);
                                    assert!(holds(ptr, old.min(size), &want[at..]), "{old} -> {size}");
                                    fill(ptr, size, &want[offset..]);
                                    Some((ptr, size, offset))
                                }
                            }
                        };
                    }
                    for (ptr, size, at) in slots.into_iter().flatten() {
                        // SAFETY: as above.
                        unsafe {
                            assert!(holds(ptr, size, &want[at..]));
                            HugePages.dealloc(ptr, layout(size));
                        }
                    }
                });
            }
        });
    }
}
