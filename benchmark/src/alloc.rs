//! Exact resource counters: a counting global allocator and the process's
//! peak resident set.
//!
//! The benchmark drives the system from one thread, so the bytes and calls
//! the allocator sees inside a span repeat exactly from run to run. They
//! catch what a timing with a wide bound hides: periodic extra work averages
//! into them, and an O(table) copy shows as megabytes whatever the host is
//! doing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting bytes requested and calls.
pub struct CountingAlloc;

// `Relaxed` throughout: the counters are statistics and publish no data.
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count(bytes: usize) {
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growth is what a reallocation newly requests; shrinking requests
        // nothing.
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// A reading of the allocation counters; subtract two with
/// [`AllocCounters::since`] to scope a span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounters {
    /// Bytes requested (allocations plus reallocation growth).
    pub bytes: u64,
    /// Allocator calls that requested memory (alloc, alloc_zeroed, realloc).
    pub calls: u64,
}

impl AllocCounters {
    /// The process-wide counters now.
    pub fn now() -> Self {
        AllocCounters {
            bytes: BYTES.load(Ordering::Relaxed),
            calls: CALLS.load(Ordering::Relaxed),
        }
    }

    /// What was requested between `earlier` and this reading.
    pub fn since(self, earlier: AllocCounters) -> AllocCounters {
        AllocCounters {
            bytes: self.bytes - earlier.bytes,
            calls: self.calls - earlier.calls,
        }
    }

    /// Adds another scoped reading to this accumulator.
    pub fn add(&mut self, other: AllocCounters) {
        self.bytes += other.bytes;
        self.calls += other.calls;
    }
}

/// The process's peak resident set (`VmHWM`) in kB, from
/// `/proc/self/status`; `None` where the file or the line is missing.
pub fn peak_rss_kb() -> Option<u64> {
    parse_vm_hwm(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests allocate concurrently, so counts are lower bounds here;
    // the benchmark itself is single-threaded and reads them exactly.
    #[test]
    fn allocations_and_growth_are_counted() {
        let before = AllocCounters::now();
        let mut v: Vec<u8> = Vec::with_capacity(1 << 20);
        v.push(1);
        let mid = AllocCounters::now().since(before);
        assert!(mid.bytes >= 1 << 20, "{mid:?}");
        assert!(mid.calls >= 1);
        v.reserve_exact(3 << 20);
        std::hint::black_box(&v);
        let grown = AllocCounters::now().since(before);
        assert!(grown.bytes >= 3 << 20, "growth counted: {grown:?}");
        assert!(grown.calls >= 2);
    }

    #[test]
    fn scoped_readings_accumulate() {
        let mut total = AllocCounters::default();
        total.add(AllocCounters {
            bytes: 10,
            calls: 1,
        });
        total.add(
            AllocCounters {
                bytes: 30,
                calls: 5,
            }
            .since(AllocCounters { bytes: 5, calls: 2 }),
        );
        assert_eq!(
            total,
            AllocCounters {
                bytes: 35,
                calls: 4
            }
        );
    }

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  348728 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(348_728));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert!(peak_rss_kb().is_some_and(|kb| kb > 0));
    }
}
