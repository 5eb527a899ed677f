//! Proof of the hot-path contract: recording a metric allocates nothing.
//!
//! A counting global allocator wraps `System` (the same harness as
//! `wp-trace`'s `tests/alloc.rs`); the test warms the handles, snapshots
//! the allocation counter, hammers every update kind — counter adds, gauge
//! stores, high-water CAS, histogram observes — and asserts the counter
//! did not move.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use wp_metrics::{Counter, Gauge, Hist, MetricsRegistry};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn recording_allocates_nothing() {
    // All allocation happens here, up front.
    let registry = MetricsRegistry::new(4);
    let handles: Vec<_> = (0..4).map(|r| registry.handle(r)).collect();

    // Warm up (first touch of every slot kind).
    for m in &handles {
        m.observe(Hist::StepWallNs, 1);
        m.set_max(Gauge::ReorderDepthMax, 1.0);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for i in 0..1000u64 {
        for m in &handles {
            m.add(Counter::P2pBytesSent, 4096);
            m.incr(Counter::P2pMsgsSent);
            m.add(Counter::PacingStallNs, i);
            m.set(Gauge::Loss, i as f64 * 0.5);
            m.set_max(Gauge::ReorderDepthMax, (i % 7) as f64);
            m.observe(Hist::FwdNs, i * 37);
            m.observe(Hist::BwdNs, i << (i % 50));
            m.observe(Hist::UpdateNs, i);
        }
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "add()/set()/set_max()/observe() must not allocate on the hot path"
    );

    // Sanity: the updates really landed.
    let snap = registry.snapshot();
    for r in &snap.ranks {
        assert_eq!(r.counter(Counter::P2pMsgsSent), 1000);
        assert_eq!(r.hist(Hist::FwdNs).count, 1000);
        assert_eq!(r.gauge(Gauge::ReorderDepthMax), 6.0);
    }
}
