//! Proof of the probe's hot-path contract: with both sinks attached, the
//! warm record path — span start/end (trace record plus mirrored histogram
//! observe), instants, counters and gauges — allocates nothing.
//!
//! A counting global allocator wraps `System` (the same harness as the
//! `wp-trace` and `wp-metrics` `tests/alloc.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use wp_comm::Probe;
use wp_metrics::{Counter, Gauge, Hist, MetricsRegistry};
use wp_trace::{SpanKind, TraceCollector};

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
fn warm_probe_records_without_allocating() {
    // All allocation happens here, up front.
    let collector = TraceCollector::new(1, 1024);
    let registry = MetricsRegistry::new(1);
    let probe = Probe::new(Some(collector.tracer(0)), Some(registry.handle(0)));
    let kinds = [
        SpanKind::Fwd,
        SpanKind::BwdData,
        SpanKind::Update,
        SpanKind::OptimStep,
        SpanKind::Iteration,
        SpanKind::Send,
        SpanKind::RecvWait,
    ];

    // Warm up (first clock read etc. must not be charged to the hot path).
    for &k in &kinds {
        let s = probe.start(k);
        probe.end(s, 0, 0, 0, 0);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for i in 0..1000u64 {
        for &k in &kinds {
            let s = probe.start(k);
            probe.end(s, i as u32, 1, 4096, 0);
        }
        probe.instant(SpanKind::Fault, 0b01);
        probe.add(Counter::P2pBytesSent, 4096);
        probe.incr(Counter::P2pMsgsSent);
        probe.set(Gauge::Loss, i as f64);
        probe.set_max(Gauge::ReorderDepthMax, (i % 7) as f64);
        probe.observe(Hist::ReshardNs, i);
        let _ = probe.clone();
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "the warm probe path must not allocate");

    // Sanity: the records really landed in both sinks.
    let r = registry.snapshot_rank(0);
    assert_eq!(r.counter(Counter::P2pMsgsSent), 1000);
    assert_eq!(r.hist(Hist::FwdNs).count, 1001);
    assert_eq!(r.hist(Hist::StepWallNs).count, 1001);
    let trace = collector.snapshot();
    let track = &trace.tracks[0];
    assert_eq!(
        track.spans.len() + track.overwritten as usize,
        (kinds.len() + 1) * 1000 + kinds.len()
    );
}
