//! The probe: one rank's single instrumentation handle.
//!
//! A [`Probe`] bundles the rank's optional span recorder (`wp-trace`) and
//! optional metric slots (`wp-metrics`) behind one clock. Every
//! instrumented site in the stack — the [`Communicator`](crate::Communicator),
//! the TCP reader and writer threads, and the training runtime above —
//! records through it, so the two sinks can never disagree about what
//! happened or how long it took:
//!
//! * [`Probe::start`] reads the clock once; [`Probe::end`] reads it once
//!   more, closes the span on the trace track and observes the *same*
//!   duration into the histogram that mirrors the span's kind
//!   ([`hist_of`]). "Histogram mass == span mass" holds by construction
//!   for every mirrored kind.
//! * The clock is the trace collector's when tracing is on, so span
//!   timestamps keep the collector's time base. A metrics-only probe keeps
//!   its own zero; histograms only hold durations.
//! * Tracing and metrics stay independently switchable. With both off the
//!   probe holds nothing: every site costs one branch, reads no clock and
//!   allocates nothing, so training is bit-identical to an uninstrumented
//!   build.
//!
//! Cloning is one reference-count bump; all clones share the sinks and
//! the clock.

use std::sync::Arc;
use std::time::Instant;
use wp_metrics::{Counter, Gauge, Hist, RankMetrics};
use wp_trace::{RankTracer, SpanKind};

/// The histogram that mirrors a span kind, if any. Both backward kinds are
/// "B" work; the split-backward weight pass is "W".
pub fn hist_of(kind: SpanKind) -> Option<Hist> {
    match kind {
        SpanKind::Fwd => Some(Hist::FwdNs),
        SpanKind::BwdFull | SpanKind::BwdData => Some(Hist::BwdNs),
        SpanKind::BwdWeight => Some(Hist::WgradNs),
        SpanKind::Update => Some(Hist::UpdateNs),
        SpanKind::OptimStep => Some(Hist::OptimStepNs),
        SpanKind::Iteration => Some(Hist::StepWallNs),
        _ => None,
    }
}

/// One rank's instrumentation handle (see the module docs). The default
/// probe records nothing.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// `None` when both sinks are off: the one branch an off site costs.
    sinks: Option<Arc<Sinks>>,
}

#[derive(Debug)]
struct Sinks {
    tracer: Option<RankTracer>,
    metrics: Option<RankMetrics>,
    /// Zero of the clock when no tracer supplies one.
    epoch: Instant,
}

impl Sinks {
    #[inline]
    fn now_ns(&self) -> u64 {
        match &self.tracer {
            Some(t) => t.now_ns(),
            None => self.epoch.elapsed().as_nanos() as u64,
        }
    }
}

/// A span opened by [`Probe::start`]; close it with [`Probe::end`]. Plain
/// data: holding one costs nothing, and a span the probe does not record
/// (no sink wants its kind) carries no timestamp.
#[derive(Debug, Clone, Copy)]
#[must_use = "a span records nothing until it is ended"]
pub struct Span {
    kind: SpanKind,
    start_ns: Option<u64>,
}

impl Span {
    /// Whether ending this span records anything.
    pub fn is_recording(&self) -> bool {
        self.start_ns.is_some()
    }
}

impl Probe {
    /// A probe over the given sinks, either of which may be absent.
    pub fn new(tracer: Option<RankTracer>, metrics: Option<RankMetrics>) -> Self {
        if tracer.is_none() && metrics.is_none() {
            return Probe::default();
        }
        Probe {
            sinks: Some(Arc::new(Sinks {
                tracer,
                metrics,
                epoch: Instant::now(),
            })),
        }
    }

    /// Whether a metrics sink is attached — for sites that would compute a
    /// value only to record it.
    #[inline]
    pub fn is_metered(&self) -> bool {
        self.metrics().is_some()
    }

    #[inline]
    fn metrics(&self) -> Option<&RankMetrics> {
        self.sinks.as_deref()?.metrics.as_ref()
    }

    /// Open a span of `kind`. Reads the clock only when a sink records the
    /// kind: the tracer records every kind, metrics only the [`hist_of`]
    /// kinds.
    #[inline]
    pub fn start(&self, kind: SpanKind) -> Span {
        let start_ns = match self.sinks.as_deref() {
            Some(s) if s.tracer.is_some() || hist_of(kind).is_some() => Some(s.now_ns()),
            _ => None,
        };
        Span { kind, start_ns }
    }

    /// Close `span`: one clock read ends the trace record and feeds the
    /// mirrored histogram the identical duration. `mb`/`chunk` are the
    /// work's identity (`wp_trace::NO_ID` for none), `bytes` the wire bytes
    /// moved and `aux` the kind-specific word. Returns the duration in
    /// nanoseconds (0 for a span that records nothing).
    #[inline]
    pub fn end(&self, span: Span, mb: u32, chunk: u32, bytes: u64, aux: u64) -> u64 {
        let (Some(s), Some(start)) = (self.sinks.as_deref(), span.start_ns) else {
            return 0;
        };
        let dur = match &s.tracer {
            Some(t) => t.end_span(span.kind, start, mb, chunk, bytes, aux),
            None => s.now_ns().saturating_sub(start),
        };
        if let (Some(m), Some(h)) = (&s.metrics, hist_of(span.kind)) {
            m.observe(h, dur);
        }
        dur
    }

    /// Record an instant event (a zero-length span) on the trace track.
    #[inline]
    pub fn instant(&self, kind: SpanKind, aux: u64) {
        if let Some(t) = self.sinks.as_deref().and_then(|s| s.tracer.as_ref()) {
            t.instant(kind, aux);
        }
    }

    /// Add `v` to a counter.
    #[inline]
    pub fn add(&self, c: Counter, v: u64) {
        if let Some(m) = self.metrics() {
            m.add(c, v);
        }
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Set a gauge.
    #[inline]
    pub fn set(&self, g: Gauge, v: f64) {
        if let Some(m) = self.metrics() {
            m.set(g, v);
        }
    }

    /// Raise a high-water gauge to `v` if larger.
    #[inline]
    pub fn set_max(&self, g: Gauge, v: f64) {
        if let Some(m) = self.metrics() {
            m.set_max(g, v);
        }
    }

    /// Observe a value into a histogram that no span kind mirrors (one
    /// measured outside any rank's track, like the elastic re-shard time).
    /// Mirrored histograms are fed only by [`end`](Self::end).
    #[inline]
    pub fn observe(&self, h: Hist, v: u64) {
        debug_assert!(
            wp_trace::ALL_KINDS.iter().all(|&k| hist_of(k) != Some(h)),
            "{h:?} mirrors a span kind; record it through start/end"
        );
        if let Some(m) = self.metrics() {
            m.observe(h, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_metrics::MetricsRegistry;
    use wp_trace::{TraceCollector, NO_ID};

    #[test]
    fn off_probe_records_nothing_and_reads_no_clock() {
        let p = Probe::default();
        let s = p.start(SpanKind::Fwd);
        assert!(!s.is_recording());
        assert_eq!(p.end(s, 0, 0, 0, 0), 0);
        assert!(!p.is_metered());
        assert!(!Probe::new(None, None)
            .start(SpanKind::Iteration)
            .is_recording());
    }

    #[test]
    fn one_end_feeds_span_and_histogram_the_same_duration() {
        let tc = TraceCollector::new(1, 16);
        let reg = MetricsRegistry::new(1);
        let p = Probe::new(Some(tc.tracer(0)), Some(reg.handle(0)));
        let mut total = 0;
        for kind in [SpanKind::Fwd, SpanKind::OptimStep, SpanKind::Iteration] {
            let s = p.start(kind);
            std::hint::black_box((0..1000).sum::<u64>());
            total += p.end(s, 1, 2, 0, 0);
        }
        let trace = tc.snapshot();
        let spans = &trace.tracks[0].spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans.iter().map(|s| s.dur_ns()).sum::<u64>(), total);
        let r = reg.snapshot_rank(0);
        for s in spans {
            let h = r.hist(hist_of(s.kind).unwrap());
            assert_eq!((h.count, h.sum), (1, s.dur_ns()), "{:?}", s.kind);
        }
    }

    #[test]
    fn metrics_only_probe_skips_unmirrored_kinds() {
        let reg = MetricsRegistry::new(1);
        let p = Probe::new(None, Some(reg.handle(0)));
        assert!(!p.start(SpanKind::Send).is_recording());
        let s = p.start(SpanKind::Update);
        assert!(s.is_recording());
        let dur = p.end(s, NO_ID, 0, 0, 0);
        p.incr(Counter::StepsCompleted);
        p.set(Gauge::CurrentLr, 0.5);
        let r = reg.snapshot_rank(0);
        assert_eq!(r.hist(Hist::UpdateNs).sum, dur);
        assert_eq!(r.counter(Counter::StepsCompleted), 1);
        assert_eq!(r.gauge(Gauge::CurrentLr), 0.5);
    }

    #[test]
    fn trace_only_probe_uses_the_collector_clock() {
        let tc = TraceCollector::new(1, 8);
        let p = Probe::new(Some(tc.tracer(0)), None);
        let before = tc.tracer(0).now_ns();
        let s = p.start(SpanKind::Send);
        p.end(s, NO_ID, NO_ID, 64, 3);
        p.instant(SpanKind::Fault, 1);
        let after = tc.tracer(0).now_ns();
        for rec in &tc.snapshot().tracks[0].spans {
            assert!(before <= rec.start_ns && rec.end_ns <= after, "{rec:?}");
        }
        assert!(!p.is_metered());
    }
}
