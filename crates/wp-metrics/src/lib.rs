//! # wp-metrics — lock-free per-rank metrics for the WeiPipe runtime
//!
//! `wp-trace` records *events* (spans on a timeline); this crate records
//! *aggregates*: monotonic counters, last-value gauges, and power-of-two
//! log-bucketed histograms, one fixed slot array per rank. A cheap
//! [`RankMetrics`] handle updates slots with single relaxed atomic
//! operations — **no locks, no allocation, no string lookup** on the hot
//! path. Metric identity is a typed enum ([`Counter`], [`Gauge`],
//! [`Hist`]), so a metric's slot index, Prometheus name, and type are all
//! resolved at compile time.
//!
//! Nothing in the stack records through [`RankMetrics`] directly: each
//! rank's handle sits inside its `wp_comm::Probe`, next to the rank's
//! span recorder. The probe times every span once and feeds the same
//! duration to the trace and to the histogram that mirrors the span's
//! kind, so this crate keeps no clock and a mirrored histogram can never
//! disagree with the trace.
//!
//! After a run, a [`MetricsSnapshot`] feeds three consumers:
//!
//! 1. [`export_prometheus`] — Prometheus text exposition format, validated
//!    offline by [`validate_prometheus`] and parsed back (for round-trip
//!    tests and launcher-side merging) by [`parse_prometheus`];
//! 2. [`export_json`] — a JSON document with the same content, validated by
//!    [`validate_json`] / parsed by [`parse_json`];
//! 3. the `wp-bench ranks` launcher, which ships per-rank snapshots across
//!    process boundaries with the hex-exact line codec
//!    ([`RankSnapshot::to_line`] / [`RankSnapshot::from_line`]) and merges
//!    them with [`MetricsSnapshot::merge_rank`].
//!
//! ## Hot-path contract
//!
//! Like `wp-trace`, the registry is **zero-allocation and lock-free** after
//! construction: all slot arrays are sized at [`MetricsRegistry::new`] time,
//! and every update is one `fetch_add` / `store` / bounded CAS (proved by
//! the counting-allocator test in `tests/alloc.rs`). Metrics are
//! default-off via [`MetricsConfig`]: a disabled config builds no registry,
//! so instrumented sites cost one branch in the probe and training output
//! is bit-identical to an uninstrumented build.
//!
//! This crate depends only on `wp-trace`, for its JSON codec (not on the
//! workspace's vendored crates), so every other crate can depend on it.

#![warn(missing_docs)]

mod export;
mod id;
mod registry;

pub use export::{
    export_json, export_prometheus, parse_json, parse_prometheus, validate_json,
    validate_prometheus, ExportStats,
};
pub use id::{Counter, Gauge, Hist, MetricKind};
pub use registry::{
    HistSnapshot, MetricsConfig, MetricsRegistry, MetricsSnapshot, RankMetrics, RankSnapshot,
    HIST_BUCKETS,
};
