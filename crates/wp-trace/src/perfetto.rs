//! Chrome trace-event ("Perfetto JSON") export and validation.
//!
//! [`export_chrome_json`] renders a [`Trace`] into the JSON Array Format
//! consumed by `ui.perfetto.dev` and `chrome://tracing`: one process named
//! `weipipe`, one thread per rank, `"X"` complete events for spans and
//! `"i"` instant events for fault annotations. Timestamps are microseconds
//! (the format's unit) carried as decimals so nanosecond precision survives.
//!
//! Emission is by hand; [`validate_chrome_json`] reads a document back
//! through the crate's JSON codec ([`crate::json`]) so CI can prove an
//! exported file is well-formed, non-empty, and per-track monotonic without
//! external tooling.

use crate::collector::Trace;
use crate::json::{self, Json};
use crate::span::{fault_aux_decode, recv_aux_decode, send_aux_decode, SpanKind, NO_ID};
use std::fmt::Write as _;

/// Render a trace as Chrome trace-event JSON (the Perfetto legacy format).
///
/// Events are sorted by timestamp (ties broken longest-first so enclosing
/// spans precede nested ones), which also guarantees the monotonicity that
/// [`validate_chrome_json`] checks.
pub fn export_chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(256 + trace.span_count() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, ev: &str| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(ev);
    };

    push(
        &mut out,
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"weipipe\"}}",
    );
    for track in &trace.tracks {
        let mut ev = String::new();
        // `dropped_spans` rides in the thread metadata so a consumer (and
        // the validator) can see how many spans the ring overwrote — a
        // truncated track must not read as a complete one.
        let _ = write!(
            ev,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"rank {}\",\"dropped_spans\":{}}}}}",
            track.rank, track.rank, track.overwritten
        );
        push(&mut out, &ev);
    }

    // Chrome's JSON format wants events ordered; we merge all tracks and sort
    // globally by (ts, -dur) so nesting renders correctly.
    let mut events: Vec<(u64, u64, usize, &crate::span::SpanRecord)> = Vec::new();
    for track in &trace.tracks {
        for s in &track.spans {
            events.push((s.start_ns, s.dur_ns(), track.rank, s));
        }
    }
    events.sort_by_key(|&(ts, dur, rank, _)| (ts, std::cmp::Reverse(dur), rank));

    let mut ev = String::new();
    for (ts, dur, rank, s) in events {
        ev.clear();
        let ts_us = ts as f64 / 1000.0;
        if s.is_instant() {
            let _ = write!(
                ev,
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{rank},\"ts\":{ts_us:.3},\
                 \"name\":\"{}\",\"cat\":\"{}\"",
                s.kind.label(),
                s.kind.category()
            );
        } else {
            let _ = write!(
                ev,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{rank},\"ts\":{ts_us:.3},\"dur\":{:.3},\
                 \"name\":\"{}\",\"cat\":\"{}\"",
                dur as f64 / 1000.0,
                s.kind.label(),
                s.kind.category()
            );
        }
        ev.push_str(",\"args\":{");
        let mut first_arg = true;
        let mut arg = |ev: &mut String, k: &str, v: String| {
            if !first_arg {
                ev.push(',');
            }
            first_arg = false;
            let _ = write!(ev, "\"{k}\":{v}");
        };
        if s.mb != NO_ID {
            arg(&mut ev, "mb", s.mb.to_string());
        }
        if s.chunk != NO_ID {
            arg(&mut ev, "chunk", s.chunk.to_string());
        }
        if s.bytes > 0 {
            arg(&mut ev, "bytes", s.bytes.to_string());
        }
        match s.kind {
            SpanKind::Send => {
                let (dst, collective) = send_aux_decode(s.aux);
                arg(&mut ev, "dst", dst.to_string());
                arg(&mut ev, "collective", collective.to_string());
            }
            SpanKind::RecvWait | SpanKind::RecvXfer => {
                let (src, depth) = recv_aux_decode(s.aux);
                arg(&mut ev, "src", src.to_string());
                arg(&mut ev, "queue_depth", depth.to_string());
            }
            SpanKind::Fault => {
                let f = fault_aux_decode(s.aux);
                let mut kinds = Vec::new();
                if f.delay {
                    kinds.push("delay");
                }
                if f.hold {
                    kinds.push("hold");
                }
                if f.corrupt {
                    kinds.push("corrupt");
                }
                if f.dead {
                    kinds.push("dead");
                }
                arg(&mut ev, "fault", format!("\"{}\"", kinds.join("+")));
            }
            _ => {}
        }
        ev.push_str("}}");
        push(&mut out, &ev);
    }
    out.push_str("\n]}\n");
    out
}

/// Summary a successful [`validate_chrome_json`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events, metadata included.
    pub events: usize,
    /// `"X"` complete (duration) events.
    pub spans: usize,
    /// `"i"` instant events.
    pub instants: usize,
    /// Distinct thread ids (ranks) that carry at least one timed event.
    pub tracks: usize,
    /// Spans the per-rank ring buffers overwrote before the snapshot
    /// (summed across ranks, from the `dropped_spans` thread metadata).
    /// Non-zero means the exported timeline is incomplete.
    pub dropped_spans: u64,
}

/// Validate a Chrome trace-event JSON document: it must parse, hold a
/// non-empty `traceEvents` array, every timed event must carry numeric
/// `ts` (and non-negative `dur` for `"X"`), and per-thread timestamps must
/// be monotonically non-decreasing in file order.
pub fn validate_chrome_json(json: &str) -> Result<TraceStats, String> {
    let doc = json::parse(json)?;
    doc.as_obj().ok_or("top level is not an object")?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    let mut stats = TraceStats {
        events: events.len(),
        spans: 0,
        instants: 0,
        tracks: 0,
        dropped_spans: 0,
    };
    // (tid, last_ts) per track, small-world so a vec beats a map.
    let mut last_ts: Vec<(f64, f64)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        ev.as_obj()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} lacks a ph string"))?;
        if ph == "M" {
            let dropped = ev
                .get("args")
                .and_then(|args| args.get("dropped_spans"))
                .and_then(Json::as_f64);
            if let Some(dropped) = dropped {
                if dropped < 0.0 {
                    return Err(format!("event {i} has negative dropped_spans {dropped}"));
                }
                stats.dropped_spans += dropped as u64;
            }
            continue;
        }
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} lacks a name"))?;
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i} lacks a numeric ts"))?;
        let tid = ev.get("tid").and_then(Json::as_f64).unwrap_or(0.0);
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i} (X) lacks a numeric dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i} has negative dur {dur}"));
                }
                stats.spans += 1;
            }
            "i" => stats.instants += 1,
            other => return Err(format!("event {i} has unsupported ph {other:?}")),
        }
        match last_ts.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, last)) => {
                if ts < *last {
                    return Err(format!(
                        "event {i}: ts {ts} goes backwards on tid {tid} (last {last})"
                    ));
                }
                *last = ts;
            }
            None => last_ts.push((tid, ts)),
        }
    }
    stats.tracks = last_ts.len();
    if stats.spans + stats.instants == 0 {
        return Err("no timed events (only metadata)".into());
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::TraceCollector;
    use crate::span::{fault_aux, recv_aux, send_aux, FaultFlags, SpanRecord};

    fn sample_trace() -> Trace {
        let c = TraceCollector::new(2, 32);
        let t0 = c.tracer(0);
        t0.record(SpanRecord {
            start_ns: 1_000,
            end_ns: 5_000,
            kind: SpanKind::Fwd,
            mb: 0,
            chunk: 1,
            bytes: 0,
            aux: 0,
        });
        t0.record(SpanRecord {
            start_ns: 5_000,
            end_ns: 6_500,
            kind: SpanKind::Send,
            mb: 0,
            chunk: NO_ID,
            bytes: 4096,
            aux: send_aux(1, false),
        });
        let t1 = c.tracer(1);
        t1.record(SpanRecord {
            start_ns: 2_000,
            end_ns: 6_000,
            kind: SpanKind::RecvWait,
            mb: 0,
            chunk: NO_ID,
            bytes: 4096,
            aux: recv_aux(0, 2),
        });
        t1.instant(
            SpanKind::Fault,
            fault_aux(FaultFlags {
                delay: true,
                hold: false,
                corrupt: false,
                dead: false,
            }),
        );
        c.snapshot()
    }

    #[test]
    fn export_roundtrips_through_validator() {
        let json = export_chrome_json(&sample_trace());
        let stats = validate_chrome_json(&json).expect("exported trace must validate");
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.tracks, 2);
        assert!(
            stats.events >= 7,
            "3 metadata + 4 timed, got {}",
            stats.events
        );
    }

    #[test]
    fn dropped_spans_ride_the_metadata_into_stats() {
        // A 4-slot ring fed 9 spans overwrites 5; the export must carry the
        // loss and the validator must surface it.
        let c = TraceCollector::new(1, 4);
        for i in 0..9u64 {
            c.tracer(0).record(SpanRecord {
                start_ns: i * 10,
                end_ns: i * 10 + 5,
                kind: SpanKind::Fwd,
                mb: 0,
                chunk: 0,
                bytes: 0,
                aux: 0,
            });
        }
        let json = export_chrome_json(&c.snapshot());
        assert!(json.contains("\"dropped_spans\":5"));
        let stats = validate_chrome_json(&json).expect("valid");
        assert_eq!(stats.dropped_spans, 5);

        // And a lossless trace reports zero.
        let stats = validate_chrome_json(&export_chrome_json(&sample_trace())).expect("valid");
        assert_eq!(stats.dropped_spans, 0);
    }

    #[test]
    fn export_carries_decoded_args() {
        let json = export_chrome_json(&sample_trace());
        assert!(json.contains("\"name\":\"F\""));
        assert!(json.contains("\"dst\":1"));
        assert!(json.contains("\"src\":0"));
        assert!(json.contains("\"queue_depth\":2"));
        assert!(json.contains("\"fault\":\"delay\""));
        assert!(json.contains("\"bytes\":4096"));
        assert!(json.contains("\"name\":\"rank 1\""));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_json("").is_err());
        assert!(validate_chrome_json("{}").is_err(), "missing traceEvents");
        assert!(
            validate_chrome_json("{\"traceEvents\":[]}").is_err(),
            "empty"
        );
        assert!(
            validate_chrome_json("{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\",\"tid\":0}]}")
                .is_err(),
            "missing ts"
        );
        // Backwards timestamps on one tid.
        let bad = "{\"traceEvents\":[\
            {\"ph\":\"X\",\"name\":\"a\",\"tid\":0,\"ts\":10.0,\"dur\":1.0},\
            {\"ph\":\"X\",\"name\":\"b\",\"tid\":0,\"ts\":5.0,\"dur\":1.0}]}";
        let err = validate_chrome_json(bad).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
        // ...but interleaved tids are each monotonic, so this is fine.
        let ok = "{\"traceEvents\":[\
            {\"ph\":\"X\",\"name\":\"a\",\"tid\":0,\"ts\":10.0,\"dur\":1.0},\
            {\"ph\":\"X\",\"name\":\"b\",\"tid\":1,\"ts\":5.0,\"dur\":1.0}]}";
        assert!(validate_chrome_json(ok).is_ok());
    }
}
