//! Span arithmetic for the traced run: where each rank's wall time went.
//!
//! Spans on one rank overlap: collectives contain their own send/receive
//! hops, and with the double-buffered ring a pre-posted `recv-wait` span
//! runs from the post to the completion, covering the forward, backward and
//! sends in between. Summing span durations therefore counts the same
//! nanosecond several times (raw `recv-wait` sums exceed the makespan).
//! Instead every nanosecond of every rank's track is attributed to exactly
//! one class, by interval unions taken in priority order:
//!
//! 1. outside any `Iteration` span → *outside_iter* (snapshot capture and
//!    serialization between iterations, final assembly);
//! 2. inside a collective → *collective* (its hops are part of it);
//! 3. inside a compute span → *compute*;
//! 4. inside a `send` → *send* (checksum, encode, copy);
//! 5. inside a `recv-wait`/`recv-xfer` → *recv_wait* (blocked, nothing else
//!    to run);
//! 6. the rest of the iteration → *idle* (the iteration span's self time).
//!
//! The six shares sum to one over `ranks × window`, where the window runs
//! from the trace's first span start to its last span end.

use wp_trace::{SpanKind, SpanRecord, Trace};

/// A half-open `[start, end)` nanosecond interval.
pub type Interval = (u64, u64);

/// Sort and merge intervals into a disjoint ascending union (empty
/// intervals dropped).
pub fn union(mut ivs: Vec<Interval>) -> Vec<Interval> {
    ivs.retain(|&(a, b)| b > a);
    ivs.sort_unstable();
    let mut out: Vec<Interval> = Vec::with_capacity(ivs.len());
    for (a, b) in ivs {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// `a ∩ b` for two disjoint ascending unions.
pub fn intersect(a: &[Interval], b: &[Interval]) -> Vec<Interval> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            out.push((lo, hi));
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// `a \ b` for two disjoint ascending unions.
pub fn subtract(a: &[Interval], b: &[Interval]) -> Vec<Interval> {
    let mut out = Vec::new();
    let mut j = 0;
    for &(mut lo, hi) in a {
        while j < b.len() && b[j].1 <= lo {
            j += 1;
        }
        let mut k = j;
        while k < b.len() && b[k].0 < hi {
            if b[k].0 > lo {
                out.push((lo, b[k].0));
            }
            lo = lo.max(b[k].1);
            k += 1;
        }
        if lo < hi {
            out.push((lo, hi));
        }
    }
    out
}

/// Total length of a disjoint union.
pub fn total(ivs: &[Interval]) -> u64 {
    ivs.iter().map(|&(a, b)| b - a).sum()
}

/// Exclusive time shares of one traced run (fractions of `ranks × window`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Shares {
    /// Forward, backward and update compute.
    pub compute: f64,
    /// Point-to-point send calls outside collectives.
    pub send: f64,
    /// Blocked point-to-point receives with nothing else running.
    pub recv_wait: f64,
    /// Collectives (all-reduce, reduce-scatter, all-gather, broadcast,
    /// barrier), including their hops.
    pub collective: f64,
    /// Inside an iteration but in none of the classes above.
    pub idle: f64,
    /// Outside every iteration span.
    pub outside_iter: f64,
}

fn is_collective(k: SpanKind) -> bool {
    matches!(
        k,
        SpanKind::AllReduce
            | SpanKind::ReduceScatter
            | SpanKind::AllGather
            | SpanKind::Broadcast
            | SpanKind::Barrier
    )
}

fn is_recv(k: SpanKind) -> bool {
    matches!(k, SpanKind::RecvWait | SpanKind::RecvXfer)
}

fn union_of(spans: &[SpanRecord], pick: impl Fn(SpanKind) -> bool) -> Vec<Interval> {
    union(
        spans
            .iter()
            .filter(|s| pick(s.kind))
            .map(|s| (s.start_ns, s.end_ns))
            .collect(),
    )
}

/// Attribute every nanosecond of every rank's track to one class (see the
/// module docs for the priority order).
pub fn shares(trace: &Trace) -> Shares {
    let window = vec![(trace.start_ns(), trace.end_ns())];
    let denom = (trace.tracks.len() as u64 * total(&window)) as f64;
    if denom == 0.0 {
        return Shares::default();
    }
    let mut ns = [0u64; 6];
    for track in &trace.tracks {
        let iters = intersect(
            &union_of(&track.spans, |k| k == SpanKind::Iteration),
            &window,
        );
        ns[5] += total(&subtract(&window, &iters));
        let mut rest = iters;
        let classes: [&dyn Fn(SpanKind) -> bool; 4] = [
            &is_collective,
            &|k: SpanKind| k.is_compute(),
            &|k: SpanKind| k == SpanKind::Send,
            &is_recv,
        ];
        for (slot, pick) in classes.iter().enumerate() {
            let taken = intersect(&union_of(&track.spans, pick), &rest);
            ns[slot] += total(&taken);
            rest = subtract(&rest, &taken);
        }
        ns[4] += total(&rest);
    }
    let f = |x: u64| x as f64 / denom;
    Shares {
        collective: f(ns[0]),
        compute: f(ns[1]),
        send: f(ns[2]),
        recv_wait: f(ns[3]),
        idle: f(ns[4]),
        outside_iter: f(ns[5]),
    }
}

/// World step times in milliseconds: for the i-th `Iteration` span of every
/// rank, the latest end minus the earliest start.
pub fn step_ms(trace: &Trace) -> Vec<f64> {
    let per_rank: Vec<Vec<&SpanRecord>> = trace
        .tracks
        .iter()
        .map(|t| t.of_kind(SpanKind::Iteration).collect())
        .collect();
    let steps = per_rank.iter().map(Vec::len).min().unwrap_or(0);
    (0..steps)
        .map(|i| {
            let start = per_rank.iter().map(|r| r[i].start_ns).min().unwrap_or(0);
            let end = per_rank.iter().map(|r| r[i].end_ns).max().unwrap_or(0);
            (end - start) as f64 / 1e6
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_trace::{RankTrack, NO_ID};

    fn span(kind: SpanKind, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            start_ns,
            end_ns,
            kind,
            mb: NO_ID,
            chunk: NO_ID,
            bytes: 0,
            aux: 0,
        }
    }

    #[test]
    fn interval_algebra() {
        let u = union(vec![(5, 9), (0, 2), (1, 3), (9, 10), (4, 4)]);
        assert_eq!(u, vec![(0, 3), (5, 10)]);
        assert_eq!(
            intersect(&u, &[(2, 6), (8, 20)]),
            vec![(2, 3), (5, 6), (8, 10)]
        );
        assert_eq!(
            subtract(&u, &[(1, 2), (6, 7), (9, 30)]),
            vec![(0, 1), (2, 3), (5, 6), (7, 9)]
        );
        assert_eq!(subtract(&[(0, 10)], &[]), vec![(0, 10)]);
        assert_eq!(total(&u), 8);
    }

    /// Two ranks over a 100 ns window. Rank 0 overlaps two pre-posted
    /// receive waits with compute and a send, and runs a collective whose
    /// hop spans nest inside it; rank 1 finishes early and snapshots
    /// outside its iteration.
    #[test]
    fn shares_use_unions_and_priorities_not_sums() {
        let r0 = vec![
            span(SpanKind::Iteration, 0, 100),
            span(SpanKind::RecvWait, 0, 60), // pre-posted: covers F, send
            span(SpanKind::RecvWait, 10, 70), // overlaps the first wait
            span(SpanKind::Fwd, 0, 30),
            span(SpanKind::Send, 30, 40),
            span(SpanKind::AllReduce, 80, 95),
            span(SpanKind::Send, 82, 85), // hop inside the collective
            span(SpanKind::RecvWait, 85, 90),
        ];
        let r1 = vec![
            span(SpanKind::Iteration, 0, 50),
            span(SpanKind::BwdFull, 0, 20),
            span(SpanKind::Update, 20, 30),
            span(SpanKind::OptimStep, 22, 28), // nested in the update
            span(SpanKind::Broadcast, 60, 80), // capture, outside the iteration
        ];
        let trace = Trace {
            tracks: vec![
                RankTrack {
                    rank: 0,
                    spans: r0,
                    overwritten: 0,
                },
                RankTrack {
                    rank: 1,
                    spans: r1,
                    overwritten: 0,
                },
            ],
        };
        let s = shares(&trace);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        // Rank 0: compute 30, send 10, waits 40..70 = 30, collective 15,
        // idle 70..80 + 95..100 = 15. Rank 1: compute 30, idle 20,
        // outside 50..100 = 50. Denominator 2 × 100.
        assert!(close(s.compute, 60.0 / 200.0), "{s:?}");
        assert!(close(s.send, 10.0 / 200.0), "{s:?}");
        assert!(close(s.recv_wait, 30.0 / 200.0), "{s:?}");
        assert!(close(s.collective, 15.0 / 200.0), "{s:?}");
        assert!(close(s.idle, 35.0 / 200.0), "{s:?}");
        assert!(close(s.outside_iter, 50.0 / 200.0), "{s:?}");
        let sum = s.compute + s.send + s.recv_wait + s.collective + s.idle + s.outside_iter;
        assert!(close(sum, 1.0));
        // The raw recv-wait sum is 125 ns on rank 0 alone; the union-based
        // share counts 30.
        assert_eq!(step_ms(&trace), vec![100.0 / 1e6]);
    }
}
