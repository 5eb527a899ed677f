//! Offline exporters: Prometheus text exposition and JSON.
//!
//! Both formats are emitted by hand and read back strictly:
//! [`validate_prometheus`] / [`validate_json`] prove an exported document
//! is well-formed without external tooling, and [`parse_prometheus`] /
//! [`parse_json`] reconstruct the [`MetricsSnapshot`] exactly — the
//! round-trip property the proptest suite enforces. The Prometheus reader
//! is this module's own line grammar; the JSON reader is a schema walk over
//! the workspace's one JSON codec, [`wp_trace::json`], whose numbers keep
//! their raw text. Counters and histogram sums are `u64` and rendered as
//! decimal integers (exact); gauges are `f64` rendered with Rust's
//! shortest-round-trip `Display`, so parse-back recovers the bits for every
//! finite value.

use crate::id::{Counter, Gauge, Hist};
use crate::registry::{
    bucket_upper_bound, HistSnapshot, MetricsSnapshot, RankSnapshot, HIST_BUCKETS,
};
use std::fmt::Write as _;
use wp_trace::json::{self, fmt_f64, parse_f64, Json};

/// Summary a successful validation returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExportStats {
    /// Rank entries in the document.
    pub ranks: usize,
    /// Individual sample values (Prometheus: sample lines; JSON: leaf
    /// values), histogram buckets included.
    pub samples: usize,
    /// Distinct counter metrics seen.
    pub counters: usize,
    /// Distinct gauge metrics seen.
    pub gauges: usize,
    /// Distinct histogram metrics seen.
    pub histograms: usize,
}

// ---- Prometheus text exposition -------------------------------------------

/// Render a snapshot in the Prometheus text exposition format: one
/// `# TYPE` header per metric, one sample per rank (label `rank="<r>"`),
/// histograms as cumulative `_bucket{le=...}` series with `_sum` and
/// `_count`. Bucket series stop at the highest occupied bucket (plus the
/// mandatory `+Inf` bucket), so empty tails cost nothing.
pub fn export_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    for &c in Counter::ALL {
        let _ = writeln!(out, "# TYPE {} counter", c.name());
        for r in &snap.ranks {
            let _ = writeln!(out, "{}{{rank=\"{}\"}} {}", c.name(), r.rank, r.counter(c));
        }
    }
    for &g in Gauge::ALL {
        let _ = writeln!(out, "# TYPE {} gauge", g.name());
        for r in &snap.ranks {
            let _ = writeln!(
                out,
                "{}{{rank=\"{}\"}} {}",
                g.name(),
                r.rank,
                fmt_f64(r.gauge(g))
            );
        }
    }
    for &h in Hist::ALL {
        let _ = writeln!(out, "# TYPE {} histogram", h.name());
        for r in &snap.ranks {
            let hist = r.hist(h);
            let top = hist.highest_bucket().unwrap_or(0).min(HIST_BUCKETS - 2);
            let mut cum = 0u64;
            for (i, &b) in hist.buckets.iter().enumerate().take(top + 1) {
                cum += b;
                let _ = writeln!(
                    out,
                    "{}_bucket{{rank=\"{}\",le=\"{}\"}} {}",
                    h.name(),
                    r.rank,
                    bucket_upper_bound(i),
                    cum
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{{rank=\"{}\",le=\"+Inf\"}} {}",
                h.name(),
                r.rank,
                hist.count
            );
            let _ = writeln!(out, "{}_sum{{rank=\"{}\"}} {}", h.name(), r.rank, hist.sum);
            let _ = writeln!(
                out,
                "{}_count{{rank=\"{}\"}} {}",
                h.name(),
                r.rank,
                hist.count
            );
        }
    }
    out
}

/// What family a sample line belongs to, from its (possibly suffixed) name.
enum SampleName {
    Counter(Counter),
    Gauge(Gauge),
    Bucket(Hist),
    Sum(Hist),
    Count(Hist),
}

fn classify(name: &str) -> Option<SampleName> {
    if let Some(c) = Counter::from_name(name) {
        return Some(SampleName::Counter(c));
    }
    if let Some(g) = Gauge::from_name(name) {
        return Some(SampleName::Gauge(g));
    }
    if let Some(base) = name.strip_suffix("_bucket") {
        return Hist::from_name(base).map(SampleName::Bucket);
    }
    if let Some(base) = name.strip_suffix("_sum") {
        return Hist::from_name(base).map(SampleName::Sum);
    }
    if let Some(base) = name.strip_suffix("_count") {
        return Hist::from_name(base).map(SampleName::Count);
    }
    None
}

/// `le` label → bucket index. Finite bounds are `0` or `2^i - 1`.
fn le_to_bucket(le: &str) -> Option<usize> {
    if le == "+Inf" {
        return Some(HIST_BUCKETS - 1);
    }
    let v: u64 = le.parse().ok()?;
    if v == 0 {
        return Some(0);
    }
    let i = v.count_ones() as usize;
    (v == bucket_upper_bound(i) && i < HIST_BUCKETS - 1).then_some(i)
}

struct PromSample<'a> {
    name: &'a str,
    rank: usize,
    le: Option<&'a str>,
    value: &'a str,
}

fn parse_sample_line(line: &str, no: usize) -> Result<PromSample<'_>, String> {
    let brace = line
        .find('{')
        .ok_or_else(|| format!("line {no}: sample has no label set: {line:?}"))?;
    let name = &line[..brace];
    let close = line[brace..]
        .find('}')
        .map(|i| brace + i)
        .ok_or_else(|| format!("line {no}: unterminated label set"))?;
    let labels = &line[brace + 1..close];
    let value = line[close + 1..].trim();
    if value.is_empty() {
        return Err(format!("line {no}: sample has no value"));
    }
    let mut rank = None;
    let mut le = None;
    for pair in labels.split(',') {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("line {no}: malformed label {pair:?}"))?;
        let v = v
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("line {no}: unquoted label value {pair:?}"))?;
        match k {
            "rank" => {
                rank = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("line {no}: bad rank label {v:?}"))?,
                )
            }
            "le" => le = Some(v),
            other => return Err(format!("line {no}: unexpected label {other:?}")),
        }
    }
    Ok(PromSample {
        name,
        rank: rank.ok_or_else(|| format!("line {no}: sample lacks a rank label"))?,
        le,
        value,
    })
}

/// Parse a Prometheus text-exposition document (as produced by
/// [`export_prometheus`]) back into a [`MetricsSnapshot`]. Strict: every
/// sample must use a declared metric name, histogram bucket series must be
/// cumulative and agree with their `_count`, and duplicate samples are
/// rejected.
pub fn parse_prometheus(text: &str) -> Result<(MetricsSnapshot, ExportStats), String> {
    let mut snap = MetricsSnapshot::default();
    let mut typed: Vec<(&str, &str)> = Vec::new();
    let mut hist_parts: Vec<HistParts> = Vec::new();
    let mut seen: Vec<(String, usize)> = Vec::new();
    let mut stats = ExportStats {
        ranks: 0,
        samples: 0,
        counters: 0,
        gauges: 0,
        histograms: 0,
    };

    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut words = rest.split_whitespace();
            if words.next() == Some("TYPE") {
                let name = words
                    .next()
                    .ok_or(format!("line {no}: TYPE lacks a name"))?;
                let kind = words
                    .next()
                    .ok_or(format!("line {no}: TYPE lacks a kind"))?;
                if typed.iter().any(|&(n, _)| n == name) {
                    return Err(format!("line {no}: duplicate TYPE for {name}"));
                }
                let ok = match kind {
                    "counter" => Counter::from_name(name).is_some(),
                    "gauge" => Gauge::from_name(name).is_some(),
                    "histogram" => Hist::from_name(name).is_some(),
                    _ => false,
                };
                if !ok {
                    return Err(format!("line {no}: unknown metric {name} typed {kind}"));
                }
                match kind {
                    "counter" => stats.counters += 1,
                    "gauge" => stats.gauges += 1,
                    _ => stats.histograms += 1,
                }
                typed.push((name, kind));
            }
            continue;
        }

        let s = parse_sample_line(line, no)?;
        stats.samples += 1;
        let family = classify(s.name)
            .ok_or_else(|| format!("line {no}: sample for undeclared metric {}", s.name))?;
        let base = match &family {
            SampleName::Counter(c) => c.name(),
            SampleName::Gauge(g) => g.name(),
            SampleName::Bucket(h) | SampleName::Sum(h) | SampleName::Count(h) => h.name(),
        };
        if !typed.iter().any(|&(n, _)| n == base) {
            return Err(format!("line {no}: sample precedes its TYPE: {}", s.name));
        }
        let dedup_key = (format!("{}{}", s.name, s.le.unwrap_or("")), s.rank);
        if seen.contains(&dedup_key) {
            return Err(format!(
                "line {no}: duplicate sample {} rank {}",
                s.name, s.rank
            ));
        }
        seen.push(dedup_key);

        let r = rank_entry(&mut snap, s.rank);
        match family {
            SampleName::Counter(c) => {
                r.counters[c.index()] = s
                    .value
                    .parse()
                    .map_err(|_| format!("line {no}: bad counter value {:?}", s.value))?;
            }
            SampleName::Gauge(g) => {
                r.gauges[g.index()] = parse_f64(s.value)
                    .ok_or_else(|| format!("line {no}: bad gauge value {:?}", s.value))?;
            }
            SampleName::Bucket(h) => {
                let le =
                    s.le.ok_or_else(|| format!("line {no}: bucket sample lacks le"))?;
                let bucket = le_to_bucket(le)
                    .ok_or_else(|| format!("line {no}: le {le:?} is not a bucket bound"))?;
                let cum: u64 = s
                    .value
                    .parse()
                    .map_err(|_| format!("line {no}: bad bucket value {:?}", s.value))?;
                let entry = hist_parts
                    .iter_mut()
                    .find(|(hi, rk, ..)| *hi == h.index() && *rk == s.rank);
                let entry = match entry {
                    Some(e) => e,
                    None => {
                        hist_parts.push((h.index(), s.rank, Vec::new(), None, None));
                        hist_parts.last_mut().expect("just pushed")
                    }
                };
                if let Some(&(_, last)) = entry.2.last() {
                    if cum < last {
                        return Err(format!(
                            "line {no}: {} bucket series not cumulative ({cum} < {last})",
                            h.name()
                        ));
                    }
                }
                entry.2.push((bucket, cum));
            }
            SampleName::Sum(h) => {
                let v = s
                    .value
                    .parse()
                    .map_err(|_| format!("line {no}: bad sum value {:?}", s.value))?;
                upsert(&mut hist_parts, h.index(), s.rank).3 = Some(v);
            }
            SampleName::Count(h) => {
                let v = s
                    .value
                    .parse()
                    .map_err(|_| format!("line {no}: bad count value {:?}", s.value))?;
                upsert(&mut hist_parts, h.index(), s.rank).4 = Some(v);
            }
        }
    }

    // Materialize the accumulated histograms.
    for (hi, rank, series, sum, count) in hist_parts {
        let name = Hist::from_index(hi).expect("index from parse").name();
        let sum = sum.ok_or_else(|| format!("{name} rank {rank}: missing _sum"))?;
        let count = count.ok_or_else(|| format!("{name} rank {rank}: missing _count"))?;
        let (inf_seen, finite): (Vec<_>, Vec<_>) =
            series.iter().partition(|&&(b, _)| b == HIST_BUCKETS - 1);
        let &(_, inf_cum) = inf_seen
            .first()
            .ok_or_else(|| format!("{name} rank {rank}: missing +Inf bucket"))?;
        if inf_cum != count {
            return Err(format!(
                "{name} rank {rank}: +Inf bucket {inf_cum} != count {count}"
            ));
        }
        let mut buckets = vec![0u64; HIST_BUCKETS];
        let mut prev = 0u64;
        let mut prev_bucket = None;
        for &(b, cum) in &finite {
            if prev_bucket.is_some_and(|p| b <= p) {
                return Err(format!("{name} rank {rank}: bucket bounds out of order"));
            }
            buckets[b] = cum - prev;
            prev = cum;
            prev_bucket = Some(b);
        }
        buckets[HIST_BUCKETS - 1] = count
            .checked_sub(prev)
            .ok_or_else(|| format!("{name} rank {rank}: count below last bucket"))?;
        let r = snap
            .ranks
            .get_mut(rank)
            .expect("rank created by its samples");
        r.hists[hi] = HistSnapshot {
            buckets,
            count,
            sum,
        };
    }

    stats.ranks = snap.ranks.len();
    if stats.ranks == 0 || stats.samples == 0 {
        return Err("document holds no samples".into());
    }
    Ok((snap, stats))
}

fn rank_entry(snap: &mut MetricsSnapshot, rank: usize) -> &mut RankSnapshot {
    while snap.ranks.len() <= rank {
        snap.ranks.push(RankSnapshot::empty(snap.ranks.len()));
    }
    &mut snap.ranks[rank]
}

/// A histogram being reassembled while parsing: `(hist index, rank,
/// cumulative bucket samples in emission order, seen sum, seen count)`.
type HistParts = (usize, usize, Vec<(usize, u64)>, Option<u64>, Option<u64>);

fn upsert(parts: &mut Vec<HistParts>, hist: usize, rank: usize) -> &mut HistParts {
    if let Some(i) = parts.iter().position(|(h, r, ..)| *h == hist && *r == rank) {
        return &mut parts[i];
    }
    parts.push((hist, rank, Vec::new(), None, None));
    parts.last_mut().expect("just pushed")
}

/// Validate a Prometheus text-exposition document: it must parse under the
/// strict grammar of [`parse_prometheus`] and hold at least one sample.
pub fn validate_prometheus(text: &str) -> Result<ExportStats, String> {
    parse_prometheus(text).map(|(_, stats)| stats)
}

// ---- JSON ------------------------------------------------------------------

/// Render a snapshot as a JSON document:
///
/// ```json
/// {"wp_metrics":1,"ranks":[{"rank":0,
///   "counters":{"wp_..._total":0,...},
///   "gauges":{"wp_...":0,...},
///   "histograms":{"wp_...":{"count":2,"sum":9,"buckets":[[1,1],[3,1]]}}}]}
/// ```
///
/// Histogram `buckets` are sparse `[index, count]` pairs; non-finite gauges
/// are emitted as the strings `"NaN"` / `"+Inf"` / `"-Inf"` (JSON has no
/// number literals for them).
pub fn export_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"wp_metrics\":1,\"ranks\":[");
    for (ri, r) in snap.ranks.iter().enumerate() {
        if ri > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"rank\":{},\"counters\":{{", r.rank);
        for (i, &c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", c.name(), r.counter(c));
        }
        out.push_str("},\"gauges\":{");
        for (i, &g) in Gauge::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let v = r.gauge(g);
            if v.is_finite() {
                let _ = write!(out, "\"{}\":{}", g.name(), fmt_f64(v));
            } else {
                let _ = write!(out, "\"{}\":\"{}\"", g.name(), fmt_f64(v));
            }
        }
        out.push_str("},\"histograms\":{");
        for (i, &h) in Hist::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let hist = r.hist(h);
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                h.name(),
                hist.count,
                hist.sum
            );
            let mut first = true;
            for (b, &v) in hist.buckets.iter().enumerate() {
                if v > 0 {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, "[{b},{v}]");
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

/// Parse an [`export_json`] document back into a [`MetricsSnapshot`].
/// Strict: the version field must be present, every key must be a known
/// metric of the right family, and histogram bucket totals must equal
/// their `count`.
pub fn parse_json(text: &str) -> Result<(MetricsSnapshot, ExportStats), String> {
    let doc = json::parse(text)?;
    doc.as_obj().ok_or("top level is not an object")?;
    let version = doc
        .get("wp_metrics")
        .and_then(Json::as_u64)
        .ok_or("missing wp_metrics version field")?;
    if version != 1 {
        return Err(format!("unsupported wp_metrics version {version}"));
    }
    let ranks = doc
        .get("ranks")
        .and_then(Json::as_arr)
        .ok_or("missing ranks array")?;
    let mut snap = MetricsSnapshot::default();
    let mut stats = ExportStats {
        ranks: ranks.len(),
        samples: 0,
        counters: 0,
        gauges: 0,
        histograms: 0,
    };
    let mut seen_names: Vec<String> = Vec::new();
    for (i, r) in ranks.iter().enumerate() {
        r.as_obj()
            .ok_or_else(|| format!("rank {i} is not an object"))?;
        let rank =
            r.get("rank")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("rank entry {i} lacks a rank number"))? as usize;
        let mut rs = RankSnapshot::empty(rank);
        let counters = r
            .get("counters")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("rank {rank}: missing counters object"))?;
        for (name, v) in counters {
            let c = Counter::from_name(name)
                .ok_or_else(|| format!("rank {rank}: unknown counter {name}"))?;
            rs.counters[c.index()] = v
                .as_u64()
                .ok_or_else(|| format!("rank {rank}: counter {name} is not a u64"))?;
            stats.samples += 1;
            if !seen_names.iter().any(|n| n == name) {
                seen_names.push(name.clone());
                stats.counters += 1;
            }
        }
        let gauges = r
            .get("gauges")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("rank {rank}: missing gauges object"))?;
        for (name, v) in gauges {
            let g = Gauge::from_name(name)
                .ok_or_else(|| format!("rank {rank}: unknown gauge {name}"))?;
            let value = match v {
                Json::Str(s) => parse_f64(s)
                    .filter(|v| !v.is_finite())
                    .ok_or_else(|| format!("rank {rank}: gauge {name} bad string value"))?,
                other => other
                    .as_f64()
                    .ok_or_else(|| format!("rank {rank}: gauge {name} is not a number"))?,
            };
            rs.gauges[g.index()] = value;
            stats.samples += 1;
            if !seen_names.iter().any(|n| n == name) {
                seen_names.push(name.clone());
                stats.gauges += 1;
            }
        }
        let hists = r
            .get("histograms")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("rank {rank}: missing histograms object"))?;
        for (name, v) in hists {
            let h = Hist::from_name(name)
                .ok_or_else(|| format!("rank {rank}: unknown histogram {name}"))?;
            v.as_obj()
                .ok_or_else(|| format!("rank {rank}: histogram {name} is not an object"))?;
            let count = v
                .get("count")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("rank {rank}: {name} lacks count"))?;
            let sum = v
                .get("sum")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("rank {rank}: {name} lacks sum"))?;
            let pairs = v
                .get("buckets")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("rank {rank}: {name} lacks buckets"))?;
            let mut buckets = vec![0u64; HIST_BUCKETS];
            let mut total = 0u64;
            for p in pairs {
                let pair = p
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| format!("rank {rank}: {name} bucket is not a pair"))?;
                let b = pair[0]
                    .as_u64()
                    .filter(|&b| (b as usize) < HIST_BUCKETS)
                    .ok_or_else(|| format!("rank {rank}: {name} bucket index out of range"))?
                    as usize;
                let v = pair[1]
                    .as_u64()
                    .ok_or_else(|| format!("rank {rank}: {name} bucket count bad"))?;
                if buckets[b] != 0 {
                    return Err(format!("rank {rank}: {name} duplicate bucket {b}"));
                }
                buckets[b] = v;
                total += v;
                stats.samples += 1;
            }
            if total != count {
                return Err(format!(
                    "rank {rank}: {name} buckets sum to {total}, count says {count}"
                ));
            }
            rs.hists[h.index()] = HistSnapshot {
                buckets,
                count,
                sum,
            };
            stats.samples += 1;
            if !seen_names.iter().any(|n| n == name) {
                seen_names.push(name.clone());
                stats.histograms += 1;
            }
        }
        snap.merge_rank(rs);
    }
    if stats.ranks == 0 || stats.samples == 0 {
        return Err("document holds no samples".into());
    }
    Ok((snap, stats))
}

/// Validate an [`export_json`] document: it must parse under the strict
/// schema of [`parse_json`] and hold at least one sample.
pub fn validate_json(text: &str) -> Result<ExportStats, String> {
    parse_json(text).map(|(_, stats)| stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_snapshot() -> MetricsSnapshot {
        let reg = MetricsRegistry::new(2);
        let m0 = reg.handle(0);
        m0.add(Counter::P2pBytesSent, 4096);
        m0.incr(Counter::P2pMsgsSent);
        m0.set(Gauge::Loss, 3.5);
        m0.set(Gauge::CurrentLr, 3e-4);
        m0.observe(Hist::FwdNs, 1000);
        m0.observe(Hist::FwdNs, 0);
        m0.observe(Hist::FwdNs, u64::MAX); // clamps into the last bucket
        let m1 = reg.handle(1);
        m1.add(Counter::TokensProcessed, 1 << 60);
        m1.set(Gauge::GradNorm, -0.0);
        reg.snapshot()
    }

    #[test]
    fn prometheus_export_roundtrips_through_parser() {
        let snap = sample_snapshot();
        let text = export_prometheus(&snap);
        let (back, stats) = parse_prometheus(&text).expect("export must parse");
        assert_eq!(back, snap);
        assert_eq!(stats.ranks, 2);
        assert_eq!(stats.counters, Counter::COUNT);
        assert_eq!(stats.gauges, Gauge::COUNT);
        assert_eq!(stats.histograms, Hist::COUNT);
        assert!(stats.samples > 0);
    }

    #[test]
    fn json_export_roundtrips_through_parser() {
        let snap = sample_snapshot();
        let text = export_json(&snap);
        let (back, stats) = parse_json(&text).expect("export must parse");
        assert_eq!(back, snap);
        assert_eq!(stats.ranks, 2);
        assert_eq!(stats.histograms, Hist::COUNT);
    }

    #[test]
    fn large_counters_survive_json_exactly() {
        // 2^60 + 1 is not representable as f64; a float intermediate would
        // corrupt it.
        let mut snap = MetricsSnapshot::empty(1);
        snap.ranks[0].counters[Counter::TokensProcessed.index()] = (1 << 60) + 1;
        let (back, _) = parse_json(&export_json(&snap)).unwrap();
        assert_eq!(
            back.ranks[0].counter(Counter::TokensProcessed),
            (1 << 60) + 1
        );
    }

    #[test]
    fn non_finite_gauges_survive_both_formats() {
        let mut snap = MetricsSnapshot::empty(1);
        snap.ranks[0].gauges[Gauge::Loss.index()] = f64::INFINITY;
        snap.ranks[0].gauges[Gauge::GradNorm.index()] = f64::NEG_INFINITY;
        let (p, _) = parse_prometheus(&export_prometheus(&snap)).unwrap();
        assert_eq!(p.ranks[0].gauge(Gauge::Loss), f64::INFINITY);
        assert_eq!(p.ranks[0].gauge(Gauge::GradNorm), f64::NEG_INFINITY);
        let (j, _) = parse_json(&export_json(&snap)).unwrap();
        assert_eq!(j.ranks[0].gauge(Gauge::Loss), f64::INFINITY);
        snap.ranks[0].gauges[Gauge::Loss.index()] = f64::NAN;
        let (j, _) = parse_json(&export_json(&snap)).unwrap();
        assert!(j.ranks[0].gauge(Gauge::Loss).is_nan());
    }

    #[test]
    fn prometheus_validator_rejects_malformed_documents() {
        assert!(validate_prometheus("").is_err());
        assert!(
            validate_prometheus("# TYPE wp_train_loss gauge\n").is_err(),
            "no samples"
        );
        assert!(
            validate_prometheus("wp_train_loss{rank=\"0\"} 1.0\n").is_err(),
            "sample precedes TYPE"
        );
        assert!(
            validate_prometheus("# TYPE nope counter\nnope{rank=\"0\"} 1\n").is_err(),
            "unknown metric"
        );
        let dup = "# TYPE wp_train_loss gauge\n\
                   wp_train_loss{rank=\"0\"} 1.0\nwp_train_loss{rank=\"0\"} 2.0\n";
        assert!(validate_prometheus(dup).is_err(), "duplicate sample");
        // Non-cumulative bucket series.
        let bad_hist = "# TYPE wp_train_fwd_ns histogram\n\
            wp_train_fwd_ns_bucket{rank=\"0\",le=\"1\"} 5\n\
            wp_train_fwd_ns_bucket{rank=\"0\",le=\"3\"} 2\n\
            wp_train_fwd_ns_bucket{rank=\"0\",le=\"+Inf\"} 5\n\
            wp_train_fwd_ns_sum{rank=\"0\"} 9\n\
            wp_train_fwd_ns_count{rank=\"0\"} 5\n";
        let err = validate_prometheus(bad_hist).unwrap_err();
        assert!(err.contains("cumulative"), "{err}");
        // +Inf bucket disagrees with count.
        let bad_count = "# TYPE wp_train_fwd_ns histogram\n\
            wp_train_fwd_ns_bucket{rank=\"0\",le=\"+Inf\"} 4\n\
            wp_train_fwd_ns_sum{rank=\"0\"} 9\n\
            wp_train_fwd_ns_count{rank=\"0\"} 5\n";
        let err = validate_prometheus(bad_count).unwrap_err();
        assert!(err.contains("+Inf"), "{err}");
    }

    #[test]
    fn json_validator_rejects_malformed_documents() {
        assert!(validate_json("").is_err());
        assert!(validate_json("{}").is_err(), "missing version");
        assert!(
            validate_json("{\"wp_metrics\":2,\"ranks\":[]}").is_err(),
            "bad version"
        );
        assert!(
            validate_json("{\"wp_metrics\":1,\"ranks\":[]}").is_err(),
            "no ranks"
        );
        let bad_bucket = "{\"wp_metrics\":1,\"ranks\":[{\"rank\":0,\
            \"counters\":{},\"gauges\":{},\"histograms\":{\
            \"wp_train_fwd_ns\":{\"count\":3,\"sum\":9,\"buckets\":[[1,1]]}}}]}";
        let err = validate_json(bad_bucket).unwrap_err();
        assert!(err.contains("count says 3"), "{err}");
        assert!(validate_json("{\"wp_metrics\":1,\"ranks\":[{\"rank\":0").is_err());
        // Non-ASCII is valid JSON, but no metric or gauge string has any.
        let accented = "{\"wp_metrics\":1,\"ranks\":[{\"rank\":0,\
            \"counters\":{\"wp_tr\u{e4}in_steps_total\":1},\"gauges\":{},\"histograms\":{}}]}";
        let err = validate_json(accented).unwrap_err();
        assert!(err.contains("unknown counter"), "{err}");
    }

    #[test]
    fn bucket_bound_labels_invert() {
        for i in 0..HIST_BUCKETS - 1 {
            let le = bucket_upper_bound(i).to_string();
            assert_eq!(le_to_bucket(&le), Some(i), "le {le}");
        }
        assert_eq!(le_to_bucket("+Inf"), Some(HIST_BUCKETS - 1));
        assert_eq!(le_to_bucket("2"), None, "2 is not a 2^i-1 bound");
        assert_eq!(le_to_bucket("x"), None);
    }

    #[test]
    fn empty_world_exports_but_fails_validation() {
        let snap = MetricsSnapshot::empty(0);
        assert!(validate_prometheus(&export_prometheus(&snap)).is_err());
        assert!(validate_json(&export_json(&snap)).is_err());
    }

    #[test]
    fn metric_names_need_no_json_escaping() {
        for c in Counter::ALL {
            assert_eq!(json::escape(c.name()), c.name());
        }
        for g in Gauge::ALL {
            assert_eq!(json::escape(g.name()), g.name());
        }
        for h in Hist::ALL {
            assert_eq!(json::escape(h.name()), h.name());
        }
    }
}
