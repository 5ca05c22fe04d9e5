//! Exposition formats: a one-line JSON snapshot and a Prometheus text dump, plus
//! the reader that turns a Prometheus dump back into a snapshot.
//!
//! Both formats are rendered from an owned [`RegistrySnapshot`] so the output is a
//! consistent point-in-time view, and both iterate the snapshot's `BTreeMap`, so
//! output ordering is deterministic (sorted by metric name).  Neither pulls in a
//! serializer: the formats are simple enough that hand-rolled escaping keeps the
//! crate dependency-free.  Snapshots read from a remote server's text
//! ([`RegistrySnapshot::from_prometheus`]) use the same accessors as local ones.

use crate::hist::HistogramSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric's value inside a [`RegistrySnapshot`].
pub enum SnapshotValue {
    /// Monotone counter total.
    Counter(u64),
    /// Instantaneous gauge reading.
    Gauge(f64),
    /// Folded histogram.
    Histogram(HistogramSnapshot),
}

/// A point-in-time view of a whole registry, keyed by metric name (sorted).
pub struct RegistrySnapshot {
    /// Metric name → value, in sorted order.
    pub values: BTreeMap<String, SnapshotValue>,
}

/// Escapes a string for inclusion in a JSON document (shared with the trace
/// exporters).
pub(crate) fn json_escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders an `f64` as a JSON number (`null` for non-finite values, integers
/// without a trailing `.0` so counters read naturally).  Shared with the event
/// log and health report renderers.
pub(crate) fn json_number(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Sanitizes a dotted metric name into a Prometheus metric name:
/// `[a-zA-Z0-9_:]` pass through, everything else becomes `_`, and a leading
/// digit gains a `_` prefix.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => out.push(c),
            '0'..='9' => {
                if i == 0 {
                    out.push('_');
                }
                out.push(c);
            }
            _ => out.push('_'),
        }
    }
    out
}

/// Renders an `f64` for the Prometheus text format (`NaN`, `+Inf`, `-Inf` spelled
/// out; everything else via the shortest round-trip `Display`).
fn prometheus_number(v: f64, out: &mut String) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "+Inf" } else { "-Inf" });
    } else {
        let _ = write!(out, "{v}");
    }
}

impl RegistrySnapshot {
    /// Sum of the named counters (missing or non-counter names read 0).
    pub fn counter_sum<S: AsRef<str>>(&self, names: &[S]) -> u64 {
        names
            .iter()
            .filter_map(|name| match self.values.get(name.as_ref()) {
                Some(SnapshotValue::Counter(n)) => Some(*n),
                _ => None,
            })
            .sum()
    }

    /// The named gauge's reading (missing reads 0).
    pub fn gauge_value(&self, name: &str) -> f64 {
        match self.values.get(name) {
            Some(SnapshotValue::Gauge(v)) => *v,
            _ => 0.0,
        }
    }

    /// The named histograms, merged (missing names contribute nothing).
    pub fn merged_histogram<S: AsRef<str>>(&self, names: &[S]) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for name in names {
            if let Some(SnapshotValue::Histogram(h)) = self.values.get(name.as_ref()) {
                merged.merge(h);
            }
        }
        merged
    }

    /// Reads a Prometheus text exposition back into a snapshot keyed by the
    /// sanitized names ([`prometheus_name`]): the inverse of
    /// [`RegistrySnapshot::to_prometheus`].  The text may come from a remote
    /// server, so reading never panics: a sample without a `# TYPE` family, or
    /// whose name, label or value does not parse, is skipped.
    pub fn from_prometheus(text: &str) -> RegistrySnapshot {
        let mut kinds: BTreeMap<&str, &str> = BTreeMap::new();
        let mut values = BTreeMap::new();
        // Per histogram family: `(le, cumulative)` buckets, `_sum`, `_count`.
        type Lines = (Vec<(u64, u64)>, u64, Option<u64>);
        let mut histograms: BTreeMap<&str, Lines> = BTreeMap::new();
        for line in text.lines() {
            if let Some(declaration) = line.strip_prefix("# TYPE ") {
                if let Some((name, kind)) = declaration.split_once(' ') {
                    kinds.insert(name, kind);
                }
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let (name, label) = match series.split_once('{') {
                Some((name, label)) => (name, Some(label)),
                None => (series, None),
            };
            let scalar = match (kinds.get(name).copied(), label) {
                (Some("counter"), None) => value.parse().ok().map(SnapshotValue::Counter),
                (Some("gauge"), None) => value.parse().ok().map(SnapshotValue::Gauge),
                _ => None,
            };
            if let Some(scalar) = scalar {
                values.insert(name.to_string(), scalar);
                continue;
            }
            let Some((family, part)) = ["_bucket", "_sum", "_count"]
                .into_iter()
                .find_map(|suffix| Some((name.strip_suffix(suffix)?, suffix)))
            else {
                continue;
            };
            let (Some("histogram"), Ok(n)) = (kinds.get(family).copied(), value.parse()) else {
                continue;
            };
            let (buckets, sum, count) = histograms.entry(family).or_default();
            let le = label.and_then(|l| l.strip_prefix("le=\"")?.strip_suffix("\"}"));
            match (part, le) {
                ("_bucket", Some("+Inf")) => buckets.push((u64::MAX, n)),
                ("_bucket", Some(le)) => buckets.extend(le.parse().ok().map(|le| (le, n))),
                ("_sum", None) => *sum = n,
                ("_count", None) => *count = Some(n),
                _ => {}
            }
        }
        for (family, (mut buckets, sum, count)) in histograms {
            buckets.sort_unstable();
            let count = count.or(buckets.last().map(|&(_, n)| n)).unwrap_or(0);
            let histogram = HistogramSnapshot::from_cumulative_buckets(&buckets, count, sum);
            values.insert(family.to_string(), SnapshotValue::Histogram(histogram));
        }
        RegistrySnapshot { values }
    }

    /// Renders the snapshot as a single line of JSON: an object keyed by metric
    /// name, sorted.  Counters become integers, gauges numbers (non-finite → `null`),
    /// histograms objects `{"count":..,"sum":..,"mean":..,"p50":..,"p90":..,
    /// "p99":..,"p999":..,"max":..}` with bucket detail omitted (quantiles are
    /// pre-computed so downstream log pipelines need no histogram math; p999 is
    /// included because tail latency is what overload shedding is judged on).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64 + 48 * self.values.len());
        out.push('{');
        let mut first = true;
        for (name, value) in &self.values {
            if !first {
                out.push(',');
            }
            first = false;
            json_escape(name, &mut out);
            out.push(':');
            match value {
                SnapshotValue::Counter(n) => {
                    let _ = write!(out, "{n}");
                }
                SnapshotValue::Gauge(v) => json_number(*v, &mut out),
                SnapshotValue::Histogram(h) => {
                    out.push_str("{\"count\":");
                    let _ = write!(out, "{}", h.count);
                    out.push_str(",\"sum\":");
                    let _ = write!(out, "{}", h.sum);
                    out.push_str(",\"mean\":");
                    json_number(h.mean(), &mut out);
                    for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p999", 0.999)] {
                        let _ = write!(out, ",\"{label}\":");
                        json_number(h.quantile(q), &mut out);
                    }
                    out.push_str(",\"max\":");
                    let _ = write!(out, "{}", h.max);
                    out.push('}');
                }
            }
        }
        out.push('}');
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format (version 0.0.4).
    ///
    /// Counters render as `# TYPE <name> counter` plus one sample; gauges likewise as
    /// `gauge`; histograms as the conventional `_bucket{le="..."}` cumulative series
    /// (only non-empty buckets, plus the mandatory `+Inf`), `_sum`, and `_count`.
    /// Dots in metric names become underscores.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(128 + 96 * self.values.len());
        for (name, value) in &self.values {
            let pname = prometheus_name(name);
            match value {
                SnapshotValue::Counter(n) => {
                    let _ = writeln!(out, "# TYPE {pname} counter");
                    let _ = writeln!(out, "{pname} {n}");
                }
                SnapshotValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {pname} gauge");
                    let _ = write!(out, "{pname} ");
                    prometheus_number(*v, &mut out);
                    out.push('\n');
                }
                SnapshotValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {pname} histogram");
                    for (upper, cumulative) in h.cumulative_buckets() {
                        let _ = writeln!(out, "{pname}_bucket{{le=\"{upper}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {}", h.count);
                    let _ = writeln!(out, "{pname}_sum {}", h.sum);
                    let _ = writeln!(out, "{pname}_count {}", h.count);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn sample_snapshot() -> RegistrySnapshot {
        let h = Histogram::new();
        for v in [5u64, 100, 100, 2_000] {
            h.record(v);
        }
        let mut values = BTreeMap::new();
        values.insert(
            "serve.requests.served".to_string(),
            SnapshotValue::Counter(7),
        );
        values.insert("serve.queue.depth".to_string(), SnapshotValue::Gauge(2.0));
        values.insert(
            "advisor.latency.best_policy".to_string(),
            SnapshotValue::Histogram(h.snapshot()),
        );
        RegistrySnapshot { values }
    }

    #[test]
    fn json_line_is_one_sorted_line() {
        let json = sample_snapshot().to_json_line();
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"advisor.latency.best_policy\":{\"count\":4,"));
        let served = json.find("serve.requests.served").unwrap();
        let depth = json.find("serve.queue.depth").unwrap();
        assert!(depth < served, "keys must be sorted");
        assert!(json.contains("\"serve.requests.served\":7"));
        assert!(json.contains("\"serve.queue.depth\":2"));
        assert!(json.contains("\"max\":2000"));
    }

    #[test]
    fn json_escapes_and_nulls() {
        let mut values = BTreeMap::new();
        values.insert("odd\"name".to_string(), SnapshotValue::Gauge(f64::NAN));
        let json = RegistrySnapshot { values }.to_json_line();
        assert_eq!(json, "{\"odd\\\"name\":null}");
    }

    #[test]
    fn prometheus_dump_has_expected_families() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("# TYPE serve_requests_served counter\nserve_requests_served 7\n"));
        assert!(text.contains("# TYPE serve_queue_depth gauge\nserve_queue_depth 2\n"));
        assert!(text.contains("# TYPE advisor_latency_best_policy histogram"));
        assert!(text.contains("advisor_latency_best_policy_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("advisor_latency_best_policy_count 4"));
        assert!(text.contains("advisor_latency_best_policy_sum 2205"));
        // Cumulative bucket counts end at the total.
        let last_le = text
            .lines()
            .rfind(|l| l.contains("_bucket{le=") && !l.contains("+Inf"))
            .unwrap();
        assert!(last_le.ends_with(" 4"));
    }

    #[test]
    fn prometheus_text_reads_back_into_a_snapshot() {
        let original = sample_snapshot();
        let back = RegistrySnapshot::from_prometheus(&original.to_prometheus());
        let names: Vec<&String> = back.values.keys().collect();
        assert_eq!(
            names,
            [
                "advisor_latency_best_policy",
                "serve_queue_depth",
                "serve_requests_served"
            ]
        );
        assert_eq!(back.counter_sum(&["serve_requests_served", "missing"]), 7);
        assert_eq!(back.gauge_value("serve_queue_depth"), 2.0);
        let h = back.merged_histogram(&["advisor_latency_best_policy"]);
        let SnapshotValue::Histogram(o) = &original.values["advisor.latency.best_policy"] else {
            panic!("histogram expected");
        };
        assert_eq!((h.count, h.sum), (o.count, o.sum));
        assert_eq!(h.cumulative_buckets(), o.cumulative_buckets());
        assert_eq!(h.quantile(0.5), o.quantile(0.5));
        // Re-rendering the read-back text reproduces it byte for byte.
        assert_eq!(back.to_prometheus(), original.to_prometheus());
    }

    #[test]
    fn garbled_prometheus_text_is_skipped_not_fatal() {
        let text = "# TYPE c counter\nc 12\nc notanumber\nuntyped 4\n# TYPE g gauge\ng +Inf\n\
                    # TYPE h histogram\nh_bucket{le=\"64\"} 3\nh_bucket{le=\"oops\"} 9\n\
                    h_bucket{le=\"32\"} 5\nh_bucket 1\nh_sum x\nh_count 5\n# TYPE\n#\n\n \
                    h_bucket{le=\"+Inf\"";
        let snap = RegistrySnapshot::from_prometheus(text);
        assert_eq!(snap.counter_sum(&["c"]), 12);
        assert_eq!(snap.gauge_value("g"), f64::INFINITY);
        assert!(!snap.values.contains_key("untyped"));
        let h = snap.merged_histogram(&["h"]);
        assert_eq!((h.count, h.sum), (5, 0));
        // Every prefix of a well-formed dump decodes too.
        let full = sample_snapshot().to_prometheus();
        for cut in 0..full.len() {
            let _ = RegistrySnapshot::from_prometheus(&full[..cut]);
        }
    }

    #[test]
    fn prometheus_name_sanitization() {
        assert_eq!(prometheus_name("a.b-c.d"), "a_b_c_d");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("ok_name:sub"), "ok_name:sub");
    }
}
