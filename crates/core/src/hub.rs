//! The session metrics hub: folds telemetry snapshots into named
//! series and exports them as Prometheus-style text or JSON.
//!
//! [`TelemetrySnapshot`] is a full-fidelity dump (raw spans, merged
//! histograms); the [`MetricsHub`] is the *export* surface on top of
//! it — a flat `(name, label, field) → u64` series map a scraper or a
//! dashboard can consume without knowing the span model. The runtime
//! folds snapshots into the hub periodically during a streaming
//! session and once at the end, so [`crate::SessionStats`] carries a
//! ready-to-export view.
//!
//! All values are `u64` (nanoseconds, bytes, counts): that keeps the
//! hub `Eq` (so `SessionStats` stays comparable in tests) and the
//! exports bit-stable across runs of the same recorded data.

use insitu_telemetry::{json, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Histogram quantiles the hub extracts, as `(field, prometheus tag)`.
const QUANTILES: [(&str, &str); 3] = [("p50", "0.5"), ("p90", "0.9"), ("p99", "0.99")];

/// A fold of telemetry snapshots into flat named series.
///
/// Keys are `(name, label, field)`: counters contribute the fields
/// `calls`/`total`/`max`, histograms contribute
/// `count`/`sum`/`p50`/`p90`/`p99`/`p100`. Re-folding a newer snapshot
/// of the same epoch overwrites the series in place (snapshots are
/// cumulative within an epoch).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsHub {
    series: BTreeMap<(String, String, &'static str), u64>,
    folds: u64,
    epoch: u64,
}

impl MetricsHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a snapshot's counters and histograms into the series map.
    pub fn fold(&mut self, snap: &TelemetrySnapshot) {
        self.folds += 1;
        self.epoch = snap.epoch;
        for c in &snap.counters {
            let key = |field| (c.name.clone(), c.label.clone(), field);
            self.series.insert(key("calls"), c.calls);
            self.series.insert(key("total"), c.total);
            self.series.insert(key("max"), c.max);
        }
        for h in &snap.hists {
            let key = |field| (h.name.clone(), h.label.clone(), field);
            self.series.insert(key("count"), h.hist.count());
            self.series.insert(key("sum"), h.hist.sum());
            self.series.insert(key("p50"), h.p50);
            self.series.insert(key("p90"), h.p90);
            self.series.insert(key("p99"), h.p99);
            self.series.insert(key("p100"), h.max);
        }
    }

    /// Number of series currently held.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether nothing has been folded in.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// How many snapshots have been folded.
    pub fn folds(&self) -> u64 {
        self.folds
    }

    /// Telemetry epoch of the last folded snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Looks up one series value.
    pub fn get(&self, name: &str, label: &str, field: &str) -> Option<u64> {
        self.series
            .iter()
            .find(|((n, l, f), _)| n == name && l == label && *f == field)
            .map(|(_, &v)| v)
    }

    /// Iterates every series as `(name, label, field, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, &'static str, u64)> + '_ {
        self.series.iter().map(|((n, l, f), &v)| (n.as_str(), l.as_str(), *f, v))
    }

    /// Renders the series in the Prometheus text exposition format.
    ///
    /// Counter series become `insitu_c_<name>_{calls,total,max}`
    /// families; histogram series become one `summary` family
    /// `insitu_h_<name>` (with `quantile` labels plus `_sum`/`_count`)
    /// and a gauge `insitu_h_<name>_max`. Dots in telemetry names map
    /// to underscores; the telemetry label rides along as a
    /// `label="…"` Prometheus label. The output always passes
    /// [`validate_prometheus`].
    pub fn to_prometheus(&self) -> String {
        // Regroup series by (name, label) so each family is emitted once.
        let mut counters: BTreeMap<(&str, &str), BTreeMap<&str, u64>> = BTreeMap::new();
        let mut hists: BTreeMap<(&str, &str), BTreeMap<&str, u64>> = BTreeMap::new();
        for ((name, label, field), &v) in &self.series {
            let group = match *field {
                "calls" | "total" | "max" => counters.entry((name, label)).or_default(),
                _ => hists.entry((name, label)).or_default(),
            };
            group.insert(field, v);
        }
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for ((name, label), fields) in &counters {
            let base = format!("insitu_c_{}", sanitize(name));
            for (field, v) in fields {
                let family = format!("{base}_{field}");
                if typed.insert(family.clone()) {
                    let _ = writeln!(out, "# HELP {family} telemetry counter {name} {field}");
                    let kind = if *field == "max" { "gauge" } else { "counter" };
                    let _ = writeln!(out, "# TYPE {family} {kind}");
                }
                let _ = writeln!(out, "{family}{} {v}", label_set(&[("label", label)]));
            }
        }
        for ((name, label), fields) in &hists {
            let base = format!("insitu_h_{}", sanitize(name));
            if typed.insert(base.clone()) {
                let _ = writeln!(out, "# HELP {base} telemetry histogram {name}");
                let _ = writeln!(out, "# TYPE {base} summary");
            }
            for (field, tag) in QUANTILES {
                if let Some(v) = fields.get(field) {
                    let _ = writeln!(
                        out,
                        "{base}{} {v}",
                        label_set(&[("label", label), ("quantile", tag)])
                    );
                }
            }
            if let Some(v) = fields.get("sum") {
                let _ = writeln!(out, "{base}_sum{} {v}", label_set(&[("label", label)]));
            }
            if let Some(v) = fields.get("count") {
                let _ = writeln!(out, "{base}_count{} {v}", label_set(&[("label", label)]));
            }
            if let Some(v) = fields.get("p100") {
                let family = format!("{base}_max");
                if typed.insert(family.clone()) {
                    let _ = writeln!(out, "# HELP {family} largest sample of {name}");
                    let _ = writeln!(out, "# TYPE {family} gauge");
                }
                let _ = writeln!(out, "{family}{} {v}", label_set(&[("label", label)]));
            }
        }
        out
    }

    /// Renders the series as a JSON object:
    /// `{"epoch":…,"folds":…,"series":[{"name":…,"label":…,"field":…,"value":…},…]}`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .series
            .iter()
            .map(|((name, label, field), v)| {
                format!(
                    "{{\"name\":{},\"label\":{},\"field\":\"{field}\",\"value\":{v}}}",
                    json::quote(name),
                    json::quote(label)
                )
            })
            .collect();
        format!(
            "{{\"epoch\":{},\"folds\":{},\"series\":[{}]}}",
            self.epoch,
            self.folds,
            rows.join(",")
        )
    }
}

/// Maps a telemetry name to a Prometheus metric-name fragment.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders a `{k="v",…}` label set, escaping values.
fn label_set(pairs: &[(&str, &str)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| {
            let escaped: String = v
                .chars()
                .flat_map(|c| match c {
                    '"' => vec!['\\', '"'],
                    '\\' => vec!['\\', '\\'],
                    '\n' => vec!['\\', 'n'],
                    c => vec![c],
                })
                .collect();
            format!("{k}=\"{escaped}\"")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A tiny Prometheus text-format checker: validates comment lines
/// (`# HELP` / `# TYPE` with a known metric type), metric-name syntax,
/// balanced `name="value"` label sets, numeric sample values, and that
/// every sample belongs to a family declared by a preceding `# TYPE`
/// (allowing the summary's `_sum`/`_count` children). Returns the
/// number of sample lines.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_prometheus(text: &str) -> std::result::Result<usize, String> {
    let mut families: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    let mut samples = 0usize;
    for (no, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |why: &str| Err(format!("line {}: {why}: {line:?}", no + 1));
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let (Some(name), Some(kind)) = (it.next(), it.next()) else {
                    return err("malformed TYPE line");
                };
                if !valid_metric_name(name) {
                    return err("bad metric name in TYPE");
                }
                if !matches!(kind, "counter" | "gauge" | "summary" | "histogram" | "untyped") {
                    return err("unknown metric type");
                }
                families.insert(name);
            } else if rest.strip_prefix("HELP ").is_none() && !rest.is_empty() {
                // Plain comments are legal; nothing to check.
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return err("bad metric name");
        }
        let family_known = families.contains(name)
            || name
                .strip_suffix("_sum")
                .or_else(|| name.strip_suffix("_count"))
                .is_some_and(|base| families.contains(base));
        if !family_known {
            return err("sample before its # TYPE declaration");
        }
        let mut rest = &line[name_end..];
        if let Some(body) = rest.strip_prefix('{') {
            let Some(close) = body.find('}') else {
                return err("unterminated label set");
            };
            let labels = &body[..close];
            if !labels.is_empty() {
                for pair in split_label_pairs(labels) {
                    let Some((k, v)) = pair.split_once('=') else {
                        return err("label without '='");
                    };
                    if !valid_metric_name(k) {
                        return err("bad label name");
                    }
                    if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
                        return err("label value not quoted");
                    }
                }
            }
            rest = &body[close + 1..];
        }
        let value = rest.trim();
        let numeric = matches!(value, "+Inf" | "-Inf" | "NaN")
            || value.parse::<f64>().is_ok();
        if value.is_empty() || !numeric {
            return err("missing or non-numeric sample value");
        }
        samples += 1;
    }
    Ok(samples)
}

/// Splits a label body on commas that are outside quoted values.
fn split_label_pairs(labels: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut start, mut in_quotes, mut escaped) = (0usize, false, false);
    for (i, c) in labels.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(&labels[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    out.push(&labels[start..]);
    out
}

/// Prometheus metric/label name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_telemetry::hist::Histogram;
    use insitu_telemetry::{CounterTotal, HistogramTotal};

    fn snapshot() -> TelemetrySnapshot {
        let mut h = Histogram::new();
        for v in [1_000u64, 2_000, 4_000, 1_000_000] {
            h.record(v);
        }
        let (p50, p90, p99, max) =
            (h.percentile(0.5), h.percentile(0.9), h.percentile(0.99), h.max());
        TelemetrySnapshot {
            spans: vec![],
            counters: vec![CounterTotal {
                name: "node.stage".into(),
                label: String::new(),
                calls: 4,
                total: 1_007_000,
                max: 1_000_000,
            }],
            hists: vec![HistogramTotal {
                name: "node.stage".into(),
                label: String::new(),
                hist: h,
                p50,
                p90,
                p99,
                max,
            }],
            epoch: 2,
            dropped_events: 0,
        }
    }

    #[test]
    fn fold_builds_series() {
        let mut hub = MetricsHub::new();
        assert!(hub.is_empty());
        hub.fold(&snapshot());
        assert_eq!(hub.folds(), 1);
        assert_eq!(hub.epoch(), 2);
        assert_eq!(hub.get("node.stage", "", "calls"), Some(4));
        assert_eq!(hub.get("node.stage", "", "count"), Some(4));
        assert_eq!(hub.get("node.stage", "", "p100"), Some(1_000_000));
        assert!(hub.get("node.stage", "", "p99").unwrap() >= hub.get("node.stage", "", "p50").unwrap());
        // Re-folding overwrites rather than double-counting.
        hub.fold(&snapshot());
        assert_eq!(hub.get("node.stage", "", "calls"), Some(4));
        assert_eq!(hub.folds(), 2);
    }

    #[test]
    fn prometheus_export_validates_and_carries_quantiles() {
        let mut hub = MetricsHub::new();
        hub.fold(&snapshot());
        let text = hub.to_prometheus();
        let n = validate_prometheus(&text).expect("export must parse");
        assert!(n >= 8, "expected counter + summary samples, got {n}:\n{text}");
        assert!(text.contains("quantile=\"0.99\""), "{text}");
        assert!(text.contains("insitu_h_node_stage_sum"), "{text}");
        assert!(text.contains("insitu_c_node_stage_calls"), "{text}");
        assert!(text.contains("# TYPE insitu_h_node_stage summary"), "{text}");
    }

    #[test]
    fn json_export_parses() {
        let mut hub = MetricsHub::new();
        hub.fold(&snapshot());
        let v = insitu_telemetry::json::parse(&hub.to_json()).expect("valid JSON");
        assert_eq!(v.get("epoch").and_then(|e| e.as_f64()), Some(2.0));
        let series = v.get("series").and_then(|s| s.as_array()).unwrap();
        assert_eq!(series.len(), hub.len());
        assert!(series.iter().any(|row| {
            row.get("field").and_then(|f| f.as_str()) == Some("p99")
        }));
    }

    #[test]
    fn json_export_round_trips_every_series() {
        let mut hub = MetricsHub::new();
        let mut snap = snapshot();
        // Exercise string escaping: labels with quotes, backslashes,
        // newlines and control characters must survive the round trip.
        snap.counters.push(CounterTotal {
            name: "cloud.cache.hit".into(),
            label: "bs=\"8\"\\\n\t\u{1}".into(),
            calls: 3,
            total: 123,
            max: 100,
        });
        hub.fold(&snap);
        let v = insitu_telemetry::json::parse(&hub.to_json()).expect("valid JSON");
        assert_eq!(v.get("epoch").and_then(|e| e.as_f64()), Some(hub.epoch() as f64));
        assert_eq!(v.get("folds").and_then(|f| f.as_f64()), Some(hub.folds() as f64));
        // Rebuild the flat series map from the parsed document and
        // compare it against the hub's own iterator, key by key.
        let rows = v.get("series").and_then(|s| s.as_array()).unwrap();
        let mut parsed: std::collections::BTreeMap<(String, String, String), u64> = rows
            .iter()
            .map(|row| {
                let s = |k: &str| row.get(k).and_then(|x| x.as_str()).unwrap().to_string();
                let value = row.get("value").and_then(|x| x.as_f64()).unwrap() as u64;
                ((s("name"), s("label"), s("field")), value)
            })
            .collect();
        assert_eq!(parsed.len(), hub.len(), "duplicate or missing rows");
        for (name, label, field, value) in hub.iter() {
            let key = (name.to_string(), label.to_string(), field.to_string());
            assert_eq!(parsed.remove(&key), Some(value), "series {key:?} mismatched");
        }
        assert!(parsed.is_empty(), "extra rows in export: {parsed:?}");
    }

    #[test]
    fn validator_rejects_malformed_text() {
        assert!(validate_prometheus("# TYPE ok counter\nok 1").is_ok());
        for bad in [
            "no_type_decl 1",
            "# TYPE m counter\n1bad_name 2",
            "# TYPE m wat\nm 1",
            "# TYPE m counter\nm{x=unquoted} 1",
            "# TYPE m counter\nm not_a_number",
            "# TYPE m counter\nm{unterminated=\"v\" 1",
        ] {
            assert!(validate_prometheus(bad).is_err(), "accepted: {bad}");
        }
        // Summary children are covered by the parent family.
        let ok = "# TYPE s summary\ns{quantile=\"0.5\"} 1\ns_sum 2\ns_count 3";
        assert_eq!(validate_prometheus(ok), Ok(3));
    }

    #[test]
    fn label_values_are_escaped() {
        let set = label_set(&[("label", "8x\"16\"")]);
        assert_eq!(set, "{label=\"8x\\\"16\\\"\"}");
        let text = format!("# TYPE m counter\nm{set} 5");
        assert_eq!(validate_prometheus(&text), Ok(1));
    }
}
