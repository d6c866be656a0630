//! Global metric registry: named [`Counter`]/[`Gauge`]/[`Histogram`] handles
//! plus keyed collector closures, snapshotted into a self-describing
//! JSON/CSV export.
//!
//! Handles are cheap `Arc` clones over atomics (counters/gauges) or a mutex
//! (histograms); creating the same name twice returns the same underlying
//! instrument. Collectors bridge pre-existing telemetry (e.g. the `pm`
//! crate's global counters) into the snapshot without copying them into
//! registry storage on every update: they run at [`snapshot`] time and are
//! keyed so re-registration is idempotent.
//!
//! ```
//! obs::counter("doc.requests").add(3);
//! obs::gauge("doc.temperature").set(21.5);
//! obs::histogram("doc.latency_ns").record(1200);
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter_value("doc.requests"), Some(3));
//! assert!(snap.to_json().contains("\"doc.requests\""));
//! ```

use crate::hist::Hist;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Schema identifier stamped into every JSON export.
pub const SCHEMA: &str = "recipe-obs-metrics/v1";

/// Monotonic counter handle.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge handle (stores `f64` bits atomically).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared histogram handle; per-thread [`Hist`]s are merged in via
/// [`Histogram::merge_from`] rather than locking per record.
#[derive(Clone)]
pub struct Histogram(Arc<Mutex<Hist>>);

impl Histogram {
    /// Record one observation directly (locks; prefer thread-local `Hist` +
    /// `merge_from` on hot paths).
    pub fn record(&self, v: u64) {
        self.0.lock().record(v);
    }

    /// Record a run of observations under one lock.
    pub fn record_all(&self, vs: &[u64]) {
        let mut h = self.0.lock();
        for &v in vs {
            h.record(v);
        }
    }

    /// Merge a locally-accumulated histogram into the shared one.
    pub fn merge_from(&self, h: &Hist) {
        self.0.lock().merge(h);
    }

    /// Replace the shared histogram's contents.
    pub fn set(&self, h: Hist) {
        *self.0.lock() = h;
    }

    /// Copy of the current state.
    pub fn snapshot(&self) -> Hist {
        self.0.lock().clone()
    }
}

enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Hist(Arc<Mutex<Hist>>),
}

type Collector = Box<dyn Fn(&mut Vec<Sample>) + Send>;

struct Registry {
    slots: Mutex<BTreeMap<String, Slot>>,
    collectors: Mutex<BTreeMap<String, Collector>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        slots: Mutex::new(BTreeMap::new()),
        collectors: Mutex::new(BTreeMap::new()),
    })
}

/// Get or create the counter named `name`.
///
/// # Panics
/// If `name` already exists with a different instrument type.
pub fn counter(name: &str) -> Counter {
    let mut slots = registry().slots.lock();
    let slot =
        slots.entry(name.to_string()).or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
    match slot {
        Slot::Counter(a) => Counter(Arc::clone(a)),
        _ => panic!("obs: metric {name:?} already registered with a different type"),
    }
}

/// Get or create the gauge named `name`.
///
/// # Panics
/// If `name` already exists with a different instrument type.
pub fn gauge(name: &str) -> Gauge {
    let mut slots = registry().slots.lock();
    let slot = slots
        .entry(name.to_string())
        .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))));
    match slot {
        Slot::Gauge(a) => Gauge(Arc::clone(a)),
        _ => panic!("obs: metric {name:?} already registered with a different type"),
    }
}

/// Get or create the histogram named `name`.
///
/// # Panics
/// If `name` already exists with a different instrument type.
pub fn histogram(name: &str) -> Histogram {
    let mut slots = registry().slots.lock();
    let slot = slots
        .entry(name.to_string())
        .or_insert_with(|| Slot::Hist(Arc::new(Mutex::new(Hist::new()))));
    match slot {
        Slot::Hist(h) => Histogram(Arc::clone(h)),
        _ => panic!("obs: metric {name:?} already registered with a different type"),
    }
}

/// Register (or replace) the collector stored under `key`. Collectors run at
/// [`snapshot`] time and push additional [`Sample`]s; keying makes repeated
/// installation from `Once`-style initialisers idempotent.
pub fn register_collector(key: &str, f: impl Fn(&mut Vec<Sample>) + Send + 'static) {
    registry().collectors.lock().insert(key.to_string(), Box::new(f));
}

/// A snapshotted metric value.
#[derive(Clone, Debug)]
pub enum Value {
    /// Monotonic counter.
    Counter(u64),
    /// Point-in-time gauge.
    Gauge(f64),
    /// Full distribution.
    Hist(Hist),
}

/// One named metric in a [`Snapshot`].
#[derive(Clone, Debug)]
pub struct Sample {
    /// Metric name (slash-separated label convention, e.g. `lat.wall_ns/P-ART/a`).
    pub name: String,
    /// The value.
    pub value: Value,
}

/// Point-in-time view of every registered instrument and collector output,
/// sorted by name.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// All samples, ascending by name.
    pub samples: Vec<Sample>,
}

/// Take a snapshot of the whole registry (instruments + collectors).
pub fn snapshot() -> Snapshot {
    let mut samples: Vec<Sample> = Vec::new();
    {
        let slots = registry().slots.lock();
        for (name, slot) in slots.iter() {
            let value = match slot {
                Slot::Counter(a) => Value::Counter(a.load(Ordering::Relaxed)),
                Slot::Gauge(a) => Value::Gauge(f64::from_bits(a.load(Ordering::Relaxed))),
                Slot::Hist(h) => Value::Hist(h.lock().clone()),
            };
            samples.push(Sample { name: name.clone(), value });
        }
    }
    {
        let collectors = registry().collectors.lock();
        for f in collectors.values() {
            f(&mut samples);
        }
    }
    samples.sort_by(|a, b| a.name.cmp(&b.name));
    Snapshot { samples }
}

fn json_escape(out: &mut String, s: &str) {
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
}

fn json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
        // `{}` prints integral floats without a decimal point, which is
        // still a valid JSON number, so nothing more to do.
    } else {
        out.push_str("null");
    }
}

impl Snapshot {
    /// Look up a sample by exact name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.samples
            .binary_search_by(|s| s.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.samples[i].value)
    }

    /// Counter value by name, if present and a counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(Value::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by name, if present and a gauge.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(Value::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram by name, if present and a histogram.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        match self.get(name) {
            Some(Value::Hist(h)) => Some(h),
            _ => None,
        }
    }

    /// All sample names, ascending.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.samples.iter().map(|s| s.name.as_str())
    }

    /// Self-describing JSON export:
    ///
    /// ```json
    /// {"schema":"recipe-obs-metrics/v1","metrics":[
    ///   {"name":"pm.clwb","type":"counter","value":12},
    ///   {"name":"peak_mb","type":"gauge","value":1.5},
    ///   {"name":"lat","type":"histogram","count":2,"sum":30,"min":10,"max":20,
    ///    "p50":10,"p90":20,"p99":20,"p999":20,"buckets":[[10,1],[20,1]]}
    /// ]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":\"");
        out.push_str(SCHEMA);
        out.push_str("\",\"metrics\":[");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            json_escape(&mut out, &s.name);
            out.push_str("\",");
            match &s.value {
                Value::Counter(v) => {
                    let _ = write!(out, "\"type\":\"counter\",\"value\":{v}");
                }
                Value::Gauge(v) => {
                    out.push_str("\"type\":\"gauge\",\"value\":");
                    json_f64(&mut out, *v);
                }
                Value::Hist(h) => {
                    let _ = write!(
                        out,
                        "\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                         \"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"buckets\":[",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                        h.quantile(0.50),
                        h.quantile(0.90),
                        h.quantile(0.99),
                        h.quantile(0.999),
                    );
                    for (j, (b, c)) in h.nonzero_buckets().into_iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{b},{c}]");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Flat CSV export; histograms expand into their summary statistics.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,type,value,count,sum,min,max,p50,p90,p99,p999\n");
        for s in &self.samples {
            let name = s.name.replace(',', ";");
            match &s.value {
                Value::Counter(v) => {
                    let _ = writeln!(out, "{name},counter,{v},,,,,,,,");
                }
                Value::Gauge(v) => {
                    let _ = writeln!(out, "{name},gauge,{v},,,,,,,,");
                }
                Value::Hist(h) => {
                    let _ = writeln!(
                        out,
                        "{name},histogram,,{},{},{},{},{},{},{},{}",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                        h.quantile(0.50),
                        h.quantile(0.90),
                        h.quantile(0.99),
                        h.quantile(0.999),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        counter("t.reg.shared").add(2);
        counter("t.reg.shared").add(3);
        assert_eq!(counter("t.reg.shared").get(), 5);
        gauge("t.reg.g").set(1.25);
        assert_eq!(gauge("t.reg.g").get(), 1.25);
        histogram("t.reg.h").record(7);
        assert_eq!(histogram("t.reg.h").snapshot().count(), 1);
    }

    #[test]
    fn snapshot_contains_instruments_and_collectors() {
        counter("t.snap.c").add(9);
        register_collector("t.snap.collector", |out| {
            out.push(Sample { name: "t.snap.pushed".into(), value: Value::Gauge(4.5) });
        });
        let snap = snapshot();
        assert_eq!(snap.counter_value("t.snap.c"), Some(9));
        assert_eq!(snap.gauge_value("t.snap.pushed"), Some(4.5));
        // Sorted => binary search works for every name present.
        let names: Vec<_> = snap.names().collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn collector_registration_is_idempotent_by_key() {
        register_collector("t.idem", |out| {
            out.push(Sample { name: "t.idem.v".into(), value: Value::Counter(1) });
        });
        register_collector("t.idem", |out| {
            out.push(Sample { name: "t.idem.v".into(), value: Value::Counter(2) });
        });
        let snap = snapshot();
        let hits = snap.samples.iter().filter(|s| s.name == "t.idem.v").count();
        assert_eq!(hits, 1, "re-registration must replace, not duplicate");
        assert_eq!(snap.counter_value("t.idem.v"), Some(2));
    }

    #[test]
    fn json_export_is_parseable_and_typed() {
        counter("t.json.c").add(1);
        gauge("t.json.g").set(2.5);
        let h = histogram("t.json.h");
        h.record(100);
        h.record(200);
        let json = snapshot().to_json();
        let doc = crate::json::parse(&json).expect("export must be valid JSON");
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        let metrics = doc.get("metrics").and_then(|v| v.as_array()).expect("metrics array");
        let find = |name: &str| {
            metrics
                .iter()
                .find(|m| m.get("name").and_then(|v| v.as_str()) == Some(name))
                .unwrap_or_else(|| panic!("metric {name} missing"))
        };
        assert_eq!(find("t.json.c").get("type").and_then(|v| v.as_str()), Some("counter"));
        assert_eq!(find("t.json.g").get("value").and_then(|v| v.as_f64()), Some(2.5));
        let hist = find("t.json.h");
        assert_eq!(hist.get("count").and_then(|v| v.as_f64()), Some(2.0));
        assert!(hist.get("p999").is_some());
        assert!(!hist.get("buckets").and_then(|v| v.as_array()).expect("buckets").is_empty());
    }

    #[test]
    fn csv_export_has_stable_header() {
        counter("t.csv.c").inc();
        let csv = snapshot().to_csv();
        assert!(csv.starts_with("name,type,value,count,sum,min,max,p50,p90,p99,p999\n"));
        assert!(csv.lines().any(|l| l.starts_with("t.csv.c,counter,")));
    }
}
