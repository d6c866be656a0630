//! Bridge from the substrate's telemetry into the `obs` metric registry.
//!
//! The `pm` counters predate the registry and stay where they are (the
//! per-thread slabs of [`crate::stats`]); this module registers an `obs`
//! *collector* that sums them over all threads at `obs::snapshot()` time, so
//! one export contains the flush/fence/visit counters, the bytes allocated and
//! freed on the PM pool (so a leak shows as the gap between the two), per-mapping
//! probe counters, and the charged-ns breakdown without adding a second write path.

use std::sync::Once;

/// Metric names exported by the `pm` collector, for schema checks.
pub const METRICS: &[&str] = &[
    "pm.clwb",
    "pm.fence",
    "pm.node_visits",
    "pm.alloc_bytes",
    "pm.freed_bytes",
    "pm.probes.art_n4",
    "pm.probes.art_n16",
    "pm.probes.art_n48",
    "pm.probes.art_n256",
    "pm.probes.hot_node",
    "pm.probes.hot_compound",
    "pm.probes.apex_node",
    "pm.charged.clwb_ns",
    "pm.charged.fence_ns",
    "pm.charged.read_ns",
    "pm.charged.total_ns",
];

/// Register the `pm` collector with the `obs` registry. Idempotent; every
/// entry point that exports metrics (YCSB drivers, bench binaries) calls
/// this, so whoever snapshots first still sees the substrate counters.
pub fn install_obs() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        obs::register_collector("pm", |out| {
            use obs::{Sample, Value};
            let s = crate::stats::snapshot();
            let p = crate::stats::probes();
            let c = crate::latency::charged();
            let mut push = |name: &str, v: u64| {
                out.push(Sample { name: name.to_string(), value: Value::Counter(v) });
            };
            push("pm.clwb", s.clwb);
            push("pm.fence", s.fence);
            push("pm.node_visits", s.node_visits);
            push("pm.alloc_bytes", crate::alloc::allocated_bytes());
            push("pm.freed_bytes", crate::alloc::freed_bytes());
            for m in crate::stats::Mapping::ALL {
                push(&format!("pm.probes.{}", m.label()), p.get(m));
            }
            push("pm.charged.clwb_ns", c.clwb_ns);
            push("pm.charged.fence_ns", c.fence_ns);
            push("pm.charged.read_ns", c.read_ns);
            push("pm.charged.total_ns", c.total());
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_exports_every_declared_metric() {
        install_obs();
        install_obs(); // idempotent
        crate::stats::record_probes(crate::stats::Mapping::ArtN16, 4);
        let snap = obs::snapshot();
        for name in METRICS {
            assert!(
                matches!(snap.get(name), Some(obs::Value::Counter(_))),
                "metric {name} missing from snapshot"
            );
        }
        assert!(snap.counter_value("pm.probes.art_n16").unwrap() >= 4);
    }
}
