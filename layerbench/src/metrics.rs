//! Every metric the benchmark prints: its unit, its better direction,
//! the layer (crate) it measures, and the end-to-end metric it should
//! move. `BENCHMARK.json` lists the same names and units; a test keeps
//! the two in step.
//!
//! Units name the clock: `s` and `ns` are host wall-clock time,
//! `ns_virt` and `us_virt` are simulated (virtual) time.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub layer: &'static str,
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

const fn spec(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Spec {
    Spec {
        layer,
        name,
        unit,
        better,
        moves,
    }
}

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// Printed by untraced passes. Each is measured, and nonzero, on every
/// workload.
pub const END_TO_END: &[Spec] = &[
    spec(
        "e2e",
        "ops_per_s",
        "op/s",
        HIGHER,
        "host: application ops per wall second of the timed run",
    ),
    spec(
        "e2e",
        "setup_s",
        "s",
        LOWER,
        "host: building the System and populating its files",
    ),
    spec(
        "e2e",
        "peak_rss_mb",
        "MiB",
        LOWER,
        "host: peak resident memory (VmHWM)",
    ),
    spec(
        "e2e",
        "virt_iops",
        "op/s",
        HIGHER,
        "virtual: application ops per second of virtual makespan",
    ),
];

const HANDOFF: &str = "ops_per_s on tenants_rw and fleet_k1; none on direct_read";
const DIRECT_HOST: &str = "ops_per_s on direct_read";
const TENANT_SPAN: &str = "ops_per_s on tenants_rw (includes conductor waits)";
const DIRECT_VIRT: &str = "virt_iops on direct_read";
const KERNEL: &str = "virt_append_p99_us and virt_fsync_p99_us on tenants_rw";
const TRANSLATE: &str = "virt_read_p50_us on tenants_rw vs direct_read; ops_per_s on direct_read";
const DEVICE: &str = "virt_read_p99_us and virt_write_p99_us on tenants_rw";
const FLEET: &str = "ops_per_s on fleet_k1";
const QOS: &str = "virt_iops on fleet_k1";
const READS: &str = "virtual guard: single pread (direct_read, tenants_rw)";
const FLIGHTS: &str = "virtual guard: pread_batch flights (direct_read)";
const WRITES: &str = "virtual guard: overwrites (tenants_rw)";
const APPENDS: &str = "virtual guard: appends (tenants_rw)";
const FSYNCS: &str = "virtual guard: fsync (tenants_rw)";

/// Printed by traced passes. A metric the workload cannot exercise
/// reads 0.
pub const PER_LAYER: &[Spec] = &[
    spec("sim", "sim.handoff_ns", "ns", LOWER, HANDOFF),
    spec("sim", "sim.inplace_ns", "ns", LOWER, DIRECT_HOST),
    spec(
        "sim",
        "sim.run_wall_s",
        "s",
        LOWER,
        "ops_per_s on direct_read and tenants_rw",
    ),
    spec(
        "sim",
        "sim.actor_cpu_share",
        "ratio",
        HIGHER,
        "ops_per_s on tenants_rw (1 - share = waiting)",
    ),
    spec("core", "core.pread_wall_ns_p50", "ns", LOWER, DIRECT_HOST),
    spec("core", "core.pread_wall_ns_p99", "ns", LOWER, DIRECT_HOST),
    spec(
        "core",
        "core.flight_wall_ns_per_read",
        "ns",
        LOWER,
        DIRECT_HOST,
    ),
    spec("core", "core.pwrite_wall_ns_p50", "ns", LOWER, TENANT_SPAN),
    spec("core", "core.fsync_wall_ns_p50", "ns", LOWER, TENANT_SPAN),
    spec(
        "core",
        "core.fallback_share",
        "ratio",
        LOWER,
        "virt_iops on fleet_k1; virt_append_p99_us on tenants_rw",
    ),
    spec(
        "core",
        "core.userlib_submit_ns",
        "ns_virt",
        LOWER,
        DIRECT_VIRT,
    ),
    spec(
        "core",
        "core.completion_poll_ns",
        "ns_virt",
        LOWER,
        DIRECT_VIRT,
    ),
    spec("core", "core.user_copy_ns", "ns_virt", LOWER, DIRECT_VIRT),
    spec("os", "os.kernel_ns_mean", "ns_virt", LOWER, KERNEL),
    spec("os", "os.kernel_ns_p99", "ns_virt", LOWER, KERNEL),
    spec("os", "os.kernel_ops", "count", LOWER, KERNEL),
    spec(
        "ext4",
        "ext4.populate_wall_s",
        "s",
        LOWER,
        "setup_s on every workload",
    ),
    spec(
        "ext4",
        "ext4.kernel_bytes_per_append",
        "B/op",
        LOWER,
        "virt_append_p99_us on tenants_rw",
    ),
    spec(
        "ext4",
        "ext4.flushes_per_fsync",
        "count/op",
        LOWER,
        "virt_fsync_p99_us on tenants_rw",
    ),
    spec("hw", "hw.ats_per_op", "count/op", LOWER, TRANSLATE),
    spec("hw", "hw.pwc_hit_rate", "ratio", HIGHER, TRANSLATE),
    spec("hw", "hw.iotlb_hit_rate", "ratio", HIGHER, TRANSLATE),
    spec("hw", "hw.translate_ns_mean", "ns_virt", LOWER, TRANSLATE),
    spec("ssd", "ssd.reads_per_op", "count/op", LOWER, DEVICE),
    spec("ssd", "ssd.writes_per_op", "count/op", LOWER, DEVICE),
    spec(
        "ssd",
        "ssd.flushes",
        "count",
        LOWER,
        "virt_fsync_p99_us on tenants_rw",
    ),
    spec("ssd", "ssd.write_amp", "ratio", LOWER, DEVICE),
    spec("ssd", "ssd.channel_wait_ns_mean", "ns_virt", LOWER, DEVICE),
    spec("ssd", "ssd.channel_wait_ns_p99", "ns_virt", LOWER, DEVICE),
    spec("ssd", "ssd.service_ns_mean", "ns_virt", LOWER, DEVICE),
    spec("qos", "qos.throttled_per_op", "count/op", LOWER, QOS),
    spec("qos", "qos.deferred_per_op", "count/op", LOWER, QOS),
    spec("fleet", "fleet.lanes_wall_s", "s", LOWER, FLEET),
    spec(
        "fleet",
        "fleet.mono_wall_s",
        "s",
        LOWER,
        "ops_per_s on fleet_k1 (single-timeline baseline)",
    ),
    spec("fleet", "fleet.speedup_vs_mono", "ratio", HIGHER, FLEET),
    spec("fleet", "fleet.envelopes_per_op", "count/op", LOWER, FLEET),
    spec("fleet", "fleet.cpu_per_wall", "ratio", HIGHER, FLEET),
    spec(
        "fleet",
        "fleet.remote_lat_max_us",
        "us_virt",
        LOWER,
        "virt_remote_mean_us on fleet_k1",
    ),
    spec(
        "fleet",
        "fleet.revoked_pids",
        "count",
        LOWER,
        "core.fallback_share on fleet_k1",
    ),
    spec(
        "trace",
        "trace.overhead",
        "ratio",
        LOWER,
        "none: the cost of the traced pass itself",
    ),
    spec("trace", "trace.dropped", "count", LOWER, "none: stays 0"),
    spec("e2e", "virt_read_p50_us", "us_virt", LOWER, READS),
    spec("e2e", "virt_read_p99_us", "us_virt", LOWER, READS),
    spec("e2e", "virt_read_n", "count", HIGHER, READS),
    spec("e2e", "virt_flight_p50_us", "us_virt", LOWER, FLIGHTS),
    spec("e2e", "virt_flight_p99_us", "us_virt", LOWER, FLIGHTS),
    spec("e2e", "virt_flight_n", "count", HIGHER, FLIGHTS),
    spec("e2e", "virt_write_p50_us", "us_virt", LOWER, WRITES),
    spec("e2e", "virt_write_p99_us", "us_virt", LOWER, WRITES),
    spec("e2e", "virt_write_n", "count", HIGHER, WRITES),
    spec("e2e", "virt_append_p50_us", "us_virt", LOWER, APPENDS),
    spec("e2e", "virt_append_p99_us", "us_virt", LOWER, APPENDS),
    spec("e2e", "virt_append_n", "count", HIGHER, APPENDS),
    spec("e2e", "virt_fsync_p50_us", "us_virt", LOWER, FSYNCS),
    spec("e2e", "virt_fsync_p99_us", "us_virt", LOWER, FSYNCS),
    spec("e2e", "virt_fsync_n", "count", HIGHER, FSYNCS),
    spec(
        "e2e",
        "virt_remote_mean_us",
        "us_virt",
        LOWER,
        "virtual guard: remote doorbell reads (fleet_k1)",
    ),
    spec(
        "e2e",
        "error_rate",
        "ratio",
        LOWER,
        "failed / attempted operations",
    ),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value, or 0 for a metric the workload did not exercise.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The human-readable table: layer, metric, value, unit, better
    /// direction, and what the metric should move.
    pub fn table(&self, specs: &[Spec]) -> String {
        let mut s = format!(
            "{:<6} {:<30} {:>18} {:<9} {:<7} should move\n",
            "layer", "metric", "value", "unit", "better"
        );
        for sp in specs {
            let _ = writeln!(
                s,
                "{:<6} {:<30} {:>18.4} {:<9} {:<7} {}",
                sp.layer,
                sp.name,
                self.get(sp.name),
                sp.unit,
                sp.better,
                sp.moves
            );
        }
        s
    }

    /// The result line printed last: every metric in `specs` by name,
    /// with its unit. With `required`, each must have been measured and
    /// be nonzero (the end-to-end set).
    ///
    /// # Errors
    /// A value set under a name no spec lists, a non-finite value, or a
    /// required metric that is missing or zero.
    pub fn result_line(
        &self,
        specs: &[Spec],
        attempted: u64,
        failed: u64,
        required: bool,
    ) -> Result<String, String> {
        if let Some(name) = self.0.keys().find(|n| !specs.iter().any(|s| s.name == **n)) {
            return Err(format!("metric {name} is not in this pass's metric list"));
        }
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, s) in specs.iter().enumerate() {
            let value = self.get(s.name);
            if !value.is_finite() {
                return Err(format!("{} measured {value}", s.name));
            }
            if required && value <= 0.0 {
                return Err(format!("end-to-end metric {} measured {value}", s.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                s.name, s.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// What a pass hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub ledger: Ledger,
    /// Human-readable lines printed before the table.
    pub report: String,
}

/// `ops_per_s` over the repetitions: min, quartiles and max, so a
/// reader can judge the run-to-run spread behind the median.
pub fn spread_line(workload: &str, rate: &[f64]) -> String {
    let mut r = rate.to_vec();
    r.sort_by(f64::total_cmp);
    let at = |q: usize| r[(r.len() - 1) * q / 4];
    format!(
        "{workload}: {} repetitions, ops_per_s min {:.0} p25 {:.0} median {:.0} p75 {:.0} max {:.0}\n",
        r.len(),
        at(0),
        at(1),
        crate::stats::median(&r),
        at(3),
        at(4)
    )
}

/// What each workload was chosen to stress, checked against its ledger
/// and printed, so a reader sees when a workload stops doing its job.
pub fn expectations(workload: &str, l: &Ledger) -> String {
    let mut checks = vec![(
        "sim.handoff_ns >= 50 x sim.inplace_ns",
        l.get("sim.handoff_ns") >= 50.0 * l.get("sim.inplace_ns"),
    )];
    match workload {
        "direct_read" => checks.extend([
            ("hw.pwc_hit_rate > 0.99", l.get("hw.pwc_hit_rate") > 0.99),
            (
                "core.fallback_share == 0",
                l.get("core.fallback_share") == 0.0,
            ),
        ]),
        "tenants_rw" => checks.extend([
            ("hw.pwc_hit_rate < 0.5", l.get("hw.pwc_hit_rate") < 0.5),
            ("os.kernel_ops > 0", l.get("os.kernel_ops") > 0.0),
            (
                "ext4.flushes_per_fsync >= 1",
                l.get("ext4.flushes_per_fsync") >= 1.0,
            ),
        ]),
        "fleet_k1" => checks.extend([
            (
                "core.fallback_share > 0",
                l.get("core.fallback_share") > 0.0,
            ),
            (
                "qos.deferred_per_op > 0",
                l.get("qos.deferred_per_op") > 0.0,
            ),
            (
                "fleet.envelopes_per_op > 0",
                l.get("fleet.envelopes_per_op") > 0.0,
            ),
        ]),
        _ => {}
    }
    checks
        .iter()
        .map(|(what, ok)| format!("expect {what}: {}\n", if *ok { "yes" } else { "NO" }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A name the benchmark contract accepts: a letter or digit first,
    /// then at most 63 more letters, digits, `_`, `.` or `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_units_and_directions_follow_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for s in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(s.name), "{}", s.name);
            assert!(seen.insert(s.name), "{} listed twice", s.name);
            assert!(
                !s.unit.is_empty()
                    && s.unit.len() <= 16
                    && s.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {}",
                s.unit
            );
            assert!(s.better == LOWER || s.better == HIGHER);
        }
        assert!(END_TO_END
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s" && s.better == LOWER));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn valid_name_rejects_what_the_contract_rejects() {
        assert!(valid_name("core.pread_wall_ns_p50"));
        assert!(valid_name("9lives-x"));
        for bad in ["", ".x", "_x", "a b", "x/y", "µs", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside layerbench/");
        for s in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                s.name, s.unit, s.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = 3;
        assert_eq!(
            text.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + workloads
        );
    }

    #[test]
    fn result_line_checks_what_it_prints() {
        let mut l = Ledger::default();
        for s in END_TO_END {
            l.set(s.name, 1.5);
        }
        let line = l.result_line(END_TO_END, 10, 0, true).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        l.set("setup_s", 0.0);
        assert!(
            l.result_line(END_TO_END, 10, 0, true).is_err(),
            "zero end-to-end metric"
        );
        l.set("setup_s", f64::NAN);
        assert!(l.result_line(END_TO_END, 10, 0, true).is_err(), "NaN");

        let per_layer = Ledger::default()
            .result_line(PER_LAYER, 1, 0, false)
            .unwrap();
        assert!(per_layer.contains("\"trace.dropped\": {\"value\": 0, \"unit\": \"count\"}"));
        let mut typo = Ledger::default();
        typo.set("sim.handof_ns", 1.0);
        assert!(typo.result_line(PER_LAYER, 1, 0, false).is_err());
    }
}
