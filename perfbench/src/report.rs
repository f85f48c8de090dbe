//! The metric catalogue, the result record every run prints, and the
//! order statistics the workloads report with.
//!
//! The catalogue is the single source of `BENCHMARK.json`: `--manifest`
//! prints it, and a test pins the committed file to that output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The workloads, with the reason each was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "sweep-sparse",
        "phenomenological d=7/11 sweep at p=1e-4: frame sampling and event extraction dominate, decoding is light",
    ),
    (
        "sweep-dense",
        "code-capacity ThresholdSweep at d=7/11, p=3e-2/5e-2: union-find decoding dominates the sampler",
    ),
    (
        "runtime-escalate",
        "sharded Runtime::run, d=7, 4 tiles, p=2e-2: CHP tableau stepping dominates, escalations reach the global decoder and bus",
    ),
];

/// Metrics every untraced run reports, on every workload.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("shots_per_s", "1/s", "higher", 0.25),
    e2e("tile_cycles_per_s", "1/s", "higher", 0.25),
    e2e("job_p50_ms", "ms", "lower", 0.25),
    e2e("job_tail_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// Metrics every traced run reports. A layer a workload does not touch
/// reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    layer("surface.sampler.compile_s", "s", "lower"),
    layer("surface.sampler.run_s", "s", "lower"),
    layer("surface.sampler.shots", "count", "higher"),
    layer("surface.sampler.events_per_shot", "count", "lower"),
    layer(
        "surface.sampler.correction_weight_per_shot",
        "count",
        "lower",
    ),
    layer("surface.sampler.failures", "count", "lower"),
    layer("surface.decoder.decode_s", "s", "lower"),
    layer("surface.decoder.calls", "count", "lower"),
    layer("surface.decoder.ns_per_event", "ns", "lower"),
    layer("surface.decoder.run_share_pct", "%", "lower"),
    layer("stabilizer.frame.self_s", "s", "lower"),
    layer("stabilizer.frame.run_share_pct", "%", "lower"),
    layer("stabilizer.frame.gate_ns_per_word.X1", "ns", "lower"),
    layer("stabilizer.frame.gate_ns_per_word.X8", "ns", "lower"),
    layer("surface.uf.shots", "count", "higher"),
    layer("surface.uf.decode_ns_per_shot", "ns", "lower"),
    layer("surface.uf.growth_rounds", "count", "lower"),
    layer("surface.uf.member_visits", "count", "lower"),
    layer("surface.uf.edge_touches", "count", "lower"),
    layer("surface.uf.merges", "count", "lower"),
    layer("surface.lut.try_decode_ns", "ns", "lower"),
    layer("stabilizer.tableau.round_us.tile", "us", "lower"),
    layer("stabilizer.tableau.round_us.shard", "us", "lower"),
    layer("core.mce.qecc_cycle_us.tile", "us", "lower"),
    layer("core.mce.qecc_cycle_us.shard", "us", "lower"),
    layer("runtime.wall_s", "s", "lower"),
    layer("runtime.phase.cycles_s", "s", "lower"),
    layer("runtime.phase.decode_s", "s", "lower"),
    layer("runtime.phase.logical_s", "s", "lower"),
    layer("runtime.phase.readout_s", "s", "lower"),
    layer("runtime.phase.cycles_share_pct", "%", "lower"),
    layer("runtime.tile_cycles", "count", "higher"),
    layer("runtime.escalations", "count", "lower"),
    layer("runtime.escalations_per_tile_cycle", "count", "lower"),
    layer("runtime.pool.batches", "count", "lower"),
    layer("runtime.pool.jobs", "count", "lower"),
    layer("runtime.pool.mean_batch_jobs", "count", "higher"),
    layer("runtime.master.global_decodes", "count", "lower"),
    layer("runtime.decode_cost.cycles", "count", "lower"),
    layer("runtime.decode_cost.max_decode_cycles", "count", "lower"),
    layer("runtime.channel.max_upstream_depth", "count", "lower"),
    layer("runtime.channel.max_downstream_depth", "count", "lower"),
    layer("core.bus.bytes.qecc_instructions", "bytes", "lower"),
    layer("core.bus.bytes.physical_logical", "bytes", "lower"),
    layer("core.bus.bytes.logical_instructions", "bytes", "lower"),
    layer("core.bus.bytes.distillation", "bytes", "lower"),
    layer("core.bus.bytes.syndrome", "bytes", "lower"),
    layer("core.bus.bytes.sync", "bytes", "lower"),
    layer("core.bus.bytes.cache_fill", "bytes", "lower"),
    layer("core.bus.bytes.retransmit", "bytes", "lower"),
    layer("core.network.packets", "count", "lower"),
    layer("core.network.wire_bytes", "bytes", "lower"),
    layer("bus_bytes_per_tile_cycle", "bytes", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("host.steal_pct", "%", "lower"),
];

/// Seconds one run measures, as recorded in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 25;

/// Every metric of both catalogues.
fn all_metrics() -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().chain(PER_LAYER.iter())
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct Report {
    trace: bool,
    values: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool)>,
    /// Operations attempted (shots or runs).
    pub attempted: u64,
    /// Operations that did not complete.
    pub failed: u64,
}

impl Report {
    pub fn new(trace: bool) -> Report {
        Report {
            trace,
            values: BTreeMap::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Whether this is the traced run (per-layer metrics) or not.
    pub fn traced(&self) -> bool {
        self.trace
    }

    /// Records a metric and prints it.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither catalogue, or `value` is not finite.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = all_metrics()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
            .unit;
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        println!("metric {name} = {value} {unit}");
        self.values.insert(name, value);
    }

    /// Records an output check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        let what = what.into();
        println!("check {} {what}", if ok { "ok  " } else { "FAIL" });
        self.checks.push((what, ok));
    }

    /// A recorded metric's value.
    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The metrics this run's mode reports, in catalogue order.
    pub fn catalogue(&self) -> &'static [Metric] {
        if self.trace {
            PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and this mode's
    /// metrics. Per-layer metrics a workload does not touch read 0.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was never set.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.catalogue().iter().enumerate() {
            let name = m.name;
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if self.trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better,
            m.bound.unwrap_or(0.0)
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Median of a sample set (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty set.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest nearest-rank percentile with at least [`TAIL_BEYOND`]
/// samples above it: `(percentile, value, samples beyond)`, or `None`
/// when there are too few samples for one.
pub fn tail(samples: &[f64]) -> Option<(f64, f64, usize)> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    // Nearest rank r (1-based) is the value at p = 100 r / n; the
    // samples beyond it are the n - r above that rank.
    let rank = n - TAIL_BEYOND;
    Some((100.0 * rank as f64 / n as f64, s[rank - 1], n - rank))
}

/// Wilson 95% score interval of `k` successes in `n` trials.
pub fn wilson(k: u64, n: u64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let z = 1.959_963_984_540_054_f64;
    let nf = n as f64;
    let p = k as f64 / nf;
    let denom = 1.0 + z * z / nf;
    let centre = (p + z * z / (2.0 * nf)) / denom;
    let half = z * (p * (1.0 - p) / nf + z * z / (4.0 * nf * nf)).sqrt() / denom;
    ((centre - half).max(0.0), (centre + half).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `true` when `name` may name a metric or workload: it starts with a
    /// letter or digit and holds at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest_json());
    }

    #[test]
    fn every_name_uses_the_metric_charset_and_is_unique() {
        let mut names: Vec<&str> = all_metrics()
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|(n, _)| *n))
            .collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all, "duplicate metric or workload name");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        for (_, why) in &WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('"'));
        }
    }

    #[test]
    fn the_charset_rule_rejects_what_it_should() {
        assert!(valid_name("surface.uf.decode_ns_per_shot"));
        assert!(valid_name("9-lives_x.y"));
        for bad in ["", ".lead", "-lead", "has space", "quote\"", "slash/", "ü"] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((90.0, 90.0, 10)));
        let samples: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let (pct, value, beyond) = tail(&samples).expect("11 samples suffice");
        assert_eq!((value, beyond), (1.0, 10));
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
        assert_eq!(tail(&samples[..10]), None);
        // At 600 samples the tail is p98.33, the 590th smallest.
        let samples: Vec<f64> = (1..=600).map(f64::from).collect();
        let (pct, value, beyond) = tail(&samples).expect("enough samples");
        assert_eq!((value, beyond), (590.0, 10));
        assert!(samples.iter().filter(|&&s| s > value).count() >= TAIL_BEYOND);
        assert!((pct - 98.333_333).abs() < 1e-5);
    }

    #[test]
    fn median_and_wilson_behave() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let (lo, hi) = wilson(0, 1000);
        assert!(lo < 1e-15);
        assert!(hi > 0.0 && hi < 0.004);
        let (lo, hi) = wilson(50, 100);
        assert!(lo < 0.5 && hi > 0.5 && (0.5 - lo - (hi - 0.5)).abs() < 1e-12);
    }

    #[test]
    fn json_line_holds_exactly_the_mode_metrics() {
        let mut r = Report::new(false);
        for m in &END_TO_END {
            r.set(m.name, 1.5);
        }
        r.check("always", true);
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for m in &END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": 1.5", m.name)));
        }
        assert!(!line.contains("surface."));
        let traced = Report::new(true).to_json();
        assert!(traced.contains("\"trace.overhead_pct\": {\"value\": 0, \"unit\": \"%\"}"));
        assert!(!traced.contains("setup_s"));
    }
}
