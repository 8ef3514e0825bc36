//! Output checks: per-report identities and digests, the simulated
//! counts the traced run must reproduce exactly, and the committed
//! goldens.

use sortmid::{NodeReport, RunReport};
use sortmid_observe::provenance::fnv1a_64;

/// Checks one report's exact identities and returns its digest.
///
/// Every node's five-way cycle breakdown must sum to its finish cycle
/// ([`sortmid::CycleBreakdown::verify`]) and its three-C miss breakdown,
/// where present, to its miss count ([`NodeReport::verify_misses`]). The
/// digest is FNV-1a 64 over the summary, the machine totals and every
/// node counter, so any simulated difference changes it.
///
/// `plant` corrupts one node counter before the checks run: the
/// self-test's proof that a wrong report is caught and counted.
///
/// # Errors
///
/// Returns which identity failed on which node.
pub fn check_report(report: &RunReport, plant: bool) -> Result<u64, String> {
    let mut nodes = report.nodes().to_vec();
    if plant {
        if let Some(n) = nodes.first_mut() {
            n.busy_cycles += 1;
        }
    }
    for (i, n) in nodes.iter().enumerate() {
        n.cycle_breakdown()
            .verify(n.finish)
            .map_err(|e| format!("{}: node {i}: {e}", report.summary()))?;
        n.verify_misses()
            .map_err(|e| format!("{}: node {i}: {e}", report.summary()))?;
    }
    Ok(digest(report, &nodes))
}

fn digest(report: &RunReport, nodes: &[NodeReport]) -> u64 {
    let text = format!(
        "{}|{}|{}|{}|{}|{:?}",
        report.summary(),
        report.total_cycles(),
        report.fragments(),
        report.triangles(),
        report.triangles_routed(),
        nodes
    );
    fnv1a_64(text.into_bytes())
}

/// Simulated totals over a set of reports. Host speed never moves them:
/// the traced run must reproduce the untimed run's exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub configs: u64,
    pub fragments: u64,
    pub cycles: u64,
    pub accesses: u64,
    pub misses: u64,
    /// Texels fetched from external memory (16 per line fill).
    pub texels: u64,
    pub busy: u64,
    pub setup_floor: u64,
    pub bus_stall: u64,
    pub starved: u64,
    pub idle: u64,
}

impl SimCounts {
    /// Adds one report's totals.
    pub fn add(&mut self, report: &RunReport) {
        let cache = report.cache_totals();
        let b = report.aggregate_breakdown();
        self.configs += 1;
        self.fragments += report.fragments();
        self.cycles += report.total_cycles();
        self.accesses += cache.accesses();
        self.misses += cache.misses();
        self.texels += report
            .nodes()
            .iter()
            .map(|n| n.external_fetches * 16)
            .sum::<u64>();
        self.busy += b.busy;
        self.setup_floor += b.setup;
        self.bus_stall += b.bus_stall;
        self.starved += b.starved;
        self.idle += b.idle;
    }

    /// Totals of every report in `reports`.
    pub fn of<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> SimCounts {
        let mut c = SimCounts::default();
        for r in reports {
            c.add(r);
        }
        c
    }

    /// The counts as `(metric name, value, unit)` rows.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("sim.configs", self.configs as f64, "count"),
            ("sim.fragments", self.fragments as f64, "count"),
            ("sim.cycles", self.cycles as f64, "cycles"),
            ("cache.accesses", self.accesses as f64, "count"),
            ("cache.misses", self.misses as f64, "count"),
            (
                "cache.texel_to_fragment",
                self.texels as f64 / self.fragments.max(1) as f64,
                "texel/frag",
            ),
            ("memsys.busy_cycles", self.busy as f64, "cycles"),
            (
                "memsys.setup_floor_cycles",
                self.setup_floor as f64,
                "cycles",
            ),
            ("memsys.bus_stall_cycles", self.bus_stall as f64, "cycles"),
            ("memsys.starved_cycles", self.starved as f64, "cycles"),
            ("memsys.idle_cycles", self.idle as f64, "cycles"),
        ]
    }
}

/// Parses a golden digest file: one 16-digit hex digest per line.
///
/// # Errors
///
/// Returns the first line that is not a digest.
pub fn parse_digests(text: &str) -> Result<Vec<u64>, String> {
    text.lines()
        .enumerate()
        .map(|(i, l)| {
            u64::from_str_radix(l.trim(), 16).map_err(|e| format!("golden line {}: {e}", i + 1))
        })
        .collect()
}

/// Renders digests in the golden file format.
pub fn render_digests(digests: &[u64]) -> String {
    digests.iter().map(|d| format!("{d:016x}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortmid::{CacheKind, Distribution, Machine, MachineConfig};
    use sortmid_scene::{Benchmark, SceneBuilder};

    fn report() -> RunReport {
        let stream = SceneBuilder::benchmark(Benchmark::Quake)
            .scale(0.05)
            .build()
            .rasterize();
        let config = MachineConfig::builder()
            .processors(4)
            .distribution(Distribution::block(16))
            .cache(CacheKind::PaperL1)
            .bus_ratio(1.0)
            .build()
            .expect("valid config");
        Machine::new(config).run(&stream)
    }

    #[test]
    fn a_planted_corruption_fails_the_identity_check() {
        let r = report();
        let clean = check_report(&r, false).expect("a simulated report passes");
        assert_eq!(
            check_report(&r, false),
            Ok(clean),
            "the digest is deterministic"
        );
        let err = check_report(&r, true).expect_err("a corrupted report fails");
        assert!(err.contains("node 0"), "{err}");
    }

    #[test]
    fn digests_round_trip_through_the_golden_format() {
        let d = vec![0, 1, u64::MAX, 0xdead_beef];
        assert_eq!(parse_digests(&render_digests(&d)), Ok(d));
        assert!(parse_digests("xyz\n").is_err());
    }

    #[test]
    fn sim_counts_add_up() {
        let r = report();
        let c = SimCounts::of([&r, &r]);
        assert_eq!(c.configs, 2);
        assert_eq!(c.fragments, 2 * r.fragments());
        assert_eq!(c.busy + c.setup_floor + c.bus_stall + c.starved + c.idle, {
            let b = r.aggregate_breakdown();
            2 * b.total()
        });
    }
}
