//! The sortmid benchmark: end-to-end host timings of two workloads
//! (`fig7`, `sweep`) and a separate traced run that times the
//! calls into each layer. See `README.md` beside this crate for why each
//! workload exists and which layer metric should move which end-to-end
//! metric.

pub mod check;
pub mod host;
pub mod trace;
pub mod workload;

use check::parse_digests;
use std::io::Write;
use std::time::Instant;
pub use workload::Workload;
use workload::{check_pass, prepare, Prepared, Reference};

/// The scene scale every workload runs at (the `sortmid-experiments
/// fig7` default); goldens are only compared at this scale.
pub const DEFAULT_SCALE: f64 = 0.3;

/// `sortmid-experiments fig7` at the default scale, as committed.
const FIG7_GOLDEN: &str = include_str!("../golden/fig7.txt");

/// Set-up seconds timed after each pass, as a share of that pass's
/// seconds (at least one set-up each time). A single ~0.1–0.5 s set-up
/// cannot repeat within a tenth on a contended host; interleaved with the
/// passes, the set-ups see the same slow and fast host stretches as the
/// passes do, and their median is as steady.
const SETUP_SHARE: f64 = 0.1;

/// Fewest timed passes a run takes, however long they are.
const MIN_PASSES: usize = 3;

/// What one benchmark run does.
#[derive(Debug, Clone)]
pub struct Settings {
    pub workload: Workload,
    /// Offset added to every preset scene seed (0 = the paper presets).
    pub seed: u64,
    /// Seconds of timed passes and the set-ups between them (at least
    /// [`MIN_PASSES`] passes).
    pub seconds: f64,
    /// Run the traced per-layer replay instead of the timed passes.
    pub trace: bool,
    pub scale: f64,
    /// Corrupt the first reference report before it is checked (the
    /// self-test's proof that failures are counted).
    pub plant_corruption: bool,
}

impl Settings {
    /// The benchmark's settings for `workload` at the default scale.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Settings {
        Settings {
            workload,
            seed,
            seconds,
            trace,
            scale: DEFAULT_SCALE,
            plant_corruption: false,
        }
    }

    /// Goldens apply to the paper presets at the default scale.
    fn golden(&self) -> bool {
        self.seed == 0 && self.scale == DEFAULT_SCALE
    }
}

/// Host CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host threads of the `sweep` workload and of every reference pass: two,
/// or fewer on a smaller host.
pub fn threads() -> usize {
    nproc().min(2)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A run's verdict and metrics: the benchmark's last output line.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    /// Machine configs simulated and checked.
    pub attempted: u64,
    /// Configs whose output failed a check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sets the workload up afresh in `slot`, dropping the old set-up first
/// so that two never coexist; returns the set-up's wall seconds.
fn timed_setup(s: &Settings, slot: &mut Option<Prepared>) -> f64 {
    drop(slot.take());
    let t = Instant::now();
    *slot = Some(std::hint::black_box(prepare(s.workload, s.scale, s.seed)));
    t.elapsed().as_secs_f64()
}

/// Runs one benchmark run, writing human-readable information to `log`.
pub fn run(s: &Settings, log: &mut dyn Write) -> std::io::Result<Outcome> {
    let mut slot = None;
    let mut setup_times = vec![timed_setup(s, &mut slot)];
    let prepared = slot.as_ref().expect("set up");
    let configs: Vec<_> = prepared
        .calls
        .iter()
        .flat_map(|c| c.configs.clone())
        .collect();
    let prov = sortmid_observe::Provenance::collect(s.seed, sortmid::grid_hash(&configs));
    writeln!(
        log,
        "workload {} seed {} threads {} nproc {} scale {} grid {:016x} host {} build {}",
        s.workload.name(),
        s.seed,
        threads(),
        nproc(),
        s.scale,
        prov.grid_hash,
        prov.host,
        prov.build
    )?;

    let golden_digests = if s.golden() {
        match parse_digests(s.workload.golden_digests()) {
            Ok(d) => Some(d),
            Err(e) => {
                writeln!(log, "unreadable golden digests: {e}")?;
                Some(Vec::new())
            }
        }
    } else {
        None
    };
    let reference = Reference::check(
        prepared.reference_reports(),
        golden_digests.as_deref(),
        s.plant_corruption,
    );
    let mut attempted = reference.reports.len() as u64;
    let mut failed = reference.failed as u64;
    // Every pass's output digest equals the pass before it.
    let mut stable = true;
    writeln!(
        log,
        "{} configs per pass over {} scenes, {} fragment-configs; reference pass: {failed} failed",
        prepared.configs(),
        prepared.scenes.len(),
        prepared.fragment_configs()
    )?;
    let (configs_per_pass, fragment_configs) = (prepared.configs(), prepared.fragment_configs());

    let metrics = if s.trace {
        let traced = trace::run(s, prepared, &reference, log)?;
        attempted += traced.attempted;
        failed += traced.failed;
        traced.metrics
    } else {
        // Peak RSS covers the timed passes and set-ups, not the reference.
        host::reset_peak_rss();
        let fig7_golden = (s.workload == Workload::Fig7 && s.golden()).then_some(FIG7_GOLDEN);
        let mut pass_times = Vec::new();
        let mut last_digest = None;
        let t0 = Instant::now();
        while pass_times.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < s.seconds {
            let p = slot.as_ref().expect("set up");
            let t = Instant::now();
            let out = std::hint::black_box(p.run_pass());
            let pass_time = t.elapsed().as_secs_f64();
            pass_times.push(pass_time);
            let (pass_failed, digest) = check_pass(p, &out, &reference, fig7_golden);
            attempted += configs_per_pass as u64;
            failed += pass_failed as u64;
            if last_digest.is_some_and(|d| d != digest) {
                writeln!(
                    log,
                    "pass {} output digest {digest:016x} differs from the pass before",
                    pass_times.len()
                )?;
                stable = false;
            }
            last_digest = Some(digest);
            drop(out);
            // The next pass runs on the last of these set-ups.
            let mut gap = 0.0;
            while gap == 0.0 || gap < SETUP_SHARE * pass_time {
                let setup = timed_setup(s, &mut slot);
                setup_times.push(setup);
                gap += setup;
            }
        }
        let pass_s = host::median(&pass_times);
        let setup_s = host::median(&setup_times);
        log_spread(log, "pass_s", &pass_times)?;
        log_spread(log, "setup_s", &setup_times)?;
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("pass_s", pass_s, "s"),
            Metric::new(
                "sim_mfrags_per_s",
                fragment_configs as f64 / pass_s / 1e6,
                "Mfrag/s",
            ),
            Metric::new("peak_rss_mib", host::peak_rss_mib(), "MiB"),
        ]
    };
    Ok(Outcome {
        correct: stable && failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Logs the median, quartiles and extremes of `samples` beside a metric,
/// so that a slow host stretch can be told apart from a regression.
fn log_spread(log: &mut dyn Write, name: &str, samples: &[f64]) -> std::io::Result<()> {
    let (q1, median, q3) = host::quartiles(samples);
    let min = samples.iter().copied().fold(f64::MAX, f64::min);
    let max = samples.iter().copied().fold(f64::MIN, f64::max);
    writeln!(
        log,
        "{name} median {median:.4} q1 {q1:.4} q3 {q3:.4} min {min:.4} max {max:.4} over {} samples",
        samples.len()
    )
}

/// Writes the per-config golden digests of `workload` (seed 0, default
/// scale) into `dir`: the explicit act that accepts a model change.
pub fn bless(workload: Workload, dir: &std::path::Path) -> std::io::Result<()> {
    let prepared = prepare(workload, DEFAULT_SCALE, 0);
    let reference = Reference::check(prepared.reference_reports(), None, false);
    if reference.failed > 0 {
        return Err(std::io::Error::other(format!(
            "{} reports fail their identities",
            reference.failed
        )));
    }
    std::fs::write(
        dir.join(format!("{}.digests", workload.name())),
        check::render_digests(&reference.digests),
    )
}
