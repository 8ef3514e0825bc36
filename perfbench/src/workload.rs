//! The two workloads: their scenes and config grids, the timed pass
//! (the program's own public entry points) and the checks on its output.

use crate::check::{check_report, render_digests};
use crate::threads;
use sortmid::{
    run_sweep_with_options, CacheKind, Distribution, Machine, MachineConfig, RunReport, SweepGrid,
    SweepOptions,
};
use sortmid_cache::CacheGeometry;
use sortmid_experiments::common::{machine, PreparedScene, BLOCK_WIDTHS, PROC_PANELS, SLI_LINES};
use sortmid_experiments::fig7;
use sortmid_observe::provenance::fnv1a_64;
use sortmid_raster::FragmentStream;
use sortmid_scene::{Benchmark, SceneBuilder};
use sortmid_util::table::{fmt_f, Table};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Figure 7's bus: 1 texel/pixel (`sortmid-experiments fig7` default).
const FIG7_BUS: f64 = 1.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 7 exactly as `sortmid-experiments fig7` computes it: six
    /// `fig7::speedup_panel` calls over all seven scenes.
    Fig7,
    /// The sweep bench's 60-config reference grid plus its 102-geometry
    /// dense cache lane, one `run_sweep_with_options` call per scene.
    Sweep,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 2] = [Workload::Fig7, Workload::Sweep];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7 => "fig7",
            Workload::Sweep => "sweep",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenes the workload simulates.
    pub fn benchmarks(self) -> &'static [Benchmark] {
        match self {
            Workload::Fig7 => &Benchmark::ALL,
            // Texture working sets far larger than the 16 KB cache
            // (quake), heavy magnified reuse (32massive) and a single
            // texture (teapot_f).
            Workload::Sweep => &[
                Benchmark::Quake,
                Benchmark::Massive32_11255,
                Benchmark::TeapotFull,
            ],
        }
    }

    /// The committed per-config golden digests (seed 0, default scale).
    pub fn golden_digests(self) -> &'static str {
        match self {
            Workload::Fig7 => include_str!("../golden/fig7.digests"),
            Workload::Sweep => include_str!("../golden/sweep.digests"),
        }
    }
}

/// How the program runs one call's configs.
#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// One `Machine::run` per config (`fig7::speedup_panel` and its
    /// rows' 1-processor baselines).
    PerConfig,
    /// One sweep over all the call's configs with these options.
    Sweep(SweepOptions),
}

/// One call the program makes into the simulator during a pass.
#[derive(Debug, Clone)]
pub struct Call {
    /// Index into [`Prepared::scenes`].
    pub scene: usize,
    /// The configs, in the order the program runs and reports them.
    pub configs: Vec<MachineConfig>,
    /// How the program runs them.
    pub engine: Engine,
}

/// A workload ready to run: its scenes and every call of one pass.
#[derive(Debug)]
pub struct Prepared {
    /// Which workload.
    pub workload: Workload,
    /// The generated and rasterized scenes.
    pub scenes: Vec<PreparedScene>,
    /// Every simulator call of one pass, in pass order.
    pub calls: Vec<Call>,
}

/// One row of a figure table: the flattened report indices of its
/// baseline and of its cells, left to right.
#[derive(Debug, Clone)]
struct Row {
    baseline: usize,
    cells: std::ops::Range<usize>,
}

/// The output of one timed pass.
#[derive(Debug)]
pub enum PassOutput {
    /// The figure's tables, in the order the figure prints them.
    Tables(Vec<Table>),
    /// Every report, flattened in call order.
    Reports(Vec<RunReport>),
}

/// The builder of `benchmark` at `scale` with its preset scene seed offset
/// by `seed` (0 gives the paper preset).
pub fn scene_builder(benchmark: Benchmark, scale: f64, seed: u64) -> SceneBuilder {
    let builder = SceneBuilder::benchmark(benchmark).scale(scale);
    let preset = builder.config().seed;
    builder.seed(preset.wrapping_add(seed))
}

/// Generates and rasterizes one scene, as `PreparedScene::new` does for
/// seed 0.
fn prepare_scene(benchmark: Benchmark, scale: f64, seed: u64) -> PreparedScene {
    let scene = scene_builder(benchmark, scale, seed).build();
    let stream = scene.rasterize();
    PreparedScene {
        benchmark,
        scene,
        stream,
        scale,
    }
}

/// The sweep bench's reference grid: processor counts × distributions ×
/// {perfect, 16 KB} caches × {100, 10 000}-entry buffers (60 configs).
fn reference_grid() -> Vec<MachineConfig> {
    SweepGrid::new()
        .processors([4, 16, 64])
        .distributions([
            Distribution::block(8),
            Distribution::block(16),
            Distribution::block(32),
            Distribution::sli(1),
            Distribution::sli(4),
        ])
        .caches([CacheKind::Perfect, CacheKind::PaperL1])
        .buffers([100, 10_000])
        .build()
}

/// The sweep bench's dense lane: 16 processors, block-16, every
/// power-of-two cache from 512 B to 4 MB × associativities 1–128 that
/// hold at least one set of 64-byte lines (102 geometries, one plan).
fn dense_grid() -> Vec<MachineConfig> {
    let mut geometries = Vec::new();
    for log_size in 9..=22 {
        let size = 1u32 << log_size;
        for log_ways in 0..=7 {
            let ways = 1u32 << log_ways;
            if ways * 64 <= size {
                geometries
                    .push(CacheGeometry::new(size, ways, 64).expect("grid geometry is valid"));
            }
        }
    }
    SweepGrid::new()
        .processors([16])
        .distributions([Distribution::block(16)])
        .caches(geometries.into_iter().map(CacheKind::SetAssoc))
        .build()
}

/// Generates the workload's scenes and builds its config grid: the
/// set-up that `setup_s` times.
pub fn prepare(workload: Workload, scale: f64, seed: u64) -> Prepared {
    let scenes: Vec<PreparedScene> = workload
        .benchmarks()
        .iter()
        .map(|&b| prepare_scene(b, scale, seed))
        .collect();
    let mut calls = Vec::new();
    match workload {
        Workload::Fig7 => {
            for (procs, sli) in fig7_panels() {
                for scene in 0..scenes.len() {
                    let mut configs = vec![baseline_config()];
                    let params: &[u32] = if sli { &SLI_LINES } else { &BLOCK_WIDTHS };
                    configs.extend(params.iter().map(|&p| {
                        let dist = if sli {
                            Distribution::sli(p)
                        } else {
                            Distribution::block(p)
                        };
                        machine(procs, dist, CacheKind::PaperL1, Some(FIG7_BUS), 10_000)
                    }));
                    calls.push(Call {
                        scene,
                        configs,
                        engine: Engine::PerConfig,
                    });
                }
            }
        }
        Workload::Sweep => {
            let mut configs = reference_grid();
            configs.extend(dense_grid());
            let options = SweepOptions {
                threads: threads(),
                ..SweepOptions::default()
            };
            for scene in 0..scenes.len() {
                calls.push(Call {
                    scene,
                    configs: configs.clone(),
                    engine: Engine::Sweep(options),
                });
            }
        }
    }
    Prepared {
        workload,
        scenes,
        calls,
    }
}

/// The 1-processor machine every Figure 7 row divides by
/// (`fig7::baseline`).
fn baseline_config() -> MachineConfig {
    machine(
        1,
        Distribution::block(16),
        CacheKind::PaperL1,
        Some(FIG7_BUS),
        10_000,
    )
}

impl Prepared {
    /// Machine configs one pass simulates.
    pub fn configs(&self) -> usize {
        self.calls.iter().map(|c| c.configs.len()).sum()
    }

    /// Fragment × config pairs one pass simulates.
    pub fn fragment_configs(&self) -> u64 {
        self.calls
            .iter()
            .map(|c| self.scenes[c.scene].stream.fragment_count() * c.configs.len() as u64)
            .sum()
    }

    /// One timed pass: the program's own public entry points, called the
    /// way `sortmid-experiments` and the sweep bench call them.
    pub fn run_pass(&self) -> PassOutput {
        match self.workload {
            Workload::Fig7 => PassOutput::Tables(
                fig7_panels()
                    .map(|(procs, sli)| fig7::speedup_panel(&self.scenes, procs, sli, FIG7_BUS))
                    .collect(),
            ),
            Workload::Sweep => PassOutput::Reports(
                self.calls
                    .iter()
                    .flat_map(|c| match c.engine {
                        Engine::Sweep(o) => {
                            run_sweep_with_options(&self.scenes[c.scene].stream, &c.configs, o)
                        }
                        Engine::PerConfig => unreachable!("the sweep workload only sweeps"),
                    })
                    .collect(),
            ),
        }
    }

    /// Every report of one pass, flattened in call order: the untimed
    /// reference the timed passes are checked against (and their warm-up).
    ///
    /// Each call runs on the path the timed pass takes — one
    /// `Machine::run` per config, or the sweep engine — on [`threads`]
    /// host threads, so the identity checks and digests cover the code
    /// that is timed.
    pub fn reference_reports(&self) -> Vec<RunReport> {
        let jobs: Vec<(&FragmentStream, &MachineConfig)> = self
            .calls
            .iter()
            .filter(|c| matches!(c.engine, Engine::PerConfig))
            .flat_map(|c| c.configs.iter().map(|m| (&self.scenes[c.scene].stream, m)))
            .collect();
        let mut per_config = run_machines(&jobs).into_iter();
        let options = SweepOptions {
            threads: threads(),
            ..SweepOptions::default()
        };
        let mut reports = Vec::with_capacity(self.configs());
        for c in &self.calls {
            match c.engine {
                Engine::PerConfig => reports.extend(per_config.by_ref().take(c.configs.len())),
                Engine::Sweep(_) => reports.extend(run_sweep_with_options(
                    &self.scenes[c.scene].stream,
                    &c.configs,
                    options,
                )),
            }
        }
        reports
    }

    /// The rows of every table a pass prints, as indices into the
    /// flattened reports; empty for the sweep workload.
    fn table_rows(&self) -> Vec<Vec<Row>> {
        let mut spans = Vec::with_capacity(self.calls.len());
        let mut next = 0;
        for c in &self.calls {
            spans.push((next, c.configs.len()));
            next += c.configs.len();
        }
        match self.workload {
            // Call (panel, scene) = [baseline, one config per column];
            // a panel's rows are its scenes.
            Workload::Fig7 => spans
                .chunks(self.scenes.len())
                .map(|panel| {
                    panel
                        .iter()
                        .map(|&(s, len)| Row {
                            baseline: s,
                            cells: s + 1..s + len,
                        })
                        .collect()
                })
                .collect(),
            Workload::Sweep => Vec::new(),
        }
    }
}

/// `Machine::run` on every `(stream, config)` job on [`threads`] host
/// threads; the reports in job order.
fn run_machines(jobs: &[(&FragmentStream, &MachineConfig)]) -> Vec<RunReport> {
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<RunReport>> = jobs.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads() {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(stream, config)) = jobs.get(i) else {
                    break;
                };
                let _ = slots[i].set(Machine::new(config.clone()).run(stream));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every job ran"))
        .collect()
}

/// Figure 7's panels in print order: `(processors, sli)`.
fn fig7_panels() -> impl Iterator<Item = (u32, bool)> {
    [false, true]
        .into_iter()
        .flat_map(|sli| PROC_PANELS.iter().map(move |&p| (p, sli)))
}

/// Renders Figure 7's panels byte for byte as `sortmid-experiments fig7`
/// prints them, one string per panel.
pub fn render_fig7(tables: &[Table]) -> Vec<String> {
    fig7_panels()
        .zip(tables)
        .map(|((procs, sli), t)| {
            let title = format!(
                "{procs} processors / {}  (bus {FIG7_BUS} texel/pixel)",
                if sli { "SLI" } else { "block" }
            );
            let best: Vec<String> = fig7::best_params(t)
                .iter()
                .map(|(name, p, s)| format!("{name}: best={p} ({s:.2}x)"))
                .collect();
            format!(
                "== Figure 7: speedup, {title} ==\n{}\n   best parameter per scene: {}\n\n",
                t.to_ascii(),
                best.join(", ")
            )
        })
        .collect()
}

/// The untimed reference pass, checked: per-config digests and failures.
#[derive(Debug)]
pub struct Reference {
    /// Every report, flattened in call order.
    pub reports: Vec<RunReport>,
    /// Each report's digest (0 where its identity check failed).
    pub digests: Vec<u64>,
    /// Configs whose report failed a check.
    pub failed: usize,
}

impl Reference {
    /// Checks every report's identities and, when `golden` is given, its
    /// digest against the committed golden list.
    pub fn check(reports: Vec<RunReport>, golden: Option<&[u64]>, plant: bool) -> Reference {
        let mut failed = 0;
        let digests = reports
            .iter()
            .enumerate()
            .map(|(i, r)| match check_report(r, plant && i == 0) {
                Ok(d) if golden.is_none_or(|g| g.get(i) == Some(&d)) => d,
                Ok(d) => {
                    eprintln!(
                        "golden mismatch: config {i} ({}) digest {d:016x}",
                        r.summary()
                    );
                    failed += 1;
                    d
                }
                Err(e) => {
                    eprintln!("identity check failed: {e}");
                    failed += 1;
                    0
                }
            })
            .collect();
        Reference {
            reports,
            digests,
            failed,
        }
    }
}

/// Checks one timed pass against the reference: every config whose output
/// differs counts as failed. Returns `(failed configs, pass digest)`.
///
/// Tables are compared cell by cell with the speedups the reference
/// reports give (a row's baseline fails with any of its cells), and,
/// when `fig7_golden` is given, each rendered Figure 7 panel byte for byte
/// with `sortmid-experiments fig7`'s output. Reports are re-checked and
/// their digests compared.
pub fn check_pass(
    p: &Prepared,
    out: &PassOutput,
    reference: &Reference,
    fig7_golden: Option<&str>,
) -> (usize, u64) {
    let mut failed = vec![false; reference.reports.len()];
    let digest = match out {
        PassOutput::Reports(reports) => {
            let digests: Vec<u64> = reports
                .iter()
                .map(|r| check_report(r, false).unwrap_or(0))
                .collect();
            for (i, f) in failed.iter_mut().enumerate() {
                *f = digests.get(i) != Some(&reference.digests[i]);
            }
            fnv1a_64(render_digests(&digests).into_bytes())
        }
        PassOutput::Tables(tables) => {
            let layout = p.table_rows();
            for (ti, rows) in layout.iter().enumerate() {
                let csv = tables.get(ti).map(Table::to_csv).unwrap_or_default();
                let mut lines = csv.lines().skip(1);
                for row in rows {
                    let got: Vec<&str> = lines
                        .next()
                        .map(|l| l.split(',').skip(1).collect())
                        .unwrap_or_default();
                    let base = &reference.reports[row.baseline];
                    let mut row_failed = false;
                    for (k, ci) in row.cells.clone().enumerate() {
                        let want = fmt_f(reference.reports[ci].speedup_vs(base), 2);
                        if got.get(k) != Some(&want.as_str()) {
                            failed[ci] = true;
                            row_failed = true;
                        }
                    }
                    failed[row.baseline] |= row_failed;
                }
            }
            if let Some(golden) = fig7_golden {
                let starts: Vec<usize> = golden
                    .match_indices("== Figure 7:")
                    .map(|(i, _)| i)
                    .collect();
                let rendered = render_fig7(tables);
                for (pi, rows) in layout.iter().enumerate() {
                    let end = starts.get(pi + 1).copied().unwrap_or(golden.len());
                    let want = starts.get(pi).map(|&s| &golden[s..end]);
                    if want != rendered.get(pi).map(String::as_str) {
                        eprintln!("fig7 panel {pi} differs from `sortmid-experiments fig7`");
                        for row in rows {
                            failed[row.baseline] = true;
                            failed[row.cells.clone()].iter_mut().for_each(|f| *f = true);
                        }
                    }
                }
            }
            fnv1a_64(tables.iter().flat_map(|t| t.to_csv().into_bytes()))
        }
    };
    (failed.iter().filter(|&&f| f).count(), digest)
}
