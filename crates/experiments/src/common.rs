//! Shared scaffolding for the experiment modules.

use sortmid::{
    run_graph, CacheKind, Distribution, Machine, MachineConfig, NullHostSink, RunReport,
    SweepOptions, TaskGraph,
};
use sortmid_raster::FragmentStream;
use sortmid_scene::{Benchmark, Scene, SceneBuilder};
use std::sync::OnceLock;

/// The block widths the paper sweeps for the square-block distribution
/// (widths 1 and 2 are shown in Figure 5 but dropped from the locality
/// plots, "for they often have ratios bigger than 8").
pub const BLOCK_WIDTHS: [u32; 6] = [4, 8, 16, 32, 64, 128];

/// The full block sweep including the degenerate tiny widths (Figures 5
/// and 8 use them).
pub const BLOCK_WIDTHS_FULL: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// The SLI group sizes the paper sweeps.
pub const SLI_LINES: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// The processor counts of Figure 7's panels.
pub const PROC_PANELS: [u32; 3] = [4, 16, 64];

/// The processor counts of the speedup-vs-P curves.
pub const PROC_CURVE: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The triangle-buffer sizes of Figure 8.
pub const BUFFER_SIZES: [usize; 8] = [1, 5, 10, 20, 50, 100, 500, 10_000];

/// A benchmark scene generated at a given scale, with its rasterized
/// stream, ready for machine sweeps.
#[derive(Debug)]
pub struct PreparedScene {
    /// Which benchmark this is.
    pub benchmark: Benchmark,
    /// The generated scene.
    pub scene: Scene,
    /// Its rasterization.
    pub stream: FragmentStream,
    /// The scale it was generated at.
    pub scale: f64,
}

impl PreparedScene {
    /// Generates and rasterizes `benchmark` at `scale`.
    pub fn new(benchmark: Benchmark, scale: f64) -> Self {
        let scene = SceneBuilder::benchmark(benchmark).scale(scale).build();
        let stream = scene.rasterize();
        PreparedScene {
            benchmark,
            scene,
            stream,
            scale,
        }
    }

    /// Prepares every benchmark at `scale`.
    pub fn all(scale: f64) -> Vec<PreparedScene> {
        Benchmark::ALL
            .iter()
            .map(|&b| PreparedScene::new(b, scale))
            .collect()
    }
}

/// Short column label for a benchmark (the paper abbreviates in figure
/// axes: `32massiv`, `blowout7`, `teapot_f`, ...).
pub fn short_name(benchmark: Benchmark) -> &'static str {
    match benchmark {
        Benchmark::Room3 => "room3",
        Benchmark::TeapotFull => "teapot_f",
        Benchmark::Quake => "quake",
        Benchmark::Massive11255 => "massive1",
        Benchmark::Massive32_11255 => "32massiv",
        Benchmark::Blowout775 => "blowout7",
        Benchmark::Truc640 => "truc640",
    }
}

/// Builds the paper's standard machine configuration.
///
/// # Panics
///
/// Panics on invalid parameter combinations (the sweeps only use valid
/// ones).
pub fn machine(
    procs: u32,
    dist: Distribution,
    cache: CacheKind,
    bus_ratio: Option<f64>,
    buffer: usize,
) -> MachineConfig {
    let mut b = MachineConfig::builder();
    b.processors(procs)
        .distribution(dist)
        .cache(cache)
        .triangle_buffer(buffer);
    match bus_ratio {
        Some(r) => b.bus_ratio(r),
        None => b.infinite_bus(),
    };
    b.build().expect("sweep configs are valid")
}

/// Runs [`Machine::run`] on every `(stream, config)` job, side by side on
/// the host's cores, and returns the reports in job order.
///
/// The figures' grids give every config its own routing (one config per
/// distribution × processor count), so there is no plan to share and the
/// sweep engine's pivots would only cost time and memory; what pays is
/// running independent configs at once. The jobs go to the
/// [`sortmid::sched`] pool as an edge-free [`TaskGraph`] costed by
/// fragment count, so the longest start first, on as many workers as
/// [`SweepOptions::default`] uses, the calling thread being worker 0. Each
/// report lands in its job's own slot, so the output does not depend on
/// which worker ran what.
pub fn run_machines(jobs: &[(&FragmentStream, MachineConfig)]) -> Vec<RunReport> {
    let mut graph = TaskGraph::with_capacity(jobs.len());
    for (stream, _) in jobs {
        graph.add(stream.fragment_count());
    }
    let slots: Vec<OnceLock<RunReport>> = jobs.iter().map(|_| OnceLock::new()).collect();
    run_graph(graph, SweepOptions::default().threads, &NullHostSink, &|task, _| {
        let (stream, config) = &jobs[task];
        let _ = slots[task].set(Machine::new(config.clone()).run(stream));
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_scene_has_fragments() {
        let p = PreparedScene::new(Benchmark::Quake, 0.1);
        assert!(p.stream.fragment_count() > 1000);
        assert_eq!(p.scene.name(), "quake");
    }

    #[test]
    fn short_names_are_unique() {
        let names: std::collections::HashSet<_> =
            Benchmark::ALL.iter().map(|&b| short_name(b)).collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn machine_helper_builds_infinite_bus() {
        let c = machine(4, Distribution::sli(2), CacheKind::PaperL1, None, 100);
        assert!(c.bus.is_infinite());
        assert_eq!(c.triangle_buffer, 100);
        let c2 = machine(4, Distribution::block(16), CacheKind::Perfect, Some(2.0), 10);
        assert_eq!(c2.bus.line_cost(), 8);
    }

    #[test]
    fn run_machines_returns_the_serial_reports_in_job_order() {
        let small = PreparedScene::new(Benchmark::Quake, 0.05);
        let large = PreparedScene::new(Benchmark::TeapotFull, 0.08);
        let configs: Vec<MachineConfig> = [1u32, 4, 16]
            .into_iter()
            .flat_map(|procs| {
                [Distribution::block(8), Distribution::sli(2)]
                    .map(|dist| machine(procs, dist, CacheKind::PaperL1, Some(1.0), 100))
            })
            .collect();
        // More jobs than workers on any host, with mixed costs: every
        // third job runs the larger stream.
        let workers = SweepOptions::default().threads;
        let jobs: Vec<(&FragmentStream, MachineConfig)> = (0..2 * workers + 3)
            .map(|i| {
                let scene = if i % 3 == 0 { &large } else { &small };
                (&scene.stream, configs[i % configs.len()].clone())
            })
            .collect();
        let serial: Vec<RunReport> = jobs
            .iter()
            .map(|(stream, cfg)| Machine::new(cfg.clone()).run(stream))
            .collect();
        assert_eq!(run_machines(&jobs), serial);
        assert!(run_machines(&[]).is_empty());
    }
}
