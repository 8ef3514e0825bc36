//! The traced run: the workload's set-up and pass replayed as timed calls
//! into each layer's public functions, from this crate's code — nothing
//! inside the program is instrumented beyond the sweep's own existing
//! [`HostProfiler`] spans. Untraced passes of the same inputs run first,
//! so the tracing overhead and the part of the pass no layer explains are
//! both measured.
//!
//! Layer self-times of the threaded sweep stages are the stage spans'
//! summed durations divided by the sweep's worker count: the wall time
//! the stage would take if its work were spread evenly. What the layers
//! do not cover (idle workers, path selection, table formatting) is
//! `trace.unexplained_pct`.

use crate::check::{check_report, SimCounts};
use crate::host::{cpu_times, median};
use crate::workload::{check_pass, scene_builder, Engine, Prepared, Reference};
use crate::{Metric, Settings};
use sortmid::{
    capture_line_trace, run_sweep_profiled, CacheKind, HostProfiler, Machine, MachineConfig,
    PlanLanes, RoutingPlan,
};
use sortmid_cache::{evaluate_trace_auto, CacheGeometry, GeometryRequest};
use sortmid_raster::{FragBatch, FragmentStream};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Untraced passes the traced run times for the overhead and CPU figures.
const UNTRACED_PASSES: usize = 2;

/// The sweep's threaded stages, as its `HostProfiler` names them.
const POOL_STAGES: [&str; 5] = [
    "plan-build",
    "lane-pivot",
    "capture",
    "trace-eval",
    "run-configs",
];

/// Smallest group of Mattson-expressible configs that a sweep prices by
/// one stack-distance walk of the plan's trace (the sweep's
/// `REPLAY_MIN_GROUP`); smaller groups simulate directly.
const REPLAY_MIN_GROUP: usize = 4;

/// What the traced run adds to the run's verdict.
#[derive(Debug)]
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Accumulated wall nanoseconds and work units of one layer's calls.
#[derive(Debug, Default, Clone, Copy)]
struct Layer {
    ns: u64,
    units: u64,
}

impl Layer {
    fn add(&mut self, t: Instant, units: u64) {
        self.ns += t.elapsed().as_nanos() as u64;
        self.units += units;
    }

    /// Nanoseconds per unit; 0 when the layer was never called.
    fn per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.ns as f64 / self.units as f64
        }
    }
}

#[derive(Debug, Default)]
struct Ledger {
    generate: Layer,
    rasterize: Layer,
    batch_pivot: Layer,
    plan_build: Layer,
    lane_pivot: Layer,
    capture: Layer,
    stackdist_walk: Layer,
    machine_walk: Layer,
    /// Routing plans the program builds in one pass.
    plan_builds: u64,
    /// Sweep stage span nanoseconds, summed over workers.
    stage_ns: BTreeMap<&'static str, u64>,
    /// `mattson-walk` / `direct-replay` span nanoseconds inside sweeps.
    sweep_walk_ns: u64,
    /// Wall nanoseconds of the traced sweep calls.
    sweep_wall_ns: u64,
    /// Per-config report synthesis: nanoseconds and configs.
    synth: Layer,
    /// `run-configs` worker busy and worker × window nanoseconds.
    busy_ns: u64,
    capacity_ns: u64,
    /// Layer self-times of the traced pass, threaded stages divided by
    /// their worker count.
    layer_wall_ns: f64,
}

/// Runs the traced replay of `p`'s set-up and pass.
pub fn run(
    s: &Settings,
    p: &Prepared,
    reference: &Reference,
    log: &mut dyn Write,
) -> std::io::Result<Traced> {
    let mut ledger = Ledger::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Set-up: scene generation, then rasterization, per scene.
    for &b in s.workload.benchmarks() {
        let t = Instant::now();
        let scene = std::hint::black_box(scene_builder(b, s.scale, s.seed).build());
        ledger.generate.add(t, scene.triangles().len() as u64);
        let t = Instant::now();
        let stream = std::hint::black_box(scene.rasterize());
        ledger.rasterize.add(t, stream.fragment_count());
    }

    // Untraced passes: wall, user and system CPU seconds.
    let (mut walls, mut cpus, mut syss) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..UNTRACED_PASSES {
        let (u0, s0) = cpu_times();
        let t = Instant::now();
        let out = std::hint::black_box(p.run_pass());
        walls.push(t.elapsed().as_secs_f64());
        let (u1, s1) = cpu_times();
        cpus.push(u1 - u0 + s1 - s0);
        syss.push(s1 - s0);
        attempted += p.configs() as u64;
        failed += check_pass(p, &out, reference, None).0 as u64;
    }
    let untraced_s = median(&walls);

    // The traced pass.
    let t_pass = Instant::now();
    let mut reports = Vec::with_capacity(reference.reports.len());
    for call in &p.calls {
        let stream = &p.scenes[call.scene].stream;
        match call.engine {
            Engine::PerConfig => {
                for config in &call.configs {
                    let t = Instant::now();
                    let plan = RoutingPlan::build(stream, &config.distribution, config.processors);
                    ledger.plan_build.add(t, stream.fragment_count());
                    ledger.plan_builds += 1;
                    let t = Instant::now();
                    reports.push(Machine::new(config.clone()).run_planned(stream, &plan));
                    ledger.machine_walk.add(t, stream.fragment_count());
                }
            }
            Engine::Sweep(options) => {
                let prof = HostProfiler::new();
                let t = Instant::now();
                reports.extend(run_sweep_profiled(stream, &call.configs, options, &prof));
                ledger.sweep_wall_ns += t.elapsed().as_nanos() as u64;
                ledger.plan_builds += prof.metrics().counter("sweep.plans").get();
                for path in ["direct", "captured", "replay"] {
                    let h = prof.metrics().histogram(&format!("host.run_ns.{path}"));
                    ledger.synth.ns += h.sum();
                    ledger.synth.units += h.count();
                }
                let profile = prof.finish();
                let totals = profile.phase_totals();
                let span_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns);
                let workers = profile
                    .workers
                    .iter()
                    .filter(|w| w.lane == "run-configs")
                    .count()
                    .max(1);
                let pool_ns: u64 = POOL_STAGES.iter().map(|&st| span_ns(st)).sum();
                ledger.layer_wall_ns +=
                    span_ns("batch-pivot") as f64 + pool_ns as f64 / workers as f64;
                for stage in std::iter::once("batch-pivot").chain(POOL_STAGES) {
                    *ledger.stage_ns.entry(stage).or_default() += span_ns(stage);
                }
                ledger.sweep_walk_ns += span_ns("mattson-walk") + span_ns("direct-replay");
                for w in profile.workers.iter().filter(|w| w.lane == "run-configs") {
                    ledger.busy_ns += w.busy_ns;
                    ledger.capacity_ns += w.wall_ns;
                }
            }
        }
    }
    let traced_s = t_pass.elapsed().as_secs_f64();
    ledger.layer_wall_ns += (ledger.plan_build.ns + ledger.machine_walk.ns) as f64;

    // The traced reports must be the untimed reference's, config by config.
    attempted += reports.len() as u64;
    for (i, r) in reports.iter().enumerate() {
        if check_report(r, false).ok() != reference.digests.get(i).copied() {
            failed += 1;
        }
    }
    let counts = SimCounts::of(&reports);
    if counts != SimCounts::of(&reference.reports) || reports.len() != reference.reports.len() {
        writeln!(log, "traced simulated counts differ from the untimed run's")?;
        failed += 1;
    }

    // Stage costs: the sweep stages called one at a time, single-threaded,
    // on the same inputs. Routing-plan timings here add to the per-config
    // builds above; the build count stays the program's.
    for call in &p.calls {
        if let Engine::Sweep(_) = call.engine {
            stage_costs(&p.scenes[call.scene].stream, &call.configs, &mut ledger);
        }
    }

    let pct = |x: f64| x * 100.0 / untraced_s;
    writeln!(
        log,
        "traced pass {traced_s:.4} s vs untraced median {untraced_s:.4} s; layers explain {:.4} s",
        ledger.layer_wall_ns / 1e9
    )?;
    let l = &ledger;
    let stage_s = |name: &str| l.stage_ns.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let mut metrics = vec![
        Metric::new("scene.generate_ns_per_tri", l.generate.per_unit(), "ns/tri"),
        Metric::new(
            "raster.rasterize_ns_per_frag",
            l.rasterize.per_unit(),
            "ns/frag",
        ),
        Metric::new(
            "raster.batch_pivot_ns_per_frag",
            l.batch_pivot.per_unit(),
            "ns/frag",
        ),
        Metric::new("core.plan.builds", l.plan_builds as f64, "count"),
        Metric::new(
            "core.plan.build_ns_per_frag",
            l.plan_build.per_unit(),
            "ns/frag",
        ),
        Metric::new(
            "core.batch.lane_pivot_ns_per_frag",
            l.lane_pivot.per_unit(),
            "ns/frag",
        ),
        Metric::new(
            "core.replay.capture_ns_per_frag",
            l.capture.per_unit(),
            "ns/frag",
        ),
        Metric::new(
            "cache.stackdist.walk_ns_per_access",
            l.stackdist_walk.per_unit(),
            "ns/access",
        ),
        Metric::new(
            "cache.stackdist.walk_share",
            if l.sweep_wall_ns == 0 {
                0.0
            } else {
                l.sweep_walk_ns as f64 / l.sweep_wall_ns as f64
            },
            "ratio",
        ),
        Metric::new(
            "core.machine.walk_ns_per_frag",
            l.machine_walk.per_unit(),
            "ns/frag",
        ),
    ];
    for stage in std::iter::once("batch-pivot").chain(POOL_STAGES) {
        metrics.push(Metric::new(
            format!("core.sweep.self_s.{stage}"),
            stage_s(stage),
            "s",
        ));
    }
    metrics.extend([
        Metric::new(
            "core.sweep.synth_ns_per_config",
            l.synth.per_unit(),
            "ns/config",
        ),
        Metric::new(
            "core.sched.busy_share",
            if l.capacity_ns == 0 {
                0.0
            } else {
                l.busy_ns as f64 / l.capacity_ns as f64
            },
            "ratio",
        ),
        Metric::new("host.cpu_s", median(&cpus), "s"),
        Metric::new("host.sys_s", median(&syss), "s"),
        Metric::new(
            "trace.unexplained_pct",
            pct(untraced_s - l.layer_wall_ns / 1e9),
            "%",
        ),
        Metric::new("trace.overhead_pct", pct(traced_s - untraced_s), "%"),
    ]);
    metrics.extend(
        counts
            .metrics()
            .into_iter()
            .map(|(n, v, u)| Metric::new(n, v, u)),
    );
    Ok(Traced {
        attempted,
        failed,
        metrics,
    })
}

/// The sweep's stages on one call's inputs, each a timed public call:
/// the footprint batch pivot, then per `(distribution, processors)` group
/// the routing plan, its lanes, its line-trace capture and — where the
/// sweep prices the group by stack distance — the Mattson walk over the
/// group's geometries.
fn stage_costs(stream: &FragmentStream, configs: &[MachineConfig], ledger: &mut Ledger) {
    let frags = stream.fragment_count();
    let t = Instant::now();
    let batch = std::hint::black_box(FragBatch::from_stream(stream));
    ledger.batch_pivot.add(t, frags);

    let mut groups: Vec<Vec<&MachineConfig>> = Vec::new();
    for c in configs {
        match groups
            .iter_mut()
            .find(|g| g[0].processors == c.processors && g[0].distribution == c.distribution)
        {
            Some(g) => g.push(c),
            None => groups.push(vec![c]),
        }
    }
    for group in groups {
        let (dist, procs) = (&group[0].distribution, group[0].processors);
        let t = Instant::now();
        let plan = std::hint::black_box(RoutingPlan::build_from_batch(stream, &batch, dist, procs));
        ledger.plan_build.add(t, frags);
        let t = Instant::now();
        std::hint::black_box(PlanLanes::from_batch(&batch, stream, &plan));
        ledger.lane_pivot.add(t, frags);
        let t = Instant::now();
        let trace = std::hint::black_box(capture_line_trace(stream, &plan));
        ledger.capture.add(t, frags);

        let eligible: Vec<GeometryRequest> =
            group.iter().filter_map(|c| mattson_request(c)).collect();
        if eligible.len() >= REPLAY_MIN_GROUP {
            let mut requests: Vec<GeometryRequest> = Vec::new();
            for r in eligible {
                match requests.iter_mut().find(|q| q.geometry == r.geometry) {
                    Some(q) => q.classify |= r.classify,
                    None => requests.push(r),
                }
            }
            let t = Instant::now();
            std::hint::black_box(evaluate_trace_auto(&trace, &requests));
            ledger.stackdist_walk.add(t, trace.total_accesses());
        }
    }
}

/// The stack-distance request a config's cache reduces to, if any (the
/// set-associative kinds without a DRAM row model).
fn mattson_request(config: &MachineConfig) -> Option<GeometryRequest> {
    if config.dram.is_some() {
        return None;
    }
    let (geometry, classify) = match config.cache {
        CacheKind::PaperL1 => (CacheGeometry::paper_l1(), false),
        CacheKind::SetAssoc(g) => (g, false),
        CacheKind::Classifying(g) => (g, true),
        CacheKind::Perfect | CacheKind::TwoLevel(..) | CacheKind::Victim(..) => return None,
    };
    Some(GeometryRequest { geometry, classify })
}
