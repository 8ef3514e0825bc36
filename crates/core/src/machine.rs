//! The parallel sort-middle machine simulation.

use crate::batch::PlanLanes;
use crate::config::MachineConfig;
use crate::node::{footprint, Node};
use crate::plan::{OwnerLut, RoutingPlan};
use crate::report::RunReport;
use sortmid_geom::Rect;
use sortmid_memsys::Cycle;
use sortmid_observe::{NullSink, TraceEvent, TraceSink};
use sortmid_raster::{Fragment, FragmentStream};

/// The screen-space anchor a triangle's setup padding is attributed to in
/// spatial traces: the bounding-box origin clamped to non-negative
/// coordinates (an overlapped node pays the setup floor even when it owns
/// no fragment of the triangle, so fragment positions cannot anchor it).
fn setup_anchor(bbox: &Rect) -> (u16, u16) {
    (
        bbox.x0.clamp(0, u16::MAX as i32) as u16,
        bbox.y0.clamp(0, u16::MAX as i32) as u16,
    )
}

/// The machine: replays a [`FragmentStream`] under a [`MachineConfig`].
///
/// The simulation walks the triangle stream once, in order — exactly the
/// order the geometry stage emits. For each triangle it:
///
/// 1. **broadcasts** it: every node's FIFO takes a slot (the paper's chips
///    receive every primitive and clip in hardware — a node whose region
///    the bounding box misses discards the triangle for free, but the slot
///    was still occupied);
/// 2. waits until **every** FIFO has space (the geometry stage is a single
///    in-order producer — a full FIFO anywhere blocks everyone, which is
///    the paper's local load imbalance);
/// 3. nodes whose regions the bounding box overlaps pay the 25-cycle setup
///    floor and scan their owned fragments, probing their private cache per
///    texel read and queuing line fills on their private bus.
///
/// Machine time is the cycle the slowest node completes its last fill.
///
/// # Examples
///
/// See [`crate`]-level docs.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
}

impl Machine {
    /// Creates a machine from a validated configuration.
    pub fn new(config: MachineConfig) -> Self {
        Machine { config }
    }

    /// The configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Simulates the stream and returns the run report.
    pub fn run(&self, stream: &FragmentStream) -> RunReport {
        self.run_traced(stream, &mut NullSink)
    }

    /// [`run`](Self::run) with a [`TraceSink`] receiving the run's event
    /// stream: FIFO push/pop per node, triangle start/retire/discard, and
    /// every texture-bus line fill with its exact slot and cost.
    ///
    /// The report is byte-identical to [`run`](Self::run) — tracing only
    /// observes. Events are emitted in *simulation* order (triangle by
    /// triangle), not globally sorted by cycle; consumers such as
    /// [`TraceRecorder`](sortmid_observe::TraceRecorder) sort on export.
    /// With [`NullSink`] the whole event path monomorphizes away, which is
    /// what keeps the untraced sweep at its reference speed.
    pub fn run_traced<S: TraceSink>(&self, stream: &FragmentStream, sink: &mut S) -> RunReport {
        let mut nodes: Vec<Node> = (0..self.config.processors)
            .map(|_| Node::new(&self.config))
            .collect();
        let routed = self.run_frame(stream, &mut nodes, sink);
        let total_cycles = nodes.iter().map(Node::finish_time).max().unwrap_or(0);
        let node_reports: Vec<_> = nodes.iter().map(Node::report).collect();
        RunReport::new(
            self.config.summary(),
            total_cycles,
            node_reports,
            stream.fragment_count(),
            stream.triangle_count() as u64,
            routed,
        )
    }

    /// Per-node track labels for trace exports: `node <i> (<cache model>)`.
    pub fn node_labels(&self) -> Vec<String> {
        let label = Node::new(&self.config).cache_label();
        (0..self.config.processors)
            .map(|i| format!("node {i} ({label})"))
            .collect()
    }

    /// Simulates the stream by replaying a precomputed [`RoutingPlan`],
    /// skipping all per-fragment ownership math. The report is identical
    /// to [`run`](Self::run) — same node timing, same counters, same
    /// summary string — the plan only precomputes *where* work goes, never
    /// *how long* it takes.
    ///
    /// Internally this runs the **batched fragment core**: the plan is
    /// pivoted into [`PlanLanes`] (struct-of-arrays line-id lanes) and
    /// each fragment's footprint resolves through the cache's batched
    /// probe. Use [`run_planned_with_lanes`](Self::run_planned_with_lanes)
    /// to amortise the pivot across configs, or
    /// [`run_planned_scalar`](Self::run_planned_scalar) to force the
    /// scalar reference path.
    ///
    /// # Panics
    ///
    /// Panics if the plan was built for a different distribution or
    /// processor count than this machine's configuration.
    pub fn run_planned(&self, stream: &FragmentStream, plan: &RoutingPlan) -> RunReport {
        self.run_planned_traced(stream, plan, &mut NullSink)
    }

    /// [`run_planned`](Self::run_planned) with a [`TraceSink`]: the same
    /// event stream and spatial samples as
    /// [`run_traced`](Self::run_traced), emitted from the batched
    /// plan-replay path. Reports and recorded observations are identical
    /// between the paths — property tests pin this.
    ///
    /// # Panics
    ///
    /// Panics if the plan was built for a different distribution or
    /// processor count than this machine's configuration.
    pub fn run_planned_traced<S: TraceSink>(
        &self,
        stream: &FragmentStream,
        plan: &RoutingPlan,
        sink: &mut S,
    ) -> RunReport {
        let lanes = PlanLanes::build(stream, plan);
        self.run_planned_with_lanes_traced(stream, plan, &lanes, sink)
    }

    /// [`run_planned`](Self::run_planned) with the plan's [`PlanLanes`]
    /// already pivoted — the sweep builds the lanes once per plan group
    /// and replays them read-only from every config in the group.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not fit this machine's configuration or the
    /// lanes were built for a different plan.
    pub fn run_planned_with_lanes(
        &self,
        stream: &FragmentStream,
        plan: &RoutingPlan,
        lanes: &PlanLanes,
    ) -> RunReport {
        self.run_planned_with_lanes_traced(stream, plan, lanes, &mut NullSink)
    }

    /// [`run_planned_with_lanes`](Self::run_planned_with_lanes) with a
    /// [`TraceSink`].
    ///
    /// # Panics
    ///
    /// Panics if the plan does not fit this machine's configuration or the
    /// lanes were built for a different plan.
    pub fn run_planned_with_lanes_traced<S: TraceSink>(
        &self,
        stream: &FragmentStream,
        plan: &RoutingPlan,
        lanes: &PlanLanes,
        sink: &mut S,
    ) -> RunReport {
        self.assert_plan_fits(plan);
        assert!(
            lanes.procs() == plan.procs() && lanes.fragment_count() == stream.fragment_count(),
            "lanes built for a different plan ({} nodes, {} fragments)",
            lanes.procs(),
            lanes.fragment_count(),
        );
        let mut nodes: Vec<Node> = (0..self.config.processors)
            .map(|_| Node::new(&self.config))
            .collect();
        let routed = self.run_frame_lanes(stream, plan, lanes, &mut nodes, sink);
        let total_cycles = nodes.iter().map(Node::finish_time).max().unwrap_or(0);
        let node_reports: Vec<_> = nodes.iter().map(Node::report).collect();
        RunReport::new(
            self.config.summary(),
            total_cycles,
            node_reports,
            stream.fragment_count(),
            stream.triangle_count() as u64,
            routed,
        )
    }

    /// The scalar plan-replay path: identical routing and timing, but
    /// every texel probes the cache one line at a time through the
    /// reference [`scan_fragments`] loop. This is the `--scalar` escape
    /// hatch and the semantics the batched core is property-tested
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if the plan was built for a different distribution or
    /// processor count than this machine's configuration.
    ///
    /// [`scan_fragments`]: crate::node
    pub fn run_planned_scalar(&self, stream: &FragmentStream, plan: &RoutingPlan) -> RunReport {
        self.run_planned_scalar_traced(stream, plan, &mut NullSink)
    }

    /// [`run_planned_scalar`](Self::run_planned_scalar) with a
    /// [`TraceSink`].
    ///
    /// # Panics
    ///
    /// Panics if the plan was built for a different distribution or
    /// processor count than this machine's configuration.
    pub fn run_planned_scalar_traced<S: TraceSink>(
        &self,
        stream: &FragmentStream,
        plan: &RoutingPlan,
        sink: &mut S,
    ) -> RunReport {
        self.assert_plan_fits(plan);
        let mut nodes: Vec<Node> = (0..self.config.processors)
            .map(|_| Node::new(&self.config))
            .collect();
        let routed = self.run_frame_planned(stream, plan, &mut nodes, sink);
        let total_cycles = nodes.iter().map(Node::finish_time).max().unwrap_or(0);
        let node_reports: Vec<_> = nodes.iter().map(Node::report).collect();
        RunReport::new(
            self.config.summary(),
            total_cycles,
            node_reports,
            stream.fragment_count(),
            stream.triangle_count() as u64,
            routed,
        )
    }

    fn assert_plan_fits(&self, plan: &RoutingPlan) {
        assert!(
            plan.matches(&self.config.distribution, self.config.processors),
            "plan built for {}x{} does not fit machine {}x{}",
            plan.distribution(),
            plan.procs(),
            self.config.distribution,
            self.config.processors,
        );
    }

    /// Simulates a *sequence* of frames on the same machine: timing and
    /// FIFOs restart each frame, but every node's **cache stays warm** —
    /// the inter-frame locality situation the paper's closing paragraph
    /// asks about (an L2 per node only sees its own screen fraction, so a
    /// viewpoint translation larger than the tile size defeats it).
    ///
    /// Returns one report per frame; each report's cache statistics cover
    /// only that frame.
    pub fn run_sequence(&self, frames: &[&FragmentStream]) -> Vec<RunReport> {
        let mut nodes: Vec<Node> = (0..self.config.processors)
            .map(|_| Node::new(&self.config))
            .collect();
        let mut reports = Vec::with_capacity(frames.len());
        for (i, stream) in frames.iter().enumerate() {
            if i > 0 {
                for node in &mut nodes {
                    node.start_new_frame();
                }
            }
            let snapshots: Vec<_> = nodes.iter().map(Node::cache_snapshot).collect();
            let routed = self.run_frame(stream, &mut nodes, &mut NullSink);
            let total_cycles = nodes.iter().map(Node::finish_time).max().unwrap_or(0);
            let node_reports: Vec<_> = nodes
                .iter()
                .zip(&snapshots)
                .map(|(node, snap)| node.report_since(snap))
                .collect();
            reports.push(RunReport::new(
                format!("{} frame {}", self.config.summary(), i),
                total_cycles,
                node_reports,
                stream.fragment_count(),
                stream.triangle_count() as u64,
                routed,
            ));
        }
        reports
    }

    /// Replays one stream over existing nodes; returns the routed count.
    ///
    /// The live walk behind [`run`](Self::run), [`run_traced`](Self::run_traced)
    /// and [`run_sequence`](Self::run_sequence): ownership comes from an
    /// [`OwnerLut`] built once per frame (two table reads per fragment,
    /// no div/rem), and each owned fragment's footprint is resolved into a
    /// stack array and probed through the batched scan — no plan, no lane
    /// pivot, so a config that shares nothing with other configs pays for
    /// nothing it does not use.
    fn run_frame<S: TraceSink>(
        &self,
        stream: &FragmentStream,
        nodes: &mut [Node],
        sink: &mut S,
    ) -> u64 {
        let procs = self.config.processors;
        let lut = OwnerLut::build(&self.config.distribution, stream.screen(), procs);
        let mut scratch: Vec<Vec<&Fragment>> = (0..procs).map(|_| Vec::new()).collect();
        let mut send_time: Cycle = 0;
        let mut routed: u64 = 0;

        for (ti, tri) in stream.triangles().iter().enumerate() {
            if tri.is_culled() {
                continue;
            }
            let mask = self.config.distribution.overlap_mask(&tri.bbox, procs);
            debug_assert_ne!(mask, 0, "non-culled triangle must route somewhere");
            routed += mask.count_ones() as u64;

            // Partition the triangle's fragments by owner.
            for frag in stream.fragments_of(tri) {
                let owner = lut.owner(frag.x, frag.y);
                debug_assert!(mask & (1u128 << owner) != 0, "owner outside overlap mask");
                scratch[owner as usize].push(frag);
            }

            // In-order producer broadcasting to every node: sending is
            // gated by the geometry bus rate and by the fullest FIFO
            // anywhere, and never goes back in time.
            let mut send = send_time + self.config.geometry_cycles_per_triangle;
            for node in nodes.iter() {
                send = send.max(node.earliest_send());
            }
            send_time = send;

            let mut m = mask;
            for (i, node) in nodes.iter_mut().enumerate() {
                if S::ENABLED {
                    // The broadcast occupies a slot in *every* FIFO.
                    sink.record(TraceEvent::FifoPush { node: i as u32, at: send });
                }
                if m & 1 != 0 {
                    // Drain keeps the allocation alive for the next
                    // triangle while handing out `&Fragment` items.
                    node.process_triangle_batched(
                        send,
                        scratch[i].drain(..).map(footprint),
                        i as u32,
                        ti as u32,
                        setup_anchor(&tri.bbox),
                        sink,
                    );
                } else {
                    node.discard_triangle_traced(send, i as u32, ti as u32, sink);
                }
                m >>= 1;
            }
        }
        routed
    }

    /// Replays one stream over existing nodes following a routing plan.
    /// Node-for-node, cycle-for-cycle identical to
    /// [`run_frame`](Self::run_frame): triangles arrive in stream order,
    /// broadcast gating and discard timing are unchanged, and each owner
    /// scans its fragments in stream order — only the ownership math is
    /// precomputed.
    fn run_frame_planned<S: TraceSink>(
        &self,
        stream: &FragmentStream,
        plan: &RoutingPlan,
        nodes: &mut [Node],
        sink: &mut S,
    ) -> u64 {
        let fragments = stream.fragments();
        let triangles = stream.triangles();
        let mut send_time: Cycle = 0;

        for pt in &plan.triangles {
            let mut send = send_time + self.config.geometry_cycles_per_triangle;
            for node in nodes.iter() {
                send = send.max(node.earliest_send());
            }
            send_time = send;

            // Walk the triangle's per-owner buckets in lockstep with the
            // node loop: segments are stored in ascending owner order.
            let tri = &triangles[pt.tri as usize];
            let mut seg = pt.seg_start as usize;
            let seg_end = pt.seg_end as usize;
            let mut bucket_start = tri.frag_start as usize;

            let mut m = pt.mask;
            for (i, node) in nodes.iter_mut().enumerate() {
                if S::ENABLED {
                    sink.record(TraceEvent::FifoPush { node: i as u32, at: send });
                }
                if m & 1 != 0 {
                    if seg < seg_end && plan.segments[seg].owner == i as u32 {
                        let end = plan.segments[seg].end as usize;
                        seg += 1;
                        let bucket = &plan.frag_order[bucket_start..end];
                        bucket_start = end;
                        node.process_triangle_scalar(
                            send,
                            bucket.iter().map(|&fi| &fragments[fi as usize]),
                            i as u32,
                            pt.tri,
                            setup_anchor(&tri.bbox),
                            sink,
                        );
                    } else {
                        // Bounding-box overlap without owned fragments:
                        // the setup floor still applies.
                        node.process_triangle_scalar(
                            send,
                            [].iter(),
                            i as u32,
                            pt.tri,
                            setup_anchor(&tri.bbox),
                            sink,
                        );
                    }
                } else {
                    node.discard_triangle_traced(send, i as u32, pt.tri, sink);
                }
                m >>= 1;
            }
        }
        plan.routed()
    }

    /// [`run_frame_planned`](Self::run_frame_planned) on the batched core:
    /// the same plan walk, but each owner's bucket is a contiguous slice
    /// of the prebuilt [`PlanLanes`] instead of a gather through `frag_order`,
    /// and fragments resolve through the cache's batched lane probe.
    /// Routing, broadcast gating and timing are unchanged — reports stay
    /// byte-identical to the scalar walk.
    fn run_frame_lanes<S: TraceSink>(
        &self,
        stream: &FragmentStream,
        plan: &RoutingPlan,
        lanes: &PlanLanes,
        nodes: &mut [Node],
        sink: &mut S,
    ) -> u64 {
        let triangles = stream.triangles();
        let mut send_time: Cycle = 0;
        // Per-node read cursor into the lanes; the plan walk visits each
        // node's fragments in exactly lane order, so consumption is a
        // front-to-back scan.
        let mut cursor = vec![0usize; nodes.len()];

        for pt in &plan.triangles {
            let mut send = send_time + self.config.geometry_cycles_per_triangle;
            for node in nodes.iter() {
                send = send.max(node.earliest_send());
            }
            send_time = send;

            let tri = &triangles[pt.tri as usize];
            let mut seg = pt.seg_start as usize;
            let seg_end = pt.seg_end as usize;
            let mut bucket_start = tri.frag_start as usize;

            let mut m = pt.mask;
            for (i, node) in nodes.iter_mut().enumerate() {
                if S::ENABLED {
                    sink.record(TraceEvent::FifoPush { node: i as u32, at: send });
                }
                if m & 1 != 0 {
                    let mut count = 0usize;
                    if seg < seg_end && plan.segments[seg].owner == i as u32 {
                        let end = plan.segments[seg].end as usize;
                        seg += 1;
                        count = end - bucket_start;
                        bucket_start = end;
                    }
                    let at = cursor[i];
                    cursor[i] += count;
                    node.process_triangle_batched(
                        send,
                        lanes.footprints(i, at, count),
                        i as u32,
                        pt.tri,
                        setup_anchor(&tri.bbox),
                        sink,
                    );
                } else {
                    node.discard_triangle_traced(send, i as u32, pt.tri, sink);
                }
                m >>= 1;
            }
        }
        plan.routed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheKind;
    use crate::distribution::Distribution;
    use sortmid_scene::{Benchmark, SceneBuilder};

    fn stream() -> FragmentStream {
        SceneBuilder::benchmark(Benchmark::Quake)
            .scale(0.1)
            .build()
            .rasterize()
    }

    fn config(procs: u32, dist: Distribution, cache: CacheKind) -> MachineConfig {
        MachineConfig::builder()
            .processors(procs)
            .distribution(dist)
            .cache(cache)
            .build()
            .unwrap()
    }

    #[test]
    fn discards_complement_routed_triangles() {
        // Broadcast semantics: every node sees every non-culled triangle,
        // either as a routed triangle or as a discard.
        let s = stream();
        let live = s.triangles().iter().filter(|t| !t.is_culled()).count() as u64;
        let report = Machine::new(config(8, Distribution::block(16), CacheKind::Perfect)).run(&s);
        for node in report.nodes() {
            assert_eq!(node.triangles + node.discarded, live);
        }
    }

    #[test]
    fn all_fragments_are_drawn_under_any_distribution() {
        let s = stream();
        for dist in [Distribution::block(8), Distribution::sli(2)] {
            for procs in [1u32, 3, 16] {
                let report = Machine::new(config(procs, dist.clone(), CacheKind::Perfect)).run(&s);
                let drawn: u64 = report.nodes().iter().map(|n| n.pixels).sum();
                assert_eq!(drawn, s.fragment_count(), "{dist} {procs}p");
            }
        }
    }

    #[test]
    fn parallel_machine_is_no_slower_than_serial_work() {
        let s = stream();
        let base = Machine::new(config(1, Distribution::block(16), CacheKind::Perfect)).run(&s);
        let par = Machine::new(config(4, Distribution::block(16), CacheKind::Perfect)).run(&s);
        assert!(par.total_cycles() <= base.total_cycles());
        let speedup = par.speedup_vs(&base);
        assert!(speedup > 1.0 && speedup <= 4.0, "speedup {speedup}");
    }

    #[test]
    fn single_processor_time_is_total_work() {
        // With a perfect cache and one node, time = sum of max(25, pixels).
        let s = stream();
        let report = Machine::new(config(1, Distribution::block(16), CacheKind::Perfect)).run(&s);
        let expected: u64 = s
            .triangles()
            .iter()
            .filter(|t| !t.is_culled())
            .map(|t| (t.fragment_count() as u64).max(25))
            .sum();
        assert_eq!(report.total_cycles(), expected);
    }

    #[test]
    fn distributions_agree_on_single_processor() {
        let s = stream();
        let a = Machine::new(config(1, Distribution::block(4), CacheKind::PaperL1)).run(&s);
        let b = Machine::new(config(1, Distribution::sli(16), CacheKind::PaperL1)).run(&s);
        assert_eq!(a.total_cycles(), b.total_cycles());
        assert_eq!(a.texel_to_fragment(), b.texel_to_fragment());
    }

    #[test]
    fn smaller_tiles_raise_texel_traffic() {
        // The locality effect (Figure 6): with 16 processors, 4-pixel tiles
        // fetch more than 64-pixel tiles.
        let s = stream();
        let small = Machine::new(config(16, Distribution::block(4), CacheKind::PaperL1)).run(&s);
        let big = Machine::new(config(16, Distribution::block(64), CacheKind::PaperL1)).run(&s);
        assert!(
            small.texel_to_fragment() > big.texel_to_fragment(),
            "small {} vs big {}",
            small.texel_to_fragment(),
            big.texel_to_fragment()
        );
    }

    #[test]
    fn tiny_fifo_hurts() {
        let s = stream();
        let mut small_cfg = config(8, Distribution::block(16), CacheKind::PaperL1);
        small_cfg.triangle_buffer = 1;
        let mut big_cfg = config(8, Distribution::block(16), CacheKind::PaperL1);
        big_cfg.triangle_buffer = 10_000;
        let small = Machine::new(small_cfg).run(&s);
        let big = Machine::new(big_cfg).run(&s);
        assert!(
            small.total_cycles() > big.total_cycles(),
            "buf1 {} vs buf10000 {}",
            small.total_cycles(),
            big.total_cycles()
        );
    }

    #[test]
    fn geometry_bus_rate_bounds_the_machine() {
        let s = stream();
        let live = s.triangles().iter().filter(|t| !t.is_culled()).count() as u64;
        let mut cfg = config(16, Distribution::block(16), CacheKind::Perfect);
        let fast = Machine::new(cfg.clone()).run(&s);
        cfg.geometry_cycles_per_triangle = 100;
        let slow = Machine::new(cfg).run(&s);
        assert!(slow.total_cycles() > fast.total_cycles());
        // The rate is a hard lower bound: the last triangle cannot be sent
        // before live * rate cycles.
        assert!(slow.total_cycles() >= live * 100);
    }

    #[test]
    fn sequence_first_frame_matches_single_run() {
        let s = stream();
        let machine = Machine::new(config(8, Distribution::block(16), CacheKind::PaperL1));
        let single = machine.run(&s);
        let seq = machine.run_sequence(&[&s, &s]);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0].total_cycles(), single.total_cycles());
        assert_eq!(seq[0].cache_totals().misses(), single.cache_totals().misses());
    }

    #[test]
    fn warm_caches_make_the_second_frame_cheaper() {
        let s = stream();
        let machine = Machine::new(config(4, Distribution::block(16), CacheKind::PaperL1));
        let seq = machine.run_sequence(&[&s, &s]);
        // An identical second frame re-reads the same lines: every
        // compulsory miss of frame 1 becomes a hit (up to capacity).
        assert!(
            seq[1].cache_totals().misses() <= seq[0].cache_totals().misses(),
            "frame 2 misses {} vs frame 1 {}",
            seq[1].cache_totals().misses(),
            seq[0].cache_totals().misses()
        );
        assert!(seq[1].total_cycles() <= seq[0].total_cycles());
    }

    #[test]
    fn routed_triangles_grow_with_processors() {
        let s = stream();
        let few = Machine::new(config(2, Distribution::sli(1), CacheKind::Perfect)).run(&s);
        let many = Machine::new(config(32, Distribution::sli(1), CacheKind::Perfect)).run(&s);
        assert!(many.overlap_factor() >= few.overlap_factor());
        assert!(few.overlap_factor() >= 1.0);
    }
}
