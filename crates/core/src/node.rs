//! One texture-mapping node: engine timing + cache + triangle FIFO.

use crate::config::MachineConfig;
use crate::report::NodeReport;
use sortmid_cache::{AnyCache, CacheStats, LineCache};
use sortmid_memsys::{Cycle, EngineTiming, TriangleFifo};
use sortmid_observe::{MissClassCounts, NullSink, TraceEvent, TraceSink};
use sortmid_raster::Fragment;
use sortmid_texture::{footprint_lines, TEXELS_PER_FRAGMENT};
use std::borrow::Borrow;

/// The simulation state of one node.
///
/// The cache is stored as a concrete [`AnyCache`] enum rather than a
/// `Box<dyn LineCache>`: the texel probe loop runs 8 times per fragment, so
/// devirtualizing `access_line` lets the common set-associative and
/// perfect-cache probes inline into the scan loops.
pub(crate) struct Node {
    engine: EngineTiming,
    cache: AnyCache,
    fifo: TriangleFifo,
    setup_cycles: Cycle,
    pixel_work: u64,
    triangles_routed: u64,
    triangles_discarded: u64,
}

impl Node {
    /// Builds a node from the machine configuration.
    pub(crate) fn new(config: &MachineConfig) -> Self {
        let engine = match config.dram {
            Some(dram) => EngineTiming::with_dram(config.bus, config.prefetch_window, dram),
            None => EngineTiming::new(config.bus, config.prefetch_window),
        };
        Node {
            engine,
            cache: config.cache.build_model(),
            fifo: TriangleFifo::new(config.triangle_buffer),
            setup_cycles: config.setup_cycles,
            pixel_work: 0,
            triangles_routed: 0,
            triangles_discarded: 0,
        }
    }

    /// The earliest cycle the geometry stage may send this node another
    /// triangle (FIFO backpressure).
    pub(crate) fn earliest_send(&self) -> Cycle {
        self.fifo.earliest_send()
    }

    /// Processes one routed triangle untraced: `arrival` is its send time,
    /// `frags` yields the fragments this node owns, in stream order
    /// (possibly none — the setup floor still applies). Returns the cycle
    /// the engine dequeued it. Runs the batched scan, each footprint
    /// computed on the stack ([`footprint`]).
    pub(crate) fn process_triangle<'a, I>(&mut self, arrival: Cycle, frags: I) -> Cycle
    where
        I: ExactSizeIterator<Item = &'a Fragment>,
    {
        self.process_triangle_batched(arrival, frags.map(footprint), 0, 0, (0, 0), &mut NullSink)
    }

    /// The scalar reference path: processes one routed triangle through
    /// the per-texel [`scan_fragments`] loop, with a [`TraceSink`]
    /// receiving the FIFO dequeue, the triangle's start (with fragment
    /// count), every bus line fill, the retire, and the spatial hooks —
    /// one sample per fragment (with classified line misses) plus the
    /// triangle's setup-floor padding anchored at `anchor` (the bounding
    /// box origin, so overlaps that own no fragments still attribute their
    /// setup somewhere meaningful). With [`NullSink`] all event code
    /// monomorphizes away.
    ///
    /// Only the scalar plan replay
    /// ([`Machine::run_planned_scalar`](crate::Machine::run_planned_scalar))
    /// calls this: it is the oracle the batched scan is pinned against.
    pub(crate) fn process_triangle_scalar<'a, I, S>(
        &mut self,
        arrival: Cycle,
        frags: I,
        node_id: u32,
        tri_id: u32,
        anchor: (u16, u16),
        sink: &mut S,
    ) -> Cycle
    where
        I: ExactSizeIterator<Item = &'a Fragment>,
        S: TraceSink,
    {
        let start = self.begin_triangle(arrival, frags.len(), node_id, tri_id, sink);
        // Dispatch on the cache variant once per *triangle*, not once per
        // texel: each arm monomorphizes `scan_fragments`, so the 8-probe
        // loop inlines the concrete `access_line`.
        match &mut self.cache {
            AnyCache::Perfect(c) => scan_fragments(c, &mut self.engine, frags, node_id, sink),
            AnyCache::SetAssoc(c) => scan_fragments(c, &mut self.engine, frags, node_id, sink),
            AnyCache::Classifying(c) => scan_fragments(c, &mut self.engine, frags, node_id, sink),
            AnyCache::TwoLevel(c) => scan_fragments(c, &mut self.engine, frags, node_id, sink),
            AnyCache::Victim(c) => scan_fragments(c, &mut self.engine, frags, node_id, sink),
            AnyCache::Dyn(c) => scan_fragments(c.as_mut(), &mut self.engine, frags, node_id, sink),
        }
        self.end_triangle(node_id, tri_id, anchor, sink);
        start
    }

    /// The batched counterpart of
    /// [`process_triangle_scalar`](Self::process_triangle_scalar): each
    /// fragment arrives as its footprint's line ids plus its pixel
    /// coordinate — borrowed from the struct-of-arrays lanes of a
    /// [`PlanLanes`](crate::batch::PlanLanes), or computed on the stack
    /// from a [`Fragment`] ([`footprint`]) by the live walk. FIFO,
    /// counter and event framing are identical; only the scan body
    /// differs — it resolves each fragment's footprint through the cache's
    /// batched [`access_lane`](LineCache::access_lane), which is
    /// contractually byte-identical to the scalar probe loop.
    pub(crate) fn process_triangle_batched<I, L, S>(
        &mut self,
        arrival: Cycle,
        footprints: I,
        node_id: u32,
        tri_id: u32,
        anchor: (u16, u16),
        sink: &mut S,
    ) -> Cycle
    where
        I: ExactSizeIterator<Item = (L, u16, u16)>,
        L: Borrow<[u32; TEXELS_PER_FRAGMENT]>,
        S: TraceSink,
    {
        let start = self.begin_triangle(arrival, footprints.len(), node_id, tri_id, sink);
        // As in the scalar path: dispatch on the cache variant once per
        // triangle so the concrete batched probe inlines into the loop.
        match &mut self.cache {
            AnyCache::Perfect(c) => scan_lanes(c, &mut self.engine, footprints, node_id, sink),
            AnyCache::SetAssoc(c) => scan_lanes(c, &mut self.engine, footprints, node_id, sink),
            AnyCache::Classifying(c) => scan_lanes(c, &mut self.engine, footprints, node_id, sink),
            AnyCache::TwoLevel(c) => scan_lanes(c, &mut self.engine, footprints, node_id, sink),
            AnyCache::Victim(c) => scan_lanes(c, &mut self.engine, footprints, node_id, sink),
            AnyCache::Dyn(c) => scan_lanes(c.as_mut(), &mut self.engine, footprints, node_id, sink),
        }
        self.end_triangle(node_id, tri_id, anchor, sink);
        start
    }

    /// Framing shared by both scan bodies: the engine dequeues the
    /// triangle (FIFO pop, start event) and its `frags` owned fragments
    /// join the pixel work. Returns the dequeue cycle.
    #[inline]
    fn begin_triangle<S: TraceSink>(
        &mut self,
        arrival: Cycle,
        frags: usize,
        node_id: u32,
        tri_id: u32,
        sink: &mut S,
    ) -> Cycle {
        let start = self.engine.start_triangle(arrival);
        self.fifo.record_start(start);
        self.triangles_routed += 1;
        self.pixel_work += frags as u64;
        if S::ENABLED {
            sink.record(TraceEvent::FifoPop { node: node_id, at: start });
            sink.record(TraceEvent::TriStart {
                node: node_id,
                tri: tri_id,
                at: start,
                frags: frags as u32,
            });
        }
        start
    }

    /// Framing after the scan: the setup floor, the spatial setup sample
    /// anchored at `anchor`, and the retire event.
    #[inline]
    fn end_triangle<S: TraceSink>(
        &mut self,
        node_id: u32,
        tri_id: u32,
        anchor: (u16, u16),
        sink: &mut S,
    ) {
        let free = self.engine.finish_triangle(self.setup_cycles);
        if S::ENABLED {
            sink.record_setup(node_id, anchor.0, anchor.1, self.engine.last_setup_padding());
            sink.record(TraceEvent::TriRetire { node: node_id, tri: tri_id, at: free });
        }
    }

    /// Accepts a broadcast triangle whose bounding box misses this node's
    /// region: the clipping hardware discards it for free, but it occupied
    /// a FIFO slot until the engine reached it — that occupancy is the
    /// whole point of Section 8's buffering study.
    pub(crate) fn discard_triangle_traced<S: TraceSink>(
        &mut self,
        arrival: Cycle,
        node_id: u32,
        tri_id: u32,
        sink: &mut S,
    ) {
        let start = self.engine.engine_free().max(arrival);
        self.fifo.record_start(start);
        self.triangles_discarded += 1;
        if S::ENABLED {
            sink.record(TraceEvent::FifoPop { node: node_id, at: start });
            sink.record(TraceEvent::TriDiscard { node: node_id, tri: tri_id, at: start });
        }
    }

    /// Short label of this node's cache model (for trace track names).
    pub(crate) fn cache_label(&self) -> &'static str {
        self.cache.label()
    }

    /// The cycle this node's last pixel fully completes.
    pub(crate) fn finish_time(&self) -> Cycle {
        self.engine.finish_time()
    }

    /// Prepares the node for the next frame of a sequence: timing, FIFO
    /// and counters restart, but the **cache keeps its contents** — that
    /// retention is exactly what the inter-frame locality study measures.
    pub(crate) fn start_new_frame(&mut self) {
        self.engine.reset();
        self.fifo.reset();
        self.pixel_work = 0;
        self.triangles_routed = 0;
        self.triangles_discarded = 0;
    }

    /// Snapshot of the cumulative cache counters, for per-frame deltas in
    /// sequence runs.
    pub(crate) fn cache_snapshot(&self) -> (CacheStats, u64) {
        (*self.cache.stats(), self.cache.external_fetches())
    }

    /// Like [`report`](Self::report) but with cache statistics expressed
    /// relative to an earlier [`cache_snapshot`](Self::cache_snapshot)
    /// (the per-frame view in a warm-cache sequence).
    pub(crate) fn report_since(&self, snapshot: &(CacheStats, u64)) -> NodeReport {
        let mut report = self.report();
        report.cache = self.cache.stats().delta_since(&snapshot.0);
        report.external_fetches = self.cache.external_fetches() - snapshot.1;
        report
    }

    /// Snapshot of this node's counters for the report.
    pub(crate) fn report(&self) -> NodeReport {
        NodeReport {
            pixels: self.pixel_work,
            triangles: self.triangles_routed,
            discarded: self.triangles_discarded,
            finish: self.engine.finish_time(),
            busy_cycles: self.engine.busy_cycles(),
            stall_cycles: self.engine.stall_cycles(),
            setup_floor_cycles: self.engine.setup_floor_cycles(),
            starved_cycles: self.engine.starved_cycles(),
            idle_cycles: self.engine.fill_tail_cycles(),
            bus_busy_cycles: self.engine.bus_busy_cycles(),
            miss_breakdown: self.cache.breakdown(),
            cache: cache_stats_copy(self.cache.stats()),
            external_fetches: self.cache.external_fetches(),
        }
    }
}

fn cache_stats_copy(stats: &CacheStats) -> CacheStats {
    *stats
}

/// A fragment as the batched scan consumes it: its footprint's line ids
/// (computed into a stack array) and its pixel coordinate.
#[inline]
pub(crate) fn footprint(frag: &Fragment) -> ([u32; TEXELS_PER_FRAGMENT], u16, u16) {
    (footprint_lines(&frag.texels), frag.x, frag.y)
}

/// The scalar texel hot loop, generic over the concrete cache model so the
/// probe fully inlines (`?Sized` keeps the `Box<dyn LineCache>` escape
/// hatch usable through the same code path).
///
/// One body serves traced and untraced runs: probes always go through
/// `access_line_classified` (identical hit/miss behaviour and statistics
/// to `access_line` — classification only observes, and a class only
/// exists on a miss), and the single `S::ENABLED` branch around the
/// spatial sample const-folds away under [`NullSink`]. This path is the
/// **reference semantics** the batched [`scan_lanes`] is pinned against —
/// it deliberately probes texel by texel rather than through
/// [`LineCache::access_lane`], so the equivalence properties compare two
/// genuinely different implementations.
#[inline]
fn scan_fragments<'a, C, I, S>(
    cache: &mut C,
    engine: &mut EngineTiming,
    frags: I,
    node_id: u32,
    sink: &mut S,
) where
    C: LineCache + ?Sized,
    I: Iterator<Item = &'a Fragment>,
    S: TraceSink,
{
    for frag in frags {
        let mut miss_lines = [0u32; TEXELS_PER_FRAGMENT];
        let mut misses = 0usize;
        let mut classes = MissClassCounts::default();
        for texel in &frag.texels {
            let line = texel.line();
            let (hit, class) = cache.access_line_classified(line);
            if !hit {
                miss_lines[misses] = line;
                misses += 1;
                if let Some(class) = class {
                    classes.add(class);
                }
            }
        }
        debug_assert!(
            misses <= frag.texels.len(),
            "fragment at ({}, {}) reported {misses} misses for an {}-texel footprint",
            frag.x,
            frag.y,
            frag.texels.len(),
        );
        engine.fragment_lines_sink(&miss_lines[..misses], node_id, sink);
        if S::ENABLED {
            sink.record_fragment(node_id, frag.x, frag.y, misses as u32, classes);
        }
    }
}

/// The batched hot loop: one [`LineCache::access_lane`] call resolves a
/// fragment's whole footprint (branch-free compares, duplicate-run
/// collapse — whatever the concrete model overrides), and the miss lines
/// feed the engine exactly as in [`scan_fragments`].
///
/// Generic over the footprint source: the plan replay borrows each
/// footprint from its [`PlanLanes`](crate::batch::PlanLanes), the live
/// walk computes it into a stack array per fragment — one scan body
/// either way.
#[inline]
fn scan_lanes<C, I, L, S>(
    cache: &mut C,
    engine: &mut EngineTiming,
    footprints: I,
    node_id: u32,
    sink: &mut S,
) where
    C: LineCache + ?Sized,
    I: Iterator<Item = (L, u16, u16)>,
    L: Borrow<[u32; TEXELS_PER_FRAGMENT]>,
    S: TraceSink,
{
    // Untraced runs coalesce consecutive all-hit fragments into one bulk
    // engine advance ([`EngineTiming::fragments_clean`]); traced runs keep
    // the per-fragment engine calls because every fragment owes the sink a
    // spatial sample.
    let mut clean_run: u64 = 0;
    for (lane, x, y) in footprints {
        let lane = lane.borrow();
        let mut miss_lines = [0u32; TEXELS_PER_FRAGMENT];
        let mut classes = MissClassCounts::default();
        let misses = cache.access_lane(lane, &mut miss_lines, &mut classes);
        debug_assert!(
            misses <= lane.len(),
            "fragment at ({x}, {y}) reported {misses} misses for an {}-texel footprint",
            lane.len(),
        );
        if !S::ENABLED && misses == 0 {
            clean_run += 1;
            continue;
        }
        if clean_run > 0 {
            engine.fragments_clean(clean_run);
            clean_run = 0;
        }
        engine.fragment_lines_sink(&miss_lines[..misses], node_id, sink);
        if S::ENABLED {
            sink.record_fragment(node_id, x, y, misses as u32, classes);
        }
    }
    if clean_run > 0 {
        engine.fragments_clean(clean_run);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheKind;
    use crate::distribution::Distribution;
    use sortmid_texture::{TextureDesc, TextureRegistry};

    fn config(cache: CacheKind) -> MachineConfig {
        MachineConfig::builder()
            .processors(1)
            .distribution(Distribution::block(16))
            .cache(cache)
            .build()
            .unwrap()
    }

    fn fragment(reg: &TextureRegistry, u: i32, v: i32) -> Fragment {
        let id = reg.ids().next().unwrap();
        let a = reg.texel_addr(id, 0, u, v);
        Fragment {
            x: 0,
            y: 0,
            texels: [a; 8],
        }
    }

    #[test]
    fn node_counts_work_and_setup_floor() {
        let mut reg = TextureRegistry::new();
        reg.register(TextureDesc::new(64, 64).unwrap()).unwrap();
        let mut node = Node::new(&config(CacheKind::Perfect));
        let f = fragment(&reg, 0, 0);
        let frags: Vec<&Fragment> = vec![&f; 5];
        node.process_triangle(0, frags.iter().copied());
        // 5 pixels < 25-cycle floor.
        assert_eq!(node.finish_time(), 25);
        assert_eq!(node.report().pixels, 5);
        assert_eq!(node.report().triangles, 1);
    }

    #[test]
    fn cache_misses_feed_the_bus() {
        let mut reg = TextureRegistry::new();
        reg.register(TextureDesc::new(256, 256).unwrap()).unwrap();
        let id = reg.ids().next().unwrap();
        let mut node = Node::new(&config(CacheKind::PaperL1));
        // 64 fragments in distinct 4x4 blocks: one compulsory miss each.
        let frags: Vec<Fragment> = (0..64)
            .map(|i| {
                let a = reg.texel_addr(id, 0, (i % 16) * 4, (i / 16) * 4);
                Fragment { x: 0, y: 0, texels: [a; 8] }
            })
            .collect();
        node.process_triangle(0, frags.iter());
        let rep = node.report();
        assert_eq!(rep.cache.misses(), 64);
        assert_eq!(rep.external_fetches, 64);
        // 64 fills at 16 cycles on a ratio-1 bus dominate the 64 scans.
        assert!(rep.finish > 64 * 16);
    }

    #[test]
    fn empty_triangle_still_costs_setup() {
        let mut node = Node::new(&config(CacheKind::Perfect));
        node.process_triangle(0, [].iter());
        node.process_triangle(0, [].iter());
        assert_eq!(node.finish_time(), 50);
        assert_eq!(node.report().pixels, 0);
        assert_eq!(node.report().triangles, 2);
    }
}
