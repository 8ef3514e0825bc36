//! Struct-of-arrays routing lanes: a [`RoutingPlan`] materialised as dense
//! per-node line-id/coordinate arrays.
//!
//! The plan-replay path used to gather 40-byte [`Fragment`]s through
//! `frag_order` for *every* config sharing a plan, then walk 8 dependent
//! `TexelAddr::line()` probes per fragment. [`PlanLanes`] hoists both out:
//! it pivots the stream through [`FragBatch`] once and lays each node's
//! footprint line ids (8 per fragment, processing order) plus pixel
//! coordinates out contiguously. Every machine configuration sharing the
//! plan then streams its per-node lanes front to back — no gather, no
//! address math — and the stack-distance replay gets its
//! [`LineAccessTrace`] from the same arrays for free.
//!
//! The lane order is **exactly** the order the scalar
//! `run_frame_planned` walk processes fragments (triangles in stream
//! order, each triangle's per-owner buckets in ascending owner order,
//! bucket contents in fragment-stream order), which is what keeps batched
//! reports byte-identical to scalar ones.
//!
//! [`Fragment`]: sortmid_raster::Fragment

use crate::plan::RoutingPlan;
use sortmid_cache::LineAccessTrace;
use sortmid_raster::{FragBatch, FragmentStream};
use sortmid_texture::TEXELS_PER_FRAGMENT;

/// A routing plan's fragments pivoted into per-node struct-of-arrays lanes.
///
/// Built once per `(distribution, processors)` plan group and shared
/// read-only by every config in the group — direct simulations and trace
/// replays alike.
///
/// # Examples
///
/// ```
/// use sortmid::{Distribution, PlanLanes, RoutingPlan};
/// use sortmid_scene::{Benchmark, SceneBuilder};
///
/// let stream = SceneBuilder::benchmark(Benchmark::Quake).scale(0.05).build().rasterize();
/// let plan = RoutingPlan::build(&stream, &Distribution::block(16), 4);
/// let lanes = PlanLanes::build(&stream, &plan);
/// assert_eq!(lanes.procs(), 4);
/// assert_eq!(lanes.fragment_count(), stream.fragment_count());
/// ```
#[derive(Debug, Clone)]
pub struct PlanLanes {
    /// Per node: `TEXELS_PER_FRAGMENT` footprint line ids per owned
    /// fragment, in processing order.
    lines: Vec<Vec<u32>>,
    /// Per node: pixel x of each owned fragment, same order.
    xs: Vec<Vec<u16>>,
    /// Per node: pixel y of each owned fragment, same order.
    ys: Vec<Vec<u16>>,
}

impl PlanLanes {
    /// Pivots `stream` into `plan`-ordered lanes (one [`FragBatch`] pass
    /// plus one plan walk).
    pub fn build(stream: &FragmentStream, plan: &RoutingPlan) -> PlanLanes {
        Self::from_batch(&FragBatch::from_stream(stream), stream, plan)
    }

    /// Like [`build`](Self::build) with the stream's [`FragBatch`] already
    /// pivoted (callers amortising the batch across several plans).
    pub fn from_batch(batch: &FragBatch, stream: &FragmentStream, plan: &RoutingPlan) -> PlanLanes {
        let procs = plan.procs() as usize;
        let triangles = stream.triangles();
        // Exact per-node sizing first: the lane arrays are the sweep's
        // biggest allocation, growing them piecemeal would fragment.
        let mut counts = vec![0usize; procs];
        for pt in &plan.triangles {
            let tri = &triangles[pt.tri as usize];
            let mut bucket_start = tri.frag_start as usize;
            for seg in &plan.segments[pt.seg_start as usize..pt.seg_end as usize] {
                counts[seg.owner as usize] += seg.end as usize - bucket_start;
                bucket_start = seg.end as usize;
            }
        }
        let mut lines: Vec<Vec<u32>> = counts
            .iter()
            .map(|&n| Vec::with_capacity(n * TEXELS_PER_FRAGMENT))
            .collect();
        let mut xs: Vec<Vec<u16>> = counts.iter().map(|&n| Vec::with_capacity(n)).collect();
        let mut ys: Vec<Vec<u16>> = counts.iter().map(|&n| Vec::with_capacity(n)).collect();

        // Same walk order as `run_frame_planned`: triangles in stream
        // order, each owner's bucket in fragment-stream order. The owner's
        // destination vectors are hoisted out of the gather loop, and the
        // lane copy is a fixed `TEXELS_PER_FRAGMENT`-wide array move.
        for pt in &plan.triangles {
            let tri = &triangles[pt.tri as usize];
            let mut bucket_start = tri.frag_start as usize;
            for seg in &plan.segments[pt.seg_start as usize..pt.seg_end as usize] {
                let end = seg.end as usize;
                let bucket = &plan.frag_order[bucket_start..end];
                bucket_start = end;
                let owner = seg.owner as usize;
                let line_dst = &mut lines[owner];
                let x_dst = &mut xs[owner];
                let y_dst = &mut ys[owner];
                for &fi in bucket {
                    let fi = fi as usize;
                    line_dst.extend_from_slice(batch.lane_array(fi));
                    x_dst.push(batch.x(fi));
                    y_dst.push(batch.y(fi));
                }
            }
        }
        PlanLanes { lines, xs, ys }
    }

    /// The processor count the lanes were built for.
    #[inline]
    pub fn procs(&self) -> u32 {
        self.lines.len() as u32
    }

    /// Total fragments across all nodes.
    pub fn fragment_count(&self) -> u64 {
        self.xs.iter().map(|v| v.len() as u64).sum()
    }

    /// Fragments owned by `node`.
    #[inline]
    pub fn node_fragments(&self, node: usize) -> usize {
        self.xs[node].len()
    }

    /// The footprints of `count` consecutive fragments of `node`
    /// starting at fragment index `start`: each fragment's line ids
    /// (borrowed from the lane) with its pixel coordinate.
    #[inline]
    pub(crate) fn footprints(
        &self,
        node: usize,
        start: usize,
        count: usize,
    ) -> impl ExactSizeIterator<Item = (&[u32; TEXELS_PER_FRAGMENT], u16, u16)> + '_ {
        let (lines, _) = self.lines[node]
            [start * TEXELS_PER_FRAGMENT..(start + count) * TEXELS_PER_FRAGMENT]
            .as_chunks::<TEXELS_PER_FRAGMENT>();
        lines
            .iter()
            .zip(&self.xs[node][start..start + count])
            .zip(&self.ys[node][start..start + count])
            .map(|((lane, &x), &y)| (lane, x, y))
    }

    /// The per-node line-access trace these lanes describe — the input of
    /// the stack-distance replay. The lane arrays *are* the trace; this
    /// just frames them.
    pub fn to_trace(&self) -> LineAccessTrace {
        LineAccessTrace::from_nodes(self.lines.clone(), TEXELS_PER_FRAGMENT as u32)
    }

    /// [`to_trace`](Self::to_trace) without the copy.
    pub fn into_trace(self) -> LineAccessTrace {
        LineAccessTrace::from_nodes(self.lines, TEXELS_PER_FRAGMENT as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;
    use sortmid_scene::{Benchmark, SceneBuilder};

    fn stream() -> FragmentStream {
        SceneBuilder::benchmark(Benchmark::Quake)
            .scale(0.08)
            .build()
            .rasterize()
    }

    #[test]
    fn lanes_cover_every_fragment_once() {
        let s = stream();
        for procs in [1u32, 3, 8] {
            let plan = RoutingPlan::build(&s, &Distribution::block(16), procs);
            let lanes = PlanLanes::build(&s, &plan);
            assert_eq!(lanes.procs(), procs);
            assert_eq!(lanes.fragment_count(), s.fragment_count());
        }
    }

    #[test]
    fn lanes_follow_the_plan_walk_order() {
        // Reference: walk the plan the way `run_frame_planned` does and
        // expand fragments by hand.
        let s = stream();
        let plan = RoutingPlan::build(&s, &Distribution::sli(2), 4);
        let lanes = PlanLanes::build(&s, &plan);
        let fragments = s.fragments();
        let triangles = s.triangles();
        let mut expect_lines: Vec<Vec<u32>> = vec![Vec::new(); 4];
        let mut expect_xy: Vec<Vec<(u16, u16)>> = vec![Vec::new(); 4];
        for pt in &plan.triangles {
            let tri = &triangles[pt.tri as usize];
            let mut bucket_start = tri.frag_start as usize;
            for seg in &plan.segments[pt.seg_start as usize..pt.seg_end as usize] {
                let end = seg.end as usize;
                for &fi in &plan.frag_order[bucket_start..end] {
                    let f = &fragments[fi as usize];
                    expect_lines[seg.owner as usize].extend(f.texels.iter().map(|t| t.line()));
                    expect_xy[seg.owner as usize].push((f.x, f.y));
                }
                bucket_start = end;
            }
        }
        for node in 0..4usize {
            assert_eq!(lanes.lines[node], expect_lines[node], "node {node} lines");
            let got: Vec<(u16, u16)> = lanes.xs[node]
                .iter()
                .zip(&lanes.ys[node])
                .map(|(&x, &y)| (x, y))
                .collect();
            assert_eq!(got, expect_xy[node], "node {node} coords");
        }
    }

    #[test]
    fn trace_framing_matches_fragment_counts() {
        let s = stream();
        let plan = RoutingPlan::build(&s, &Distribution::block(8), 3);
        let lanes = PlanLanes::build(&s, &plan);
        let trace = lanes.to_trace();
        assert_eq!(trace.node_count(), 3);
        for node in 0..3 {
            assert_eq!(trace.fragment_count(node), lanes.node_fragments(node));
        }
        assert_eq!(lanes.into_trace().node_count(), 3);
    }
}
