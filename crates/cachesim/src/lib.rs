//! Trace-driven memory-hierarchy simulator.
//!
//! This crate substitutes for the paper's measurement substrate (real SGI
//! R10000 / UltraSparc IIe hardware read through PAPI): it models a
//! multi-level set-associative cache hierarchy with LRU replacement, a
//! fully-associative TLB, software prefetch, and a cycle cost model, and
//! accumulates PAPI-like [`Counters`] (loads, per-level misses, TLB
//! misses, cycles).
//!
//! The executor in `eco-exec` walks an IR program and feeds every memory
//! access to [`MemoryHierarchy::access`]; flop and loop-overhead costs
//! are added through [`MemoryHierarchy::add_flops`] and
//! [`MemoryHierarchy::add_loop_iterations`].
//!
//! Modelling choices (documented deviations from real hardware):
//!
//! * Caches are virtually indexed off a flat address space and arrays are
//!   laid out contiguously, which matches the paper's footnote-1
//!   assumption of a well-behaved page-colouring OS.
//! * A software prefetch brings the line into every cache level
//!   immediately; it pays the issue cost and the memory *bandwidth*
//!   occupancy (if the line comes from memory) but no latency stall —
//!   i.e. prefetch hides latency but cannot create bandwidth.
//! * Demand misses stall for the full per-level penalty; write-backs are
//!   not modelled (stores are write-allocate, write-back, but dirty
//!   evictions are free).
//! * Per-level miss counters count *demand* (load/store) misses only,
//!   like PAPI's `PAPI_L1_DCM`; prefetch fills are counted separately.
//!
//! # Examples
//!
//! ```
//! use eco_cachesim::{AccessKind, MemoryHierarchy};
//! use eco_machine::MachineDesc;
//!
//! let mut h = MemoryHierarchy::new(&MachineDesc::sgi_r10000());
//! h.access(0, AccessKind::Load);     // cold miss
//! h.access(8, AccessKind::Load);     // same 32-byte line: hit
//! let c = h.counters();
//! assert_eq!(c.loads, 2);
//! assert_eq!(c.cache_misses[0], 1);
//! ```

use eco_machine::{CacheDesc, MachineDesc, TlbDesc};

/// Maximum cache levels supported by the allocation-free attribution
/// path (`access_tagged` snapshots per-level miss counters into a fixed
/// array instead of cloning a `Vec` per access).
const MAX_LEVELS: usize = 8;

/// The kind of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand load.
    Load,
    /// A demand store (write-allocate).
    Store,
    /// A software prefetch (no stall, bandwidth + issue cost only).
    Prefetch,
}

/// PAPI-like event counters accumulated by the simulator.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counters {
    /// Demand loads issued.
    pub loads: u64,
    /// Demand stores issued.
    pub stores: u64,
    /// Software prefetch instructions issued.
    pub prefetches: u64,
    /// Demand misses per cache level (index 0 = L1).
    pub cache_misses: Vec<u64>,
    /// Lines filled by prefetches, per cache level.
    pub prefetch_fills: Vec<u64>,
    /// TLB misses (demand and prefetch).
    pub tlb_misses: u64,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Loop iterations executed (for overhead costing).
    pub loop_iterations: u64,
    /// Total cycles, in milli-cycles (divide by 1000).
    pub cycles_x1000: u64,
    /// Optional per-tag attribution (see
    /// [`MemoryHierarchy::access_tagged`]); empty unless tags are used.
    pub per_tag: Vec<TagCounters>,
}

/// Per-tag (typically per-array) attribution counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TagCounters {
    /// Demand accesses (loads + stores) with this tag.
    pub accesses: u64,
    /// Demand misses per cache level with this tag.
    pub misses: Vec<u64>,
    /// TLB misses with this tag.
    pub tlb_misses: u64,
}

impl Counters {
    /// Total cycles (rounded down from milli-cycles).
    pub fn cycles(&self) -> u64 {
        self.cycles_x1000 / 1000
    }

    /// The paper's "Loads" column counts prefetch instructions too
    /// (compare mm4 and mm5 in Table 1).
    pub fn loads_incl_prefetch(&self) -> u64 {
        self.loads + self.prefetches
    }

    /// Achieved MFLOPS given a clock rate in MHz.
    ///
    /// Returns 0.0 for an empty run.
    pub fn mflops(&self, clock_mhz: u64) -> f64 {
        if self.cycles_x1000 == 0 {
            return 0.0;
        }
        // flops / seconds = flops * clock_hz / cycles
        self.flops as f64 * clock_mhz as f64 * 1000.0 / self.cycles_x1000 as f64
    }

    /// Accumulates `other` into `self` (event counters add; per-level
    /// vectors extend to the longer of the two), so call sites summing
    /// measurements over several runs need no field-by-field copying.
    pub fn merge(&mut self, other: &Counters) {
        fn add_levels(into: &mut Vec<u64>, from: &[u64]) {
            if into.len() < from.len() {
                into.resize(from.len(), 0);
            }
            for (a, b) in into.iter_mut().zip(from) {
                *a += b;
            }
        }
        self.loads += other.loads;
        self.stores += other.stores;
        self.prefetches += other.prefetches;
        add_levels(&mut self.cache_misses, &other.cache_misses);
        add_levels(&mut self.prefetch_fills, &other.prefetch_fills);
        self.tlb_misses += other.tlb_misses;
        self.flops += other.flops;
        self.loop_iterations += other.loop_iterations;
        self.cycles_x1000 += other.cycles_x1000;
        if self.per_tag.len() < other.per_tag.len() {
            self.per_tag
                .resize(other.per_tag.len(), TagCounters::default());
        }
        for (a, b) in self.per_tag.iter_mut().zip(&other.per_tag) {
            a.accesses += b.accesses;
            add_levels(&mut a.misses, &b.misses);
            a.tlb_misses += b.tlb_misses;
        }
    }
}

/// Simulation-side telemetry that is *not* part of the architectural
/// [`Counters`]: how much of the access stream was serviced by the
/// exact fast-forward path instead of being walked access-by-access.
///
/// Kept separate from [`Counters`] on purpose — counters are compared
/// bit-exactly between the compiled and reference backends, and
/// fast-forward is a property of *how* the simulation ran, not of the
/// simulated machine. The number of walked accesses is recoverable as
/// `(loads + stores + prefetches) - ff_accesses`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Fast-forward windows applied.
    pub ff_windows: u64,
    /// Accesses accounted arithmetically instead of walked.
    pub ff_accesses: u64,
    /// Fast-forwarded demand accesses per tag (parallel to
    /// `Counters::per_tag`; empty unless tagged streams are used).
    pub per_tag_ff: Vec<u64>,
}

impl SimStats {
    /// Accumulates `other` into `self` (mirrors [`Counters::merge`]).
    pub fn merge(&mut self, other: &SimStats) {
        self.ff_windows += other.ff_windows;
        self.ff_accesses += other.ff_accesses;
        if self.per_tag_ff.len() < other.per_tag_ff.len() {
            self.per_tag_ff.resize(other.per_tag_ff.len(), 0);
        }
        for (a, b) in self.per_tag_ff.iter_mut().zip(&other.per_tag_ff) {
            *a += b;
        }
    }
}

/// One strided access stream of a fused loop nest, in struct-of-arrays
/// batch form: iteration `t` of the loop touches `base + t * stride`
/// whenever `vlo <= t <= vhi`. A batch of streams is serviced in one
/// pass by [`MemoryHierarchy::access_streams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSpec {
    /// Byte address this stream would touch at iteration 0 (the address
    /// need only be mapped inside the `[vlo, vhi]` window).
    pub base: i64,
    /// Per-iteration byte delta (may be zero or negative).
    pub stride: i64,
    /// First iteration (inclusive) at which this stream is active.
    pub vlo: i64,
    /// Last iteration (inclusive) at which this stream is active.
    pub vhi: i64,
    /// Access kind of every access in the stream.
    pub kind: AccessKind,
    /// Attribution tag (array id); ignored unless attribution is on.
    pub tag: u32,
}

const INVALID: u64 = u64::MAX;

/// Fast-forward tuning: max line groups probed per window (all streams).
const FF_GROUP_BUDGET: i64 = 64;
/// Fast-forward tuning: max window length in iterations.
const FF_HORIZON_MAX: i64 = 1 << 20;
/// Fast-forward tuning: max iterations walked between re-probes once
/// probing keeps failing (exponential backoff bounds probe overhead on
/// streaming phases that are never resident).
const FF_WALK_MAX: i64 = 64;
/// Fast-forward tuning: consecutive event-dense windows before the
/// access pattern is declared hostile and fast-forward is suspended.
const FF_STRIKES: u32 = 3;
/// Fast-forward tuning: segments walked outright after striking out
/// before fast-forward is retried. Hostile phases (miss rates so high
/// that almost every access is an event, as in large-stencil sweeps)
/// then pay a few over-priced windows per cooldown instead of per
/// window, bounding the overhead over a plain walk to a few percent.
const FF_COOLDOWN: u32 = 256;

/// Exclusive end of the run of iterations `t, t+1, …` (capped at
/// `t_limit`) whose addresses stay inside the `1 << bits` block of
/// `addr` (the address at iteration `t`) under `stride`.
#[inline]
fn block_run_end(addr: i64, stride: i64, bits: u32, t: i64, t_limit: i64) -> i64 {
    if stride == 0 {
        return t_limit;
    }
    let mask = (1i64 << bits) - 1;
    let further = if stride > 0 {
        (mask - (addr & mask)) / stride
    } else {
        (addr & mask) / -stride
    };
    (t.saturating_add(further).saturating_add(1)).min(t_limit)
}

/// The address at iteration `t`, when representable and non-negative;
/// `None` makes the fast-forward scan stop (the walker then reproduces
/// the reference wrapping arithmetic exactly).
#[inline]
fn stream_addr(base: i64, stride: i64, t: i64) -> Option<i64> {
    t.checked_mul(stride)
        .and_then(|o| base.checked_add(o))
        .filter(|a| *a >= 0)
}

/// Sentinel slot for a window group whose block was probed non-resident.
/// Patched to the real slot once the group's head access walks and fills.
const WIN_MISS: u32 = u32::MAX;

/// One contiguous same-block (line or page) run of one stream inside a
/// fast-forward window: iterations `[t_first, t_last]` of the stream all
/// touch `block`.
#[derive(Debug, Clone, Copy)]
struct WinGroup {
    t_first: i64,
    t_last: i64,
    /// Line or page number.
    block: u64,
    /// Slot holding the block at probe time; [`WIN_MISS`] when absent.
    slot: u32,
}

/// A window access that must be walked: its line or page was probed
/// non-resident, so it is the one kind of access whose effect (victim
/// choice, fills, penalties) depends on live state.
#[derive(Debug, Clone, Copy)]
struct WinEvent {
    t: i64,
    /// Global position within the iteration: the index (into the
    /// segment's active-stream list) of the *first copy* of the lane.
    pos: u32,
    /// Lane that raised the event.
    lane: u32,
    /// The probed-absent block (line or page number) — used to keep only
    /// the first event per block.
    block: u64,
}

/// One *deduplicated* access stream of a segment: unroll-and-jammed
/// loops produce many active streams with identical `(base, stride)`
/// (every copy touches the same address on the same iteration), so the
/// window machinery probes and bookkeeps per lane and expands back to
/// per-copy global positions (`pos_lo..pos_hi` into
/// [`WindowScratch::lane_pos`], ascending) only where exactness needs
/// them — LRU stamp values and issue counts.
#[derive(Debug, Clone, Copy)]
struct Lane {
    base: i64,
    stride: i64,
    kind: AccessKind,
    tag: u32,
    pos_lo: u32,
    pos_hi: u32,
}

/// A set of lanes whose address sequences provably land in the *same*
/// block (line or page) on *every* iteration, so the window probes and
/// bookkeeps the whole set once per domain. Two lanes merge when they
/// share a stride and their base offset keeps every access inside one
/// block: with `g = gcd(stride, block_size)` (power of two), the block
/// offset of lane `i`'s access cycles through `base_i mod g + j * g`,
/// so `base_j - base_i + (base_i mod g) < g` pins both lanes to one
/// block for all `t`. (Covers unroll copies, split load/store streams
/// of one array, and neighbor offsets inside a line.)
#[derive(Debug, Clone, Copy)]
struct BlockLane {
    /// Anchor (smallest-base member) address parameters.
    base: i64,
    stride: i64,
    /// `[pos_lo, pos_hi)` into the domain's position array: the union
    /// of the member lanes' active positions, ascending.
    pos_lo: u32,
    pos_hi: u32,
}

/// Reused allocations for [`MemoryHierarchy::ff_window`].
#[derive(Debug, Clone, Default)]
struct WindowScratch {
    /// Deduplicated streams of the current segment.
    lanes: Vec<Lane>,
    /// Lane id of each active position (build-time scratch).
    lane_of: Vec<u32>,
    /// Active positions grouped by lane, ascending within a lane.
    lane_pos: Vec<u32>,
    /// Line-domain block-lanes and their grouped positions.
    bl_l: Vec<BlockLane>,
    blpos_l: Vec<u32>,
    /// Page-domain block-lanes and their grouped positions.
    bl_p: Vec<BlockLane>,
    blpos_p: Vec<u32>,
    /// Lane id -> block-lane id, per domain (build-time scratch).
    bl_of_l: Vec<u32>,
    bl_of_p: Vec<u32>,
    /// Lane ids sorted by (stride, base) (build-time scratch).
    lane_order: Vec<u32>,
    /// Per-position scatter scratch.
    scatter: Vec<u32>,
    /// Line groups, lane-major (all of lane 0, then lane 1, …).
    lg: Vec<WinGroup>,
    /// Page groups, lane-major.
    pg: Vec<WinGroup>,
    /// Per-lane `[start, end)` range into `lg`.
    lg_range: Vec<(u32, u32)>,
    /// Per-lane `[start, end)` range into `pg`.
    pg_range: Vec<(u32, u32)>,
    /// Per-lane flush cursor (absolute index into `lg`).
    lg_cur: Vec<u32>,
    /// Per-lane flush cursor (absolute index into `pg`).
    pg_cur: Vec<u32>,
    /// Line groups in expiry order: `(g_last, group index, block-lane)`
    /// sorted ascending — the amortized advance pops fully-covered
    /// groups from here instead of scanning every block-lane's cursor
    /// at every event.
    exp_l: Vec<(i64, u32, u32)>,
    /// Page groups in expiry order.
    exp_p: Vec<(i64, u32, u32)>,
    /// Raw line-domain events (build-time scratch).
    events_l: Vec<WinEvent>,
    /// Raw page-domain events (build-time scratch).
    events_p: Vec<WinEvent>,
    /// Surviving walk events, sorted by global position.
    events: Vec<WinEvent>,
    /// Per-lane count of walked (event) accesses.
    walked: Vec<u32>,
    /// Line groups indexed by block: `(block, group index, lane)`,
    /// sorted, for O(log G) patch and eviction-demote lookups.
    lg_idx: Vec<(u64, u32, u32)>,
    /// Page groups indexed by block.
    pg_idx: Vec<(u64, u32, u32)>,
}

/// Enumerates the same-block groups of the lane `base + t * stride`
/// over `[t0, te)`, probing each block's residency, and records a walk
/// event at the head of every non-resident group.
#[allow(clippy::too_many_arguments)]
fn enum_groups(
    base: i64,
    stride: i64,
    bits: u32,
    t0: i64,
    te: i64,
    probe: impl Fn(u64) -> Option<u32>,
    out: &mut Vec<WinGroup>,
    events: &mut Vec<WinEvent>,
    lane: u32,
    first_pos: u32,
) {
    let mut t = t0;
    while t < te {
        let addr = stream_addr(base, stride, t).expect("prechecked window");
        let block = (addr >> bits) as u64;
        let t_last = block_run_end(addr, stride, bits, t, te) - 1;
        let slot = match probe(block) {
            Some(s) => s,
            None => {
                events.push(WinEvent {
                    t,
                    pos: first_pos,
                    lane,
                    block,
                });
                WIN_MISS
            }
        };
        out.push(WinGroup {
            t_first: t,
            t_last,
            block,
            slot,
        });
        t = t_last + 1;
    }
}

/// Latest covered touch (global position) of `grp` by any of its
/// block-lane's `copies` strictly below `g_limit`, or -1 when none —
/// the value the group's slot stamp must reflect once accesses up to
/// `g_limit` have run. Monotone in `g_limit`, so stamps derived from it
/// can be written lazily at any later point and max-merged.
#[inline]
fn group_last_touch(grp: &WinGroup, copies: &[u32], t0: i64, k: i64, g_limit: i64) -> i64 {
    let mut best = -1i64;
    for &p in copies {
        let p = p as i64;
        if g_limit > p {
            let u_rel = ((g_limit - 1 - p) / k).min(grp.t_last - t0);
            if t0 + u_rel >= grp.t_first {
                best = best.max(u_rel * k + p);
            }
        }
    }
    best
}

/// The amortized half of stamp flushing: pops groups from the expiry
/// list while they lie fully behind `g_limit`, stamping each consumed
/// group with its last toucher and advancing its block-lane's cursor.
/// Each group is consumed exactly once per window, so the cost is
/// O(groups) total no matter how many events call this. Groups marked
/// [`WIN_MISS`] are skipped — their block's first-touch event has not
/// run yet (no covered access touched them), or they were demoted, in
/// which case their slot's stamp is the fill stamp of the access that
/// evicted them, which this flush must not regress (and max-merge
/// cannot).
fn advance_exp(
    exp: &[(i64, u32, u32)],
    exp_cur: &mut usize,
    list: &[WinGroup],
    cur: &mut [u32],
    stamps: &mut [u64],
    clock0: u64,
    g_limit: i64,
) {
    while let Some(&(g_last, gi, bli)) = exp.get(*exp_cur) {
        if g_last >= g_limit {
            break;
        }
        let grp = &list[gi as usize];
        if grp.slot != WIN_MISS {
            let st = &mut stamps[grp.slot as usize];
            let v = clock0 + g_last as u64 + 1;
            if *st < v {
                *st = v;
            }
        }
        cur[bli as usize] = gi + 1;
        *exp_cur += 1;
    }
}

/// The boundary half of stamp flushing: writes the partial (latest
/// covered touch) stamp of each block-lane's cursor group, for slots
/// selected by `want` — victim selection at an event only reads the
/// stamps of one L1 set (or the TLB on a TLB miss), so stamping the
/// rest of the boundary groups can wait for a later, larger `g_limit`;
/// the partial value is monotone in `g_limit` and max-merged, so
/// deferral never changes what a slot ends up holding when it *is*
/// read. Callers must [`advance_exp`] to the same `g_limit` first.
#[allow(clippy::too_many_arguments)]
fn partial_stamp(
    list: &[WinGroup],
    cur: &[u32],
    ranges: &[(u32, u32)],
    bls: &[BlockLane],
    blpos: &[u32],
    stamps: &mut [u64],
    clock0: u64,
    t0: i64,
    k: i64,
    g_limit: i64,
    want: impl Fn(u32) -> bool,
) {
    for (li, bl) in bls.iter().enumerate() {
        let c = cur[li];
        if c >= ranges[li].1 {
            continue;
        }
        let grp = &list[c as usize];
        if grp.slot == WIN_MISS || !want(grp.slot) {
            continue;
        }
        let copies = &blpos[bl.pos_lo as usize..bl.pos_hi as usize];
        let best = group_last_touch(grp, copies, t0, k, g_limit);
        if best >= 0 {
            let st = &mut stamps[grp.slot as usize];
            let v = clock0 + best as u64 + 1;
            if *st < v {
                *st = v;
            }
        }
    }
}

/// Handles an event evicting `block` out from under the window: every
/// group still assuming the block resident is demoted to [`WIN_MISS`]
/// (from here on the block genuinely is absent — the demoted groups all
/// held the victim slot, whose stamp the evicting fill overwrites, so
/// their not-yet-flushed covered touches can no longer matter; flushes
/// skip [`WIN_MISS`] groups thereafter). Returns the `(t, pos)` of the
/// earliest remaining touch of the block, strictly after `g_e` — the
/// caller synthesizes a walk event there, which refills the block and
/// patches the demoted groups' slots so the touches after it bulk as
/// hits again.
#[allow(clippy::too_many_arguments)]
fn demote_block(
    list: &mut [WinGroup],
    idx: &[(u64, u32, u32)],
    cur: &[u32],
    bls: &[BlockLane],
    blpos: &[u32],
    block: u64,
    t0: i64,
    k: i64,
    g_e: i64,
) -> Option<(i64, u32)> {
    let lo = idx.partition_point(|&(b, _, _)| b < block);
    let mut best: Option<(i64, i64, u32)> = None;
    for &(b, gi, li) in &idx[lo..] {
        if b != block {
            break;
        }
        if gi < cur[li as usize] {
            continue;
        }
        let grp = &mut list[gi as usize];
        if grp.slot == WIN_MISS {
            continue;
        }
        grp.slot = WIN_MISS;
        let bl = &bls[li as usize];
        let copies = &blpos[bl.pos_lo as usize..bl.pos_hi as usize];
        for &p in copies {
            let p64 = p as i64;
            // Smallest t in the group with (t - t0) * k + p > g_e.
            let u_min = if g_e < p64 { 0 } else { (g_e - p64) / k + 1 };
            let t = (t0 + u_min).max(grp.t_first);
            if t <= grp.t_last {
                let g = (t - t0) * k + p64;
                if best.is_none_or(|(bg, ..)| g < bg) {
                    best = Some((g, t, p));
                }
            }
        }
    }
    best.map(|(_, t, p)| (t, p))
}

/// Merges lanes (pre-sorted by `(stride, base)` in `order`) into
/// per-domain block-lanes (see [`BlockLane`]) and records each lane's
/// block-lane id.
fn build_block_lanes(
    lanes: &[Lane],
    order: &[u32],
    bits: u32,
    out: &mut Vec<BlockLane>,
    bl_of: &mut Vec<u32>,
) {
    let bsize = 1i64 << bits;
    out.clear();
    bl_of.clear();
    bl_of.resize(lanes.len(), 0);
    for &li in order {
        let l = &lanes[li as usize];
        let merged = out.last().is_some_and(|bl: &BlockLane| {
            if bl.stride != l.stride {
                return false;
            }
            let g = if l.stride == 0 {
                bsize
            } else {
                1i64 << l.stride.unsigned_abs().trailing_zeros().min(bits)
            };
            let d = l.base - bl.base;
            d >= 0 && d + bl.base.rem_euclid(g) < g
        });
        if !merged {
            out.push(BlockLane {
                base: l.base,
                stride: l.stride,
                pos_lo: 0,
                pos_hi: 0,
            });
        }
        bl_of[li as usize] = (out.len() - 1) as u32;
    }
}

/// Groups the active positions by group id (`of(p)`), ascending within
/// each group, via a counting scatter; fills each group's
/// `[pos_lo, pos_hi)` range.
fn scatter_positions(
    k: usize,
    of: impl Fn(usize) -> usize,
    groups: &mut [BlockLane],
    out: &mut Vec<u32>,
    counts: &mut Vec<u32>,
) {
    out.clear();
    out.resize(k, 0);
    counts.clear();
    counts.resize(groups.len(), 0);
    for p in 0..k {
        counts[of(p)] += 1;
    }
    let mut at = 0u32;
    for (gi, bl) in groups.iter_mut().enumerate() {
        bl.pos_lo = at;
        at += counts[gi];
        bl.pos_hi = at;
        counts[gi] = bl.pos_lo;
    }
    for p in 0..k {
        let c = &mut counts[of(p)];
        out[*c as usize] = p as u32;
        *c += 1;
    }
}

/// One set-associative cache level with LRU replacement.
#[derive(Debug, Clone)]
struct Cache {
    line_bits: u32,
    set_mask: u64,
    ways: usize,
    /// `tags[set * ways + way]`; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    clock: u64,
    miss_penalty_x1000: u64,
}

impl Cache {
    fn new(desc: &CacheDesc) -> Self {
        let geom = desc.geometry();
        Cache {
            line_bits: geom.line_bits,
            set_mask: geom.set_mask,
            ways: geom.ways,
            tags: vec![INVALID; geom.lines],
            stamps: vec![0; geom.lines],
            clock: 0,
            miss_penalty_x1000: desc.miss_penalty_cycles * 1000,
        }
    }

    /// Pure residency probe: the slot holding `line`, if any. No clock
    /// tick, no restamp — safe to call speculatively.
    #[inline]
    fn probe(&self, line: u64) -> Option<u32> {
        let base = (line & self.set_mask) as usize * self.ways;
        (base..base + self.ways)
            .find(|&i| self.tags[i] == line)
            .map(|i| i as u32)
    }

    /// Looks up `addr`, filling on miss. Returns whether it hit and the
    /// slot (index into `tags`) where the line now resides.
    #[inline]
    fn access(&mut self, addr: u64) -> (bool, u32) {
        let line = addr >> self.line_bits;
        let set = (line & self.set_mask) as usize;
        let base = set * self.ways;
        self.clock += 1;
        let mut victim = base;
        let mut oldest = u64::MAX;
        for i in base..base + self.ways {
            if self.tags[i] == line {
                self.stamps[i] = self.clock;
                return (true, i as u32);
            }
            if self.stamps[i] < oldest {
                oldest = self.stamps[i];
                victim = i;
            }
        }
        self.tags[victim] = line;
        self.stamps[victim] = self.clock;
        (false, victim as u32)
    }
}

/// Fully-associative LRU TLB.
#[derive(Debug, Clone)]
struct Tlb {
    page_bits: u32,
    pages: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    miss_penalty_x1000: u64,
    /// Direct-mapped page → entry hints, indexed by a multiplicative
    /// hash of the page ([`hint_index`]). A hint is only *trusted* after
    /// verifying `pages[slot]` still holds the page, so stale or
    /// colliding entries merely fall back to the full scan — the
    /// shortcut can never change simulated behaviour. This is what keeps
    /// inner loops that interleave accesses to many arrays (hence many
    /// pages) from paying a full associative scan per access. The hash
    /// matters: indexed by the page's low bits, arrays whose bases lie a
    /// multiple of `2^TLB_HINT_BITS` pages apart (2 MB-apart Jacobi grids
    /// on 128 B scaled pages) would evict each other's hints forever.
    hint: Vec<(u64, u32)>,
}

/// log2 of the TLB hint-table size.
const TLB_HINT_BITS: u32 = 10;

/// The hint-table slot of `page`: Fibonacci hashing, so pages spaced by
/// any power of two spread over the whole table.
#[inline]
fn hint_index(page: u64) -> usize {
    (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - TLB_HINT_BITS)) as usize
}

impl Tlb {
    fn new(desc: &TlbDesc) -> Self {
        assert!(
            desc.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Tlb {
            page_bits: desc.page_bytes.trailing_zeros(),
            pages: vec![INVALID; desc.entries],
            stamps: vec![0; desc.entries],
            clock: 0,
            miss_penalty_x1000: desc.miss_penalty_cycles * 1000,
            hint: vec![(INVALID, 0); 1 << TLB_HINT_BITS],
        }
    }

    /// The entry the hint table names for `page`, if the hint is still
    /// valid.
    #[inline]
    fn hinted(&self, page: u64) -> Option<u32> {
        let (hint_page, hint_slot) = self.hint[hint_index(page)];
        (hint_page == page && self.pages[hint_slot as usize] == page).then_some(hint_slot)
    }

    /// Pure residency probe: the entry holding `page`, if any. Tries
    /// the hint first (verified before trusted, exactly like
    /// [`Tlb::access`]), falling back to the full scan. No clock tick,
    /// no restamp, no hint update.
    #[inline]
    fn probe(&self, page: u64) -> Option<u32> {
        self.hinted(page)
            .or_else(|| self.pages.iter().position(|&p| p == page).map(|i| i as u32))
    }

    #[inline]
    fn access(&mut self, addr: u64) -> (bool, u32) {
        let page = addr >> self.page_bits;
        self.clock += 1;
        if let Some(slot) = self.hinted(page) {
            self.stamps[slot as usize] = self.clock;
            return (true, slot);
        }
        // Almost every hint miss is a true TLB miss, so find the page and
        // the LRU victim in one pass with no early exit. The victim is the
        // first entry with the strictly smallest stamp, the rule the
        // fast-forward victim replay mirrors.
        let mut found = usize::MAX;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, (&p, &st)) in self.pages.iter().zip(&self.stamps).enumerate() {
            found = if p == page { i } else { found };
            let older = st < oldest;
            oldest = if older { st } else { oldest };
            victim = if older { i } else { victim };
        }
        let hit = found != usize::MAX;
        let slot = if hit { found } else { victim };
        self.pages[slot] = page;
        self.stamps[slot] = self.clock;
        self.hint[hint_index(page)] = (page, slot as u32);
        (hit, slot as u32)
    }
}

/// The full simulated memory hierarchy for one machine.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    caches: Vec<Cache>,
    tlb: Tlb,
    counters: Counters,
    mem_issue_x1000: u64,
    prefetch_issue_x1000: u64,
    flop_x1000: u64,
    loop_overhead_x1000: u64,
    bandwidth_per_line_x1000: u64,
    /// L1 line of the most recent access (`u64::MAX` = none yet). Any
    /// access leaves its line resident in L1 (hit or fill) and its page
    /// in the TLB, so a follow-up access to the same line is *provably*
    /// an L1 + TLB hit whose only architectural effect is bumping the
    /// two LRU clocks and restamping the touched slots — which is what
    /// the same-line fast path does, without any lookup.
    last_line: u64,
    /// Slot in `caches[0]` holding `last_line`.
    last_l1_slot: u32,
    /// TLB entry holding `last_line`'s page.
    last_tlb_slot: u32,
    /// Fast path requires at least one cache level and pages no smaller
    /// than L1 lines (so same line implies same page).
    fast_ok: bool,
    /// Fast-forward telemetry (not part of [`Counters`]).
    stats: SimStats,
    /// Consecutive event-dense fast-forward windows seen (see
    /// [`FF_STRIKES`]); persists across segments because hostile phases
    /// often run one window per segment.
    ff_strikes: u32,
    /// Remaining segments to walk outright before retrying fast-forward
    /// (see [`FF_COOLDOWN`]).
    ff_cooldown: u32,
    /// Reused segment-boundary scratch for [`MemoryHierarchy::access_streams`].
    scratch_cuts: Vec<i64>,
    /// Reused active-stream scratch for [`MemoryHierarchy::access_streams`].
    scratch_active: Vec<u32>,
    /// Reused window scratch for [`MemoryHierarchy::ff_window`].
    win: WindowScratch,
}

impl MemoryHierarchy {
    /// A cold hierarchy for the given machine.
    pub fn new(machine: &MachineDesc) -> Self {
        let caches: Vec<Cache> = machine.caches.iter().map(Cache::new).collect();
        assert!(
            caches.len() <= MAX_LEVELS,
            "at most {MAX_LEVELS} cache levels supported"
        );
        let fast_ok = caches
            .first()
            .map(|l1| machine.tlb.page_bytes.trailing_zeros() >= l1.line_bits)
            .unwrap_or(false);
        MemoryHierarchy {
            tlb: Tlb::new(&machine.tlb),
            counters: Counters {
                cache_misses: vec![0; caches.len()],
                prefetch_fills: vec![0; caches.len()],
                ..Default::default()
            },
            caches,
            mem_issue_x1000: machine.cost.mem_issue_cycles_x1000,
            prefetch_issue_x1000: machine.cost.prefetch_issue_cycles_x1000,
            flop_x1000: machine.cost.flop_cycles_x1000,
            loop_overhead_x1000: machine.cost.loop_overhead_cycles_x1000,
            bandwidth_per_line_x1000: machine.cost.memory_bandwidth_cycles_per_line_x1000,
            last_line: INVALID,
            last_l1_slot: 0,
            last_tlb_slot: 0,
            fast_ok,
            stats: SimStats::default(),
            ff_strikes: 0,
            ff_cooldown: 0,
            scratch_cuts: Vec::new(),
            scratch_active: Vec::new(),
            win: WindowScratch::default(),
        }
    }

    /// Counts the issue cost of one access of `kind`.
    #[inline]
    fn count_issue(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::Load => {
                self.counters.loads += 1;
                self.counters.cycles_x1000 += self.mem_issue_x1000;
            }
            AccessKind::Store => {
                self.counters.stores += 1;
                self.counters.cycles_x1000 += self.mem_issue_x1000;
            }
            AccessKind::Prefetch => {
                self.counters.prefetches += 1;
                self.counters.cycles_x1000 += self.prefetch_issue_x1000;
            }
        }
    }

    /// The same-line fast path: if `addr` falls on the line touched by
    /// the immediately preceding access, apply the (statically known)
    /// L1-hit/TLB-hit effects and return `true`. Exactly equivalent to
    /// the full lookup for that case.
    #[inline]
    fn try_same_line(&mut self, addr: u64, kind: AccessKind) -> bool {
        if !self.fast_ok {
            return false;
        }
        let l1 = &mut self.caches[0];
        if (addr >> l1.line_bits) != self.last_line {
            return false;
        }
        l1.clock += 1;
        l1.stamps[self.last_l1_slot as usize] = l1.clock;
        self.tlb.clock += 1;
        self.tlb.stamps[self.last_tlb_slot as usize] = self.tlb.clock;
        self.count_issue(kind);
        true
    }

    /// Simulates one access to byte address `addr`, attributing misses
    /// to `tag` (e.g. the array id). Tags grow the per-tag table on
    /// demand; use [`MemoryHierarchy::access`] when attribution is not
    /// needed.
    pub fn access_tagged(&mut self, addr: u64, kind: AccessKind, tag: usize) {
        let levels = self.caches.len();
        if self.counters.per_tag.len() <= tag {
            self.counters.per_tag.resize_with(tag + 1, || TagCounters {
                accesses: 0,
                misses: vec![0; levels],
                tlb_misses: 0,
            });
        }
        if self.try_same_line(addr, kind) {
            // a same-line hit misses nowhere: only the access count moves
            if !matches!(kind, AccessKind::Prefetch) {
                self.counters.per_tag[tag].accesses += 1;
            }
            return;
        }
        let mut before = [0u64; MAX_LEVELS];
        before[..levels].copy_from_slice(&self.counters.cache_misses);
        let tlb_before = self.counters.tlb_misses;
        self.access_full(addr, kind);
        let t = &mut self.counters.per_tag[tag];
        if !matches!(kind, AccessKind::Prefetch) {
            t.accesses += 1;
        }
        for (i, b) in before[..levels].iter().enumerate() {
            t.misses[i] += self.counters.cache_misses[i] - b;
        }
        t.tlb_misses += self.counters.tlb_misses - tlb_before;
    }

    /// Simulates one access to byte address `addr`.
    #[inline]
    pub fn access(&mut self, addr: u64, kind: AccessKind) {
        if self.try_same_line(addr, kind) {
            return;
        }
        self.access_full(addr, kind);
    }

    /// The full (scan-every-level) access path.
    fn access_full(&mut self, addr: u64, kind: AccessKind) {
        let is_prefetch = matches!(kind, AccessKind::Prefetch);
        self.count_issue(kind);
        let (tlb_hit, tlb_slot) = self.tlb.access(addr);
        if !tlb_hit {
            self.counters.tlb_misses += 1;
            self.counters.cycles_x1000 += self.tlb.miss_penalty_x1000;
        }
        let mut l1_slot = 0;
        let mut filled_from_memory = true;
        for (i, cache) in self.caches.iter_mut().enumerate() {
            let (hit, slot) = cache.access(addr);
            if i == 0 {
                l1_slot = slot;
            }
            if !hit {
                if is_prefetch {
                    self.counters.prefetch_fills[i] += 1;
                } else {
                    self.counters.cache_misses[i] += 1;
                    self.counters.cycles_x1000 += cache.miss_penalty_x1000;
                }
            }
            if hit {
                filled_from_memory = false;
                break;
            }
        }
        if filled_from_memory {
            // The line came from main memory: bus occupancy is paid whether
            // or not the latency was hidden.
            self.counters.cycles_x1000 += self.bandwidth_per_line_x1000;
        }
        if self.fast_ok {
            self.last_line = addr >> self.caches[0].line_bits;
            self.last_l1_slot = l1_slot;
            self.last_tlb_slot = tlb_slot;
        }
    }

    /// Counts the issue cost of `k` accesses of `kind` (counters and
    /// cycles only — no clock or stamp movement).
    #[inline]
    fn bulk_issue(&mut self, k: u64, kind: AccessKind) {
        match kind {
            AccessKind::Load => {
                self.counters.loads += k;
                self.counters.cycles_x1000 += k * self.mem_issue_x1000;
            }
            AccessKind::Store => {
                self.counters.stores += k;
                self.counters.cycles_x1000 += k * self.mem_issue_x1000;
            }
            AccessKind::Prefetch => {
                self.counters.prefetches += k;
                self.counters.cycles_x1000 += k * self.prefetch_issue_x1000;
            }
        }
    }

    /// Services a whole batch of strided access streams in one pass —
    /// exactly equivalent to the interleaved per-access loop
    ///
    /// ```ignore
    /// for t in 0..trips {
    ///     for s in streams {
    ///         if s.vlo <= t && t <= s.vhi {
    ///             h.access(s.base + t * s.stride, s.kind)
    ///         }
    ///     }
    /// }
    /// ```
    ///
    /// (or `access_tagged` with each stream's tag when `attribute` is
    /// set), but batched. The trip range is first cut at the streams'
    /// validity boundaries so each segment has a constant active set;
    /// within a segment the simulator repeatedly tries to *fast-forward*
    /// a window of iterations: it probes (purely — no state change)
    /// every cache line and TLB page the window touches, and when all
    /// are resident, every access in the window is an L1 + TLB hit, so
    /// no line is filled, nothing is evicted, and residency holds for
    /// the whole window by induction. The window's effect on the
    /// architectural state is then applied arithmetically: bulk issue
    /// costs, bulk L1/TLB clock advances, and per-slot LRU stamps
    /// computed from each line's last toucher — bit-identical to the
    /// walked result. Windows where probing finds a non-resident line
    /// are walked access-by-access up to the miss, with exponential
    /// backoff on re-probing so streaming (never-resident) phases pay a
    /// bounded probe overhead.
    ///
    /// The caller must guarantee every in-window address is mapped;
    /// strides may be zero or negative.
    pub fn access_streams(&mut self, streams: &[StreamSpec], trips: i64, attribute: bool) {
        if trips <= 0 || streams.is_empty() {
            return;
        }
        if attribute {
            let levels = self.caches.len();
            let max_tag = streams.iter().map(|s| s.tag as usize).max().unwrap_or(0);
            if self.counters.per_tag.len() <= max_tag {
                self.counters
                    .per_tag
                    .resize_with(max_tag + 1, || TagCounters {
                        accesses: 0,
                        misses: vec![0; levels],
                        tlb_misses: 0,
                    });
            }
            if self.stats.per_tag_ff.len() <= max_tag {
                self.stats.per_tag_ff.resize(max_tag + 1, 0);
            }
        }
        let mut cuts = std::mem::take(&mut self.scratch_cuts);
        let mut active = std::mem::take(&mut self.scratch_active);
        cuts.clear();
        cuts.push(0);
        cuts.push(trips);
        for s in streams {
            if s.vlo > 0 && s.vlo < trips {
                cuts.push(s.vlo);
            }
            if s.vhi >= 0 && s.vhi + 1 < trips {
                cuts.push(s.vhi + 1);
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        for w in 0..cuts.len() - 1 {
            let (t0, t1) = (cuts[w], cuts[w + 1]);
            active.clear();
            active.extend(
                streams
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.vlo <= t0 && t0 <= s.vhi)
                    .map(|(i, _)| i as u32),
            );
            if !active.is_empty() {
                self.run_segment(streams, &active, t0, t1, attribute);
            }
        }
        self.scratch_cuts = cuts;
        self.scratch_active = active;
    }

    /// One segment of [`MemoryHierarchy::access_streams`]: a trip range
    /// `[t0, t1)` over which the active stream set is constant.
    fn run_segment(
        &mut self,
        streams: &[StreamSpec],
        active: &[u32],
        t0: i64,
        t1: i64,
        attribute: bool,
    ) {
        // ECO_NO_FF forces the plain walker; results are identical
        // either way (fast-forward is exact), so this is purely a
        // debugging / benchmarking escape hatch.
        static NO_FF: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        let no_ff = *NO_FF.get_or_init(|| std::env::var_os("ECO_NO_FF").is_some());
        let mut ff_on = self.fast_ok && !no_ff;
        if ff_on && self.ff_cooldown > 0 {
            self.ff_cooldown -= 1;
            ff_on = false;
        }
        if !ff_on {
            // Straight walk: no window scratch, no horizon bookkeeping.
            for u in t0..t1 {
                for &si in active {
                    let s = &streams[si as usize];
                    let addr = (s.base as u64).wrapping_add_signed(s.stride.wrapping_mul(u));
                    if attribute {
                        self.access_tagged(addr, s.kind, s.tag as usize);
                    } else {
                        self.access(addr, s.kind);
                    }
                }
            }
            return;
        }
        let mut win = std::mem::take(&mut self.win);
        let mut h_cap = FF_HORIZON_MAX;
        if ff_on {
            // Deduplicate the active streams into lanes: unrolled loop
            // bodies repeat the same (base, stride) many times, and all
            // copies touch the same blocks on the same iteration.
            win.lanes.clear();
            win.lane_of.clear();
            for &si in active {
                let s = &streams[si as usize];
                let li = win
                    .lanes
                    .iter()
                    .position(|l| {
                        l.base == s.base
                            && l.stride == s.stride
                            && l.kind == s.kind
                            && l.tag == s.tag
                    })
                    .unwrap_or_else(|| {
                        win.lanes.push(Lane {
                            base: s.base,
                            stride: s.stride,
                            kind: s.kind,
                            tag: s.tag,
                            pos_lo: 0,
                            pos_hi: 0,
                        });
                        win.lanes.len() - 1
                    });
                win.lane_of.push(li as u32);
            }
            // Group the active positions by lane (counting scatter keeps
            // them ascending within a lane) and record each lane's range.
            let k = active.len();
            win.lane_pos.clear();
            win.lane_pos.resize(k, 0);
            win.scatter.clear();
            win.scatter.resize(win.lanes.len(), 0);
            for &li in &win.lane_of {
                win.scatter[li as usize] += 1;
            }
            let mut at = 0u32;
            for (li, lane) in win.lanes.iter_mut().enumerate() {
                lane.pos_lo = at;
                at += win.scatter[li];
                lane.pos_hi = at;
                win.scatter[li] = lane.pos_lo;
            }
            for (p, &li) in win.lane_of.iter().enumerate() {
                let c = &mut win.scatter[li as usize];
                win.lane_pos[*c as usize] = p as u32;
                *c += 1;
            }
            // Merge lanes into per-domain block-lanes: lanes proven to
            // land in the same line (or page) every iteration are probed
            // and stamped once per domain.
            win.lane_order.clear();
            win.lane_order.extend(0..win.lanes.len() as u32);
            {
                let lanes = &win.lanes;
                win.lane_order.sort_unstable_by_key(|&li| {
                    let l = &lanes[li as usize];
                    (l.stride, l.base)
                });
            }
            build_block_lanes(
                &win.lanes,
                &win.lane_order,
                self.caches[0].line_bits,
                &mut win.bl_l,
                &mut win.bl_of_l,
            );
            build_block_lanes(
                &win.lanes,
                &win.lane_order,
                self.tlb.page_bits,
                &mut win.bl_p,
                &mut win.bl_of_p,
            );
            {
                let lane_of = &win.lane_of;
                let bl_of_l = &win.bl_of_l;
                scatter_positions(
                    k,
                    |p| bl_of_l[lane_of[p] as usize] as usize,
                    &mut win.bl_l,
                    &mut win.blpos_l,
                    &mut win.scatter,
                );
                let bl_of_p = &win.bl_of_p;
                scatter_positions(
                    k,
                    |p| bl_of_p[lane_of[p] as usize] as usize,
                    &mut win.bl_p,
                    &mut win.blpos_p,
                    &mut win.scatter,
                );
            }
            // Window cap: keep the total number of probed line groups
            // per window bounded, so one failed probe round costs
            // O(FF_GROUP_BUDGET). A block-lane of stride `s` starts
            // about `min(|s|, line) / line` new line groups per
            // iteration; sum that density (in 1/1024ths) over them.
            let line = 1i64 << self.caches[0].line_bits;
            let mut density = 0i64;
            for bl in &win.bl_l {
                let st = bl.stride.unsigned_abs() as i64;
                density += st.min(line) * 1024 / line;
            }
            if density > 0 {
                h_cap = (FF_GROUP_BUDGET * 1024 / density).max(4);
            }
        }
        let mut horizon: i64 = 16;
        let mut walk_len: i64 = 1;
        let mut t = t0;
        while t < t1 {
            if ff_on {
                let h = horizon.min(h_cap).min(t1 - t);
                let (t_ff, nev, ngrp) = self.ff_window(streams, active, &mut win, t, h, attribute);
                // A window dominated by events — or one whose group
                // enumeration is large relative to the accesses it
                // covers — costs more to orchestrate than the walk it
                // replaces. A few of those in a row (counted across
                // segments — hostile phases often run one window per
                // segment) and fast-forward is suspended for
                // FF_COOLDOWN segments.
                let covered = (t_ff - t) * active.len() as i64;
                if covered == 0 || (nev as i64) * 16 >= covered || (ngrp as i64) * 6 > covered {
                    self.ff_strikes += 1;
                    if self.ff_strikes >= FF_STRIKES {
                        self.ff_strikes = 0;
                        self.ff_cooldown = FF_COOLDOWN;
                        ff_on = false;
                    }
                } else {
                    self.ff_strikes = 0;
                }
                if t_ff == t + h {
                    t = t_ff;
                    if ff_on {
                        horizon = (horizon * 2).min(FF_HORIZON_MAX);
                        walk_len = 1;
                        continue;
                    }
                } else if t_ff > t {
                    t = t_ff;
                    walk_len = 1;
                } else {
                    walk_len = (walk_len * 2).min(FF_WALK_MAX);
                }
                horizon = (horizon / 2).max(16);
                if t >= t1 {
                    break;
                }
            }
            let wend = if ff_on { (t + walk_len).min(t1) } else { t1 };
            for u in t..wend {
                for &si in active {
                    let s = &streams[si as usize];
                    let addr = (s.base as u64).wrapping_add_signed(s.stride.wrapping_mul(u));
                    if attribute {
                        self.access_tagged(addr, s.kind, s.tag as usize);
                    } else {
                        self.access(addr, s.kind);
                    }
                }
            }
            t = wend;
        }
        self.win = win;
    }

    /// Attempts to fast-forward the window `[t0, t0 + h)` of the active
    /// streams and returns the iteration reached (`t0` when nothing
    /// could be fast-forwarded and the caller should walk) plus the
    /// number of walk events the attempt accumulated — the caller's
    /// event-density measure for striking out of fast-forward.
    ///
    /// The window is *sparse-event*: every touched L1 line and TLB page
    /// is probed purely, splitting the window's accesses into bulked
    /// hits (line and page both resident — their only architectural
    /// effect is an issue count, a clock tick on L1 + TLB, and an LRU
    /// restamp of the touched slots) and walk *events* (line or page
    /// probed absent — victim choice, fills, and penalties depend on
    /// live state). Events are replayed exactly, in global order, with
    /// the L1/TLB clocks set to their walk-time values and all earlier
    /// covered restamps flushed first so LRU victim selection sees the
    /// stamps a real walk would have. Bulked effects are applied
    /// arithmetically (the per-slot stamp of a group's last toucher,
    /// max-merged so shared lines resolve to the true last toucher).
    ///
    /// Residency probed at window start stays valid until something is
    /// evicted, and only events evict: after each event the (exactly
    /// replicated) victim is checked against every probed window block,
    /// and on collision the window is truncated at that event — the
    /// rest of its iteration is walked and the remainder of the window
    /// is re-probed by the caller. By induction the bulked accesses are
    /// bit-identical to a walk.
    fn ff_window(
        &mut self,
        streams: &[StreamSpec],
        active: &[u32],
        win: &mut WindowScratch,
        t0: i64,
        h: i64,
        attribute: bool,
    ) -> (i64, u32, u32) {
        let te = t0 + h;
        let k = active.len();
        let kk = k as i64;
        // Representability precheck: addresses are linear in t, so both
        // endpoints being mapped covers the whole window. A failure
        // falls back to the walker, which reproduces the reference
        // wrapping arithmetic exactly.
        for lane in &win.lanes {
            if stream_addr(lane.base, lane.stride, t0).is_none()
                || stream_addr(lane.base, lane.stride, te - 1).is_none()
            {
                return (t0, 0, 0);
            }
        }
        win.lg.clear();
        win.pg.clear();
        win.lg_range.clear();
        win.pg_range.clear();
        win.events_l.clear();
        win.events_p.clear();
        let lb = self.caches[0].line_bits;
        let pb = self.tlb.page_bits;
        for bl in &win.bl_l {
            // The block's first toucher on any iteration is the block-
            // lane's first active position; the walk access there is
            // that position's issue lane.
            let first_pos = win.blpos_l[bl.pos_lo as usize];
            let lane = win.lane_of[first_pos as usize];
            let l_start = win.lg.len() as u32;
            let l1 = &self.caches[0];
            enum_groups(
                bl.base,
                bl.stride,
                lb,
                t0,
                te,
                |b| l1.probe(b),
                &mut win.lg,
                &mut win.events_l,
                lane,
                first_pos,
            );
            win.lg_range.push((l_start, win.lg.len() as u32));
        }
        for bl in &win.bl_p {
            let first_pos = win.blpos_p[bl.pos_lo as usize];
            let lane = win.lane_of[first_pos as usize];
            let p_start = win.pg.len() as u32;
            let tlb = &self.tlb;
            enum_groups(
                bl.base,
                bl.stride,
                pb,
                t0,
                te,
                |b| tlb.probe(b),
                &mut win.pg,
                &mut win.events_p,
                lane,
                first_pos,
            );
            win.pg_range.push((p_start, win.pg.len() as u32));
        }
        // Keep only the *first* touch of each probed-absent block as a
        // walk event: it fills the block, so every later touch — same
        // lane or not — is a plain hit, bulked like any other (its slot
        // is patched in when the first touch walks). Then merge the two
        // domains: one access can raise both a line and a page event.
        for evs in [&mut win.events_l, &mut win.events_p] {
            evs.sort_unstable_by_key(|e| (e.block, e.t, e.pos));
            evs.dedup_by_key(|e| e.block);
        }
        win.events.clear();
        win.events.extend_from_slice(&win.events_l);
        win.events.extend_from_slice(&win.events_p);
        win.events.sort_unstable_by_key(|e| (e.t, e.pos));
        win.events.dedup_by_key(|e| (e.t, e.pos));
        // A window this dense in real misses is cheaper to walk outright
        // than to orchestrate (no state touched yet — bail is free).
        if (win.events.len() as i64) * 2 >= kk * h {
            return (t0, win.events.len() as u32, 0);
        }
        let nlanes = win.lanes.len();
        // Sorted by-block indexes: patching fill slots and demoting
        // evicted blocks both look groups up by block, and a linear scan
        // per event is quadratic in window size.
        win.lg_idx.clear();
        for (li, &(lo, hi)) in win.lg_range.iter().enumerate() {
            for gi in lo..hi {
                win.lg_idx.push((win.lg[gi as usize].block, gi, li as u32));
            }
        }
        win.lg_idx.sort_unstable();
        win.pg_idx.clear();
        for (li, &(lo, hi)) in win.pg_range.iter().enumerate() {
            for gi in lo..hi {
                win.pg_idx.push((win.pg[gi as usize].block, gi, li as u32));
            }
        }
        win.pg_idx.sort_unstable();
        // Expiry-ordered group lists drive the amortized stamp flush:
        // a group's expiry is the global position of its last toucher
        // (its block-lane's last copy on its last iteration).
        win.exp_l.clear();
        for (bli, &(lo, hi)) in win.lg_range.iter().enumerate() {
            let bl = &win.bl_l[bli];
            let p_last = win.blpos_l[bl.pos_hi as usize - 1] as i64;
            for gi in lo..hi {
                win.exp_l.push((
                    (win.lg[gi as usize].t_last - t0) * kk + p_last,
                    gi,
                    bli as u32,
                ));
            }
        }
        win.exp_l.sort_unstable();
        win.exp_p.clear();
        for (bli, &(lo, hi)) in win.pg_range.iter().enumerate() {
            let bl = &win.bl_p[bli];
            let p_last = win.blpos_p[bl.pos_hi as usize - 1] as i64;
            for gi in lo..hi {
                win.exp_p.push((
                    (win.pg[gi as usize].t_last - t0) * kk + p_last,
                    gi,
                    bli as u32,
                ));
            }
        }
        win.exp_p.sort_unstable();
        let mut exp_cur_l = 0usize;
        let mut exp_cur_p = 0usize;
        win.lg_cur.clear();
        win.lg_cur.extend(win.lg_range.iter().map(|r| r.0));
        win.pg_cur.clear();
        win.pg_cur.extend(win.pg_range.iter().map(|r| r.0));
        let l1_clock0 = self.caches[0].clock;
        let tlb_clock0 = self.tlb.clock;
        win.walked.clear();
        win.walked.resize(nlanes, 0);
        // Exclusive global position bound of the accounted (covered)
        // prefix; shrinks if an event storm truncates the window.
        let mut covered_end_g = kk * h;
        let mut truncated: Option<WinEvent> = None;
        // Demotions synthesize new events mid-replay; past this many the
        // window has degenerated into a walk and is cut short (truncation
        // at an already-replayed event is always exact).
        let ev_cap = ((kk * h) / 2) as usize;
        let mut ei = 0;
        while ei < win.events.len() {
            let e = win.events[ei];
            let g_e = (e.t - t0) * kk + e.pos as i64;
            self.caches[0].clock = l1_clock0 + g_e as u64;
            self.tlb.clock = tlb_clock0 + g_e as u64;
            let lane = win.lanes[e.lane as usize];
            let addr = stream_addr(lane.base, lane.stride, e.t).expect("prechecked window") as u64;
            let line = addr >> lb;
            let page = addr >> pb;
            // Replicate the victim choices the access is about to make
            // (first slot with a strictly smaller stamp wins, exactly as
            // in `Cache::access` / `Tlb::access`) so evictions can be
            // checked against the window's assumptions afterwards.
            let l1_evicted = if self.caches[0].probe(line).is_none() {
                let set = (line & self.caches[0].set_mask) as usize;
                let ways = self.caches[0].ways;
                // Victim selection reads this set's stamps: every
                // covered access before the event must have restamped
                // first. The advance (full groups) is amortized and
                // runs only when a domain actually misses; the boundary
                // partial stamps are written just for the slots this
                // selection reads.
                advance_exp(
                    &win.exp_l,
                    &mut exp_cur_l,
                    &win.lg,
                    &mut win.lg_cur,
                    &mut self.caches[0].stamps,
                    l1_clock0,
                    g_e,
                );
                partial_stamp(
                    &win.lg,
                    &win.lg_cur,
                    &win.lg_range,
                    &win.bl_l,
                    &win.blpos_l,
                    &mut self.caches[0].stamps,
                    l1_clock0,
                    t0,
                    kk,
                    g_e,
                    |s| s as usize / ways == set,
                );
                let l1 = &self.caches[0];
                let base = set * ways;
                let mut victim = base;
                let mut oldest = u64::MAX;
                for i in base..base + ways {
                    if l1.stamps[i] < oldest {
                        oldest = l1.stamps[i];
                        victim = i;
                    }
                }
                l1.tags[victim]
            } else {
                INVALID
            };
            let tlb_evicted = if self.tlb.probe(page).is_none() {
                advance_exp(
                    &win.exp_p,
                    &mut exp_cur_p,
                    &win.pg,
                    &mut win.pg_cur,
                    &mut self.tlb.stamps,
                    tlb_clock0,
                    g_e,
                );
                partial_stamp(
                    &win.pg,
                    &win.pg_cur,
                    &win.pg_range,
                    &win.bl_p,
                    &win.blpos_p,
                    &mut self.tlb.stamps,
                    tlb_clock0,
                    t0,
                    kk,
                    g_e,
                    |_| true,
                );
                let mut victim = 0;
                let mut oldest = u64::MAX;
                for (i, &st) in self.tlb.stamps.iter().enumerate() {
                    if st < oldest {
                        oldest = st;
                        victim = i;
                    }
                }
                self.tlb.pages[victim]
            } else {
                INVALID
            };
            if attribute {
                self.access_tagged(addr, lane.kind, lane.tag as usize);
            } else {
                self.access(addr, lane.kind);
            }
            win.walked[e.lane as usize] += 1;
            // The fill slots become known only now: patch them into
            // every probed-absent group on the same block (any lane) so
            // later bulked touches restamp them.
            if let Some(slot) = self.caches[0].probe(line) {
                let lo = win.lg_idx.partition_point(|&(b, _, _)| b < line);
                for &(b, gi, _) in &win.lg_idx[lo..] {
                    if b != line {
                        break;
                    }
                    let g = &mut win.lg[gi as usize];
                    if g.slot == WIN_MISS {
                        g.slot = slot;
                    }
                }
            }
            if let Some(slot) = self.tlb.probe(page) {
                let lo = win.pg_idx.partition_point(|&(b, _, _)| b < page);
                for &(b, gi, _) in &win.pg_idx[lo..] {
                    if b != page {
                        break;
                    }
                    let g = &mut win.pg[gi as usize];
                    if g.slot == WIN_MISS {
                        g.slot = slot;
                    }
                }
            }
            // Eviction of a block with *remaining* bulked touches would
            // invalidate the window's residency assumption — demote
            // those groups to absent and synthesize a walk event at the
            // block's next touch, which refills it (fully-consumed
            // groups no longer assume anything, and a [`WIN_MISS`] group
            // assumes absence, which eviction cannot invalidate).
            let mut synth: [Option<(i64, u32, u64)>; 2] = [None, None];
            if l1_evicted != INVALID {
                synth[0] = demote_block(
                    &mut win.lg,
                    &win.lg_idx,
                    &win.lg_cur,
                    &win.bl_l,
                    &win.blpos_l,
                    l1_evicted,
                    t0,
                    kk,
                    g_e,
                )
                .map(|(t, p)| (t, p, l1_evicted));
            }
            if tlb_evicted != INVALID {
                synth[1] = demote_block(
                    &mut win.pg,
                    &win.pg_idx,
                    &win.pg_cur,
                    &win.bl_p,
                    &win.blpos_p,
                    tlb_evicted,
                    t0,
                    kk,
                    g_e,
                )
                .map(|(t, p)| (t, p, tlb_evicted));
            }
            let mut cut = false;
            for s in synth.into_iter().flatten() {
                let (t, p, block) = s;
                if win.events.len() >= ev_cap {
                    cut = true;
                    break;
                }
                let at =
                    ei + 1 + win.events[ei + 1..].partition_point(|e2| (e2.t, e2.pos) < (t, p));
                // An event already replaying that very access services
                // both domains (it walks the real access): skip.
                if win
                    .events
                    .get(at)
                    .is_some_and(|e2| e2.t == t && e2.pos == p)
                {
                    continue;
                }
                win.events.insert(
                    at,
                    WinEvent {
                        t,
                        pos: p,
                        lane: win.lane_of[p as usize],
                        block,
                    },
                );
            }
            if cut {
                covered_end_g = g_e + 1;
                truncated = Some(e);
                break;
            }
            ei += 1;
        }
        // Stamp every remaining covered touch and move the clocks to the
        // end of the covered prefix (events already ticked them along
        // the way; the absolute store subsumes those ticks).
        advance_exp(
            &win.exp_l,
            &mut exp_cur_l,
            &win.lg,
            &mut win.lg_cur,
            &mut self.caches[0].stamps,
            l1_clock0,
            covered_end_g,
        );
        partial_stamp(
            &win.lg,
            &win.lg_cur,
            &win.lg_range,
            &win.bl_l,
            &win.blpos_l,
            &mut self.caches[0].stamps,
            l1_clock0,
            t0,
            kk,
            covered_end_g,
            |_| true,
        );
        advance_exp(
            &win.exp_p,
            &mut exp_cur_p,
            &win.pg,
            &mut win.pg_cur,
            &mut self.tlb.stamps,
            tlb_clock0,
            covered_end_g,
        );
        partial_stamp(
            &win.pg,
            &win.pg_cur,
            &win.pg_range,
            &win.bl_p,
            &win.blpos_p,
            &mut self.tlb.stamps,
            tlb_clock0,
            t0,
            kk,
            covered_end_g,
            |_| true,
        );
        self.caches[0].clock = l1_clock0 + covered_end_g as u64;
        self.tlb.clock = tlb_clock0 + covered_end_g as u64;
        // Issue costs and attribution for the bulked accesses (events
        // already counted themselves when they walked).
        let mut ff_total = 0u64;
        for (li, lane) in win.lanes.iter().enumerate() {
            let mut covered = 0u64;
            for &p in &win.lane_pos[lane.pos_lo as usize..lane.pos_hi as usize] {
                if covered_end_g > p as i64 {
                    covered += ((covered_end_g - 1 - p as i64) / kk + 1) as u64;
                }
            }
            let bulk = covered - win.walked[li] as u64;
            self.bulk_issue(bulk, lane.kind);
            if attribute && !matches!(lane.kind, AccessKind::Prefetch) {
                self.counters.per_tag[lane.tag as usize].accesses += bulk;
                self.stats.per_tag_ff[lane.tag as usize] += bulk;
            }
            ff_total += bulk;
        }
        self.stats.ff_windows += 1;
        self.stats.ff_accesses += ff_total;
        let nev = win.events.len() as u32;
        let ngrp = (win.lg.len() + win.pg.len()) as u32;
        if let Some(e) = truncated {
            // The truncating event already left the same-line shortcut
            // state (`last_*`) describing itself, exactly as a walk
            // would. Walk out the rest of its iteration; the caller
            // re-probes from the next one.
            for pos in (e.pos as usize + 1)..k {
                let s = &streams[active[pos] as usize];
                let addr = (s.base as u64).wrapping_add_signed(s.stride.wrapping_mul(e.t));
                if attribute {
                    self.access_tagged(addr, s.kind, s.tag as usize);
                } else {
                    self.access(addr, s.kind);
                }
            }
            (e.t + 1, nev, ngrp)
        } else {
            // The same-line shortcut state must describe the window's
            // final access, exactly as a walk would have left it. (If
            // that access was itself an event it already did; the probe
            // then just re-reads the slots it recorded.)
            let s = &streams[*active.last().expect("non-empty active set") as usize];
            let addr = stream_addr(s.base, s.stride, te - 1).expect("prechecked window");
            self.last_line = (addr >> lb) as u64;
            self.last_l1_slot = self.caches[0]
                .probe(self.last_line)
                .expect("covered window");
            self.last_tlb_slot = self.tlb.probe((addr >> pb) as u64).expect("covered window");
            (te, nev, ngrp)
        }
    }

    /// Simulates `count` accesses at `base, base + stride, base +
    /// 2·stride, …` — exactly equivalent to the per-access loop
    ///
    /// ```ignore
    /// for t in 0..count { h.access(base + t * stride, kind) }
    /// ```
    ///
    /// (or `access_tagged` when `tag` is given). A single-stream
    /// convenience wrapper over [`MemoryHierarchy::access_streams`],
    /// which batches line runs and fast-forwards provably-resident
    /// windows.
    ///
    /// The caller must guarantee every address in the run is mapped
    /// (in-bounds); `stride` may be zero or negative.
    pub fn access_run(
        &mut self,
        base: u64,
        stride: i64,
        count: u64,
        kind: AccessKind,
        tag: Option<usize>,
    ) {
        let spec = StreamSpec {
            base: base as i64,
            stride,
            vlo: 0,
            vhi: count as i64 - 1,
            kind,
            tag: tag.unwrap_or(0) as u32,
        };
        self.access_streams(&[spec], count as i64, tag.is_some());
    }

    /// Adds `n` floating-point operations to the cost.
    pub fn add_flops(&mut self, n: u64) {
        self.counters.flops += n;
        self.counters.cycles_x1000 += n * self.flop_x1000;
    }

    /// Adds `n` loop iterations' worth of control overhead.
    pub fn add_loop_iterations(&mut self, n: u64) {
        self.counters.loop_iterations += n;
        self.counters.cycles_x1000 += n * self.loop_overhead_x1000;
    }

    /// The counters accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Fast-forward telemetry accumulated so far (not part of the
    /// architectural counters).
    pub fn sim_stats(&self) -> &SimStats {
        &self.stats
    }

    /// Consumes the hierarchy and returns its counters.
    pub fn into_counters(self) -> Counters {
        self.counters
    }

    /// Consumes the hierarchy and returns counters plus fast-forward
    /// telemetry.
    pub fn into_parts(self) -> (Counters, SimStats) {
        (self.counters, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_machine::CostModel;

    fn tiny_machine() -> MachineDesc {
        MachineDesc {
            name: "tiny".into(),
            clock_mhz: 100,
            fp_registers: 32,
            caches: vec![
                CacheDesc {
                    name: "L1".into(),
                    capacity_bytes: 256, // 8 lines of 32B
                    associativity: 2,
                    line_bytes: 32,
                    miss_penalty_cycles: 10,
                },
                CacheDesc {
                    name: "L2".into(),
                    capacity_bytes: 1024,
                    associativity: 2,
                    line_bytes: 64,
                    miss_penalty_cycles: 80,
                },
            ],
            tlb: TlbDesc {
                entries: 4,
                page_bytes: 256,
                miss_penalty_cycles: 50,
            },
            cost: CostModel::default(),
        }
    }

    #[test]
    fn spatial_locality_hits_within_line() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        for off in 0..4 {
            h.access(off * 8, AccessKind::Load);
        }
        assert_eq!(h.counters().loads, 4);
        assert_eq!(h.counters().cache_misses[0], 1);
        assert_eq!(h.counters().cache_misses[1], 1);
        assert_eq!(h.counters().tlb_misses, 1);
    }

    #[test]
    fn temporal_locality_within_capacity() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        // 8 distinct lines fill L1 exactly; second sweep all hits.
        for rep in 0..2 {
            for line in 0..8u64 {
                h.access(line * 32, AccessKind::Load);
            }
            if rep == 0 {
                assert_eq!(h.counters().cache_misses[0], 8);
            }
        }
        assert_eq!(h.counters().cache_misses[0], 8, "second sweep hits");
    }

    #[test]
    fn capacity_misses_beyond_cache() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        // 16 lines cycled twice thrash the 8-line LRU L1 completely.
        for _ in 0..2 {
            for line in 0..16u64 {
                h.access(line * 32, AccessKind::Load);
            }
        }
        assert_eq!(h.counters().cache_misses[0], 32);
        // but the data (8 x 64B L2 lines) fits in the 16-line L2:
        // only the first sweep's compulsory misses show up there.
        assert_eq!(h.counters().cache_misses[1], 8);
    }

    #[test]
    fn conflict_misses_in_same_set() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        // L1: 8 lines, 2-way => 4 sets, set stride = 128 B.
        // Three lines mapping to set 0 thrash a 2-way set.
        for _ in 0..10 {
            for k in 0..3u64 {
                h.access(k * 128, AccessKind::Load);
            }
        }
        assert_eq!(h.counters().cache_misses[0], 30, "every access conflicts");
    }

    #[test]
    fn two_way_avoids_conflict_that_direct_mapped_has() {
        let mut dm = tiny_machine();
        dm.caches[0].associativity = 1;
        let mut h2 = MemoryHierarchy::new(&tiny_machine());
        let mut h1 = MemoryHierarchy::new(&dm);
        // Two lines 256 B apart: same set in both configs.
        for _ in 0..10 {
            for k in 0..2u64 {
                h1.access(k * 256, AccessKind::Load);
                h2.access(k * 256, AccessKind::Load);
            }
        }
        assert_eq!(h1.counters().cache_misses[0], 20, "direct-mapped thrashes");
        assert_eq!(h2.counters().cache_misses[0], 2, "2-way keeps both");
    }

    #[test]
    fn store_is_write_allocate() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        h.access(0, AccessKind::Store);
        h.access(8, AccessKind::Load);
        assert_eq!(h.counters().stores, 1);
        assert_eq!(h.counters().cache_misses[0], 1, "load hits allocated line");
    }

    #[test]
    fn tlb_covers_four_pages() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        // 4 pages covered; a 5-page round-robin thrashes the LRU TLB.
        for _ in 0..3 {
            for p in 0..5u64 {
                h.access(p * 256, AccessKind::Load);
            }
        }
        assert_eq!(h.counters().tlb_misses, 15);
    }

    #[test]
    fn prefetch_hides_stall_but_pays_bandwidth() {
        let m = tiny_machine();
        let mut with = MemoryHierarchy::new(&m);
        let mut without = MemoryHierarchy::new(&m);
        for line in 0..64u64 {
            with.access(line * 64 + 32, AccessKind::Prefetch);
            with.access(line * 64, AccessKind::Load);
            without.access(line * 64, AccessKind::Load);
        }
        let cw = with.counters();
        let cwo = without.counters();
        assert_eq!(cw.cache_misses[1], 0, "demand misses eliminated at L2");
        assert_eq!(cwo.cache_misses[1], 64);
        assert!(
            cw.cycles() < cwo.cycles(),
            "prefetch must be a net win here"
        );
        assert_eq!(cw.prefetch_fills[1], 64);
    }

    #[test]
    fn prefetch_counts_as_load_in_paper_metric() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        h.access(0, AccessKind::Load);
        h.access(4096, AccessKind::Prefetch);
        assert_eq!(h.counters().loads, 1);
        assert_eq!(h.counters().loads_incl_prefetch(), 2);
    }

    #[test]
    fn flops_and_mflops() {
        let m = tiny_machine();
        let mut h = MemoryHierarchy::new(&m);
        h.add_flops(1000);
        let c = h.into_counters();
        assert_eq!(c.flops, 1000);
        // 1000 flops at 0.5 cycles each = 500 cycles; 100 MHz clock.
        assert_eq!(c.cycles(), 500);
        assert!((c.mflops(100) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn loop_overhead_accumulates() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        h.add_loop_iterations(10);
        assert_eq!(h.counters().loop_iterations, 10);
        assert_eq!(h.counters().cycles(), 10);
    }

    #[test]
    fn empty_counters_mflops_is_zero() {
        let c = Counters::default();
        assert_eq!(c.mflops(1000), 0.0);
    }

    /// A deliberately naive re-implementation of the documented
    /// semantics (no MRU shortcut, no same-line fast path), used to
    /// check that the optimized paths are behaviour-preserving — down
    /// to the LRU stamps, whose influence shows up as eviction (miss)
    /// differences on long adversarial streams.
    mod naive {
        use super::super::{AccessKind, Counters};
        use eco_machine::MachineDesc;

        pub struct Model {
            line_bits: Vec<u32>,
            set_mask: Vec<u64>,
            ways: Vec<usize>,
            tags: Vec<Vec<u64>>,
            stamps: Vec<Vec<u64>>,
            clocks: Vec<u64>,
            miss_pen: Vec<u64>,
            page_bits: u32,
            tlb_pages: Vec<u64>,
            tlb_stamps: Vec<u64>,
            tlb_clock: u64,
            tlb_pen: u64,
            pub counters: Counters,
            mem_issue: u64,
            pf_issue: u64,
            bw_line: u64,
        }

        impl Model {
            pub fn new(m: &MachineDesc) -> Self {
                Model {
                    line_bits: m
                        .caches
                        .iter()
                        .map(|c| c.line_bytes.trailing_zeros())
                        .collect(),
                    set_mask: m.caches.iter().map(|c| c.num_sets() as u64 - 1).collect(),
                    ways: m.caches.iter().map(|c| c.associativity).collect(),
                    tags: m
                        .caches
                        .iter()
                        .map(|c| vec![u64::MAX; c.num_sets() * c.associativity])
                        .collect(),
                    stamps: m
                        .caches
                        .iter()
                        .map(|c| vec![0; c.num_sets() * c.associativity])
                        .collect(),
                    clocks: vec![0; m.caches.len()],
                    miss_pen: m
                        .caches
                        .iter()
                        .map(|c| c.miss_penalty_cycles * 1000)
                        .collect(),
                    page_bits: m.tlb.page_bytes.trailing_zeros(),
                    tlb_pages: vec![u64::MAX; m.tlb.entries],
                    tlb_stamps: vec![0; m.tlb.entries],
                    tlb_clock: 0,
                    tlb_pen: m.tlb.miss_penalty_cycles * 1000,
                    counters: Counters {
                        cache_misses: vec![0; m.caches.len()],
                        prefetch_fills: vec![0; m.caches.len()],
                        ..Default::default()
                    },
                    mem_issue: m.cost.mem_issue_cycles_x1000,
                    pf_issue: m.cost.prefetch_issue_cycles_x1000,
                    bw_line: m.cost.memory_bandwidth_cycles_per_line_x1000,
                }
            }

            fn cache_access(&mut self, level: usize, addr: u64) -> bool {
                let line = addr >> self.line_bits[level];
                let set = (line & self.set_mask[level]) as usize;
                let base = set * self.ways[level];
                self.clocks[level] += 1;
                let mut victim = base;
                let mut oldest = u64::MAX;
                for i in base..base + self.ways[level] {
                    if self.tags[level][i] == line {
                        self.stamps[level][i] = self.clocks[level];
                        return true;
                    }
                    if self.stamps[level][i] < oldest {
                        oldest = self.stamps[level][i];
                        victim = i;
                    }
                }
                self.tags[level][victim] = line;
                self.stamps[level][victim] = self.clocks[level];
                false
            }

            pub fn access(&mut self, addr: u64, kind: AccessKind) {
                let is_prefetch = matches!(kind, AccessKind::Prefetch);
                match kind {
                    AccessKind::Load => {
                        self.counters.loads += 1;
                        self.counters.cycles_x1000 += self.mem_issue;
                    }
                    AccessKind::Store => {
                        self.counters.stores += 1;
                        self.counters.cycles_x1000 += self.mem_issue;
                    }
                    AccessKind::Prefetch => {
                        self.counters.prefetches += 1;
                        self.counters.cycles_x1000 += self.pf_issue;
                    }
                }
                let page = addr >> self.page_bits;
                self.tlb_clock += 1;
                let mut hit = false;
                let mut victim = 0;
                let mut oldest = u64::MAX;
                for i in 0..self.tlb_pages.len() {
                    if self.tlb_pages[i] == page {
                        self.tlb_stamps[i] = self.tlb_clock;
                        hit = true;
                        break;
                    }
                    if self.tlb_stamps[i] < oldest {
                        oldest = self.tlb_stamps[i];
                        victim = i;
                    }
                }
                if !hit {
                    self.tlb_pages[victim] = page;
                    self.tlb_stamps[victim] = self.tlb_clock;
                    self.counters.tlb_misses += 1;
                    self.counters.cycles_x1000 += self.tlb_pen;
                }
                let mut filled = true;
                for level in 0..self.clocks.len() {
                    let hit = self.cache_access(level, addr);
                    if !hit {
                        if is_prefetch {
                            self.counters.prefetch_fills[level] += 1;
                        } else {
                            self.counters.cache_misses[level] += 1;
                            self.counters.cycles_x1000 += self.miss_pen[level];
                        }
                    } else {
                        filled = false;
                        break;
                    }
                }
                if filled {
                    self.counters.cycles_x1000 += self.bw_line;
                }
            }
        }
    }

    /// A small deterministic generator for access streams that mix
    /// strided runs (which exercise the fast path) with random jumps
    /// (which break it) and all three access kinds.
    fn pseudo_stream(seed: u64, len: usize, span: u64) -> Vec<(u64, AccessKind)> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut out = Vec::with_capacity(len);
        let mut addr = 0u64;
        while out.len() < len {
            let r = next();
            let kind = match r % 10 {
                0..=5 => AccessKind::Load,
                6..=8 => AccessKind::Store,
                _ => AccessKind::Prefetch,
            };
            if r % 4 == 0 {
                addr = next() % span;
            }
            let stride = [0i64, 8, 8, 8, 16, 32, -8, 24][(next() % 8) as usize];
            let run = 1 + next() % 9;
            for _ in 0..run {
                out.push((addr % span, kind));
                addr = addr.wrapping_add_signed(stride) % span;
                if out.len() == len {
                    break;
                }
            }
        }
        out
    }

    /// Interleaved unit-stride walks over arrays whose bases lie
    /// multiples of `2^TLB_HINT_BITS` pages apart — the spacing that
    /// aliases in a hint table indexed by the page's low bits. Phases
    /// vary the number of live arrays from well under to well over the
    /// TLB's entry count, so hits, LRU evictions and stale hints mix.
    fn aliasing_stream(seed: u64, len: usize, m: &MachineDesc) -> Vec<(u64, AccessKind)> {
        let page = m.tlb.page_bytes as u64;
        let apart = page << TLB_HINT_BITS;
        let max_arrays = m.tlb.entries as u64 + 8;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut offs = vec![0u64; max_arrays as usize];
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let live = 2 + next() % (max_arrays - 1);
            let trips = 1 + next() % 40;
            for _ in 0..trips {
                for a in 0..live {
                    let kind = match next() % 10 {
                        0..=5 => AccessKind::Load,
                        6..=8 => AccessKind::Store,
                        _ => AccessKind::Prefetch,
                    };
                    let base = a * apart * (1 + a % 3);
                    let off = &mut offs[a as usize];
                    out.push((base + *off, kind));
                    *off = (*off + 8) % (4 * page);
                }
            }
        }
        out.truncate(len);
        out
    }

    #[test]
    fn fast_paths_match_naive_model() {
        let m = tiny_machine();
        for seed in [3u64, 17, 92, 1234] {
            for stream in [
                pseudo_stream(seed, 4000, 16384),
                aliasing_stream(seed, 4000, &m),
            ] {
                let mut fast = MemoryHierarchy::new(&m);
                let mut slow = naive::Model::new(&m);
                for (addr, kind) in stream {
                    fast.access(addr, kind);
                    slow.access(addr, kind);
                }
                assert_eq!(fast.into_counters(), slow.counters, "seed {seed}");
            }
        }
    }

    #[test]
    fn fast_paths_match_naive_model_on_real_machines() {
        for m in [
            MachineDesc::sgi_r10000().scaled(32),
            MachineDesc::ultrasparc_iie().scaled(32),
        ] {
            for stream in [
                pseudo_stream(7, 6000, 1 << 20),
                aliasing_stream(7, 40_000, &m),
            ] {
                let mut fast = MemoryHierarchy::new(&m);
                let mut slow = naive::Model::new(&m);
                for (addr, kind) in stream {
                    fast.access(addr, kind);
                    slow.access(addr, kind);
                }
                let c = fast.into_counters();
                assert!(c.tlb_misses > 0, "the stream must evict TLB entries");
                assert_eq!(c, slow.counters, "machine {}", m.name);
            }
        }
    }

    #[test]
    fn access_run_equals_per_access_loop() {
        let cases: &[(u64, i64, u64)] = &[
            (0, 8, 100),     // unit stride
            (12, 8, 1),      // single access
            (0, 8, 0),       // empty run
            (5, 0, 40),      // zero stride
            (40, 4, 17),     // sub-element stride
            (8192, -8, 64),  // descending
            (3, 32, 50),     // exactly one per line
            (0, 48, 33),     // line-crossing stride
            (100, 1000, 20), // page-crossing stride
        ];
        for kind in [AccessKind::Load, AccessKind::Store, AccessKind::Prefetch] {
            for &(base, stride, count) in cases {
                let m = tiny_machine();
                let mut a = MemoryHierarchy::new(&m);
                let mut b = MemoryHierarchy::new(&m);
                // interleave with a warm-up so the run starts from a
                // non-trivial cache state
                for t in 0..32 {
                    a.access(t * 8, AccessKind::Load);
                    b.access(t * 8, AccessKind::Load);
                }
                a.access_run(base, stride, count, kind, None);
                for t in 0..count {
                    b.access(base.wrapping_add_signed(stride * t as i64), kind);
                }
                // and the post-run state must agree too: do a sweep that
                // is sensitive to LRU stamp differences
                for t in 0..64 {
                    a.access(t * 32, kind);
                    b.access(t * 32, kind);
                }
                assert_eq!(
                    a.into_counters(),
                    b.into_counters(),
                    "kind {kind:?} base {base} stride {stride} count {count}"
                );
            }
        }
    }

    /// Satellite edge cases called out by the vectorization issue, each
    /// against per-access reference simulation from a warmed state:
    /// stride larger than a line, stride crossing a page/TLB boundary,
    /// negative strides, zero-length runs, and runs that straddle a set
    /// wraparound (consecutive lines mapping back to set 0).
    #[test]
    fn access_run_edge_cases_equal_per_access_loop() {
        let cases: &[(&str, u64, i64, u64)] = &[
            ("stride larger than a line", 0, 40, 60),
            ("stride of many lines", 64, 160, 50),
            ("stride crossing pages", 0, 300, 40),
            ("exactly one access per page", 128, 256, 30),
            ("negative line-crossing stride", 16384, -40, 80),
            ("negative page-crossing stride", 32768, -300, 40),
            ("zero-length run", 512, 8, 0),
            ("zero-length negative stride", 512, -8, 0),
            // L1 has 4 sets of 32B lines: 128B wraps back to set 0, so a
            // long unit-line run cycles every set several times.
            ("set wraparound ascending", 0, 32, 24),
            ("set wraparound descending", 4096, -32, 24),
            ("set wraparound with conflicts", 0, 128, 40),
        ];
        for kind in [AccessKind::Load, AccessKind::Store, AccessKind::Prefetch] {
            for &(name, base, stride, count) in cases {
                let m = tiny_machine();
                let mut a = MemoryHierarchy::new(&m);
                let mut b = MemoryHierarchy::new(&m);
                for t in 0..48 {
                    a.access(t * 8, AccessKind::Load);
                    b.access(t * 8, AccessKind::Load);
                }
                a.access_run(base, stride, count, kind, None);
                for t in 0..count {
                    b.access(base.wrapping_add_signed(stride * t as i64), kind);
                }
                // post-state must agree too (LRU-stamp sensitive sweep)
                for t in 0..64 {
                    a.access(t * 32, kind);
                    b.access(t * 32, kind);
                }
                assert_eq!(
                    a.into_counters(),
                    b.into_counters(),
                    "{name}: kind {kind:?} base {base} stride {stride} count {count}"
                );
            }
        }
    }

    /// Multi-stream batches (the shape the compiled plan hands over)
    /// must match the interleaved per-access loop exactly, including
    /// partially-active (prefetch-window) streams, shared lines between
    /// streams, and tags.
    #[test]
    fn access_streams_equals_interleaved_loop() {
        let batches: &[&[StreamSpec]] = &[
            // MM inner-loop shape: invariant A, unit-stride B and C
            // (load + store), all resident after the first lines fill.
            &[
                StreamSpec {
                    base: 0,
                    stride: 0,
                    vlo: 0,
                    vhi: 63,
                    kind: AccessKind::Load,
                    tag: 0,
                },
                StreamSpec {
                    base: 1024,
                    stride: 8,
                    vlo: 0,
                    vhi: 63,
                    kind: AccessKind::Load,
                    tag: 1,
                },
                StreamSpec {
                    base: 2048,
                    stride: 8,
                    vlo: 0,
                    vhi: 63,
                    kind: AccessKind::Load,
                    tag: 2,
                },
                StreamSpec {
                    base: 2048,
                    stride: 8,
                    vlo: 0,
                    vhi: 63,
                    kind: AccessKind::Store,
                    tag: 2,
                },
            ],
            // Prefetch stream active only on a sub-window, ahead of a
            // demand stream sharing its lines.
            &[
                StreamSpec {
                    base: 0,
                    stride: 8,
                    vlo: 0,
                    vhi: 99,
                    kind: AccessKind::Load,
                    tag: 0,
                },
                StreamSpec {
                    base: 128,
                    stride: 8,
                    vlo: 5,
                    vhi: 80,
                    kind: AccessKind::Prefetch,
                    tag: 0,
                },
            ],
            // Conflicting streams thrashing one set (FF must keep
            // failing over to the walker) plus a negative stride.
            &[
                StreamSpec {
                    base: 0,
                    stride: 128,
                    vlo: 0,
                    vhi: 39,
                    kind: AccessKind::Load,
                    tag: 0,
                },
                StreamSpec {
                    base: 8192,
                    stride: 128,
                    vlo: 0,
                    vhi: 39,
                    kind: AccessKind::Load,
                    tag: 1,
                },
                StreamSpec {
                    base: 4096,
                    stride: -8,
                    vlo: 10,
                    vhi: 30,
                    kind: AccessKind::Store,
                    tag: 2,
                },
            ],
            // Disjoint validity windows: active set changes twice.
            &[
                StreamSpec {
                    base: 0,
                    stride: 8,
                    vlo: 0,
                    vhi: 19,
                    kind: AccessKind::Load,
                    tag: 0,
                },
                StreamSpec {
                    base: 512,
                    stride: 8,
                    vlo: 20,
                    vhi: 59,
                    kind: AccessKind::Store,
                    tag: 1,
                },
            ],
        ];
        for (bi, streams) in batches.iter().enumerate() {
            let trips = streams.iter().map(|s| s.vhi + 1).max().unwrap();
            for attribute in [false, true] {
                let m = tiny_machine();
                let mut a = MemoryHierarchy::new(&m);
                let mut b = MemoryHierarchy::new(&m);
                a.access_streams(streams, trips, attribute);
                for t in 0..trips {
                    for s in *streams {
                        if s.vlo <= t && t <= s.vhi {
                            let addr = (s.base + t * s.stride) as u64;
                            if attribute {
                                b.access_tagged(addr, s.kind, s.tag as usize);
                            } else {
                                b.access(addr, s.kind);
                            }
                        }
                    }
                }
                // LRU-stamp-sensitive post-sweep
                for t in 0..64u64 {
                    a.access(t * 32, AccessKind::Load);
                    b.access(t * 32, AccessKind::Load);
                }
                assert_eq!(
                    a.into_counters(),
                    b.into_counters(),
                    "batch {bi} attribute {attribute}"
                );
            }
        }
    }

    /// The resident MM-shaped batch must actually engage fast-forward —
    /// otherwise the exactness tests above are vacuous — and the
    /// telemetry must reconcile with the architectural access counts.
    #[test]
    fn fast_forward_engages_and_reconciles() {
        let m = tiny_machine();
        let mut h = MemoryHierarchy::new(&m);
        let streams = [
            StreamSpec {
                base: 0,
                stride: 0,
                vlo: 0,
                vhi: 255,
                kind: AccessKind::Load,
                tag: 0,
            },
            StreamSpec {
                base: 1024,
                stride: 8,
                vlo: 0,
                vhi: 255,
                kind: AccessKind::Load,
                tag: 1,
            },
        ];
        // 256 iterations over a 2-line + 64-line footprint: B streams
        // through L1 (8 lines) so only resident *windows* fast-forward.
        h.access_streams(&streams, 256, true);
        let stats = h.sim_stats().clone();
        let c = h.into_counters();
        assert!(stats.ff_windows > 0, "fast-forward never engaged");
        assert!(stats.ff_accesses > 0);
        let total = c.loads + c.stores + c.prefetches;
        assert!(stats.ff_accesses <= total);
        assert_eq!(stats.per_tag_ff.len(), 2);
        assert_eq!(stats.per_tag_ff.iter().sum::<u64>(), stats.ff_accesses);
        for (ff, t) in stats.per_tag_ff.iter().zip(&c.per_tag) {
            assert!(*ff <= t.accesses);
        }
        // A fully-resident zero-stride run fast-forwards almost
        // everything (first touch walks, the rest is arithmetic).
        let mut h2 = MemoryHierarchy::new(&m);
        h2.access_run(64, 0, 10_000, AccessKind::Load, None);
        assert!(h2.sim_stats().ff_accesses >= 9_990);
        assert_eq!(h2.counters().loads, 10_000);
        assert_eq!(h2.counters().cache_misses[0], 1);
    }

    #[test]
    fn access_run_tagged_equals_per_access_loop() {
        let m = tiny_machine();
        let mut a = MemoryHierarchy::new(&m);
        let mut b = MemoryHierarchy::new(&m);
        for kind in [AccessKind::Load, AccessKind::Store, AccessKind::Prefetch] {
            a.access_run(64, 8, 50, kind, Some(1));
            for t in 0..50u64 {
                b.access_tagged(64 + t * 8, kind, 1);
            }
        }
        assert_eq!(a.into_counters(), b.into_counters());
    }

    #[test]
    fn tagged_accesses_attribute_misses() {
        let mut h = MemoryHierarchy::new(&tiny_machine());
        // tag 0: one line, hit after first access; tag 1: thrashing.
        for i in 0..10u64 {
            h.access_tagged(0, AccessKind::Load, 0);
            h.access_tagged(4096 + i * 512, AccessKind::Load, 1);
        }
        let c = h.into_counters();
        assert_eq!(c.per_tag.len(), 2);
        assert_eq!(c.per_tag[0].accesses, 10);
        assert_eq!(c.per_tag[0].misses[0], 1);
        assert_eq!(c.per_tag[1].accesses, 10);
        assert_eq!(c.per_tag[1].misses[0], 10);
        // attribution is exhaustive
        assert_eq!(
            c.per_tag[0].misses[0] + c.per_tag[1].misses[0],
            c.cache_misses[0]
        );
        assert_eq!(
            c.per_tag[0].tlb_misses + c.per_tag[1].tlb_misses,
            c.tlb_misses
        );
    }
}
