//! Phase 1 of the paper: deriving parameterized variants
//! (`Algorithm DeriveVariants`, Figure 3).
//!
//! Walking the memory hierarchy from registers outward, each level
//! selects the loop carrying the most unexploited temporal reuse (ties
//! fork the variant set), the references *retained* at that level, the
//! loops to unroll-and-jam (registers) or tile (caches), whether to
//! create a copy variant, and a symbolic footprint constraint on the
//! parameter values (`UI*UJ <= 32`-style, as displayed in Table 4).
//!
//! Placement rules recovered from the paper's generated code
//! (Figures 1(b), 1(c), 2(b)):
//!
//! * point loops run cache carriers outermost-first by level and the
//!   register carrier innermost (reuse distance ordering, §3.1);
//! * tile-controlling loops sit outside the point band, ordered by the
//!   *reverse* point order (the innermost point loop's control is the
//!   outermost control — `KK, JJ, II` in Figure 1(c));
//! * the tile set of a cache level is the set of loops indexing the
//!   retained references, minus the level's carrier and loops already
//!   tiled; when that set contains the register carrier, both the tiled
//!   and untiled alternative are generated (the paper's j3-vs-j5 pair);
//! * a copy variant is created only when every dimension of the retained
//!   array is tiled — exactly why the paper's compiler copies for Matrix
//!   Multiply but finds copying unprofitable for Jacobi.

use eco_analysis::{reuse, NestInfo};
use eco_ir::{ArrayId, VarId};
use eco_machine::{MachineDesc, MemoryLevel};
use std::collections::BTreeMap;
use std::fmt;

/// Values chosen for a variant's parameters, keyed by name
/// (`"UI"`, `"TJ"`, ...).
pub type ParamValues = BTreeMap<String, u64>;

/// A symbolic constraint `prod(params) <= bound`, as displayed in the
/// paper's Table 4.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Parameter names whose product is bounded.
    pub factors: Vec<String>,
    /// Upper bound (in registers or double-precision words).
    pub bound: u64,
}

impl Constraint {
    /// True if `values` satisfies the constraint (missing parameters
    /// count as 1).
    pub fn holds(&self, values: &ParamValues) -> bool {
        let prod: u64 = self
            .factors
            .iter()
            .map(|f| values.get(f).copied().unwrap_or(1))
            .product();
        prod <= self.bound
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <= {}", self.factors.join("*"), self.bound)
    }
}

/// The plan for one memory-hierarchy level of a variant.
#[derive(Debug, Clone, Hash)]
pub struct LevelPlan {
    /// Which level this plan targets.
    pub level: MemoryLevel,
    /// The loop carrying this level's reuse.
    pub carrier: VarId,
    /// References (indices into the nest's ref table) retained here.
    pub retained: Vec<usize>,
    /// Loops unroll-and-jammed (register level only), with their
    /// parameter names.
    pub unrolls: Vec<(VarId, String)>,
    /// Loops newly tiled at this level, with their parameter names.
    pub tiles: Vec<(VarId, String)>,
    /// Copy the retained array into a contiguous buffer at this level.
    pub copy: Option<CopyPlan>,
    /// Footprint constraint for this level.
    pub constraint: Constraint,
}

/// A planned copy optimization.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CopyPlan {
    /// Array to copy.
    pub array: ArrayId,
    /// Buffer name (`"P"`, `"Q"`, ...).
    pub buffer: String,
    /// Per dimension of the array: the loop whose tile bounds it.
    pub dim_loops: Vec<VarId>,
}

/// One parameterized variant produced by [`derive_variants`].
#[derive(Debug, Clone, Hash)]
pub struct Variant {
    /// Name (`"v1"`, `"v2"`, ...).
    pub name: String,
    /// Per-level plans, register level first.
    pub levels: Vec<LevelPlan>,
}

impl Variant {
    /// All parameter names of the variant, unrolls before tiles,
    /// level order.
    pub fn param_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for l in &self.levels {
            for (_, n) in &l.unrolls {
                names.push(n.clone());
            }
            for (_, n) in &l.tiles {
                names.push(n.clone());
            }
        }
        names
    }

    /// All constraints of the variant.
    pub fn constraints(&self) -> Vec<&Constraint> {
        self.levels.iter().map(|l| &l.constraint).collect()
    }

    /// True if `values` satisfies every constraint.
    pub fn feasible(&self, values: &ParamValues) -> bool {
        self.constraints().iter().all(|c| c.holds(values))
    }

    /// The register-level carrier (the innermost loop after codegen).
    ///
    /// # Panics
    ///
    /// Panics if the variant has no levels (never produced by
    /// [`derive_variants`]).
    pub fn register_carrier(&self) -> VarId {
        self.levels.first().expect("register level").carrier
    }

    /// Point-loop order, outermost first: cache carriers by level, then
    /// the register carrier innermost, then any unplaced loops outermost.
    pub fn point_order(&self, all_loops: &[VarId]) -> Vec<VarId> {
        let mut order: Vec<VarId> = self.levels[1..].iter().map(|l| l.carrier).collect();
        order.push(self.register_carrier());
        let placed = order.clone();
        let mut rest: Vec<VarId> = all_loops
            .iter()
            .copied()
            .filter(|v| !placed.contains(v))
            .collect();
        rest.extend(order);
        rest
    }

    /// The tile parameter (if any) of loop `v`.
    pub fn tile_param(&self, v: VarId) -> Option<&str> {
        self.levels
            .iter()
            .flat_map(|l| &l.tiles)
            .find(|&&(w, _)| w == v)
            .map(|(_, n)| n.as_str())
    }

    /// The unroll parameter (if any) of loop `v`.
    pub fn unroll_param(&self, v: VarId) -> Option<&str> {
        self.levels
            .iter()
            .flat_map(|l| &l.unrolls)
            .find(|&&(w, _)| w == v)
            .map(|(_, n)| n.as_str())
    }
}

/// Derives the variant set for a kernel nest on a machine — the paper's
/// `DeriveVariants` (Figure 3).
///
/// Each memory level may fork the set: once per tied
/// `MostProfitableLoops` choice, once per tile-or-not decision on the
/// register carrier, and once per copy-or-not decision at levels where
/// copying is expressible.
pub fn derive_variants(
    nest: &NestInfo,
    machine: &MachineDesc,
    program: &eco_ir::Program,
) -> Vec<Variant> {
    struct Partial {
        levels: Vec<LevelPlan>,
        remaining: Vec<VarId>,
        unmapped: Vec<usize>,
        tiled: Vec<(VarId, String)>,
    }
    let all_refs: Vec<usize> = (0..nest.refs.len()).collect();
    let all_vars = nest.loop_vars();
    let name_of = |v: VarId| program.var(v).name.clone();

    // ---- register level ----
    let mut partials: Vec<Partial> = Vec::new();
    let carriers = reuse::most_profitable_loops(nest, &all_vars, &all_refs, &all_refs);
    for &carrier in &carriers {
        let retained = reuse::most_profitable_refs(nest, carrier, &all_refs);
        let remaining: Vec<VarId> = all_vars.iter().copied().filter(|&v| v != carrier).collect();
        let unrolls: Vec<(VarId, String)> = remaining
            .iter()
            .map(|&v| (v, format!("U{}", name_of(v))))
            .collect();
        // Footprint(retained, carrier, unrolls) <= registers:
        // the product of the unroll factors of loops indexing the
        // retained references.
        let mut factors = Vec::new();
        for &r in &retained {
            for &(v, ref nm) in &unrolls {
                if nest.refs[r].uses(v) && !factors.contains(nm) {
                    factors.push(nm.clone());
                }
            }
        }
        partials.push(Partial {
            levels: vec![LevelPlan {
                level: MemoryLevel::Register,
                carrier,
                retained: retained.clone(),
                unrolls,
                tiles: Vec::new(),
                copy: None,
                constraint: Constraint {
                    factors,
                    bound: machine.fp_registers as u64,
                },
            }],
            remaining,
            unmapped: all_refs
                .iter()
                .copied()
                .filter(|r| !retained.contains(r))
                .collect(),
            tiled: Vec::new(),
        });
    }

    // ---- cache levels ----
    for (ci, cache) in machine.caches.iter().enumerate() {
        let level = MemoryLevel::Cache(ci);
        let mut next: Vec<Partial> = Vec::new();
        for p in partials {
            if p.remaining.is_empty() {
                next.push(p);
                continue;
            }
            let carriers = reuse::most_profitable_loops(nest, &p.remaining, &p.unmapped, &all_refs);
            if carriers.is_empty() {
                next.push(p);
                continue;
            }
            for &carrier in &carriers {
                let pool = if reuse::temporal_savings(nest, carrier, &p.unmapped) > 0 {
                    &p.unmapped
                } else {
                    &all_refs
                };
                let retained = reuse::most_profitable_refs(nest, carrier, pool);
                // Tile set: loops indexing the retained refs, minus the
                // carrier and loops already tiled.
                let mut tile_set: Vec<VarId> = Vec::new();
                for &r in &retained {
                    for &v in &all_vars {
                        if v != carrier
                            && nest.refs[r].uses(v)
                            && !p.tiled.iter().any(|&(w, _)| w == v)
                            && !tile_set.contains(&v)
                        {
                            tile_set.push(v);
                        }
                    }
                }
                let reg_carrier = p.levels[0].carrier;
                // Tile-set alternatives: with and without the register
                // carrier (the paper's j3/j5 pair).
                let mut alternatives: Vec<Vec<VarId>> = vec![tile_set.clone()];
                if tile_set.contains(&reg_carrier) && tile_set.len() > 1 {
                    alternatives.push(
                        tile_set
                            .iter()
                            .copied()
                            .filter(|&v| v != reg_carrier)
                            .collect(),
                    );
                }
                for tiles in alternatives {
                    let new_tiles: Vec<(VarId, String)> = tiles
                        .iter()
                        .map(|&v| (v, format!("T{}", name_of(v))))
                        .collect();
                    let mut tiled = p.tiled.clone();
                    tiled.extend(new_tiles.iter().cloned());
                    // Constraint: footprint of the retained tile at this
                    // level = product over dims of the retained refs of
                    // the bounding parameter.
                    let mut factors: Vec<String> = Vec::new();
                    let mut unbounded = false;
                    for &r in &retained {
                        for &v in &all_vars {
                            if v == carrier || !nest.refs[r].uses(v) {
                                continue;
                            }
                            if let Some((_, nm)) = tiled.iter().find(|&&(w, _)| w == v) {
                                if !factors.contains(nm) {
                                    factors.push(nm.clone());
                                }
                            } else if let Some(nm) = p.levels[0]
                                .unrolls
                                .iter()
                                .find(|&&(w, _)| w == v)
                                .map(|(_, n)| n.clone())
                            {
                                if !factors.contains(&nm) {
                                    factors.push(nm);
                                }
                            } else {
                                unbounded = true;
                            }
                        }
                    }
                    let bound = (cache.effective_capacity_bytes() / 8) as u64;
                    let constraint = Constraint {
                        factors: factors.clone(),
                        bound: if unbounded { u64::MAX } else { bound },
                    };
                    // Copy alternative: expressible when every dim of the
                    // retained array is bounded by a tiled loop.
                    let retained_arrays: Vec<ArrayId> = {
                        let mut v: Vec<ArrayId> =
                            retained.iter().map(|&r| nest.refs[r].array).collect();
                        v.dedup();
                        v.sort_by_key(|a| a.index());
                        v.dedup();
                        v
                    };
                    let mut copy: Option<CopyPlan> = None;
                    // Copying retargets *every* reference to the array
                    // inside the tile loop, so it is only expressible when
                    // the retained group covers all of them (SYRK's two
                    // access functions into A rule its copy out).
                    let covers_all = retained_arrays.len() == 1 && {
                        let arr = retained_arrays[0];
                        (0..nest.refs.len())
                            .filter(|&r| nest.refs[r].array == arr)
                            .all(|r| retained.contains(&r))
                    };
                    if covers_all {
                        let arr = retained_arrays[0];
                        let rf = &nest.refs[retained[0]];
                        let dim_loops: Vec<Option<VarId>> = (0..rf.idx.len())
                            .map(|d| {
                                all_vars.iter().copied().find(|&v| {
                                    rf.coeff(d, v) == 1 && tiled.iter().any(|&(w, _)| w == v)
                                })
                            })
                            .collect();
                        let group_spread_zero =
                            retained.iter().all(|&r| nest.refs[r].idx == rf.idx);
                        if group_spread_zero && dim_loops.iter().all(|d| d.is_some()) {
                            copy = Some(CopyPlan {
                                array: arr,
                                buffer: copy_buffer_name(ci, &p.levels),
                                dim_loops: dim_loops.into_iter().flatten().collect(),
                            });
                        }
                    }
                    let mut copy_options: Vec<Option<CopyPlan>> = vec![None];
                    if copy.is_some() {
                        // The paper prefers the copy variant when it is
                        // expressible; keep both and let search decide.
                        copy_options.insert(0, copy);
                    }
                    for copt in copy_options {
                        let mut levels = p.levels.clone();
                        levels.push(LevelPlan {
                            level,
                            carrier,
                            retained: retained.clone(),
                            unrolls: Vec::new(),
                            tiles: new_tiles.clone(),
                            copy: copt,
                            constraint: constraint.clone(),
                        });
                        next.push(Partial {
                            levels,
                            remaining: p
                                .remaining
                                .iter()
                                .copied()
                                .filter(|&v| v != carrier)
                                .collect(),
                            unmapped: p
                                .unmapped
                                .iter()
                                .copied()
                                .filter(|r| !retained.contains(r))
                                .collect(),
                            tiled: tiled.clone(),
                        });
                    }
                }
            }
        }
        partials = next;
    }

    partials
        .into_iter()
        .enumerate()
        .map(|(i, p)| Variant {
            name: format!("v{}", i + 1),
            levels: p.levels,
        })
        .collect()
}

fn copy_buffer_name(cache_index: usize, levels: &[LevelPlan]) -> String {
    // P for the first copy, Q for the second, ... within a variant.
    let already = levels.iter().filter(|l| l.copy.is_some()).count();
    let base = (b'P' + (already as u8 + cache_index as u8) % 8) as char;
    base.to_string()
}

/// Renders a variant as a Table-4-style description.
pub fn describe_variant(v: &Variant, nest: &NestInfo, program: &eco_ir::Program) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let name_of = |v: VarId| program.var(v).name.clone();
    for l in &v.levels {
        let transf = match l.level {
            MemoryLevel::Register => {
                let us: Vec<String> = l.unrolls.iter().map(|&(w, _)| name_of(w)).collect();
                format!("Unroll-and-jam {}", us.join(" and "))
            }
            MemoryLevel::Cache(_) => {
                let ts: Vec<String> = l.tiles.iter().map(|&(w, _)| name_of(w)).collect();
                let mut s = if ts.is_empty() {
                    "-".to_string()
                } else {
                    format!("Tile {}", ts.join(" and "))
                };
                if let Some(c) = &l.copy {
                    let _ = write!(s, ", Copy {}", program.array(c.array).name);
                }
                s
            }
        };
        let mut retained_names: Vec<String> = l
            .retained
            .iter()
            .map(|&r| program.array(nest.refs[r].array).name.clone())
            .collect();
        retained_names.dedup();
        let _ = writeln!(
            out,
            "{:4} {:4} {:28} {:16} (retains {})",
            l.level.to_string(),
            name_of(l.carrier),
            transf,
            if l.constraint.factors.is_empty() || l.constraint.bound == u64::MAX {
                "-".to_string()
            } else {
                l.constraint.to_string()
            },
            retained_names.join(",")
        );
    }
    out
}
