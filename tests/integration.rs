//! Cross-crate integration tests: the full ECO pipeline (analysis →
//! variants → codegen → simulated measurement) on every kernel and both
//! machine models, checked for semantic correctness and the qualitative
//! relations the paper reports.

use eco_analysis::NestInfo;
use eco_baselines::{atlas_mm, native, vendor_mm};
use eco_core::{derive_variants, generate, Optimizer, SearchOptions, TuneRequest};
use eco_exec::events::Fnv64;
use eco_exec::{
    interpret, measure, program_fingerprint, ArrayLayout, LayoutOptions, Params, Storage,
};
use eco_ir::{ArrayId, Program};
use eco_kernels::Kernel;
use eco_machine::MachineDesc;

fn assert_same_outputs(kernel: &Kernel, candidate: &Program, n: i64, label: &str) {
    let run = |p: &Program| {
        let pr = Params::new().with(kernel.size, n);
        let layout = ArrayLayout::new(p, &pr, &LayoutOptions::default()).expect("layout");
        let mut st = Storage::seeded(&layout, 271828);
        interpret(p, &pr, &layout, &mut st).unwrap_or_else(|e| panic!("{label}: {e}"));
        st
    };
    let want = run(&kernel.program);
    let got = run(candidate);
    for &o in &kernel.outputs {
        assert!(
            want.max_abs_diff(&got, o) < 1e-9,
            "{label}: output differs at N={n}"
        );
    }
}

#[test]
fn every_variant_of_every_kernel_generates_correct_code() {
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let opt = Optimizer::new(machine.clone());
    for kernel in Kernel::all() {
        let nest = NestInfo::from_program(&kernel.program).expect("analyzable");
        let variants = derive_variants(&nest, &machine, &kernel.program);
        assert!(!variants.is_empty(), "{}", kernel.name);
        for v in &variants {
            // back off unrolls until generation succeeds (register rings)
            let mut params = opt.initial_params(v);
            let program = loop {
                match generate(&kernel, &nest, v, &params, &machine) {
                    Ok(p) => break Some(p),
                    Err(_) => {
                        let Some((nm, val)) = params
                            .iter()
                            .filter(|(n, _)| n.starts_with('U'))
                            .max_by_key(|&(_, v)| *v)
                            .map(|(n, &v)| (n.clone(), v))
                        else {
                            break None;
                        };
                        if val < 2 {
                            break None;
                        }
                        params.insert(nm, val / 2);
                    }
                }
            };
            let Some(program) = program else {
                panic!("{} {}: no feasible parameters", kernel.name, v.name)
            };
            assert_same_outputs(
                &kernel,
                &program,
                21,
                &format!("{} {}", kernel.name, v.name),
            );
        }
    }
}

#[test]
fn streamed_program_fingerprints_equal_fnv_over_the_printed_text() {
    // `program_fingerprint` streams the printer into the hash; goldens
    // pin its values, so it must equal FNV over `name\0` + the text.
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let opt = Optimizer::new(machine.clone());
    let mut checked = 0;
    for kernel in Kernel::all() {
        let nest = NestInfo::from_program(&kernel.program).expect("analyzable");
        let mut programs = vec![kernel.program.clone()];
        for v in derive_variants(&nest, &machine, &kernel.program) {
            let init = opt.initial_params(&v);
            for scale in [(1, 1), (1, 2), (2, 1)] {
                let params = init
                    .iter()
                    .map(|(n, &x)| (n.clone(), (x * scale.0 / scale.1).max(1)))
                    .collect();
                let Ok(p) = generate(&kernel, &nest, &v, &params, &machine) else {
                    continue;
                };
                if let Ok(pf) =
                    eco_transform::insert_prefetch(&p, v.register_carrier(), ArrayId(0), 2)
                {
                    programs.push(pf);
                }
                programs.push(p);
            }
        }
        for p in &programs {
            let mut bytes = format!("{}\0", p.name).into_bytes();
            bytes.extend(p.to_string().bytes());
            assert_eq!(program_fingerprint(p), Fnv64::hash_bytes(&bytes), "{p}");
            checked += 1;
        }
    }
    assert!(checked > 100, "only {checked} programs checked");
}

#[test]
fn tuned_matmul_is_correct_and_fast_on_both_machines() {
    for base in [MachineDesc::sgi_r10000(), MachineDesc::ultrasparc_iie()] {
        let machine = base.scaled(32);
        let kernel = Kernel::matmul();
        let opts = SearchOptions::builder()
            .search_n(48)
            .max_variants(2)
            .build()
            .expect("options");
        let tuned = TuneRequest::new(kernel.clone(), machine.clone())
            .options(opts)
            .run()
            .expect("optimize")
            .tuned;
        assert_same_outputs(&kernel, &tuned.program, 29, &machine.name);
        let naive = measure(
            &kernel.program,
            &Params::new().with(kernel.size, 48),
            &machine,
            &LayoutOptions::default(),
        )
        .expect("naive");
        assert!(
            tuned.counters.cycles() * 3 < naive.cycles() * 2,
            "{}: tuned {} vs naive {}",
            machine.name,
            tuned.counters.cycles(),
            naive.cycles()
        );
    }
}

#[test]
fn eco_beats_native_on_average_for_matmul() {
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let kernel = Kernel::matmul();
    let opts = SearchOptions::builder()
        .search_n(56)
        .max_variants(2)
        .robustness_sizes(vec![64])
        .build()
        .expect("options");
    let eco = TuneRequest::new(kernel.clone(), machine.clone())
        .options(opts)
        .run()
        .expect("eco")
        .tuned;
    let nat = native(&kernel, &machine).expect("native");
    let mut eco_sum = 0.0;
    let mut nat_sum = 0.0;
    for n in [40i64, 56, 64, 80] {
        let run = |p: &Program| {
            measure(
                p,
                &Params::new().with(kernel.size, n),
                &machine,
                &LayoutOptions::default(),
            )
            .expect("measure")
            .mflops(machine.clock_mhz)
        };
        eco_sum += run(&eco.program);
        nat_sum += run(nat.for_size(n));
    }
    assert!(
        eco_sum > nat_sum,
        "ECO avg {eco_sum} must beat native avg {nat_sum}"
    );
}

#[test]
fn native_suffers_at_power_of_two_sizes() {
    // The paper: the native compiler "appears to suffer from severe
    // conflict misses for some matrix sizes because it does not apply
    // copying".
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let kernel = Kernel::matmul();
    let nat = native(&kernel, &machine).expect("native");
    let run = |n: i64| {
        measure(
            nat.for_size(n),
            &Params::new().with(kernel.size, n),
            &machine,
            &LayoutOptions::default(),
        )
        .expect("measure")
        .mflops(machine.clock_mhz)
    };
    let good = run(80);
    let bad = run(64);
    assert!(
        bad * 2.0 < good,
        "pathological 64 ({bad}) should collapse vs 80 ({good})"
    );
}

#[test]
fn atlas_is_stable_but_eco_matches_or_beats_it() {
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let kernel = Kernel::matmul();
    let atlas = atlas_mm(&machine, 96).expect("atlas");
    let opts = SearchOptions::builder()
        .search_n(120)
        .max_variants(2)
        .robustness_sizes(vec![128])
        .build()
        .expect("options");
    let eco = TuneRequest::new(kernel.clone(), machine.clone())
        .options(opts)
        .run()
        .expect("eco")
        .tuned;
    let mut eco_avg = 0.0;
    let mut atlas_avg = 0.0;
    let sizes = [96i64, 128, 160, 192];
    for &n in &sizes {
        let run = |p: &Program| {
            measure(
                p,
                &Params::new().with(kernel.size, n),
                &machine,
                &LayoutOptions::default(),
            )
            .expect("measure")
            .mflops(machine.clock_mhz)
        };
        eco_avg += run(&eco.program) / sizes.len() as f64;
        atlas_avg += run(atlas.program.for_size(n)) / sizes.len() as f64;
    }
    assert!(
        eco_avg > 0.95 * atlas_avg,
        "ECO ({eco_avg:.1}) must at least match ATLAS ({atlas_avg:.1})"
    );
}

#[test]
fn eco_search_visits_fewer_points_than_atlas() {
    // §4.3: the ECO search is 2-4x cheaper than the ATLAS search.
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let opts = SearchOptions::builder()
        .search_n(64)
        .max_variants(2)
        .build()
        .expect("options");
    let eco = TuneRequest::new(Kernel::matmul(), machine.clone())
        .options(opts)
        .run()
        .expect("eco")
        .tuned;
    let atlas = atlas_mm(&machine, 64).expect("atlas");
    assert!(
        eco.stats.points < atlas.points,
        "ECO {} vs ATLAS {}",
        eco.stats.points,
        atlas.points
    );
}

#[test]
fn vendor_and_atlas_are_correct_across_sizes() {
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let kernel = Kernel::matmul();
    let vendor = vendor_mm(&machine, 48).expect("vendor");
    let atlas = atlas_mm(&machine, 48).expect("atlas");
    for n in [11i64, 33, 64] {
        assert_same_outputs(&kernel, vendor.for_size(n), n, "vendor");
        assert_same_outputs(&kernel, atlas.program.for_size(n), n, "atlas");
    }
}

#[test]
fn tuned_jacobi_uses_prefetch_and_beats_native() {
    // §4.2 + Table 1: prefetching is a significant part of Jacobi's win.
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let kernel = Kernel::jacobi3d();
    let opts = SearchOptions::builder()
        .search_n(36)
        .max_variants(3)
        .build()
        .expect("options");
    let eco = TuneRequest::new(kernel.clone(), machine.clone())
        .options(opts)
        .run()
        .expect("eco")
        .tuned;
    assert_same_outputs(&kernel, &eco.program, 19, "jacobi eco");
    let nat = native(&kernel, &machine).expect("native");
    let run = |p: &Program, n: i64| {
        measure(
            p,
            &Params::new().with(kernel.size, n),
            &machine,
            &LayoutOptions::default(),
        )
        .expect("measure")
        .mflops(machine.clock_mhz)
    };
    let mut eco_avg = 0.0;
    let mut nat_avg = 0.0;
    for n in [24i64, 36, 44] {
        eco_avg += run(&eco.program, n);
        nat_avg += run(nat.for_size(n), n);
    }
    assert!(eco_avg > nat_avg, "ECO {eco_avg} vs native {nat_avg}");
    assert!(
        !eco.prefetches.is_empty(),
        "Jacobi tuning should adopt prefetching"
    );
}

/// Both engine backends report the same `ExecError::OutOfBounds` —
/// array name, evaluated indices, and extents — when a program walks
/// one element past the end of an array. The compiled plan detects
/// this analytically (per-site valid-iteration intervals) where the
/// reference walker trips on the access itself, so the payloads must
/// be compared field for field.
#[test]
fn both_engine_backends_report_identical_out_of_bounds_errors() {
    use eco_exec::{Engine, EngineConfig, EvalJob, Evaluator, ExecBackend, ExecError};
    use eco_ir::{AffineExpr, ArrayRef, Loop, ScalarExpr, Stmt};
    let mut p = Program::new("oob_walk");
    let n = p.add_param("N");
    let i = p.add_loop_var("I");
    let a = p.add_array("A", vec![AffineExpr::var(n)]);
    let b = p.add_array("B", vec![AffineExpr::var(n) + AffineExpr::constant(1)]);
    // DO I = 0, N: B[I] = A[I]. B has N+1 elements, A only N, so the
    // last iteration's load is the first (and only) faulting access.
    p.body.push(Stmt::For(Loop {
        var: i,
        lo: 0.into(),
        hi: AffineExpr::var(n).into(),
        step: 1,
        body: vec![Stmt::Store {
            target: ArrayRef::new(b, vec![AffineExpr::var(i)]),
            value: ScalarExpr::Load(ArrayRef::new(a, vec![AffineExpr::var(i)])),
        }],
    }));
    let machine = MachineDesc::sgi_r10000().scaled(32);
    let run = |backend: ExecBackend| {
        let engine = Engine::with_config(machine.clone(), EngineConfig::new().backend(backend))
            .expect("engine");
        engine.eval(EvalJob::new(p.clone(), Params::new().with(n, 7)).with_label("oob"))
    };
    let compiled = run(ExecBackend::Compiled);
    let reference = run(ExecBackend::Reference);
    assert_eq!(compiled, reference, "backends disagree on the error");
    let Err(ExecError::OutOfBounds {
        array,
        indices,
        extents,
    }) = compiled
    else {
        panic!("expected OutOfBounds, got {compiled:?}");
    };
    assert_eq!(array, "A");
    assert_eq!(indices, vec![7]);
    assert_eq!(extents, vec![7]);
}
