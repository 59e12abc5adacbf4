//! Cross-crate integration tests: every headline theorem of the paper,
//! checked end-to-end through the simulation engine, the adversaries and
//! the optimal baselines.

use fjs::adversary::{
    fig2_batch_tightness, fig3_batch_plus_tightness, phi, uniform_aligned_tightness,
    uniform_endfit_tightness, uniform_greedy_tightness, CvAdversary, NcAdversary,
    NcAdversaryParams, UnitTrapAdversary,
};
use fjs::core::sim::run;
use fjs::prelude::*;
use fjs::schedulers::{cdb_bound, optimal_alpha, profit_bound, OPTIMAL_K};

/// Theorem 3.4 (upper side): Batch's span never exceeds `(2μ+1)·OPT` on
/// random small instances with exact OPT.
#[test]
fn theorem_3_4_upper_bound_holds_exactly() {
    for seed in 0..200u64 {
        let inst = random_small(seed);
        let opt = fjs::opt::optimal_span_dp(&inst).unwrap();
        let out = SchedulerKind::Batch.run_on(&inst);
        let mu = inst.mu().unwrap();
        assert!(
            out.span.get() <= (2.0 * mu + 1.0) * opt.get() + 1e-9,
            "seed {seed}: Batch {} vs (2μ+1)·OPT {}",
            out.span,
            (2.0 * mu + 1.0) * opt.get()
        );
    }
}

/// Theorem 3.4 (lower side): the Figure 2 family drives Batch's ratio
/// arbitrarily close to 2μ.
#[test]
fn theorem_3_4_lower_bound_approached() {
    let mu = 4.0;
    let tight = fig2_batch_tightness(512, mu, 1e-3);
    let out = run_static(
        &tight.instance,
        Clairvoyance::NonClairvoyant,
        fjs::schedulers::Batch::new(),
    );
    let ratio = out.span.ratio(tight.prescribed_span);
    assert!(
        ratio > 2.0 * mu * 0.97,
        "ratio {ratio} should be within 3% of 2μ = {}",
        2.0 * mu
    );
}

/// Theorem 3.5 (tightness, both sides): Batch+ stays within `(μ+1)·OPT`
/// everywhere and reaches it on the Figure 3 family.
#[test]
fn theorem_3_5_tightness() {
    // Upper bound against exact OPT.
    for seed in 0..200u64 {
        let inst = random_small(seed);
        let opt = fjs::opt::optimal_span_dp(&inst).unwrap();
        let out = SchedulerKind::BatchPlus.run_on(&inst);
        let mu = inst.mu().unwrap();
        assert!(
            out.span.get() <= (mu + 1.0) * opt.get() + 1e-9,
            "seed {seed}: Batch+ exceeded (μ+1)·OPT"
        );
    }
    // Lower bound on the tightness family.
    let mu = 4.0;
    let tight = fig3_batch_plus_tightness(512, mu, 1e-3);
    let out = run_static(
        &tight.instance,
        Clairvoyance::NonClairvoyant,
        fjs::schedulers::BatchPlus::new(),
    );
    let ratio = out.span.ratio(tight.prescribed_span);
    assert!(
        ratio > (mu + 1.0) * 0.97,
        "ratio {ratio} vs μ+1 = {}",
        mu + 1.0
    );
    assert!(ratio <= mu + 1.0 + 1e-9);
}

/// Theorem 3.3: the adaptive adversary forces Batch/Batch+/Eager towards
/// `(kμ+1)/(μ+k)`, which → μ in k.
#[test]
fn theorem_3_3_adversary_forces_mu() {
    let mu = 8.0;
    for kind in [
        SchedulerKind::Batch,
        SchedulerKind::BatchPlus,
        SchedulerKind::Eager,
    ] {
        let mut adv = NcAdversary::new(NcAdversaryParams::uniform(mu, 32, 64));
        let out = run(&mut adv, kind.build());
        assert!(out.is_feasible());
        let prescribed = adv.prescribed_schedule(&out.instance).expect("Lemma 3.2");
        let ratio = out.span.ratio(prescribed.span(&out.instance));
        let target = (32.0 * mu + 1.0) / (mu + 32.0);
        assert!(
            ratio >= target * 0.99,
            "{}: ratio {ratio} below (kμ+1)/(μ+k) = {target}",
            kind.label()
        );
    }
}

/// Theorem 4.1: the φ-adversary certifies a ratio ≥ φ(1 − O(1/n)) against
/// every scheduler in the registry.
#[test]
fn theorem_4_1_phi_adversary_beats_everyone() {
    for kind in SchedulerKind::full_set() {
        let mut adv = CvAdversary::new(150);
        let out = run(&mut adv, kind.build());
        assert!(out.is_feasible(), "{}", kind.label());
        let prescribed = adv.prescribed_schedule(&out.instance);
        let ratio = out.span.ratio(prescribed.span(&out.instance));
        assert!(
            ratio >= phi() * 0.99,
            "{}: ratio {ratio} below 0.99·φ",
            kind.label()
        );
    }
}

/// Theorem 4.4: CDB within its proved constant against exact OPT.
#[test]
fn theorem_4_4_cdb_bound_holds() {
    let bound = cdb_bound(optimal_alpha());
    for seed in 0..200u64 {
        let inst = random_small(seed);
        let opt = fjs::opt::optimal_span_dp(&inst).unwrap();
        let out = SchedulerKind::cdb_optimal().run_on(&inst);
        assert!(
            out.span.get() <= bound * opt.get() + 1e-9,
            "seed {seed}: CDB ratio {} exceeds {bound}",
            out.span.get() / opt.get()
        );
    }
}

/// Theorem 4.11: Profit within its proved constant against exact OPT, for
/// several values of k.
#[test]
fn theorem_4_11_profit_bound_holds() {
    for k in [1.2, OPTIMAL_K, 2.5] {
        let bound = profit_bound(k);
        for seed in 0..120u64 {
            let inst = random_small(seed);
            let opt = fjs::opt::optimal_span_dp(&inst).unwrap();
            let out = SchedulerKind::Profit { k }.run_on(&inst);
            assert!(
                out.span.get() <= bound * opt.get() + 1e-9,
                "seed {seed}, k {k}: Profit ratio {} exceeds {bound}",
                out.span.get() / opt.get()
            );
        }
    }
}

/// Uniform-jobs upper bounds against exact OPT: every scheduler in the
/// uniform family stays within its instance-dependent claimed ratio —
/// UnitAligned within `2·OPT`, UnitGreedy and UnitEndfit within
/// `(1+λ)·OPT` — over the full seeded unit-length grid.
#[test]
fn uniform_family_bounds_hold_against_exact_optimum() {
    for seed in 0..200u64 {
        let inst = random_uniform(seed);
        let opt = fjs::opt::optimal_span_dp(&inst).unwrap();
        for kind in SchedulerKind::uniform_set() {
            let bound = kind
                .ratio_bound_on(&inst)
                .expect("uniform family always carries a bound on uniform instances");
            let out = kind.run_on(&inst);
            assert!(
                out.span.get() <= bound * opt.get() + 1e-9,
                "seed {seed}: {} span {} exceeds {bound}·OPT = {}",
                kind.label(),
                out.span,
                bound * opt.get()
            );
        }
    }
}

/// At μ = 1 the general Batch+ theorem degenerates to `(μ+1) = 2`: the
/// mixed-length scheduler matches the uniform family's bound on
/// unit-length instances (no uniform-specific code path needed).
#[test]
fn mu_one_degenerates_batch_plus_to_ratio_two() {
    for seed in 0..200u64 {
        let inst = random_uniform(seed);
        assert_eq!(inst.mu(), Some(1.0));
        assert_eq!(SchedulerKind::BatchPlus.ratio_bound_on(&inst), Some(2.0));
        let opt = fjs::opt::optimal_span_dp(&inst).unwrap();
        let out = SchedulerKind::BatchPlus.run_on(&inst);
        assert!(
            out.span.get() <= 2.0 * opt.get() + 1e-9,
            "seed {seed}: Batch+ exceeded 2·OPT at μ=1"
        );
    }
}

/// Uniform tightness, all three constructions: the aligned family drives
/// UnitAligned arbitrarily close to 2 (never over), and the two one-sided
/// families realize `1+λ` *exactly* against their victims.
#[test]
fn uniform_tightness_families_realize_their_bounds() {
    let t = uniform_aligned_tightness(256, 1e-3);
    let out = run_static(
        &t.instance,
        Clairvoyance::NonClairvoyant,
        SchedulerKind::UnitAligned.build(),
    );
    let ratio = out.span.ratio(t.prescribed_span);
    assert!(ratio > 2.0 * 0.97, "aligned ratio {ratio} within 3% of 2");
    assert!(ratio <= 2.0 + 1e-9);

    let g = 7usize;
    let t = uniform_greedy_tightness(8, g);
    let out = run_static(
        &t.instance,
        Clairvoyance::NonClairvoyant,
        SchedulerKind::UnitGreedy.build(),
    );
    assert_eq!(out.span.ratio(t.prescribed_span), g as f64);

    let n = 9usize;
    let t = uniform_endfit_tightness(n);
    let out = run_static(
        &t.instance,
        Clairvoyance::NonClairvoyant,
        SchedulerKind::UnitEndfit.build(),
    );
    assert_eq!(out.span.ratio(t.prescribed_span), n as f64);
}

/// The adaptive unit trap forces exactly 2 against arrival-greedy play —
/// the uniform-jobs deterministic lower bound — and its certificate is
/// honest: the realized ratio equals its outcome-dependent claim.
#[test]
fn unit_trap_forces_two_on_arrival_greedy_play() {
    for kind in [SchedulerKind::Eager, SchedulerKind::UnitGreedy] {
        let mut adv = UnitTrapAdversary::new(16, 1.0);
        let out = run(&mut adv, kind.build());
        assert!(out.is_feasible(), "{}", kind.label());
        let prescribed = adv.prescribed_schedule(&out.instance);
        let ratio = out.span.ratio(prescribed.span(&out.instance));
        assert_eq!(adv.trapped(), 16, "{} escaped a round", kind.label());
        assert_eq!(ratio, 2.0, "{}", kind.label());
        assert_eq!(ratio, adv.claimed_forced_ratio());
    }
}

/// Deterministic small integer instance family (exactly solvable).
fn random_small(seed: u64) -> Instance {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || fjs_prng::splitmix64(&mut state);
    let n = 2 + (next() % 4) as usize;
    let jobs: Vec<Job> = (0..n)
        .map(|_| {
            let a = (next() % 7) as f64;
            let lax = (next() % 5) as f64;
            let p = 1.0 + (next() % 4) as f64;
            Job::adp(a, a + lax, p)
        })
        .collect();
    Instance::new(jobs)
}

/// Deterministic small *unit-length* instance family (μ = 1, exactly
/// solvable): the `random_small` grid with every length pinned to 1.
fn random_uniform(seed: u64) -> Instance {
    let mut state = seed.wrapping_add(0xA076_1D64_78BD_642F);
    let mut next = move || fjs_prng::splitmix64(&mut state);
    let n = 2 + (next() % 4) as usize;
    let jobs: Vec<Job> = (0..n)
        .map(|_| {
            let a = (next() % 7) as f64;
            let lax = (next() % 5) as f64;
            Job::adp(a, a + lax, 1.0)
        })
        .collect();
    Instance::new(jobs)
}
