//! Perf-smoke for the frame sampler: a small code-capacity threshold
//! sweep that must finish fast and reproduce the physics.
//!
//! Run by the CI `perf-smoke` job on every push. Two passes:
//!
//! 1. **Production sweep** with the default deterministic early exit:
//!    d ∈ {3, 5} at 5000 shots/point, d = 7 at 2000 (its lattice is ~5×
//!    the work per shot), over a rate grid bracketing the code-capacity
//!    threshold. Asserts the d3/d5 and d5/d7 crossings land inside the
//!    bracket.
//! 2. **Early-exit verdict guard** at one pinned d5/d7 point pair: the
//!    full-shot sweep and the early-exited sweep must report the same
//!    crossing verdict, and the early run must actually stop short
//!    (otherwise the guard is vacuous).
//!
//! The whole bench must finish in under 60 seconds. The sweep's points
//! and crossings are written to `BENCH_frame_sampler.json` at the repo
//! root; wall time is only printed, since one run this short carries no
//! speed claim (`perfbench` measures throughput).

use quest_bench::{header, row};
use quest_surface::{EarlyExit, SweepConfig, ThresholdSweep, UnionFindDecoder};
use std::io::Write as _;
use std::time::Instant;

const SHOTS: usize = 5000;
const SHOTS_D7: usize = 2000;
const SEED: u64 = 0xF7A3;
const WORKERS: usize = 4;
const TIME_BUDGET_SECS: f64 = 60.0;

/// Committed snapshot lives at the repo root (two levels above this
/// package), so the path is the same wherever cargo sets the CWD.
const REPORT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../BENCH_frame_sampler.json"
);

fn sweep_cfg(early_exit: Option<EarlyExit>) -> SweepConfig {
    SweepConfig {
        early_exit,
        workers: WORKERS,
    }
}

fn main() {
    header(
        "Perf-smoke: frame-sampled threshold sweep (d in {3,5,7})",
        "the frame fast path stays fast, early exit keeps the crossing verdict, \
         and both crossings stay inside the bracket",
    );
    // Bracket the code-capacity threshold (~1e-2 for this noise model):
    // each larger code must win at the low end and lose at the high end.
    let rates = [2e-3, 5e-3, 1e-2, 3e-2, 8e-2];
    let decoder = UnionFindDecoder::new();
    let exit = EarlyExit::default();
    let started = Instant::now();

    // Pass 1: production sweep with early exit.
    let cfg = sweep_cfg(Some(exit));
    let t0 = Instant::now();
    let mut sweep =
        ThresholdSweep::run_batch_configured(&[3, 5], &rates, SHOTS, &decoder, SEED, &cfg);
    let d7 = ThresholdSweep::run_batch_configured(&[7], &rates, SHOTS_D7, &decoder, SEED, &cfg);
    let sweep_secs = t0.elapsed().as_secs_f64();
    sweep.points.extend(d7.points.iter().copied());

    row(&["p", "d=3 p_L", "d=5 p_L", "d=7 p_L"]);
    for &p in &rates {
        let find = |d: usize| {
            sweep
                .series(d)
                .into_iter()
                .find(|pt| pt.p == p)
                .map_or(f64::NAN, |pt| pt.logical_rate)
        };
        row(&[
            &format!("{p:.0e}"),
            &format!("{:.4}", find(3)),
            &format!("{:.4}", find(5)),
            &format!("{:.4}", find(7)),
        ]);
    }
    println!();
    let total_shots: usize = sweep.points.iter().map(|pt| pt.shots).sum();
    println!(
        "swept {total_shots} shots in {sweep_secs:.3}s ({:.0} shots/s)",
        total_shots as f64 / sweep_secs
    );

    // Both crossings must sit strictly inside the bracket: the larger
    // code wins at the grid's low end, the smaller at its high end.
    let lo = rates[0];
    let hi = *rates.last().unwrap_or(&lo);
    let mut crossings = Vec::new();
    for (d_small, d_large) in [(3usize, 5usize), (5, 7)] {
        let crossing = sweep.crossing_below(d_small, d_large);
        println!("empirical d{d_small}/d{d_large} crossing lower bound: {crossing:?}");
        let c = crossing.unwrap_or(0.0);
        assert!(
            c >= lo && c < hi,
            "d{d_small}/d{d_large} crossing {c:?} escaped the bracket [{lo:e}, {hi:e}) \
             — physics or sampler regression"
        );
        crossings.push((d_small, d_large, c));
    }

    // Pass 2: early exit must never flip a crossing verdict. Pin one
    // d5/d7 comparison where the early exit demonstrably engages (the
    // high-rate point stops at the first milestone) and check the
    // verdict against the full-shot run.
    let pinned_rates = [5e-3, 8e-2];
    let pinned_shots = 2048;
    let full = ThresholdSweep::run_batch_configured(
        &[5, 7],
        &pinned_rates,
        pinned_shots,
        &decoder,
        SEED,
        &sweep_cfg(None),
    );
    let early = ThresholdSweep::run_batch_configured(
        &[5, 7],
        &pinned_rates,
        pinned_shots,
        &decoder,
        SEED,
        &cfg,
    );
    assert!(
        early.points.iter().any(|pt| pt.shots < pinned_shots),
        "pinned early-exit run never stopped short — guard is vacuous"
    );
    assert_eq!(
        full.crossing_below(5, 7),
        early.crossing_below(5, 7),
        "early exit changed the pinned d5/d7 crossing verdict"
    );
    println!(
        "early-exit verdict guard: d5/d7 crossing {:?} unchanged by early exit",
        full.crossing_below(5, 7)
    );

    let elapsed = started.elapsed().as_secs_f64();
    assert!(
        elapsed < TIME_BUDGET_SECS,
        "perf-smoke blew its {TIME_BUDGET_SECS}s budget: {elapsed:.2}s — frame path regressed"
    );

    write_report(&sweep, &crossings, &exit);
}

/// Emits the sweep as a small JSON report for CI trend tracking. Written
/// by hand (no serde in the workspace). Schema 3 holds only deterministic
/// fields — seed, early-exit knobs, crossings and points — so the file
/// changes only when a result does.
fn write_report(sweep: &ThresholdSweep, crossings: &[(usize, usize, f64)], exit: &EarlyExit) {
    let mut json = String::from("{\n");
    json.push_str("  \"schema\": 3,\n");
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str(&format!(
        "  \"early_exit\": {{\"min_shots\": {}, \"check_every\": {}, \"target_failures\": {}}},\n",
        exit.min_shots, exit.check_every, exit.target_failures
    ));
    json.push_str("  \"crossings\": [\n");
    for (i, (d_small, d_large, c)) in crossings.iter().enumerate() {
        let sep = if i + 1 == crossings.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"d_small\": {d_small}, \"d_large\": {d_large}, \"lower_bound\": {c:e}}}{sep}\n"
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"points\": [\n");
    for (i, pt) in sweep.points.iter().enumerate() {
        let sep = if i + 1 == sweep.points.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"distance\": {}, \"p\": {:e}, \"logical_rate\": {:e}, \"shots\": {}}}{sep}\n",
            pt.distance, pt.p, pt.logical_rate, pt.shots
        ));
    }
    json.push_str("  ]\n}\n");
    match std::fs::File::create(REPORT_PATH).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote BENCH_frame_sampler.json"),
        Err(e) => println!("could not write BENCH_frame_sampler.json: {e}"),
    }
}
