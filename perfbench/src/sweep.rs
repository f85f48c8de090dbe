//! The two sampler workloads.
//!
//! `sweep-sparse` drives `FrameSampler::run_batch_configured` directly
//! at p = 1e-4 phenomenological noise, where a shot carries well under
//! one detection event: the frame engine and event extraction do the
//! work. `sweep-dense` drives `ThresholdSweep::run_batch_configured` at
//! code-capacity p = 3e-2 and 5e-2, where every shot carries dozens of
//! events: union-find decoding does the work.

use crate::measure::{self, closed_loop, per_call_s, time_setup, Loop};
use crate::report::{median, wilson, Report};
use crate::timed::{Captured, TimedDecoder};
use quest_stabilizer::frame::{block_seed, FrameSimulator, FrameWord, W512};
use quest_surface::decoder::UfTrace;
use quest_surface::{
    BatchOutcome, Decoder, DecodingGraph, FrameSampler, MemoryBasis, MemoryExperiment, MemoryNoise,
    SamplerConfig, SweepConfig, ThresholdPoint, ThresholdSweep, UfScratch, UnionFindDecoder,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// `sweep-sparse` grid: `(distance, shots per job)`. The shot counts
/// give both points about the same host time (~0.2 s, long next to the
/// sub-second speed swings of a shared host), so neither of the two
/// threads idles long at the end of a job.
const SPARSE_POINTS: [(usize, usize); 2] = [(7, 524_288), (11, 131_072)];
const SPARSE_P: f64 = 1e-4;

/// `sweep-dense` grid, largest points first: the sweep's workers claim
/// points in grid order, so this order leaves neither worker a long tail.
const DENSE_DISTANCES: [usize; 2] = [11, 7];
const DENSE_P: [f64; 2] = [5e-2, 3e-2];
const DENSE_SHOTS: usize = 4096;
const DENSE_WORKERS: usize = 2;

/// Shots of a sweep's largest grid point replayed through
/// `decode_traced`; the other points are sampled at the same stride.
const UF_SAMPLE: usize = 4096;

fn sampler(d: usize) -> FrameSampler {
    FrameSampler::new(&MemoryExperiment::new(d, d, MemoryBasis::Z))
}

/// Failure tally of one grid point.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    shots: u64,
    failures: u64,
}

/// Prints each point's failure rate with its Wilson interval and checks
/// that d=11 beats d=7 at every p where the intervals separate.
fn check_suppression(report: &mut Report, tallies: &BTreeMap<(u64, usize), Tally>) {
    for (&(p_bits, d), t) in tallies {
        let (lo, hi) = wilson(t.failures, t.shots);
        println!(
            "point d={d} p={}: {}/{} failed, Wilson 95% [{lo:.3e}, {hi:.3e}]",
            f64::from_bits(p_bits),
            t.failures,
            t.shots
        );
    }
    for (&(p_bits, d), small) in tallies {
        let Some(large) = tallies.get(&(p_bits, 11)).filter(|_| d == 7) else {
            continue;
        };
        let (s_lo, s_hi) = wilson(small.failures, small.shots);
        let (l_lo, l_hi) = wilson(large.failures, large.shots);
        let separated = l_hi < s_lo || s_hi < l_lo;
        report.check(
            format!(
                "d=11 beats d=7 at p={} wherever the Wilson intervals separate",
                f64::from_bits(p_bits)
            ),
            !separated || l_hi < s_lo,
        );
    }
}

/// Replays captured event sets through `decode_traced` three times;
/// checks the work counts repeat and reports per-shot counts and time.
fn uf_replay(report: &mut Report, graphs: &[DecodingGraph], captured: &Captured) {
    let uf = UnionFindDecoder::new();
    let mut passes: Vec<(UfTrace, u64, f64)> = Vec::new();
    for _ in 0..3 {
        let mut trace = UfTrace::default();
        let mut shots = 0u64;
        let mut secs = 0.0;
        for graph in graphs {
            let Some(sets) = captured.get(&graph.num_nodes()) else {
                continue;
            };
            let mut scratch = UfScratch::new();
            let t = Instant::now();
            for events in sets {
                std::hint::black_box(uf.decode_traced(graph, events, &mut scratch, &mut trace));
                shots += 1;
            }
            secs += t.elapsed().as_secs_f64();
        }
        passes.push((trace, shots, secs));
    }
    let (trace, shots, _) = passes[0];
    report.check(
        "decode_traced work counts repeat exactly",
        passes.iter().all(|(t, s, _)| (*t, *s) == (trace, shots)),
    );
    let n = shots.max(1) as f64;
    let secs: Vec<f64> = passes.iter().map(|(_, _, s)| *s).collect();
    report.set("surface.uf.shots", shots as f64);
    report.set(
        "surface.uf.decode_ns_per_shot",
        crate::report::median(&secs) * 1e9 / n,
    );
    report.set("surface.uf.growth_rounds", trace.growth_rounds as f64 / n);
    report.set("surface.uf.member_visits", trace.member_visits as f64 / n);
    report.set("surface.uf.edge_touches", trace.edge_touches as f64 / n);
    report.set("surface.uf.merges", trace.merges as f64 / n);
}

/// Decoder-side per-layer metrics of a traced loop whose sampler calls
/// took `run_s` thread-seconds.
fn decode_split(report: &mut Report, run_s: f64, timed: &TimedDecoder) {
    let t = timed.totals();
    let decode_s = t.nanos as f64 * 1e-9;
    report.set("surface.sampler.run_s", run_s);
    report.set("surface.decoder.decode_s", decode_s);
    report.set("surface.decoder.calls", t.calls as f64);
    if t.events > 0 {
        report.set(
            "surface.decoder.ns_per_event",
            t.nanos as f64 / t.events as f64,
        );
    }
    report.set(
        "surface.decoder.run_share_pct",
        measure::pct(decode_s, run_s),
    );
    report.set("stabilizer.frame.self_s", run_s - decode_s);
    report.set(
        "stabilizer.frame.run_share_pct",
        measure::pct(run_s - decode_s, run_s),
    );
}

/// Deterministic sampler counts of one fixed batch.
fn sampler_counts(report: &mut Report, shots: u64, events: u64, flips: u64, failures: u64) {
    let n = shots as f64;
    report.set("surface.sampler.shots", n);
    report.set("surface.sampler.events_per_shot", events as f64 / n);
    report.set(
        "surface.sampler.correction_weight_per_shot",
        flips as f64 / n,
    );
    report.set("surface.sampler.failures", failures as f64);
}

/// Nanoseconds per gate per 64-shot word of the d=7 syndrome round on a
/// `W`-wide frame simulator.
fn gate_ns_per_word<W: FrameWord>() -> f64 {
    let exp = MemoryExperiment::new(7, 1, MemoryBasis::Z);
    let gates: Vec<_> = exp
        .syndrome_circuit()
        .round_circuit()
        .iter()
        .copied()
        .collect();
    let shots = 8192;
    let mut sim: FrameSimulator<W> = FrameSimulator::new(exp.lattice().num_qubits(), shots);
    let mut meas = Vec::new();
    let s = per_call_s(20, || {
        meas.clear();
        for &g in &gates {
            sim.apply_gate(g, &mut meas);
        }
        std::hint::black_box(&meas);
    });
    s * 1e9 / (gates.len() * shots / 64) as f64
}

type SparseJob = [BatchOutcome; 2];

/// One sweep of both grid points, each on its own thread; the slower
/// point sets the job's latency, as in `ThresholdSweep`.
fn sparse_job<D: Decoder + Sync>(
    samplers: &[FrameSampler],
    decoder: &D,
    seed: u64,
    i: usize,
    busy_ns: &[AtomicU64; 2],
) -> SparseJob {
    let noise = MemoryNoise::phenomenological(SPARSE_P);
    let cfg = SamplerConfig::default();
    let mut out = [BatchOutcome {
        shots: 0,
        failures: 0,
        detection_events: 0,
        correction_weight: 0,
    }; 2];
    std::thread::scope(|scope| {
        for (k, slot) in out.iter_mut().enumerate() {
            let (noise, cfg) = (&noise, &cfg);
            scope.spawn(move || {
                let t = Instant::now();
                *slot = samplers[k].run_batch_configured(
                    noise,
                    decoder,
                    SPARSE_POINTS[k].1,
                    block_seed(seed, (2 * i + k) as u64),
                    cfg,
                );
                let nanos = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                busy_ns[k].fetch_add(nanos, Ordering::Relaxed);
            });
        }
    });
    out
}

/// Runs sparse jobs for `budget`; also returns each point's busy
/// seconds.
fn sparse_loop<D: Decoder + Sync>(
    samplers: &[FrameSampler],
    decoder: &D,
    seed: u64,
    budget: Duration,
) -> (Loop<SparseJob>, [f64; 2]) {
    let busy_ns = [AtomicU64::new(0), AtomicU64::new(0)];
    let lp = closed_loop(budget, |i| sparse_job(samplers, decoder, seed, i, &busy_ns));
    (lp, busy_ns.map(|b| b.into_inner() as f64 * 1e-9))
}

/// `sweep-sparse`.
pub fn sparse(seed: u64, budget: Duration, report: &mut Report) {
    let build =
        || -> Vec<FrameSampler> { SPARSE_POINTS.iter().map(|&(d, _)| sampler(d)).collect() };
    let samplers = build();
    let uf = UnionFindDecoder::new();
    // Warm-up (one untimed job) before any timing, set-up included.
    sparse_job(&samplers, &uf, seed, 0, &Default::default());
    let mut setup = time_setup(true, build);

    let half = if report.traced() { budget / 2 } else { budget };
    let (lp, busy) = sparse_loop(&samplers, &uf, seed, half);
    setup.extend(time_setup(true, build));
    println!(
        "point busy seconds: d=7 {:.3}, d=11 {:.3} (wall {:.3})",
        busy[0], busy[1], lp.wall_s
    );
    let mut tallies: BTreeMap<(u64, usize), Tally> = BTreeMap::new();
    let (mut shots, mut tile_cycles) = (0u64, 0u64);
    for (_, _, out) in &lp.jobs {
        for (&(d, _), o) in SPARSE_POINTS.iter().zip(out) {
            let t = tallies.entry((SPARSE_P.to_bits(), d)).or_default();
            t.shots += o.shots as u64;
            t.failures += o.failures as u64;
            shots += o.shots as u64;
            tile_cycles += (o.shots * d) as u64;
        }
    }
    report.attempted = shots;
    measure::end_to_end(report, &setup, shots, tile_cycles, &lp);
    check_suppression(report, &tallies);

    // Same seed, same inputs: job 0 again, twice, through the capturing
    // wrapper — outcomes and counts must repeat exactly.
    let reruns: Vec<(SparseJob, TimedDecoder)> = (0..2)
        .map(|_| {
            let timed = TimedDecoder::capturing(SPARSE_POINTS[0].1 / UF_SAMPLE);
            let out = sparse_job(&samplers, &timed, seed, 0, &Default::default());
            (out, timed)
        })
        .collect();
    let first = &lp.jobs[0].2;
    report.check(
        "sweep-sparse job 0 repeats bit-identically under the same seed",
        reruns.iter().all(|(out, _)| out == first),
    );
    report.check(
        "decoder wrapper totals repeat exactly",
        reruns[0].1.totals().events == reruns[1].1.totals().events
            && reruns[0].1.totals().flips == reruns[1].1.totals().flips,
    );

    if !report.traced() {
        return;
    }
    let timed = TimedDecoder::new();
    let (traced, busy) = sparse_loop(&samplers, &timed, seed, half);
    let run_s = busy[0] + busy[1];
    measure::overhead(report, lp.p50(), traced.p50());
    let compile_s = median(&setup);
    report.set("surface.sampler.compile_s", compile_s);
    decode_split(report, run_s, &timed);
    sampler_counts(
        report,
        first.iter().map(|o| o.shots as u64).sum(),
        first.iter().map(|o| o.detection_events as u64).sum(),
        first.iter().map(|o| o.correction_weight as u64).sum(),
        first.iter().map(|o| o.failures as u64).sum(),
    );
    let graphs: Vec<DecodingGraph> = samplers.iter().map(|s| s.graph().clone()).collect();
    uf_replay(report, &graphs, &reruns[0].1.take_captured());
    report.set(
        "stabilizer.frame.gate_ns_per_word.X1",
        gate_ns_per_word::<u64>(),
    );
    report.set(
        "stabilizer.frame.gate_ns_per_word.X8",
        gate_ns_per_word::<W512>(),
    );
}

fn dense_job<D: Decoder + Sync>(
    decoder: &D,
    seed: u64,
    i: usize,
    workers: usize,
) -> ThresholdSweep {
    let cfg = SweepConfig {
        workers,
        early_exit: None,
        ..SweepConfig::default()
    };
    ThresholdSweep::run_batch_configured(
        &DENSE_DISTANCES,
        &DENSE_P,
        DENSE_SHOTS,
        decoder,
        block_seed(seed, i as u64),
        &cfg,
    )
}

/// Logical failures of one sweep point.
fn failures(pt: &ThresholdPoint) -> u64 {
    (pt.logical_rate * pt.shots as f64).round() as u64
}

/// `sweep-dense`.
pub fn dense(seed: u64, budget: Duration, report: &mut Report) {
    let uf = UnionFindDecoder::new();
    dense_job(&uf, seed, 0, DENSE_WORKERS);
    // The sweep compiles one sampler per distance on every call; set-up
    // is that compilation.
    let build = || -> Vec<FrameSampler> { DENSE_DISTANCES.iter().map(|&d| sampler(d)).collect() };
    let mut setup = time_setup(true, build);

    let half = if report.traced() { budget / 2 } else { budget };
    let lp = closed_loop(half, |i| dense_job(&uf, seed, i, DENSE_WORKERS));
    setup.extend(time_setup(true, build));
    let mut tallies: BTreeMap<(u64, usize), Tally> = BTreeMap::new();
    let (mut shots, mut tile_cycles) = (0u64, 0u64);
    for (_, _, sweep) in &lp.jobs {
        for pt in &sweep.points {
            let t = tallies.entry((pt.p.to_bits(), pt.distance)).or_default();
            t.shots += pt.shots as u64;
            t.failures += failures(pt);
            shots += pt.shots as u64;
            tile_cycles += (pt.shots * pt.distance) as u64;
        }
    }
    report.attempted = shots;
    measure::end_to_end(report, &setup, shots, tile_cycles, &lp);
    check_suppression(report, &tallies);

    // Job 0 again, twice, on one worker: the sweep must repeat exactly
    // (and be worker-invariant), and so must the decoder's totals.
    let reruns: Vec<(ThresholdSweep, TimedDecoder)> = (0..2)
        .map(|_| {
            let timed = TimedDecoder::capturing(DENSE_P.len() * DENSE_SHOTS / UF_SAMPLE);
            (dense_job(&timed, seed, 0, 1), timed)
        })
        .collect();
    let first = &lp.jobs[0].2;
    report.check(
        "sweep-dense job 0 repeats bit-identically at 1 and 2 workers",
        reruns.iter().all(|(sweep, _)| sweep == first),
    );
    let (t0, t1) = (reruns[0].1.totals(), reruns[1].1.totals());
    report.check(
        "decoder wrapper totals repeat exactly",
        (t0.events, t0.flips, t0.shots) == (t1.events, t1.flips, t1.shots),
    );

    if !report.traced() {
        return;
    }
    let timed = TimedDecoder::new();
    let traced = closed_loop(half, |i| dense_job(&timed, seed, i, DENSE_WORKERS));
    measure::overhead(report, lp.p50(), traced.p50());
    // Sampler time is the workers' thread-seconds after the sweep's own
    // sampler compilation, host steal included like the decoder's time.
    let compile_s = median(&setup);
    let in_sweeps = compile_s * traced.jobs.len() as f64;
    let run_s = (traced.busy_s() + traced.stolen_s - in_sweeps).max(0.0) * DENSE_WORKERS as f64;
    report.set("surface.sampler.compile_s", compile_s);
    decode_split(report, run_s, &timed);
    sampler_counts(
        report,
        t0.shots,
        t0.events,
        t0.flips,
        first.points.iter().map(failures).sum(),
    );
    let graphs: Vec<DecodingGraph> = DENSE_DISTANCES
        .iter()
        .map(|&d| MemoryExperiment::new(d, d, MemoryBasis::Z).decoding_graph())
        .collect();
    uf_replay(report, &graphs, &reruns[0].1.take_captured());
}
