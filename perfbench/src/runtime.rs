//! `runtime-escalate`: the sharded runtime on the Figure-14 delivery
//! workload at d=7 and p=2e-2 — high enough that lookup decoding fails
//! and rounds escalate to the master's global decoder over the bus.
//! Every shard steps a CHP tableau, so tableau stepping dominates.

use crate::measure::{self, closed_loop, per_call_s, time_setup};
use crate::report::Report;
use quest_core::{DeliveryMode, Mce, RunReport, Traffic, MCE_IBUF_BYTES};
use quest_estimate::{kernels::workload_with_kernel, Workload};
use quest_runtime::{run_reference, Runtime, RuntimeReport, WorkloadSpec};
use quest_stabilizer::frame::block_seed;
use quest_stabilizer::{Rng, SeedableRng, StdRng, Tableau};
use quest_surface::{
    DecodingGraph, LutDecoder, MemoryBasis, MemoryExperiment, NodeId, RotatedLattice, StabKind,
};
use std::time::Duration;

const DISTANCE: usize = 7;
const TILES: usize = 4;
const SHARDS: usize = 2;
const ERROR_RATE: f64 = 2e-2;
const CYCLES: u64 = 300;
/// Distillation-kernel replays per tile (as in the Figure-14 bench).
const REPLAYS: u64 = 50;
/// Algorithmic instructions of the QLS program.
const PROGRAM_LEN: usize = 200;
/// Distinct seeds the loop cycles through; deterministic counts are
/// summed over one run of each.
const SPECS: usize = 4;

/// Per-[`Traffic`] metric names, in `Traffic::ALL` order.
const BUS_METRICS: [&str; 8] = [
    "core.bus.bytes.qecc_instructions",
    "core.bus.bytes.physical_logical",
    "core.bus.bytes.logical_instructions",
    "core.bus.bytes.distillation",
    "core.bus.bytes.syndrome",
    "core.bus.bytes.sync",
    "core.bus.bytes.cache_fill",
    "core.bus.bytes.retransmit",
];

fn build_specs(seed: u64, cycles: u64) -> Vec<WorkloadSpec> {
    let program = workload_with_kernel(&Workload::QLS, PROGRAM_LEN);
    (0..SPECS)
        .map(|k| {
            WorkloadSpec::delivery_memory(
                DISTANCE,
                TILES,
                SHARDS,
                ERROR_RATE,
                block_seed(seed, k as u64),
                cycles,
                &program,
                REPLAYS,
                DeliveryMode::QuestMce,
            )
        })
        .collect()
}

/// Tile-cycles a run simulated.
fn tile_cycles(report: &RunReport, tiles: usize) -> u64 {
    report.qecc_cycles * tiles as u64
}

/// Deterministic bus and interconnect counts summed over runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct BusTally {
    /// Bytes per [`Traffic`] class, in `Traffic::ALL` order.
    bytes: [u64; 8],
    packets: u64,
    wire_bytes: u64,
    tile_cycles: u64,
}

impl BusTally {
    fn add(&mut self, run: &RuntimeReport, tiles: usize) {
        for (b, class) in self.bytes.iter_mut().zip(Traffic::ALL) {
            *b += run.bus_bytes_of(class);
        }
        self.packets += run.stats.packets_sent;
        self.wire_bytes += run.stats.wire_bytes;
        self.tile_cycles += tile_cycles(run, tiles);
    }

    /// Records the per-class bytes, the interconnect counts and the
    /// bytes per tile-cycle (the paper's quantity).
    fn record(&self, report: &mut Report) {
        for (bytes, name) in self.bytes.iter().zip(BUS_METRICS) {
            report.set(name, *bytes as f64);
        }
        let total: u64 = self.bytes.iter().sum();
        report.set(
            "bus_bytes_per_tile_cycle",
            total as f64 / self.tile_cycles.max(1) as f64,
        );
        report.set("core.network.packets", self.packets as f64);
        report.set("core.network.wire_bytes", self.wire_bytes as f64);
    }
}

/// `runtime-escalate`.
pub fn escalate(seed: u64, budget: Duration, report: &mut Report) {
    // Set-up is what a run costs besides its QECC cycles: a run of the
    // same spec with no cycles (tile construction, shard threads,
    // instruction delivery, readout).
    let runtime = Runtime::new().with_decode_workers(1);
    let specs = build_specs(seed, CYCLES);
    let run = |i: usize| runtime.run(&specs[i % SPECS]);
    run(0).expect("warm-up run");
    let zero_cycles = &build_specs(seed, 0)[0];
    let setup_run = || runtime.run(zero_cycles).expect("zero-cycle run");
    let mut setup = time_setup(false, setup_run);

    let half = if report.traced() { budget / 2 } else { budget };
    let lp = closed_loop(half, run);
    setup.extend(time_setup(false, setup_run));
    report.attempted = lp.jobs.len() as u64;
    let ok: Vec<(usize, &RuntimeReport)> = lp
        .jobs
        .iter()
        .filter_map(|(i, _, r)| r.as_ref().ok().map(|r| (*i, r)))
        .collect();
    report.failed = report.attempted - ok.len() as u64;
    let shots: u64 = ok.iter().map(|(_, r)| r.outcomes.len() as u64).sum();
    let cycles: u64 = ok.iter().map(|(_, r)| tile_cycles(r, TILES)).sum();
    measure::end_to_end(report, &setup, shots, cycles, &lp);

    // Outside the timed loop: every repeat of a seed equals its first
    // run, and the first seed equals the single-threaded reference.
    let firsts: Vec<&RuntimeReport> = (0..SPECS)
        .filter_map(|k| ok.iter().find(|(i, _)| i % SPECS == k).map(|(_, r)| *r))
        .collect();
    let complete = report.failed == 0 && firsts.len() == SPECS;
    report.check(format!("all {} runs completed", lp.jobs.len()), complete);
    let repeat_ok = complete
        && ok.iter().all(|(i, r)| {
            let first = firsts[i % SPECS];
            r.report == first.report
                && (r.stats.packets_sent, r.stats.wire_bytes)
                    == (first.stats.packets_sent, first.stats.wire_bytes)
        });
    report.check(
        "same-seed runs agree on every RunReport and network count",
        repeat_ok,
    );
    let reference = run_reference(&specs[0]);
    report.check(
        "2-shard RunReport equals run_reference",
        reference.as_ref().ok() == firsts.first().map(|r| &r.report),
    );

    if !report.traced() {
        return;
    }
    let traced = closed_loop(half, run);
    measure::overhead(report, lp.p50(), traced.p50());
    let runs: Vec<&RuntimeReport> = traced
        .jobs
        .iter()
        .filter_map(|(_, _, r)| r.as_ref().ok())
        .collect();
    // Phases are wall-clock inside the runtime, host steal included, so
    // their share is taken of the runs' wall time, steal included.
    let wall = traced.busy_s() + traced.stolen_s;
    let phase = |f: fn(&RuntimeReport) -> Duration| -> f64 {
        runs.iter().map(|r| f(r).as_secs_f64()).sum()
    };
    let cycles_s = phase(|r| r.stats.phases.cycles);
    report.set("runtime.wall_s", wall);
    report.set("runtime.phase.cycles_s", cycles_s);
    report.set("runtime.phase.decode_s", phase(|r| r.stats.phases.decode));
    report.set("runtime.phase.logical_s", phase(|r| r.stats.phases.logical));
    report.set("runtime.phase.readout_s", phase(|r| r.stats.phases.readout));
    report.set(
        "runtime.phase.cycles_share_pct",
        measure::pct(cycles_s, wall),
    );
    let batches: u64 = runs.iter().map(|r| r.stats.decode.batches).sum();
    let jobs: u64 = runs.iter().map(|r| r.stats.decode.jobs).sum();
    report.set("runtime.pool.batches", batches as f64);
    report.set("runtime.pool.jobs", jobs as f64);
    report.set(
        "runtime.pool.mean_batch_jobs",
        jobs as f64 / batches.max(1) as f64,
    );
    let depth = |f: fn(&quest_runtime::ShardStats) -> usize| -> f64 {
        runs.iter()
            .flat_map(|r| r.stats.shards.iter().map(f))
            .max()
            .unwrap_or(0) as f64
    };
    report.set(
        "runtime.channel.max_upstream_depth",
        depth(|s| s.max_upstream_depth),
    );
    report.set(
        "runtime.channel.max_downstream_depth",
        depth(|s| s.max_downstream_depth),
    );

    // Deterministic counts over one run of each seed.
    let cycles: u64 = firsts.iter().map(|r| tile_cycles(r, TILES)).sum();
    let escalations: u64 = firsts.iter().map(|r| r.escalations).sum();
    report.set("runtime.tile_cycles", cycles as f64);
    report.set("runtime.escalations", escalations as f64);
    report.set(
        "runtime.escalations_per_tile_cycle",
        escalations as f64 / cycles as f64,
    );
    let sum = |f: fn(&RunReport) -> u64| -> f64 {
        firsts.iter().map(|r| f(&r.report)).sum::<u64>() as f64
    };
    report.set(
        "runtime.master.global_decodes",
        sum(|r| r.master.global_decodes),
    );
    report.set("runtime.decode_cost.cycles", sum(|r| r.decode_cost.cycles));
    report.set(
        "runtime.decode_cost.max_decode_cycles",
        firsts
            .iter()
            .map(|r| r.decode_cost.max_decode_cycles)
            .max()
            .unwrap_or(0) as f64,
    );
    let mut bus = BusTally::default();
    for run in &firsts {
        bus.add(run, TILES);
    }
    bus.record(report);
    cycle_micro(report, seed);
    lut_micro(report, seed);
}

/// One d=7 syndrome round on the bare tableau, and one MCE QECC cycle,
/// each at one tile's width and at a shard's (two tiles) width.
fn cycle_micro(report: &mut Report, seed: u64) {
    let lattice = RotatedLattice::new(DISTANCE);
    let n = lattice.num_qubits();
    let exp = MemoryExperiment::new(DISTANCE, 1, MemoryBasis::Z);
    let mut rng = StdRng::seed_from_u64(seed);
    for (width, round_name, mce_name) in [
        (
            1,
            "stabilizer.tableau.round_us.tile",
            "core.mce.qecc_cycle_us.tile",
        ),
        (
            TILES / SHARDS,
            "stabilizer.tableau.round_us.shard",
            "core.mce.qecc_cycle_us.shard",
        ),
    ] {
        let mut t = Tableau::new(n * width);
        let s = per_call_s(10, || {
            std::hint::black_box(exp.syndrome_circuit().run_round(&mut t, &mut rng));
        });
        report.set(round_name, s * 1e6);
        // The timed MCE drives the shard's last tile, as a shard worker does.
        let mut t = Tableau::new(n * width);
        let mut mce = Mce::with_offset(&lattice, MCE_IBUF_BYTES, n * (width - 1));
        let s = per_call_s(10, || mce.run_qecc_cycle(&mut t, &mut rng));
        report.set(mce_name, s * 1e6);
    }
}

/// `LutDecoder::try_decode` on one-round d=7 syndromes of one to three
/// random faults — the mix of accepted and escalated patterns an MCE's
/// lookup decoder sees.
fn lut_micro(report: &mut Report, seed: u64) {
    let graph = DecodingGraph::new(&RotatedLattice::new(DISTANCE), StabKind::Z, 1);
    let lut = LutDecoder::new(&graph);
    let mut rng = StdRng::seed_from_u64(block_seed(seed, SPECS as u64));
    let boundary = graph.boundary();
    let inputs: Vec<Vec<NodeId>> = (0..1024)
        .map(|_| {
            let mut flips = vec![false; graph.num_nodes()];
            for _ in 0..rng.gen_range(1..=3) {
                let edge = &graph.edges()[rng.gen_range(0..graph.edges().len())];
                for node in [edge.a, edge.b] {
                    flips[node] ^= true;
                }
            }
            (0..graph.num_nodes())
                .filter(|&n| flips[n] && n != boundary)
                .collect()
        })
        .collect();
    let s = per_call_s(5, || {
        for events in &inputs {
            std::hint::black_box(lut.try_decode(events));
        }
    });
    report.set("surface.lut.try_decode_ns", s * 1e9 / inputs.len() as f64);
}
