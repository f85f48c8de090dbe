//! Decode-cost accounting and per-run engine selection.
//!
//! Everything in the workspace that decodes — the samplers, the master
//! controller's global decoder, the runtime's shared decode pool —
//! goes through the one [`Decoder`] trait. A run picks its global
//! engine with [`DecoderChoice`] (the runtime's `spec.decoder`, the
//! CLI's `--decoder` flag), which builds it as a shared
//! `Arc<dyn Decoder + Send + Sync>`.
//!
//! Engines are read-only; the cost ledger belongs to the caller. Each
//! engine prices its decodes through [`Decoder::decode_costed`] into a
//! [`CostReport`] the caller passes in: the master controller keeps one
//! ledger for its run, and each decode-pool worker starts a fresh one
//! per chunk.
//!
//! # Cost model
//!
//! Each engine prices its decodes in cycles of the 10 GHz SFQ clock and
//! a Josephson-junction footprint, using the same constants as the
//! microcode-memory model in `quest-core`'s `jj` module (duplicated here
//! because the dependency points the other way: core builds on
//! surface-code). Cycle counts are pure functions of `(graph, events)`
//! and [`CostReport::merge`] is order-invariant, so the runtime's decode
//! pool — which splits a batch across workers in nondeterministic order
//! — reports bit-identical costs to the single-threaded reference.

use super::pipelined::PipelinedUfDecoder;
use super::table::TableDecoder;
use super::union_find::{UfTrace, UnionFindDecoder};
use super::{Correction, Decoder, ExactMatchingDecoder};
use crate::graph::{DecodingGraph, Fault, NodeId};
use crate::lattice::StabKind;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// JJs per bit of decode-pipeline memory (ERSFQ non-destructive-readout
/// cell; mirrors `quest_core::jj::JJ_PER_BIT`).
pub(crate) const JJ_PER_BIT: u64 = 41;

/// Fixed JJ overhead per pipeline stage or memory channel — address
/// decoder, sense amps, sequencing (mirrors `quest_core::jj`'s per-
/// channel overhead).
pub(crate) const JJ_PER_CHANNEL: u64 = 500;

/// SFQ read latency of a memory bank, in clock cycles, as a function of
/// the bank's size in bits (mirrors
/// `quest_core::jj::read_latency_cycles`: larger banks need deeper
/// address decoding).
pub(crate) fn read_latency_cycles(bank_bits: u64) -> u64 {
    if bank_bits <= 512 {
        1
    } else if bank_bits <= 2048 {
        2
    } else {
        3
    }
}

/// Accumulated decode-cost counters, owned by whoever runs the decodes.
///
/// All fields are integers and [`CostReport::merge`] only sums and
/// maxes, so merging per-worker reports in any order yields the same
/// total — the property that lets the sharded runtime report the same
/// `decode_cost` as the single-threaded reference.
#[must_use]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostReport {
    /// Decodes performed by the engine's primary method.
    pub decodes: u64,
    /// Decodes the engine handed to its union-find fallback (graphs or
    /// event sets outside the primary method's domain), or, for the
    /// MCE-local lookup table, lookups that escalated.
    pub fallback_decodes: u64,
    /// Total modeled decode cycles at the 10 GHz SFQ clock.
    pub cycles: u64,
    /// Most expensive single decode, in cycles (the decode-latency
    /// worst case, which bounds the syndrome backlog).
    pub max_decode_cycles: u64,
    /// Modeled JJ footprint of the decode hardware. A capacity, not a
    /// rate: merging takes the max, and software engines report 0.
    pub jj_count: u64,
}

impl CostReport {
    /// Folds another report in: counters and cycles add, capacities max.
    pub fn merge(&mut self, other: &CostReport) {
        self.decodes = self.decodes.saturating_add(other.decodes);
        self.fallback_decodes = self.fallback_decodes.saturating_add(other.fallback_decodes);
        self.cycles = self.cycles.saturating_add(other.cycles);
        self.max_decode_cycles = self.max_decode_cycles.max(other.max_decode_cycles);
        self.jj_count = self.jj_count.max(other.jj_count);
    }

    /// Records one decode that cost `cycles`, attributing it to the
    /// primary method or the fallback.
    pub(crate) fn record(&mut self, cycles: u64, fallback: bool) {
        if fallback {
            self.fallback_decodes = self.fallback_decodes.saturating_add(1);
        } else {
            self.decodes = self.decodes.saturating_add(1);
        }
        self.cycles = self.cycles.saturating_add(cycles);
        self.max_decode_cycles = self.max_decode_cycles.max(cycles);
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} decodes (+{} fallback), {} cycles ({} max/decode), {} JJs",
            self.decodes, self.fallback_decodes, self.cycles, self.max_decode_cycles, self.jj_count
        )
    }
}

/// The total work counted by a [`UfTrace`], in unit-work cycles: one
/// cycle per member visit, edge touch, merge, erased-edge insertion,
/// forest visit and peeled edge. The software engines price decodes
/// with this flat model; the pipelined engine prices the same trace
/// against its staged hardware model instead.
pub(crate) fn trace_work_cycles(t: &UfTrace) -> u64 {
    t.member_visits + t.edge_touches + t.merges + t.erased_edges + t.forest_visits + t.peeled_edges
}

/// Decodes with union-find on behalf of an engine whose primary method
/// cannot take `(graph, events)`, charging the work as one fallback.
fn uf_fallback(graph: &DecodingGraph, events: &[NodeId], cost: &mut CostReport) -> Correction {
    let mut uf = CostReport::default();
    let correction = UnionFindDecoder::new().decode_costed(graph, events, &mut uf);
    cost.record(uf.cycles, true);
    correction
}

/// Largest event set the exact matcher enumerates; beyond it the
/// `exact` engine falls back to union-find (the DP is over `2^k`
/// subsets, and the underlying solver rejects `k > 20` outright).
pub const EXACT_MAX_EVENTS: usize = 16;

/// The `exact` engine: exact minimum-weight matching for event sets up
/// to [`EXACT_MAX_EVENTS`], union-find beyond. Cycles model the
/// subset-DP enumeration (`k · 2^k` for `k` events); software, so 0 JJs.
#[derive(Debug)]
struct ExactOrUf;

impl Decoder for ExactOrUf {
    fn decode(&self, graph: &DecodingGraph, events: &[NodeId]) -> Correction {
        self.decode_costed(graph, events, &mut CostReport::default())
    }

    fn decode_costed(
        &self,
        graph: &DecodingGraph,
        events: &[NodeId],
        cost: &mut CostReport,
    ) -> Correction {
        let k = events.len();
        if k > EXACT_MAX_EVENTS {
            return uf_fallback(graph, events, cost);
        }
        cost.record((k as u64) << k, false);
        ExactMatchingDecoder::new().decode(graph, events)
    }
}

/// Table shape key: `(kind, rounds, num_checks)`.
type Shape = (u8, usize, usize);

/// The `table` engine: a complete precomputed lookup memory per
/// decoding-graph shape, built lazily on first sight of a feasible graph
/// (single round, at most [`TableDecoder::MAX_CHECKS`] checks) and
/// union-find for everything else — the multi-round windows of the
/// master's escalation service, or distances whose check count overflows
/// the table (the runtime rejects those up front via `DecoderChoice`
/// validation, so in practice the fallback only sees multi-round graphs).
///
/// Cost model: a table decode is one read of a bank holding
/// `2^checks × data_qubits` bits, priced at that bank's
/// `read_latency_cycles`; the JJ footprint is the bank plus one
/// channel of overhead.
#[derive(Debug, Default)]
struct TableOrUf {
    /// Tables keyed by graph shape. Every tile of a run shares one
    /// lattice, so in practice this holds at most one table per
    /// stabilizer kind; every clone of the engine's `Arc` shares it.
    tables: Mutex<BTreeMap<Shape, Arc<TableDecoder>>>,
}

impl TableOrUf {
    /// The table for `graph`'s shape, built on first request. A lock
    /// poisoned by a panicking holder is recovered: the map only ever
    /// holds fully built tables.
    fn table(&self, graph: &DecodingGraph) -> Arc<TableDecoder> {
        let kind = match graph.kind() {
            StabKind::Z => 0u8,
            StabKind::X => 1u8,
        };
        let mut tables = self.tables.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            tables
                .entry((kind, graph.rounds(), graph.num_checks()))
                .or_insert_with(|| Arc::new(TableDecoder::build(graph))),
        )
    }
}

/// Distinct data qubits a graph's edges can fault — the per-entry width
/// of a complete correction table over that graph.
fn graph_data_qubits(graph: &DecodingGraph) -> usize {
    let mut qubits: Vec<usize> = graph
        .edges()
        .iter()
        .filter_map(|e| match e.fault {
            Fault::Data(q) => Some(q),
            Fault::Measurement { .. } => None,
        })
        .collect();
    qubits.sort_unstable();
    qubits.dedup();
    qubits.len()
}

impl Decoder for TableOrUf {
    fn decode(&self, graph: &DecodingGraph, events: &[NodeId]) -> Correction {
        self.decode_costed(graph, events, &mut CostReport::default())
    }

    fn decode_costed(
        &self,
        graph: &DecodingGraph,
        events: &[NodeId],
        cost: &mut CostReport,
    ) -> Correction {
        if graph.rounds() != 1 || graph.num_checks() > TableDecoder::MAX_CHECKS {
            return uf_fallback(graph, events, cost);
        }
        let table = self.table(graph);
        let bank_bits = table.storage_bits(graph_data_qubits(graph)) as u64;
        cost.record(read_latency_cycles(bank_bits), false);
        cost.jj_count = cost.jj_count.max(bank_bits * JJ_PER_BIT + JJ_PER_CHANNEL);
        table.decode(graph, events)
    }
}

/// Which decode engine a run's global decoders use — the validated,
/// user-facing selector threaded from `WorkloadSpec` / `--decoder` down
/// to every decoding site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum DecoderChoice {
    /// Software union-find ([`UnionFindDecoder`]) — the default.
    #[default]
    UnionFind,
    /// Exact minimum-weight matching ([`ExactMatchingDecoder`]) up to
    /// [`EXACT_MAX_EVENTS`] events, union-find beyond.
    Exact,
    /// Complete lookup tables ([`TableDecoder`]) built lazily per graph
    /// shape, union-find for multi-round graphs; only feasible up to
    /// distance 5.
    Table,
    /// Cycle-accurate pipelined hardware union-find
    /// ([`PipelinedUfDecoder`]), bit-identical corrections to
    /// [`UnionFindDecoder`].
    PipelinedUf,
}

impl DecoderChoice {
    /// Every selectable engine, in display order.
    pub const ALL: [DecoderChoice; 4] = [
        DecoderChoice::UnionFind,
        DecoderChoice::Exact,
        DecoderChoice::Table,
        DecoderChoice::PipelinedUf,
    ];

    /// The stable machine-readable name (what `--decoder` parses and the
    /// serve ledger reports).
    pub fn name(self) -> &'static str {
        match self {
            DecoderChoice::UnionFind => "union-find",
            DecoderChoice::Exact => "exact",
            DecoderChoice::Table => "table",
            DecoderChoice::PipelinedUf => "pipelined-uf",
        }
    }

    /// Parses an engine name as printed by [`DecoderChoice::name`].
    pub fn parse(s: &str) -> Option<DecoderChoice> {
        DecoderChoice::ALL.into_iter().find(|c| c.name() == s)
    }

    /// Builds a fresh engine of this kind, shareable across threads.
    pub fn decoder(self) -> Arc<dyn Decoder + Send + Sync> {
        match self {
            DecoderChoice::UnionFind => Arc::new(UnionFindDecoder::new()),
            DecoderChoice::Exact => Arc::new(ExactOrUf),
            DecoderChoice::Table => Arc::new(TableOrUf::default()),
            DecoderChoice::PipelinedUf => Arc::new(PipelinedUfDecoder::new()),
        }
    }
}

impl fmt::Display for DecoderChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::batch::{decode_batch, BatchGraphs, DecodeJob};
    use crate::decoder::correction_explains_events;
    use crate::lattice::RotatedLattice;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn random_event_sets(graph: &DecodingGraph, count: usize, seed: u64) -> Vec<Vec<NodeId>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let all: Vec<NodeId> = (0..graph.boundary()).collect();
        (0..count)
            .map(|i| {
                let k = [0usize, 1, 2, 4, 6, 10][i % 6];
                all.choose_multiple(&mut rng, k).copied().collect()
            })
            .collect()
    }

    #[test]
    fn every_backend_explains_every_syndrome() {
        let lat = RotatedLattice::new(5);
        for rounds in [1usize, 3] {
            let g = DecodingGraph::new(&lat, StabKind::Z, rounds);
            for choice in DecoderChoice::ALL {
                let decoder = choice.decoder();
                let mut cost = CostReport::default();
                for events in random_event_sets(&g, 12, 7 + rounds as u64) {
                    let c = decoder.decode_costed(&g, &events, &mut cost);
                    assert!(
                        correction_explains_events(&g, &c, &events),
                        "{choice} failed on rounds={rounds}, events={events:?}"
                    );
                    assert_eq!(c, decoder.decode(&g, &events), "{choice}: costed != plain");
                }
                assert!(cost.decodes + cost.fallback_decodes >= 12);
            }
        }
    }

    #[test]
    fn costs_are_deterministic_and_order_invariant() {
        let lat = RotatedLattice::new(5);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        let sets = random_event_sets(&g, 20, 3);
        for choice in DecoderChoice::ALL {
            // Same decodes, same accumulated cost, run to run.
            let run = |order: &[usize]| {
                let decoder = choice.decoder();
                let mut cost = CostReport::default();
                for &i in order {
                    decoder.decode_costed(&g, &sets[i], &mut cost);
                }
                cost
            };
            let forward: Vec<usize> = (0..sets.len()).collect();
            let reverse: Vec<usize> = (0..sets.len()).rev().collect();
            assert_eq!(run(&forward), run(&forward), "{choice}: not reproducible");
            assert_eq!(
                run(&forward),
                run(&reverse),
                "{choice}: cost depends on decode order"
            );
            // Split-and-merge equals one ledger (the decode-pool
            // aggregation pattern).
            let mut merged = CostReport::default();
            for half in sets.chunks(7) {
                let decoder = choice.decoder();
                let mut worker = CostReport::default();
                for s in half {
                    decoder.decode_costed(&g, s, &mut worker);
                }
                merged.merge(&worker);
            }
            assert_eq!(merged, run(&forward), "{choice}: merge != sequential");
        }
    }

    #[test]
    fn backend_corrections_match_their_reference_engines() {
        let lat = RotatedLattice::new(3);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        let sets = random_event_sets(&g, 12, 11);
        let uf = UnionFindDecoder::new();
        let exact = ExactMatchingDecoder::new();
        let mut cost = CostReport::default();
        for events in &sets {
            assert_eq!(
                DecoderChoice::UnionFind
                    .decoder()
                    .decode_costed(&g, events, &mut cost),
                uf.decode(&g, events),
                "union-find choice diverged from UnionFindDecoder"
            );
            assert_eq!(
                DecoderChoice::Exact
                    .decoder()
                    .decode_costed(&g, events, &mut cost),
                exact.decode(&g, events),
                "exact choice diverged from ExactMatchingDecoder"
            );
        }
    }

    #[test]
    fn table_backend_builds_once_and_reports_hardware() {
        let lat = RotatedLattice::new(3);
        let g = DecodingGraph::new(&lat, StabKind::Z, 1);
        let decoder = DecoderChoice::Table.decoder();
        let mut cost = CostReport::default();
        decoder.decode_costed(&g, &[g.node(0, 1)], &mut cost);
        decoder.decode_costed(&g, &[], &mut cost);
        assert_eq!(cost.decodes, 2);
        assert_eq!(cost.fallback_decodes, 0);
        assert!(cost.jj_count > 0, "a lookup memory has a JJ footprint");
        // A multi-round graph routes through the union-find fallback.
        let g3 = DecodingGraph::new(&lat, StabKind::Z, 3);
        decoder.decode_costed(&g3, &[g3.node(1, 1)], &mut cost);
        assert_eq!(cost.fallback_decodes, 1);
    }

    #[test]
    fn exact_backend_falls_back_beyond_its_event_budget() {
        let lat = RotatedLattice::new(7);
        let g = DecodingGraph::new(&lat, StabKind::Z, 2);
        let mut rng = StdRng::seed_from_u64(9);
        let all: Vec<NodeId> = (0..g.boundary()).collect();
        let events: Vec<NodeId> = all
            .choose_multiple(&mut rng, EXACT_MAX_EVENTS + 4)
            .copied()
            .collect();
        let decoder = DecoderChoice::Exact.decoder();
        let mut cost = CostReport::default();
        let c = decoder.decode_costed(&g, &events, &mut cost);
        assert!(correction_explains_events(&g, &c, &events));
        assert_eq!(c, decoder.decode(&g, &events), "costed != plain");
        assert_eq!(cost.fallback_decodes, 1);
        assert_eq!(cost.decodes, 0);
    }

    #[test]
    fn choice_round_trips_names() {
        for choice in DecoderChoice::ALL {
            assert_eq!(DecoderChoice::parse(choice.name()), Some(choice));
        }
        assert_eq!(DecoderChoice::parse("mwpm"), None);
        assert_eq!(DecoderChoice::default(), DecoderChoice::UnionFind);
    }

    #[test]
    fn decode_batch_matches_per_job_decodes() {
        let lat = RotatedLattice::new(5);
        let graphs = BatchGraphs::new(&lat);
        let jobs = vec![
            DecodeJob {
                kind: StabKind::Z,
                events: vec![0, 1],
            },
            DecodeJob {
                kind: StabKind::X,
                events: vec![2],
            },
            DecodeJob {
                kind: StabKind::Z,
                events: vec![],
            },
        ];
        for choice in DecoderChoice::ALL {
            let mut batch_cost = CostReport::default();
            let batch = decode_batch(choice.decoder().as_ref(), &graphs, &jobs, &mut batch_cost);
            let mut job_cost = CostReport::default();
            for (job, got) in jobs.iter().zip(&batch) {
                let fresh = choice.decoder();
                let expected =
                    fresh.decode_costed(graphs.graph(job.kind), &job.events, &mut job_cost);
                assert_eq!(*got, expected, "{choice}: batch diverged for {job:?}");
            }
            assert_eq!(batch_cost, job_cost, "{choice}: batch ledger diverged");
        }
    }
}
