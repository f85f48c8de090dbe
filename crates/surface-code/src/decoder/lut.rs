//! Local lookup-table decoder — the MCE's error-decoder pipeline.
//!
//! Per the paper (§4.2): *"The error decoder collects the syndrome
//! measurement data and performs a limited local error decoding with a
//! lookup table to correct frequently occurring isolated single-qubit
//! errors."* Complex patterns are left to the global decoder in the master
//! controller.
//!
//! The table maps the detection-event pattern of every possible single
//! data-qubit error (one or two adjacent events within a round) and every
//! single measurement error (a temporal event pair) to its correction. The
//! decoder succeeds only when the observed events can be *exactly* tiled by
//! non-overlapping single-fault patterns; anything else is escalated.
//!
//! Escalation is why the LUT is not a [`Decoder`](super::Decoder): it
//! may answer "not mine", which a total decoder cannot. Its modelled
//! hardware cost comes from [`LutDecoder::lookup_cost`], which the MCE
//! pipeline evaluates over its own lookup counters.

use super::backend::{read_latency_cycles, JJ_PER_BIT, JJ_PER_CHANNEL};
use super::{Correction, CostReport};
use crate::graph::{DecodingGraph, EdgeId, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// Lookup-table decoder for isolated single faults.
///
/// Returns `None` (escalate to the global decoder) whenever the syndrome
/// is not a disjoint union of single-fault patterns.
///
/// # Example
///
/// ```
/// use quest_surface::{DecodingGraph, LutDecoder, RotatedLattice, StabKind};
///
/// let lat = RotatedLattice::new(3);
/// let g = DecodingGraph::new(&lat, StabKind::Z, 1);
/// let lut = LutDecoder::new(&g);
/// // A single boundary event is an isolated single-qubit error: handled.
/// assert!(lut.try_decode(&[g.node(0, 0)]).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct LutDecoder {
    /// Sorted event pattern → edge producing it. Single-fault patterns have
    /// one or two events.
    table: BTreeMap<Vec<NodeId>, EdgeId>,
    /// For each node, the single-fault patterns containing it.
    patterns_at: BTreeMap<NodeId, Vec<Vec<NodeId>>>,
    num_nodes: usize,
    boundary: NodeId,
    /// Table capacity statistics: number of entries (for the paper's
    /// feasibility accounting).
    entries: usize,
}

impl LutDecoder {
    /// Builds the table for a decoding graph by enumerating all single
    /// faults.
    pub fn new(graph: &DecodingGraph) -> LutDecoder {
        let mut table = BTreeMap::new();
        let mut patterns_at: BTreeMap<NodeId, Vec<Vec<NodeId>>> = BTreeMap::new();
        for (i, e) in graph.edges().iter().enumerate() {
            let mut pattern: Vec<NodeId> = [e.a, e.b]
                .into_iter()
                .filter(|&n| !graph.is_boundary(n))
                .collect();
            pattern.sort_unstable();
            for &n in &pattern {
                patterns_at.entry(n).or_default().push(pattern.clone());
            }
            table.entry(pattern).or_insert(i);
        }
        let entries = table.len();
        LutDecoder {
            table,
            patterns_at,
            num_nodes: graph.num_nodes(),
            boundary: graph.boundary(),
            entries,
        }
    }

    /// Number of table entries (one per distinct single-fault pattern).
    pub fn num_entries(&self) -> usize {
        self.entries
    }

    /// Attempts to decode `events` as a disjoint union of isolated single
    /// faults. Returns the matched edges, or `None` to escalate.
    ///
    /// # Panics
    ///
    /// Panics if `events` contains the boundary node or out-of-range ids.
    pub fn try_decode(&self, events: &[NodeId]) -> Option<Vec<EdgeId>> {
        for &e in events {
            assert!(e < self.num_nodes && e != self.boundary, "bad event node");
        }
        let mut remaining: BTreeSet<NodeId> = events.iter().copied().collect();
        let mut edges = Vec::new();
        while let Some(&n) = remaining.iter().next() {
            // Candidate patterns at n whose events are all still pending and
            // *isolated*: consuming them must not break another pattern —
            // for the LUT this simply means an exact cover step.
            let candidates = self.patterns_at.get(&n)?;
            // Prefer two-event patterns (internal faults) over boundary
            // singles only when both events are present; otherwise fall back
            // to the boundary single.
            let chosen = candidates
                .iter()
                .filter(|pat| pat.iter().all(|q| remaining.contains(q)))
                .max_by_key(|pat| pat.len())?;
            for q in chosen {
                remaining.remove(q);
            }
            edges.push(self.table[chosen]);
        }
        Some(edges)
    }

    /// The modelled cost of `lookups` table reads, `misses` of which
    /// escalated. Every lookup is one primary decode costing one read of
    /// the LUT bank (one 32-bit word per entry, priced at the bank's
    /// read latency); every miss adds one fallback count; the bank plus
    /// one channel of overhead is the JJ footprint, reported once the
    /// table has been read at all.
    pub fn lookup_cost(&self, lookups: u64, misses: u64) -> CostReport {
        if lookups == 0 {
            return CostReport::default();
        }
        let bank_bits = self.entries as u64 * 32;
        let read = read_latency_cycles(bank_bits);
        CostReport {
            decodes: lookups,
            fallback_decodes: misses,
            cycles: lookups.saturating_mul(read),
            max_decode_cycles: read,
            jj_count: bank_bits * JJ_PER_BIT + JJ_PER_CHANNEL,
        }
    }

    /// Like [`LutDecoder::try_decode`] but returns a full [`Correction`].
    pub fn try_correction(&self, graph: &DecodingGraph, events: &[NodeId]) -> Option<Correction> {
        self.try_decode(events)
            .map(|edges| Correction::from_edges(graph, edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::correction_explains_events;
    use crate::graph::Fault;
    use crate::lattice::{RotatedLattice, StabKind};

    fn setup(d: usize, rounds: usize) -> (DecodingGraph, LutDecoder) {
        let lat = RotatedLattice::new(d);
        let g = DecodingGraph::new(&lat, StabKind::Z, rounds);
        let lut = LutDecoder::new(&g);
        (g, lut)
    }

    #[test]
    fn every_single_fault_is_decoded() {
        let (g, lut) = setup(5, 2);
        for e in g.edges() {
            let events: Vec<NodeId> = [e.a, e.b]
                .into_iter()
                .filter(|&n| !g.is_boundary(n))
                .collect();
            let c = lut.try_correction(&g, &events).expect("single fault");
            assert!(correction_explains_events(&g, &c, &events));
        }
    }

    #[test]
    fn two_isolated_faults_are_decoded() {
        let (g, lut) = setup(5, 1);
        // Two internal spatial edges far apart.
        let internal: Vec<&crate::graph::DecodingEdge> = g
            .edges()
            .iter()
            .filter(|e| !g.is_boundary(e.a) && !g.is_boundary(e.b))
            .collect();
        let e1 = internal.first().unwrap();
        let e2 = internal.last().unwrap();
        // Ensure disjoint node sets.
        assert!(e1.a != e2.a && e1.a != e2.b && e1.b != e2.a && e1.b != e2.b);
        let events = vec![e1.a, e1.b, e2.a, e2.b];
        let c = lut
            .try_correction(&g, &events)
            .expect("two isolated faults");
        assert!(correction_explains_events(&g, &c, &events));
        assert_eq!(c.weight(), 2);
    }

    #[test]
    fn error_chain_is_escalated_or_valid() {
        // A weight-2 chain produces two events two hops apart; the LUT may
        // explain each event with a boundary single on small codes, but if
        // it answers, the answer must be syndrome-consistent.
        let (g, lut) = setup(3, 1);
        let chain_events = vec![g.node(0, 0), g.node(0, 3)];
        match lut.try_correction(&g, &chain_events) {
            None => {} // escalated: acceptable
            Some(c) => assert!(correction_explains_events(&g, &c, &chain_events)),
        }
    }

    #[test]
    fn measurement_fault_pattern_known() {
        let (g, lut) = setup(3, 3);
        // Temporal edge events.
        let e = g
            .edges()
            .iter()
            .enumerate()
            .find(|(_, e)| matches!(e.fault, Fault::Measurement { .. }))
            .map(|(i, _)| i)
            .unwrap();
        let edge = &g.edges()[e];
        let events = vec![edge.a, edge.b];
        let c = lut.try_correction(&g, &events).unwrap();
        assert!(correction_explains_events(&g, &c, &events));
        assert_eq!(c.weight(), 0, "measurement error needs no data flip");
    }

    #[test]
    fn table_size_scales_with_edges() {
        let (g, lut) = setup(5, 1);
        assert!(lut.num_entries() <= g.edges().len());
        assert!(lut.num_entries() > 0);
    }

    #[test]
    fn empty_events_decode_to_nothing() {
        let (g, lut) = setup(3, 1);
        let c = lut.try_correction(&g, &[]).unwrap();
        assert!(c.edges.is_empty());
    }
}
