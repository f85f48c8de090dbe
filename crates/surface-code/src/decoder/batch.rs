//! Batched global decoding.
//!
//! The master controller's global decoder receives escalations one at a
//! time in the single-threaded systems, but a concurrent runtime collects
//! escalations from many tiles per cycle and hands them to a worker pool
//! in batches. This module is that entry point: a batch of independent
//! [`DecodeJob`]s decoded against shared per-kind decoding graphs, with
//! each job resolved exactly as the one-at-a-time path resolves it
//! (single-round graph, same node numbering), so batching changes
//! throughput but never corrections. The caller owns the cost ledger,
//! so the runtime's decode pool scopes one to each chunk it hands out.

use super::{Correction, CostReport, Decoder};
use crate::graph::{DecodingGraph, NodeId};
use crate::lattice::{RotatedLattice, StabKind};

/// One escalated decode request: the detection events of a single round
/// on one tile's single-round decoding graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeJob {
    /// Stabilizer type of the escalating decoder pipeline.
    pub kind: StabKind,
    /// Detection-event nodes (single-round graph numbering: node id =
    /// check index).
    pub events: Vec<NodeId>,
}

/// Per-kind single-round decoding graphs, built once per lattice and
/// reused across batches (graph construction is the per-job overhead
/// worth amortizing; the graphs themselves are immutable).
#[derive(Debug, Clone)]
pub struct BatchGraphs {
    x: DecodingGraph,
    z: DecodingGraph,
}

impl BatchGraphs {
    /// Builds the two single-round graphs for a tile lattice.
    pub fn new(lattice: &RotatedLattice) -> BatchGraphs {
        BatchGraphs {
            x: DecodingGraph::new(lattice, StabKind::X, 1),
            z: DecodingGraph::new(lattice, StabKind::Z, 1),
        }
    }

    /// The graph for one stabilizer kind.
    pub fn graph(&self, kind: StabKind) -> &DecodingGraph {
        match kind {
            StabKind::X => &self.x,
            StabKind::Z => &self.z,
        }
    }
}

/// Decodes a batch of independent jobs, returning one correction per job
/// in input order and pricing each into `cost`. Equivalent to calling
/// [`Decoder::decode_costed`] per job on a fresh single-round graph of
/// the job's kind.
pub fn decode_batch<D: Decoder + ?Sized>(
    decoder: &D,
    graphs: &BatchGraphs,
    jobs: &[DecodeJob],
    cost: &mut CostReport,
) -> Vec<Correction> {
    jobs.iter()
        .map(|job| decoder.decode_costed(graphs.graph(job.kind), &job.events, cost))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::UnionFindDecoder;

    #[test]
    fn batch_matches_one_at_a_time() {
        let lat = RotatedLattice::new(5);
        let graphs = BatchGraphs::new(&lat);
        let uf = UnionFindDecoder::new();
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
                events: vec![3],
            },
            DecodeJob {
                kind: StabKind::Z,
                events: vec![],
            },
        ];
        let batched = decode_batch(&uf, &graphs, &jobs, &mut CostReport::default());
        assert_eq!(batched.len(), jobs.len());
        for (job, got) in jobs.iter().zip(&batched) {
            let fresh = DecodingGraph::new(&lat, job.kind, 1);
            let expected = uf.decode(&fresh, &job.events);
            assert_eq!(got, &expected, "batched decode diverged for {job:?}");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let lat = RotatedLattice::new(3);
        let graphs = BatchGraphs::new(&lat);
        let mut cost = CostReport::default();
        let out = decode_batch(&UnionFindDecoder::new(), &graphs, &[], &mut cost);
        assert!(out.is_empty());
    }
}
