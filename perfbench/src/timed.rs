//! The decoder seam the traced sweeps time: a [`Decoder`] that forwards
//! every entry point to [`UnionFindDecoder`] and accumulates wall time,
//! calls, events, shots and correction weight.
//!
//! `decode_planes` is forwarded explicitly: the trait's default scatters
//! the planes into per-shot sets, which would time a different program
//! than the union-find plane path the sampler really runs.

use quest_surface::decoder::{CorrectionBatch, EventPlanes};
use quest_surface::{Correction, Decoder, DecodingGraph, NodeId, UnionFindDecoder};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Event sets captured per decoding graph, keyed by its node count.
pub type Captured = BTreeMap<usize, Vec<Vec<NodeId>>>;

/// Union-find behind a timing and counting wrapper.
#[derive(Debug, Default)]
pub struct TimedDecoder {
    inner: UnionFindDecoder,
    nanos: AtomicU64,
    calls: AtomicU64,
    events: AtomicU64,
    shots: AtomicU64,
    flips: AtomicU64,
    capture: Option<Mutex<Capture>>,
}

/// Every `stride`-th shot's event set, per graph.
#[derive(Debug, Default)]
struct Capture {
    stride: usize,
    seen: BTreeMap<usize, usize>,
    kept: Captured,
}

/// Totals a [`TimedDecoder`] has seen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeTotals {
    pub nanos: u64,
    pub calls: u64,
    pub events: u64,
    pub shots: u64,
    pub flips: u64,
}

impl TimedDecoder {
    pub fn new() -> TimedDecoder {
        TimedDecoder::default()
    }

    /// A wrapper that also keeps every `stride`-th shot's event set per
    /// graph, for replay through `UnionFindDecoder::decode_traced`. Which
    /// shots are kept depends on call order, so capture from one thread.
    pub fn capturing(stride: usize) -> TimedDecoder {
        TimedDecoder {
            capture: Some(Mutex::new(Capture {
                stride: stride.max(1),
                ..Capture::default()
            })),
            ..TimedDecoder::default()
        }
    }

    pub fn totals(&self) -> DecodeTotals {
        DecodeTotals {
            nanos: self.nanos.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            shots: self.shots.load(Ordering::Relaxed),
            flips: self.flips.load(Ordering::Relaxed),
        }
    }

    /// The captured event sets (empty unless built with `capturing`).
    pub fn take_captured(&self) -> Captured {
        self.capture
            .as_ref()
            .map(|c| std::mem::take(&mut c.lock().expect("capture lock poisoned").kept))
            .unwrap_or_default()
    }

    fn record(&self, started: Instant, events: usize, shots: usize, flips: usize) {
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.events.fetch_add(events as u64, Ordering::Relaxed);
        self.shots.fetch_add(shots as u64, Ordering::Relaxed);
        self.flips.fetch_add(flips as u64, Ordering::Relaxed);
    }

    fn keep<'a>(&self, graph: &DecodingGraph, sets: impl IntoIterator<Item = &'a [NodeId]>) {
        let Some(capture) = &self.capture else {
            return;
        };
        let mut capture = capture.lock().expect("capture lock poisoned");
        let Capture { stride, seen, kept } = &mut *capture;
        let key = graph.num_nodes();
        let seen = seen.entry(key).or_default();
        let kept = kept.entry(key).or_default();
        for set in sets {
            if *seen % *stride == 0 {
                kept.push(set.to_vec());
            }
            *seen += 1;
        }
    }
}

impl Decoder for TimedDecoder {
    fn decode(&self, graph: &DecodingGraph, events: &[NodeId]) -> Correction {
        let started = Instant::now();
        let correction = self.inner.decode(graph, events);
        self.record(started, events.len(), 1, correction.weight());
        self.keep(graph, [events]);
        correction
    }

    fn decode_many(&self, graph: &DecodingGraph, event_sets: &[Vec<NodeId>]) -> Vec<Correction> {
        let started = Instant::now();
        let corrections = self.inner.decode_many(graph, event_sets);
        let events = event_sets.iter().map(Vec::len).sum();
        let flips = corrections.iter().map(Correction::weight).sum();
        self.record(started, events, event_sets.len(), flips);
        self.keep(graph, event_sets.iter().map(Vec::as_slice));
        corrections
    }

    fn decode_planes(
        &self,
        graph: &DecodingGraph,
        planes: &EventPlanes<'_>,
        out: &mut CorrectionBatch,
    ) {
        let started = Instant::now();
        self.inner.decode_planes(graph, planes, out);
        self.record(
            started,
            planes.total_events(),
            planes.shots(),
            out.total_flips(),
        );
        if self.capture.is_some() {
            let mut sets = Vec::new();
            planes.scatter_into(&mut sets);
            self.keep(graph, sets[..planes.shots()].iter().map(Vec::as_slice));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quest_surface::{FrameSampler, MemoryBasis, MemoryExperiment, MemoryNoise};

    /// Both sampler paths: dense code-capacity noise takes the plane
    /// path, sparse phenomenological noise the per-shot path.
    #[test]
    fn wrapper_leaves_batch_outcomes_bit_identical() {
        let sampler = FrameSampler::new(&MemoryExperiment::new(5, 5, MemoryBasis::Z));
        for noise in [
            MemoryNoise::code_capacity(5e-2),
            MemoryNoise::phenomenological(1e-3),
        ] {
            let plain = sampler.run_batch(&noise, &UnionFindDecoder::new(), 3000, 11);
            let timed = TimedDecoder::capturing(3);
            let wrapped = sampler.run_batch(&noise, &timed, 3000, 11);
            assert_eq!(plain, wrapped);
            let t = timed.totals();
            assert!(t.calls > 0);
            assert_eq!(t.shots, 3000);
            assert_eq!(t.events, plain.detection_events as u64);
            assert_eq!(t.flips, plain.correction_weight as u64);
            let captured = timed.take_captured();
            let sets = &captured[&sampler.graph().num_nodes()];
            assert_eq!(sets.len(), 1000);
        }
    }
}
