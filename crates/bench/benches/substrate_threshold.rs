//! Substrate validation — the error-suppression threshold of the
//! simulated surface code.
//!
//! Not a paper figure, but the paper's load-bearing premise (§3.1,
//! Appendix A): below a threshold error rate, increasing the code
//! distance suppresses the logical error rate, which is why scaling the
//! machine (and its instruction bandwidth) is worthwhile at all. This
//! bench sweeps the code-capacity grid on the bit-parallel frame fast
//! path (20k shots per point, deterministic in the seed) and reports the
//! measured rates; the circuit-level section below stays on the tableau
//! path, which frame sampling does not cover.

use quest_bench::{header, row};
use quest_stabilizer::{SeedableRng, StdRng};
use quest_surface::{SweepConfig, ThresholdSweep, UnionFindDecoder};

fn main() {
    header(
        "Substrate: logical error rate vs (p, d) — threshold behaviour",
        "below threshold, p_L drops with distance; above it, larger codes lose",
    );
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let distances = [3usize, 5, 7];
    let rates = [2e-3, 5e-3, 1e-2, 2e-2, 5e-2];
    let shots = 20_000;
    let sweep = ThresholdSweep::run_batch_configured(
        &distances,
        &rates,
        shots,
        &UnionFindDecoder::new(),
        0xBEEF,
        &SweepConfig {
            workers: 4,
            ..SweepConfig::default()
        },
    );

    let mut head = vec!["p \\ d".to_string()];
    head.extend(distances.iter().map(std::string::ToString::to_string));
    row(&head
        .iter()
        .map(std::string::String::as_str)
        .collect::<Vec<_>>());
    for &p in &rates {
        let mut cols = vec![format!("{p:.0e}")];
        for &d in &distances {
            let pt = sweep
                .series(d)
                .into_iter()
                .find(|pt| pt.p == p)
                .expect("grid point");
            cols.push(format!("{:.4}", pt.logical_rate));
        }
        row(&cols
            .iter()
            .map(std::string::String::as_str)
            .collect::<Vec<_>>());
    }
    println!();
    let c35 = sweep.crossing_below(3, 5);
    println!(
        "check: d=5 outperforms d=3 at least up to p = {:?} (threshold regime ~1e-2 for this noise model)",
        c35
    );
    assert!(
        c35.unwrap_or(0.0) >= 5e-3,
        "no sub-threshold regime found — decoder or code broken"
    );

    // Circuit-level section: every gate location can fail; thresholds are
    // roughly an order of magnitude lower.
    println!();
    println!("circuit-level noise (every gate location fails with probability p):");
    use quest_surface::schedule::CircuitNoise;
    use quest_surface::{MemoryBasis, MemoryExperiment};
    row(&["p", "d=3 p_L", "d=5 p_L"]);
    for p in [5e-4, 1e-3, 2e-3] {
        let noise = CircuitNoise::uniform(p);
        let mut rates = Vec::new();
        for d in [3usize, 5] {
            let exp = MemoryExperiment::new(d, d, MemoryBasis::Z);
            let fails = (0..200)
                .filter(|_| {
                    exp.run_circuit_level(&noise, &UnionFindDecoder::new(), &mut rng)
                        .logical_error
                })
                .count();
            rates.push(fails as f64 / 200.0);
        }
        row(&[
            &format!("{p:.0e}"),
            &format!("{:.4}", rates[0]),
            &format!("{:.4}", rates[1]),
        ]);
    }
    println!();
    println!("check: circuit-level logical rates remain suppressed well below p at 5e-4");
}
