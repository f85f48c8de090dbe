//! Generator-level golden for the CHP tableau.
//!
//! Seeded random circuits over every public gate, measurement and reset are
//! run at widths that straddle the 64-bit word boundaries of the bit-packed
//! layout (n = 31/32/33, 63/64/65, and the 194-qubit runtime shard width).
//! One FNV-1a digest per width folds in every measurement value and
//! `deterministic` flag, every mid-circuit `prob_one`, and at the end every
//! stabilizer and destabilizer generator with its sign plus one trailing
//! RNG draw. The circuit and the measurement outcomes share one RNG, so a
//! single extra or missing random draw changes every later step.
//!
//! The digests were recorded from the original row-major CHP
//! implementation; any rewrite of the tableau must reproduce them bit for
//! bit.

use quest_stabilizer::{Measurement, Pauli, PauliString, Rng, SeedableRng, StdRng, Tableau};

struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn measurement(&mut self, m: Measurement) {
        self.byte(u8::from(m.value) | u8::from(m.deterministic) << 1);
    }

    fn prob(&mut self, p: f64) {
        // Stabilizer states only ever report 0, 1/2 or 1.
        self.byte((p * 2.0) as u8);
    }

    fn pauli_string(&mut self, p: &PauliString) {
        self.byte(u8::from(p.is_negative()));
        for q in 0..p.len() {
            self.byte(match p.get(q) {
                Pauli::I => 0,
                Pauli::X => 1,
                Pauli::Y => 2,
                Pauli::Z => 3,
            });
        }
    }
}

fn run_circuit(n: usize, seed: u64, d: &mut Digest) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Tableau::new(n);
    for _ in 0..24 * n.max(8) {
        let a = rng.gen_range(0..n);
        let b = (a + rng.gen_range(1..n.max(2))) % n;
        let op = rng.gen_range(0..20);
        match op {
            // With one qubit there is no second operand.
            _ if n == 1 && op >= 14 => t.h(a),
            0 | 1 => t.h(a),
            2 => t.s(a),
            3 => t.s_dagger(a),
            4 => t.x(a),
            5 => t.y(a),
            6 => t.z(a),
            7 => d.measurement(t.measure(a, &mut rng)),
            8 => d.measurement(t.measure_x(a, &mut rng)),
            9 => t.reset(a, &mut rng),
            10 => t.reset_plus(a, &mut rng),
            11 => d.prob(t.prob_one(a)),
            12 | 13 => d.measurement(t.measure(a, &mut rng)),
            14 | 15 => t.cnot(a, b),
            16 => t.cz(a, b),
            17 => t.swap(a, b),
            _ => t.cnot(b, a),
        }
    }
    for i in 0..n {
        d.pauli_string(&t.stabilizer(i));
        d.pauli_string(&t.destabilizer(i));
    }
    for q in 0..n {
        d.prob(t.prob_one(q));
    }
    for b in rng.gen::<u64>().to_le_bytes() {
        d.byte(b);
    }
    if n <= 65 {
        t.check_invariants();
    }
}

fn digest(n: usize) -> u64 {
    let mut d = Digest::new();
    for seed in 0..3 {
        run_circuit(n, 0x7AB1_EA00 + seed, &mut d);
    }
    d.0
}

#[test]
fn tableau_generators_match_the_recorded_digests() {
    let golden: [(usize, u64); 10] = [
        (1, 0x7d08_e1b0_6319_66dd),
        (2, 0x4033_bba4_6e5c_9655),
        (31, 0x29ec_787a_4d4e_75bd),
        (32, 0x550d_e72b_8f00_29b7),
        (33, 0x186a_880c_b576_2bdd),
        (63, 0x3634_8c4c_d1a2_1976),
        (64, 0x6449_f8fb_0972_f70d),
        (65, 0xf8a2_d38a_4a85_db5c),
        (97, 0xf0cc_5c45_1393_94df),
        (194, 0x0720_0bcb_5f20_b7f0),
    ];
    let got: Vec<(usize, u64)> = golden.iter().map(|&(n, _)| (n, digest(n))).collect();
    assert_eq!(got, golden);
}
