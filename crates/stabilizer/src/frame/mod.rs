//! Bit-parallel Pauli-frame Monte-Carlo engine.
//!
//! For Clifford circuits with Pauli noise, per-shot state simulation is
//! unnecessary: the *difference* between a noisy shot and a noiseless
//! reference run is itself a Pauli operator (the "frame"), and frames
//! propagate through Clifford gates by simple bit rules — no tableau, no
//! O(n²) measurements. Packing the frames of many independent shots into
//! one machine word per qubit (the construction behind Stim-class
//! samplers) turns every gate into a handful of word XOR/swap operations
//! over all packed shots at once.
//!
//! [`FrameSimulator`] is generic over [`FrameWord`], packing 64 shots
//! (`u64`, the type default) or 512 ([`W512`]) shots per plane word. The
//! batch sampler runs on `W512` only; `u64` is the lane-identity
//! reference the tests compare it against and the second word type the
//! per-word gate micro-benchmark times.
//!
//! Semantics: [`FrameSimulator`] tracks, per qubit and per shot, the X and
//! Z components of the Pauli error separating that shot's state from the
//! reference state. Signs are not tracked — they cannot influence
//! measurement outcomes, only global phase. A shot's measurement record is
//! the reference record XOR the flip bits this engine reports.
//!
//! Determinism: all randomness is drawn from caller-provided
//! [`BlockRngs`], one independent `StdRng` per 64-shot *block*, seeded
//! from `(master seed, global block index)`. Because each block consumes
//! its own stream in circuit order, and block `b` always occupies lane
//! `b % LANES` of word `b / LANES`, results are bit-identical regardless
//! of how many blocks a batch holds, how blocks are spread over worker
//! threads, *and which word type holds them*. Noise injection uses
//! inverse-geometric skip sampling (exactly Bernoulli per bit, see
//! [`FrameSimulator::inject_pauli_channel`]), so the draw count per block
//! scales with the expected number of errors instead of the shot count.
//!
//! # Example
//!
//! ```
//! use quest_stabilizer::frame::{BlockRngs, FrameSimulator};
//! use quest_stabilizer::PauliChannel;
//!
//! // 128 shots of a 2-qubit circuit: X noise on qubit 0, CNOT 0→1.
//! let mut sim: FrameSimulator = FrameSimulator::new(2, 128);
//! let mut rngs = BlockRngs::new(42, 0, sim.blocks());
//! sim.inject_pauli_channel(&PauliChannel::bit_flip(0.5), 0, &mut rngs);
//! sim.cnot(0, 1);
//! // The error copies onto the target: flip planes agree bit-for-bit.
//! assert_eq!(sim.x_plane(0), sim.x_plane(1));
//! ```

mod planes;
mod word;

pub use planes::FramePlanes;
pub use word::{FrameWord, W512};

use crate::circuit::Gate;
use crate::noise::PauliChannel;
use crate::pauli::Pauli;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shots per 64-bit lane — the granularity of RNG blocks and of the
/// determinism contract. (Wide words pack `LANES` of these per word.)
pub const SHOTS_PER_WORD: usize = 64;

/// SplitMix64 finalizer used to derive independent per-block seeds from a
/// master seed. Deterministic, allocation-free, and stable across
/// platforms — the whole seeding scheme of the batch samplers rests on it.
#[must_use]
pub fn block_seed(master: u64, block: u64) -> u64 {
    let mut z = master
        ^ block
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x243F_6A88_85A3_08D3);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One deterministic RNG per 64-shot block.
///
/// Block `b` of a batch starting at global block `base` is seeded with
/// [`block_seed`]`(master, base + b)`, so the stream a block consumes is a
/// pure function of `(master, global block index)` — independent of batch
/// size, thread placement and lane width.
#[derive(Debug, Clone)]
pub struct BlockRngs {
    rngs: Vec<StdRng>,
}

impl BlockRngs {
    /// RNGs for `blocks` consecutive 64-shot blocks starting at global
    /// block index `base`.
    #[must_use]
    pub fn new(master: u64, base: u64, blocks: usize) -> BlockRngs {
        BlockRngs {
            rngs: (0..blocks)
                .map(|b| StdRng::seed_from_u64(block_seed(master, base + b as u64)))
                .collect(),
        }
    }

    /// Number of blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rngs.len()
    }

    /// `true` when no blocks are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rngs.is_empty()
    }

    #[inline]
    fn rng(&mut self, block: usize) -> &mut StdRng {
        &mut self.rngs[block]
    }
}

/// Iterates the error positions of one 64-shot block by inverse-geometric
/// skips: with `inv_ln_q = 1 / ln(1 - p)`, the gap to the next error bit
/// is `floor(ln(1-u) / ln(1-p))`, which is exactly Geometric(p) for
/// `u ~ U[0,1)` — so each bit is independently Bernoulli(p), the same
/// distribution as drawing one uniform per bit, at ~`64p + 1` draws per
/// block instead of 64. `on_error` receives the bit index and the block's
/// RNG (for the error-kind draw).
#[inline]
fn for_each_error_bit(
    rng: &mut StdRng,
    inv_ln_q: f64,
    mut on_error: impl FnMut(usize, &mut StdRng),
) {
    let mut i = 0usize;
    loop {
        let u: f64 = rng.gen();
        // ln(1-u) ≤ 0 and inv_ln_q < 0, so the skip is a non-negative
        // float; the `as usize` cast saturates huge values to the break.
        let skip = ((-u).ln_1p() * inv_ln_q) as usize;
        i = i.saturating_add(skip);
        if i >= SHOTS_PER_WORD {
            break;
        }
        on_error(i, rng);
        i += 1;
    }
}

/// Bit-packed Pauli-frame simulator over `n` qubits × `shots` shots.
///
/// X and Z frame bits are stored as [`FramePlanes`] (qubit-major,
/// `ceil(shots / W::BITS)` words per qubit). All gate updates are
/// word-wise, i.e. they act on `W::BITS` shots per machine operation.
#[derive(Debug, Clone)]
pub struct FrameSimulator<W: FrameWord = u64> {
    x: FramePlanes<W>,
    z: FramePlanes<W>,
}

impl<W: FrameWord> FrameSimulator<W> {
    /// Creates an all-identity frame batch for `n` qubits and exactly
    /// `shots` shots (plane capacity rounds up to a whole word; see
    /// [`FrameSimulator::capacity`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` or `shots` is zero.
    #[must_use]
    pub fn new(n: usize, shots: usize) -> FrameSimulator<W> {
        FrameSimulator {
            x: FramePlanes::new(n, shots),
            z: FramePlanes::new(n, shots),
        }
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.x.num_planes()
    }

    /// Number of words per plane.
    #[must_use]
    pub fn words(&self) -> usize {
        self.x.words()
    }

    /// Exact number of shots requested at construction.
    #[must_use]
    pub fn num_shots(&self) -> usize {
        self.x.shots()
    }

    /// Shot capacity (`words() * W::BITS`); bits past
    /// [`FrameSimulator::num_shots`] are dead lanes that consumers must
    /// mask (see [`FrameSimulator::tail_mask`]).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.x.capacity()
    }

    /// Live 64-shot blocks (`ceil(shots / 64)`) — the length
    /// [`BlockRngs`] should be built with.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.x.blocks()
    }

    /// Mask of live bits in the final word of every plane.
    #[must_use]
    pub fn tail_mask(&self) -> W {
        self.x.tail_mask()
    }

    /// Clears every frame back to identity, keeping the allocation.
    pub fn clear(&mut self) {
        self.x.clear();
        self.z.clear();
    }

    #[inline]
    fn check_qubit(&self, q: usize) {
        assert!(
            q < self.num_qubits(),
            "qubit index {q} out of range (n = {})",
            self.num_qubits()
        );
    }

    /// X-component plane of qubit `q` (one bit per shot).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    #[must_use]
    pub fn x_plane(&self, q: usize) -> &[W] {
        self.x.plane(q)
    }

    /// Z-component plane of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    #[must_use]
    pub fn z_plane(&self, q: usize) -> &[W] {
        self.z.plane(q)
    }

    /// Sets the frame of `shot` on qubit `q` to the given Pauli (used by
    /// deterministic fault injection and the equivalence tests).
    ///
    /// # Panics
    ///
    /// Panics if `q` or `shot` is out of bounds.
    pub fn set_frame(&mut self, q: usize, shot: usize, p: Pauli) {
        let (xb, zb) = pauli_components(p);
        self.x.set(q, shot, xb);
        self.z.set(q, shot, zb);
    }

    /// XORs the given Pauli into the frame of one shot on qubit `q`
    /// (mid-circuit deterministic fault injection: errors compose with
    /// whatever frame has already accumulated).
    ///
    /// # Panics
    ///
    /// Panics if `q` or `shot` is out of bounds.
    pub fn xor_frame(&mut self, q: usize, shot: usize, p: Pauli) {
        let (xb, zb) = pauli_components(p);
        self.x.toggle(q, shot, xb);
        self.z.toggle(q, shot, zb);
    }

    /// XORs a Pauli into the frame of every shot on qubit `q` at once
    /// (word-broadcast error injection).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn broadcast_pauli(&mut self, q: usize, p: Pauli) {
        match p {
            Pauli::I => {}
            Pauli::X => self.x.not_plane(q),
            Pauli::Z => self.z.not_plane(q),
            Pauli::Y => {
                self.x.not_plane(q);
                self.z.not_plane(q);
            }
        }
    }

    /// Hadamard on `q`: conjugation swaps the X and Z frame components.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn h(&mut self, q: usize) {
        for (xw, zw) in self
            .x
            .plane_mut(q)
            .iter_mut()
            .zip(self.z.plane_mut(q).iter_mut())
        {
            core::mem::swap(xw, zw);
        }
    }

    /// Phase gate on `q`: `S X S† = Y`, so the X component gains a Z
    /// component (`z ^= x`). Identical rule for `S†` (signs untracked).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn s(&mut self, q: usize) {
        for (zw, &xw) in self.z.plane_mut(q).iter_mut().zip(self.x.plane(q)) {
            *zw = zw.xor(xw);
        }
    }

    /// CNOT: X copies control→target, Z copies target→control.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or `c == t`.
    pub fn cnot(&mut self, c: usize, t: usize) {
        self.check_qubit(c);
        self.check_qubit(t);
        assert_ne!(c, t, "CNOT control and target must differ");
        self.x.xor_from(c, t);
        self.z.xor_from(t, c);
    }

    /// Controlled-Z: the X component of each side adds a Z on the other.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or `a == b`.
    pub fn cz(&mut self, a: usize, b: usize) {
        self.check_qubit(a);
        self.check_qubit(b);
        assert_ne!(a, b, "CZ qubits must differ");
        for w in 0..self.words() {
            let xa = self.x.plane(a)[w];
            let xb = self.x.plane(b)[w];
            {
                let za = &mut self.z.plane_mut(a)[w];
                *za = za.xor(xb);
            }
            let zb = &mut self.z.plane_mut(b)[w];
            *zb = zb.xor(xa);
        }
    }

    /// Swap: exchanges both frame planes of `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or `a == b`.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.check_qubit(a);
        self.check_qubit(b);
        assert_ne!(a, b, "SWAP qubits must differ");
        self.x.swap_planes(a, b);
        self.z.swap_planes(a, b);
    }

    /// Preparation in either basis: both the reference and the shot
    /// collapse to the same prepared state, so the frame resets to
    /// identity on `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn prep(&mut self, q: usize) {
        self.x.zero_plane(q);
        self.z.zero_plane(q);
    }

    /// Z-basis measurement of `q`: appends one flip word per plane word to
    /// `flips_out` (bit set ⇔ that shot's outcome differs from the
    /// reference outcome). The unobservable Z component is cleared; the X
    /// component persists (the shot's post-measurement state still differs
    /// from the reference by X).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn meas_z(&mut self, q: usize, flips_out: &mut Vec<W>) {
        flips_out.extend_from_slice(self.x.plane(q));
        self.z.zero_plane(q);
    }

    /// X-basis measurement of `q`: flip bits are the Z component; the
    /// unobservable X component is cleared.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn meas_x(&mut self, q: usize, flips_out: &mut Vec<W>) {
        flips_out.extend_from_slice(self.z.plane(q));
        self.x.zero_plane(q);
    }

    /// Applies one circuit gate to the whole batch. Pauli gates are
    /// frame-level no-ops (they commute with any frame up to sign).
    /// Measurement gates append their flip words to `meas_out` in program
    /// order, exactly mirroring [`crate::Circuit::apply_gate`].
    ///
    /// # Panics
    ///
    /// Panics if the gate references an out-of-bounds qubit.
    pub fn apply_gate(&mut self, g: Gate, meas_out: &mut Vec<W>) {
        match g {
            Gate::I(_) | Gate::X(_) | Gate::Y(_) | Gate::Z(_) => {}
            Gate::H(q) => self.h(q),
            Gate::S(q) | Gate::Sdg(q) => self.s(q),
            Gate::Cnot(c, t) => self.cnot(c, t),
            Gate::Cz(a, b) => self.cz(a, b),
            Gate::Swap(a, b) => self.swap(a, b),
            Gate::PrepZ(q) | Gate::PrepX(q) => self.prep(q),
            Gate::MeasZ(q) => self.meas_z(q, meas_out),
            Gate::MeasX(q) => self.meas_x(q, meas_out),
        }
    }

    /// Samples one layer of a Pauli channel onto qubit `q`, drawing each
    /// shot's error from its 64-shot block's RNG. Error positions come
    /// from inverse-geometric skip sampling (exactly Bernoulli(p) per
    /// bit); each hit draws one extra uniform to pick X/Y/Z in proportion
    /// to the channel. Only the first `rngs.len()` blocks are touched — a
    /// short final batch may drive a simulator sized for a full one, and
    /// its dead trailing blocks stay clear.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds or `rngs` holds more blocks than
    /// the simulator's capacity.
    pub fn inject_pauli_channel(&mut self, channel: &PauliChannel, q: usize, rngs: &mut BlockRngs) {
        self.check_qubit(q);
        assert!(
            rngs.len() <= self.x.words() * W::LANES,
            "more RNG blocks than shot blocks"
        );
        let (px, py) = (channel.px(), channel.py());
        let total = channel.total_error_probability();
        if total == 0.0 {
            return;
        }
        // 1 / ln(1 - total): finite negative for total < 1, -0.0 for
        // total == 1 (every skip collapses to zero — all bits error).
        let inv_ln_q = 1.0 / (-total).ln_1p();
        let xplane = self.x.plane_mut(q);
        let zplane = self.z.plane_mut(q);
        for b in 0..rngs.len() {
            let mut xbits = 0u64;
            let mut zbits = 0u64;
            for_each_error_bit(rngs.rng(b), inv_ln_q, |bit, rng| {
                let mask = 1u64 << bit;
                let kind: f64 = rng.gen::<f64>() * total;
                if kind < px {
                    xbits |= mask;
                } else if kind < px + py {
                    xbits |= mask;
                    zbits |= mask;
                } else {
                    zbits |= mask;
                }
            });
            if xbits != 0 {
                *xplane[b / W::LANES].lane_mut(b % W::LANES) ^= xbits;
            }
            if zbits != 0 {
                *zplane[b / W::LANES].lane_mut(b % W::LANES) ^= zbits;
            }
        }
    }

    /// Samples an independent flip plane (one bit per shot, set with
    /// probability `p`) and XORs it into `plane` — classical
    /// measurement-flip injection. Uses the same inverse-geometric skip
    /// sampling as [`FrameSimulator::inject_pauli_channel`]; block `b`
    /// lands in lane `b % LANES` of `plane[b / LANES]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]` or `plane` does not hold exactly
    /// `ceil(rngs.len() / LANES)` words.
    pub fn xor_flip_plane(p: f64, rngs: &mut BlockRngs, plane: &mut [W]) {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        assert_eq!(
            plane.len(),
            rngs.len().div_ceil(W::LANES),
            "one plane word per LANES RNG blocks"
        );
        if p == 0.0 {
            return;
        }
        let inv_ln_q = 1.0 / (-p).ln_1p();
        for b in 0..rngs.len() {
            let mut bits = 0u64;
            for_each_error_bit(rngs.rng(b), inv_ln_q, |bit, _| {
                bits |= 1u64 << bit;
            });
            if bits != 0 {
                *plane[b / W::LANES].lane_mut(b % W::LANES) ^= bits;
            }
        }
    }
}

#[inline]
fn pauli_components(p: Pauli) -> (bool, bool) {
    match p {
        Pauli::I => (false, false),
        Pauli::X => (true, false),
        Pauli::Y => (true, true),
        Pauli::Z => (false, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::tableau::Tableau;
    use crate::PauliString;

    #[test]
    fn cnot_copies_x_to_target_and_z_to_control() {
        let mut sim: FrameSimulator = FrameSimulator::new(2, 64);
        sim.set_frame(0, 3, Pauli::X);
        sim.set_frame(1, 5, Pauli::Z);
        sim.cnot(0, 1);
        assert_eq!(sim.x_plane(0)[0], 1 << 3);
        assert_eq!(sim.x_plane(1)[0], 1 << 3);
        assert_eq!(sim.z_plane(0)[0], 1 << 5);
        assert_eq!(sim.z_plane(1)[0], 1 << 5);
    }

    #[test]
    fn h_swaps_components_and_s_makes_y() {
        let mut sim: FrameSimulator = FrameSimulator::new(1, 64);
        sim.set_frame(0, 0, Pauli::X);
        sim.h(0);
        assert_eq!(sim.x_plane(0)[0], 0);
        assert_eq!(sim.z_plane(0)[0], 1);
        sim.h(0);
        sim.s(0);
        // X -> Y: both components set.
        assert_eq!(sim.x_plane(0)[0], 1);
        assert_eq!(sim.z_plane(0)[0], 1);
    }

    #[test]
    fn measurement_flip_bits_match_tableau_outcomes() {
        // For every single-qubit Pauli error injected ahead of a circuit
        // whose reference measurements are all deterministic, the
        // frame-predicted flip bits must equal the difference between the
        // errored and error-free tableau runs. (Bit-exactness is only
        // guaranteed for measurements deterministic in the reference —
        // exactly the regime the surface-code sampler operates in.)
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut circuit = Circuit::new();
        // HSSH ≅ X: exercises H and S while keeping q0 computational.
        circuit.push(Gate::H(0));
        circuit.push(Gate::S(0));
        circuit.push(Gate::S(0));
        circuit.push(Gate::H(0));
        circuit.push(Gate::Cnot(0, 1));
        circuit.push(Gate::Swap(1, 2));
        circuit.push(Gate::Cz(0, 2));
        circuit.push(Gate::H(3));
        for q in 0..3 {
            circuit.push(Gate::MeasZ(q));
        }
        circuit.push(Gate::MeasX(3));
        for victim in 0..4usize {
            for p in Pauli::ERRORS {
                let mut rng_a = StdRng::seed_from_u64(11);
                let mut rng_b = StdRng::seed_from_u64(11);
                let reference = circuit.run_stabilizer(4, &mut rng_a);
                assert!(reference.iter().all(|m| m.deterministic));
                let mut t = Tableau::new(4);
                t.pauli_string(&PauliString::from_sparse(4, &[(victim, p)]));
                let noisy = circuit.run_on(&mut t, &mut rng_b);

                let mut sim: FrameSimulator = FrameSimulator::new(4, 64);
                sim.set_frame(victim, 0, p);
                let mut flips = Vec::new();
                for &g in &circuit {
                    sim.apply_gate(g, &mut flips);
                }
                assert_eq!(flips.len(), 4);
                for (m, (r, f)) in reference.iter().zip(noisy.iter().zip(&flips)) {
                    let flipped = f & 1 == 1;
                    assert_eq!(m.value != r.value, flipped, "victim {victim}, error {p:?}");
                }
            }
        }
    }

    #[test]
    fn gates_are_lane_identical_across_widths() {
        // The same frames and the same gate sequence, once through a u64
        // engine (8 words) and once through a W512 engine (1 word): every
        // lane must match bit-for-bit.
        let shots = 512;
        let mut narrow: FrameSimulator<u64> = FrameSimulator::new(4, shots);
        let mut wide: FrameSimulator<W512> = FrameSimulator::new(4, shots);
        for (i, &(q, shot, p)) in [
            (0usize, 3usize, Pauli::X),
            (1, 77, Pauli::Z),
            (2, 200, Pauli::Y),
            (3, 511, Pauli::X),
            (0, 450, Pauli::Z),
        ]
        .iter()
        .enumerate()
        {
            let _ = i;
            narrow.set_frame(q, shot, p);
            wide.set_frame(q, shot, p);
        }
        let gates = [
            Gate::H(0),
            Gate::S(1),
            Gate::Cnot(0, 1),
            Gate::Cz(1, 2),
            Gate::Swap(2, 3),
            Gate::Cnot(3, 0),
            Gate::MeasZ(0),
            Gate::MeasX(1),
        ];
        let mut meas_n: Vec<u64> = Vec::new();
        let mut meas_w: Vec<W512> = Vec::new();
        for &g in &gates {
            narrow.apply_gate(g, &mut meas_n);
            wide.apply_gate(g, &mut meas_w);
        }
        for q in 0..4 {
            for b in 0..8 {
                assert_eq!(
                    narrow.x_plane(q)[b],
                    wide.x_plane(q)[0].lane(b),
                    "x q{q} b{b}"
                );
                assert_eq!(
                    narrow.z_plane(q)[b],
                    wide.z_plane(q)[0].lane(b),
                    "z q{q} b{b}"
                );
            }
        }
        assert_eq!(meas_n.len(), 16);
        assert_eq!(meas_w.len(), 2);
        for m in 0..2 {
            for b in 0..8 {
                assert_eq!(meas_n[m * 8 + b], meas_w[m].lane(b), "meas {m} lane {b}");
            }
        }
    }

    #[test]
    fn prep_clears_and_meas_clears_unobservable_component() {
        let mut sim: FrameSimulator = FrameSimulator::new(1, 64);
        sim.set_frame(0, 0, Pauli::Y);
        let mut flips = Vec::new();
        sim.meas_z(0, &mut flips);
        assert_eq!(flips, vec![1]);
        assert_eq!(sim.z_plane(0)[0], 0, "Z is a phase on a Z eigenstate");
        assert_eq!(sim.x_plane(0)[0], 1, "X survives measurement");
        sim.prep(0);
        assert_eq!(sim.x_plane(0)[0], 0);
    }

    #[test]
    fn channel_injection_rate_is_approximately_p() {
        let mut sim: FrameSimulator = FrameSimulator::new(1, 64 * 256);
        let mut rngs = BlockRngs::new(7, 0, sim.blocks());
        sim.inject_pauli_channel(&PauliChannel::depolarizing(0.3), 0, &mut rngs);
        let errors: u32 = (0..sim.words())
            .map(|w| (sim.x_plane(0)[w] | sim.z_plane(0)[w]).count_ones())
            .sum();
        let rate = f64::from(errors) / (64.0 * 256.0);
        assert!((rate - 0.3).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn channel_kinds_split_correctly() {
        // Pure channels land in the right planes; Y sets both.
        let mut sim: FrameSimulator = FrameSimulator::new(3, 64 * 64);
        let mut rngs = BlockRngs::new(5, 0, sim.blocks());
        sim.inject_pauli_channel(&PauliChannel::bit_flip(0.2), 0, &mut rngs);
        let mut rngs = BlockRngs::new(6, 0, sim.blocks());
        sim.inject_pauli_channel(&PauliChannel::phase_flip(0.2), 1, &mut rngs);
        let mut rngs = BlockRngs::new(8, 0, sim.blocks());
        sim.inject_pauli_channel(&PauliChannel::new(0.0, 0.2, 0.0), 2, &mut rngs);
        assert!(sim.x_plane(0).iter().any(|&w| w != 0));
        assert!(sim.z_plane(0).iter().all(|&w| w == 0));
        assert!(sim.x_plane(1).iter().all(|&w| w == 0));
        assert!(sim.z_plane(1).iter().any(|&w| w != 0));
        assert_eq!(sim.x_plane(2), sim.z_plane(2), "Y sets both components");
        assert!(sim.x_plane(2).iter().any(|&w| w != 0));
    }

    #[test]
    fn certain_error_sets_every_bit() {
        // total probability 1 must deterministically error every shot —
        // the regression anchor for exact-shot-count accounting.
        let mut sim: FrameSimulator = FrameSimulator::new(1, 128);
        let mut rngs = BlockRngs::new(3, 0, sim.blocks());
        sim.inject_pauli_channel(&PauliChannel::bit_flip(1.0), 0, &mut rngs);
        assert!(sim.x_plane(0).iter().all(|&w| w == u64::MAX));
        assert!(sim.z_plane(0).iter().all(|&w| w == 0));
        let mut plane = vec![0u64; 2];
        FrameSimulator::<u64>::xor_flip_plane(1.0, &mut BlockRngs::new(3, 0, 2), &mut plane);
        assert!(plane.iter().all(|&w| w == u64::MAX));
    }

    #[test]
    fn block_streams_are_independent_of_batch_layout() {
        // Sampling blocks [0,4) in one batch must equal sampling [0,2)
        // and [2,4) in two batches.
        let channel = PauliChannel::depolarizing(0.2);
        let mut whole: FrameSimulator = FrameSimulator::new(2, 4 * 64);
        let mut rngs = BlockRngs::new(99, 0, 4);
        for q in 0..2 {
            whole.inject_pauli_channel(&channel, q, &mut rngs);
        }
        let mut lo: FrameSimulator = FrameSimulator::new(2, 2 * 64);
        let mut rngs_lo = BlockRngs::new(99, 0, 2);
        let mut hi: FrameSimulator = FrameSimulator::new(2, 2 * 64);
        let mut rngs_hi = BlockRngs::new(99, 2, 2);
        for q in 0..2 {
            lo.inject_pauli_channel(&channel, q, &mut rngs_lo);
            hi.inject_pauli_channel(&channel, q, &mut rngs_hi);
        }
        for q in 0..2 {
            assert_eq!(&whole.x_plane(q)[..2], lo.x_plane(q));
            assert_eq!(&whole.x_plane(q)[2..], hi.x_plane(q));
            assert_eq!(&whole.z_plane(q)[..2], lo.z_plane(q));
            assert_eq!(&whole.z_plane(q)[2..], hi.z_plane(q));
        }
    }

    #[test]
    fn injection_is_lane_identical_across_widths() {
        // The same (master, base) blocks through u64 and W512 engines:
        // block b must land in lane b % 8 of word b / 8, bit-for-bit.
        let channel = PauliChannel::depolarizing(0.15);
        let mut narrow: FrameSimulator<u64> = FrameSimulator::new(2, 16 * 64);
        let mut rngs = BlockRngs::new(41, 16, 16);
        for q in 0..2 {
            narrow.inject_pauli_channel(&channel, q, &mut rngs);
        }
        let mut wide: FrameSimulator<W512> = FrameSimulator::new(2, 16 * 64);
        let mut rngs = BlockRngs::new(41, 16, 16);
        for q in 0..2 {
            wide.inject_pauli_channel(&channel, q, &mut rngs);
        }
        for q in 0..2 {
            for b in 0..16 {
                assert_eq!(narrow.x_plane(q)[b], wide.x_plane(q)[b / 8].lane(b % 8));
                assert_eq!(narrow.z_plane(q)[b], wide.z_plane(q)[b / 8].lane(b % 8));
            }
        }
        // Same for the classical flip planes.
        let mut plane_n = vec![0u64; 16];
        FrameSimulator::<u64>::xor_flip_plane(0.07, &mut BlockRngs::new(13, 5, 16), &mut plane_n);
        let mut plane_w = vec![W512::ZERO; 2];
        FrameSimulator::<W512>::xor_flip_plane(0.07, &mut BlockRngs::new(13, 5, 16), &mut plane_w);
        for b in 0..16 {
            assert_eq!(plane_n[b], plane_w[b / 8].lane(b % 8), "flip block {b}");
        }
    }

    #[test]
    fn flip_plane_tracks_probability() {
        let mut rngs = BlockRngs::new(3, 0, 128);
        let mut plane = vec![0u64; 128];
        FrameSimulator::<u64>::xor_flip_plane(0.1, &mut rngs, &mut plane);
        let ones: u32 = plane.iter().map(|w| w.count_ones()).sum();
        let rate = f64::from(ones) / (128.0 * 64.0);
        assert!((rate - 0.1).abs() < 0.02, "rate = {rate}");
        let mut none = vec![0u64; 4];
        FrameSimulator::<u64>::xor_flip_plane(0.0, &mut BlockRngs::new(3, 0, 4), &mut none);
        assert!(none.iter().all(|&w| w == 0));
    }

    #[test]
    fn xor_frame_composes_with_existing_frame() {
        let mut sim: FrameSimulator = FrameSimulator::new(1, 64);
        sim.xor_frame(0, 2, Pauli::X);
        sim.xor_frame(0, 2, Pauli::Z); // X then Z = Y (mod sign)
        assert_eq!(sim.x_plane(0)[0], 1 << 2);
        assert_eq!(sim.z_plane(0)[0], 1 << 2);
        sim.xor_frame(0, 2, Pauli::Y); // cancels
        assert_eq!(sim.x_plane(0)[0], 0);
        assert_eq!(sim.z_plane(0)[0], 0);
    }

    #[test]
    fn broadcast_and_clear() {
        let mut sim: FrameSimulator = FrameSimulator::new(2, 128);
        sim.broadcast_pauli(1, Pauli::Y);
        assert!(sim.x_plane(1).iter().all(|&w| w == u64::MAX));
        assert!(sim.z_plane(1).iter().all(|&w| w == u64::MAX));
        assert!(sim.x_plane(0).iter().all(|&w| w == 0));
        sim.clear();
        assert!(sim.x_plane(1).iter().all(|&w| w == 0));
        assert!(sim.z_plane(1).iter().all(|&w| w == 0));
    }

    #[test]
    fn exact_shot_count_is_reported() {
        let sim: FrameSimulator<W512> = FrameSimulator::new(2, 100);
        assert_eq!(sim.num_shots(), 100);
        assert_eq!(sim.capacity(), 512);
        assert_eq!(sim.blocks(), 2);
        assert_eq!(sim.tail_mask().count_ones(), 100);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        let mut sim: FrameSimulator = FrameSimulator::new(2, 64);
        sim.h(2);
    }
}
