//! Aaronson–Gottesman stabilizer tableau simulator.
//!
//! The tableau tracks `2n` Pauli rows (n destabilizers followed by n
//! stabilizers), stored column-major as in Stim (Gidney, *Quantum* 5, 497,
//! 2021): every qubit owns an X column and a Z column with one bit per
//! row, and the row signs form one more packed column. A Clifford gate is
//! then a few word operations over one or two columns, O(n/64) words. A
//! measurement is O(n) plus O(n·k) word operations for the k rows it
//! multiplies. The results are bit-identical to the CHP algorithm of
//! Aaronson & Gottesman, *Improved simulation of stabilizer circuits*
//! (2004), which updates one row at a time: the same generator rows,
//! signs, outcomes and random draws.

use crate::pauli::{Pauli, PauliString};
use rand::Rng;

const WORD_BITS: usize = 64;

/// Outcome of a single-qubit measurement in the computational basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement {
    /// The measured bit.
    pub value: bool,
    /// `true` when the outcome was fully determined by the state (no
    /// randomness was consumed).
    pub deterministic: bool,
}

/// CHP-style stabilizer tableau over `n` qubits.
///
/// Newly constructed tableaus hold the all-zeros state `|0…0⟩`.
///
/// # Example
///
/// ```
/// use quest_stabilizer::{Tableau, StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut t = Tableau::new(3);
/// t.h(0);
/// t.cnot(0, 1);
/// t.cnot(1, 2);
/// // GHZ state: all three measurements agree.
/// let m0 = t.measure(0, &mut rng).value;
/// assert_eq!(t.measure(1, &mut rng).value, m0);
/// assert_eq!(t.measure(2, &mut rng).value, m0);
/// ```
#[derive(Debug, Clone, Eq)]
pub struct Tableau {
    n: usize,
    /// Words per half column. Destabilizer `i` is bit `i` of a column and
    /// stabilizer `i` is bit `64·half + i`, so both halves are word-aligned
    /// and destabilizer `i` sits at the same bit of its word as stabilizer
    /// `i`. Bits past `n` in either half are always zero.
    half: usize,
    /// X columns: qubit `q` owns words `q·2·half .. (q+1)·2·half`.
    x: Vec<u64>,
    /// Z columns with the same layout.
    z: Vec<u64>,
    /// Sign bits (1 = −1), one column of `2·half` words.
    r: Vec<u64>,
    /// Reusable planes for the random-measurement rowsum: the selected
    /// rows and the two bits of their i-exponent. Not part of the state.
    rowsum: Vec<u64>,
}

impl PartialEq for Tableau {
    fn eq(&self, other: &Tableau) -> bool {
        self.n == other.n && self.x == other.x && self.z == other.z && self.r == other.r
    }
}

/// Bit `b` of the result is the parity of bits `0..b` of `v`.
fn parity_before(v: u64) -> u64 {
    let mut p = v << 1;
    p ^= p << 1;
    p ^= p << 2;
    p ^= p << 4;
    p ^= p << 8;
    p ^= p << 16;
    p ^= p << 32;
    p
}

/// Columns `a` and `b` (`a != b`) of a plane with `words` words per column.
fn col_pair(plane: &mut [u64], words: usize, a: usize, b: usize) -> (&mut [u64], &mut [u64]) {
    let (lo, hi) = (a.min(b), a.max(b));
    let (head, tail) = plane.split_at_mut(hi * words);
    let (low, high) = (&mut head[lo * words..][..words], &mut tail[..words]);
    if a < b {
        (low, high)
    } else {
        (high, low)
    }
}

impl Tableau {
    /// Creates a tableau for `n` qubits in the `|0…0⟩` state.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Tableau {
        assert!(n > 0, "tableau needs at least one qubit");
        let half = n.div_ceil(WORD_BITS);
        let words = 2 * half;
        let mut t = Tableau {
            n,
            half,
            x: vec![0; n * words],
            z: vec![0; n * words],
            r: vec![0; words],
            rowsum: vec![0; 3 * words],
        };
        t.reset_all();
        t
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Reinitialises the tableau to the `|0…0⟩` state in place, keeping
    /// its allocations. Running many shots through one tableau via
    /// `reset_all` avoids reallocating the `O(n²)` bit-matrices per shot.
    /// (Named `reset_all` because [`Tableau::reset`] is the single-qubit
    /// reset operation.)
    pub fn reset_all(&mut self) {
        self.x.fill(0);
        self.z.fill(0);
        self.r.fill(0);
        for i in 0..self.n {
            let at = self.col(i).start + i / WORD_BITS;
            let bit = 1 << (i % WORD_BITS);
            self.x[at] |= bit; // destabilizer i = X_i
            self.z[at + self.half] |= bit; // stabilizer i = Z_i
        }
    }

    /// Words in one column.
    #[inline]
    fn words(&self) -> usize {
        2 * self.half
    }

    /// Word range of qubit `q`'s X and Z columns.
    #[inline]
    fn col(&self, q: usize) -> std::ops::Range<usize> {
        q * self.words()..(q + 1) * self.words()
    }

    #[inline]
    fn check_qubit(&self, q: usize) {
        assert!(q < self.n, "qubit index {q} out of range (n = {})", self.n);
    }

    /// Applies a Hadamard gate to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn h(&mut self, q: usize) {
        self.check_qubit(q);
        let col = self.col(q);
        let (x, z) = (&mut self.x[col.clone()], &mut self.z[col]);
        for ((r, x), z) in self.r.iter_mut().zip(x.iter_mut()).zip(z.iter_mut()) {
            // Phase flips where the row acts as Y on q.
            *r ^= *x & *z;
            std::mem::swap(x, z);
        }
    }

    /// Applies a phase gate `S = diag(1, i)` to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn s(&mut self, q: usize) {
        self.check_qubit(q);
        let col = self.col(q);
        let (x, z) = (&self.x[col.clone()], &mut self.z[col]);
        for ((r, x), z) in self.r.iter_mut().zip(x).zip(z.iter_mut()) {
            *r ^= x & *z;
            *z ^= x;
        }
    }

    /// Applies the inverse phase gate `S† = S³`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn s_dagger(&mut self, q: usize) {
        self.check_qubit(q);
        let col = self.col(q);
        let (x, z) = (&self.x[col.clone()], &mut self.z[col]);
        for ((r, x), z) in self.r.iter_mut().zip(x).zip(z.iter_mut()) {
            *r ^= x & !*z;
            *z ^= x;
        }
    }

    /// Flips the sign of every row where `pick(x, z)` of qubit `q`'s
    /// column words has a bit set.
    fn flip_signs(&mut self, q: usize, pick: impl Fn(u64, u64) -> u64) {
        self.check_qubit(q);
        let col = self.col(q);
        for ((r, x), z) in self
            .r
            .iter_mut()
            .zip(&self.x[col.clone()])
            .zip(&self.z[col])
        {
            *r ^= pick(*x, *z);
        }
    }

    /// Applies a Pauli X (bit flip) to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn x(&mut self, q: usize) {
        self.flip_signs(q, |_, z| z);
    }

    /// Applies a Pauli Z (phase flip) to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn z(&mut self, q: usize) {
        self.flip_signs(q, |x, _| x);
    }

    /// Applies a Pauli Y to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn y(&mut self, q: usize) {
        self.flip_signs(q, |x, z| x ^ z);
    }

    /// Applies a Pauli operator to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn pauli(&mut self, q: usize, p: Pauli) {
        match p {
            Pauli::I => {}
            Pauli::X => self.x(q),
            Pauli::Y => self.y(q),
            Pauli::Z => self.z(q),
        }
    }

    /// Applies a whole Pauli string as an error/correction layer.
    ///
    /// # Panics
    ///
    /// Panics if the string length differs from the qubit count.
    pub fn pauli_string(&mut self, p: &PauliString) {
        assert_eq!(p.len(), self.n, "Pauli string length mismatch");
        for (q, op) in p.iter_support() {
            self.pauli(q, op);
        }
    }

    /// Applies a CNOT with control `c` and target `t`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or `c == t`.
    pub fn cnot(&mut self, c: usize, t: usize) {
        self.check_qubit(c);
        self.check_qubit(t);
        assert_ne!(c, t, "CNOT control and target must differ");
        let words = self.words();
        let (xc, xt) = col_pair(&mut self.x, words, c, t);
        let (zc, zt) = col_pair(&mut self.z, words, c, t);
        let cols = xc
            .iter()
            .zip(xt.iter_mut())
            .zip(zc.iter_mut().zip(zt.iter()));
        for (r, ((xc, xt), (zc, zt))) in self.r.iter_mut().zip(cols) {
            *r ^= xc & zt & !(*xt ^ *zc);
            *xt ^= xc;
            *zc ^= zt;
        }
    }

    /// Applies a controlled-Z between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or `a == b`.
    pub fn cz(&mut self, a: usize, b: usize) {
        self.h(b);
        self.cnot(a, b);
        self.h(b);
    }

    /// Swaps qubits `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds or `a == b`.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.cnot(a, b);
        self.cnot(b, a);
        self.cnot(a, b);
    }

    /// Measures qubit `q` in the computational (Z) basis.
    ///
    /// Random outcomes draw one bit from `rng`; deterministic outcomes draw
    /// nothing and report [`Measurement::deterministic`] = `true`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Measurement {
        self.check_qubit(q);
        let Some(p) = self.pivot(q) else {
            return Measurement {
                value: self.deterministic_outcome(q),
                deterministic: true,
            };
        };
        let value: bool = rng.gen();
        self.collapse(q, p, value);
        Measurement {
            value,
            deterministic: false,
        }
    }

    /// Index of the first stabilizer with an X bit on `q`, i.e. the first
    /// one that anticommutes with `Z_q`.
    fn pivot(&self, q: usize) -> Option<usize> {
        let stab = &self.x[self.col(q)][self.half..];
        let w = stab.iter().position(|&w| w != 0)?;
        Some(w * WORD_BITS + stab[w].trailing_zeros() as usize)
    }

    /// CHP's random-outcome update around pivot stabilizer `p`: every
    /// other row with an X bit on `q` is multiplied by stabilizer `p`,
    /// destabilizer `p` becomes the old stabilizer `p`, and stabilizer `p`
    /// becomes `Z_q` with sign `value`. One pass over the columns does it
    /// all.
    ///
    /// CHP multiplies one row at a time, but stabilizer `p` itself never
    /// changes, so the products are independent. Each selected row's
    /// i-exponent mod 4 accumulates in two bit-planes `c0`/`c1` from the
    /// same per-qubit ±1 terms CHP sums, and the new sign is bit 1 of
    /// `(2r + 2r_p + Σg) mod 4`, i.e. `r ^ r_p ^ c1`. That keeps CHP's
    /// folding of a ±i product into a destabilizer's sign bit.
    fn collapse(&mut self, q: usize, p: usize, value: bool) {
        let words = self.words();
        let (pw, bit) = (self.half + p / WORD_BITS, 1u64 << (p % WORD_BITS));
        let dw = pw - self.half;
        let col = self.col(q);
        let (sel, planes) = self.rowsum.split_at_mut(words);
        let (c0, c1) = planes.split_at_mut(words);
        sel.copy_from_slice(&self.x[col.clone()]);
        sel[pw] &= !bit;
        let lo = sel.iter().position(|&w| w != 0).unwrap_or(words);
        let hi = sel.iter().rposition(|&w| w != 0).map_or(lo, |w| w + 1);
        let (sel, c0, c1) = (&sel[lo..hi], &mut c0[lo..hi], &mut c1[lo..hi]);
        c0.fill(0);
        c1.fill(0);
        for (xs, zs) in self
            .x
            .chunks_exact_mut(words)
            .zip(self.z.chunks_exact_mut(words))
        {
            let (xp, zp) = (xs[pw] & bit, zs[pw] & bit);
            if xp | zp != 0 {
                let rows = xs[lo..hi].iter_mut().zip(&mut zs[lo..hi]);
                for ((x, z), ((&s, c0), c1)) in rows.zip(sel.iter().zip(&mut *c0).zip(&mut *c1)) {
                    // Rows whose product on this qubit gains a factor +i / −i.
                    let (plus, minus) = match (xp != 0, zp != 0) {
                        (true, false) => (!*x & *z, *x & *z),
                        (false, true) => (*x & *z, *x & !*z),
                        _ => (*x & !*z, !*x & *z),
                    };
                    let (plus, minus) = (plus & s, minus & s);
                    *c1 ^= (plus & *c0) | (minus & !*c0);
                    *c0 ^= plus | minus;
                    if xp != 0 {
                        *x ^= s;
                    }
                    if zp != 0 {
                        *z ^= s;
                    }
                }
            }
            xs[dw] = (xs[dw] & !bit) | xp;
            zs[dw] = (zs[dw] & !bit) | zp;
            xs[pw] &= !bit;
            zs[pw] &= !bit;
        }
        let rp = if self.r[pw] & bit != 0 { !0 } else { 0 };
        for ((r, s), c1) in self.r[lo..hi].iter_mut().zip(sel).zip(&*c1) {
            *r ^= s & (rp ^ c1);
        }
        self.r[dw] = (self.r[dw] & !bit) | (self.r[pw] & bit);
        self.r[pw] = (self.r[pw] & !bit) | if value { bit } else { 0 };
        self.z[col.start + pw] |= bit;
    }

    /// Outcome of measuring `Z_q` when no stabilizer anticommutes with it:
    /// the sign of the product of the stabilizers whose destabilizers have
    /// an X bit on `q`.
    ///
    /// These stabilizers commute, so the product's sign does not depend on
    /// the order CHP multiplies them in. Writing each row as
    /// `(−1)^r i^{x·z} X^x Z^z` and moving every `Z^{z_a}` right past the
    /// later `X^{x_b}`, the product of rows `1..k` is
    /// `(−1)^{Σr} i^e X^{⊕x} Z^{⊕z}` with
    /// `e = Σ|x_a∧z_a| + 2·#{a<b : z_a∧x_b}`, counted per qubit over that
    /// qubit's column. The product is `±Z_q`, which has no Y to absorb a
    /// factor of i, so `e` is even and the outcome is `Σr + e/2 mod 2`.
    fn deterministic_outcome(&self, q: usize) -> bool {
        let (words, half) = (self.words(), self.half);
        // Destabilizer bit i selects stabilizer bit i of the other half.
        let sel = &self.x[self.col(q)][..half];
        let Some(lo) = sel.iter().position(|&w| w != 0) else {
            return false;
        };
        let hi = sel.iter().rposition(|&w| w != 0).map_or(lo, |w| w + 1);
        let sign: u32 = sel
            .iter()
            .zip(&self.r[half..])
            .map(|(s, r)| (s & r).count_ones())
            .sum();
        if sel.iter().map(|w| w.count_ones()).sum::<u32>() == 1 {
            return sign & 1 == 1;
        }
        let (sel, span) = (&sel[lo..hi], half + lo..half + hi);
        let mut e = 0u32;
        for (xs, zs) in self.x.chunks_exact(words).zip(self.z.chunks_exact(words)) {
            let mut z_before = 0u64;
            for ((&x, &z), &s) in xs[span.clone()].iter().zip(&zs[span.clone()]).zip(sel) {
                let (x, z) = (x & s, z & s);
                if x | z == 0 {
                    continue;
                }
                let pairs = (x & (parity_before(z) ^ z_before)).count_ones();
                e = e.wrapping_add((x & z).count_ones() + 2 * pairs);
                // All ones while the Z bits of earlier words have odd parity.
                z_before ^= 0u64.wrapping_sub(u64::from(z.count_ones() & 1));
            }
        }
        debug_assert_eq!(e & 1, 0, "a product of stabilizers is Hermitian");
        (sign ^ (e >> 1)) & 1 == 1
    }

    /// Measures qubit `q` in the X basis (conjugating by Hadamards).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn measure_x<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Measurement {
        self.h(q);
        let m = self.measure(q, rng);
        self.h(q);
        m
    }

    /// Resets qubit `q` to `|0⟩` (measure, then flip if needed).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn reset<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        if self.measure(q, rng).value {
            self.x(q);
        }
    }

    /// Resets qubit `q` to `|+⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn reset_plus<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        self.reset(q, rng);
        self.h(q);
    }

    /// Returns the probability that measuring qubit `q` yields 1, which for
    /// stabilizer states is always 0, ½, or 1.
    ///
    /// Unlike [`Tableau::measure`] this does not disturb the state.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of bounds.
    pub fn prob_one(&self, q: usize) -> f64 {
        self.check_qubit(q);
        if self.pivot(q).is_some() {
            0.5
        } else if self.deterministic_outcome(q) {
            1.0
        } else {
            0.0
        }
    }

    /// Returns stabilizer `i` (for `i < n`) as a signed Pauli string.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn stabilizer(&self, i: usize) -> PauliString {
        assert!(i < self.n, "stabilizer index out of range");
        self.row_to_pauli_string(self.half * WORD_BITS + i)
    }

    /// Returns destabilizer `i` (for `i < n`) as a signed Pauli string.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn destabilizer(&self, i: usize) -> PauliString {
        assert!(i < self.n, "destabilizer index out of range");
        self.row_to_pauli_string(i)
    }

    /// Returns `true` when the signed Pauli operator `p` stabilizes the
    /// current state (i.e. `p |ψ⟩ = |ψ⟩`).
    ///
    /// # Panics
    ///
    /// Panics if the string length differs from the qubit count.
    pub fn is_stabilized_by(&self, p: &PauliString) -> bool {
        assert_eq!(p.len(), self.n, "Pauli string length mismatch");
        // p must commute with every stabilizer generator...
        for i in 0..self.n {
            if !self.stabilizer(i).commutes_with(p) {
                return false;
            }
        }
        // ...and be generated by them with matching sign. Reduce p against
        // the stabilizer set using destabilizer pivots: stabilizer row i is
        // the unique generator anticommuting with destabilizer i.
        let mut acc = PauliString::identity(self.n);
        for i in 0..self.n {
            if !self.destabilizer(i).commutes_with(p) {
                acc.mul_assign(&self.stabilizer(i));
            }
        }
        // The accumulated product must equal p exactly (including sign).
        for q in 0..self.n {
            if acc.get(q) != p.get(q) {
                return false;
            }
        }
        acc.is_negative() == p.is_negative()
    }

    /// Reads row `row` (bit index within a column) as a signed Pauli string.
    fn row_to_pauli_string(&self, row: usize) -> PauliString {
        let mut p = PauliString::identity(self.n);
        let (w, bit) = (row / WORD_BITS, 1u64 << (row % WORD_BITS));
        for q in 0..self.n {
            let at = self.col(q).start + w;
            p.set(
                q,
                Pauli::from_xz(self.x[at] & bit != 0, self.z[at] & bit != 0),
            );
        }
        if self.r[w] & bit != 0 {
            p.negate();
        }
        p
    }

    /// Checks internal invariants: stabilizers commute pairwise, destabilizer
    /// `i` anticommutes with stabilizer `i` only. Used by tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        for i in 0..self.n {
            for j in 0..self.n {
                let si = self.stabilizer(i);
                let sj = self.stabilizer(j);
                assert!(si.commutes_with(&sj), "stabilizers {i},{j} anticommute");
                let di = self.destabilizer(i);
                if i == j {
                    assert!(
                        !di.commutes_with(&sj),
                        "destabilizer {i} commutes with its stabilizer"
                    );
                } else {
                    assert!(
                        di.commutes_with(&sj),
                        "destabilizer {i} anticommutes with stabilizer {j}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn fresh_state_measures_zero_deterministically() {
        let mut t = Tableau::new(5);
        let mut rng = rng();
        for q in 0..5 {
            let m = t.measure(q, &mut rng);
            assert!(!m.value);
            assert!(m.deterministic);
        }
    }

    #[test]
    fn x_flips_measurement() {
        let mut t = Tableau::new(3);
        let mut rng = rng();
        t.x(1);
        assert!(!t.measure(0, &mut rng).value);
        assert!(t.measure(1, &mut rng).value);
        assert!(!t.measure(2, &mut rng).value);
    }

    #[test]
    fn hadamard_gives_random_then_repeatable_outcome() {
        let mut rng = rng();
        let mut ones = 0;
        for seed in 0..64 {
            let mut t = Tableau::new(1);
            t.h(0);
            let mut local = StdRng::seed_from_u64(seed);
            let m1 = t.measure(0, &mut local);
            assert!(!m1.deterministic);
            // Second measurement must repeat the first, deterministically.
            let m2 = t.measure(0, &mut rng);
            assert!(m2.deterministic);
            assert_eq!(m1.value, m2.value);
            ones += m1.value as u32;
        }
        // Both outcomes occur across seeds.
        assert!(ones > 10 && ones < 54, "ones = {ones}");
    }

    #[test]
    fn bell_pair_is_correlated() {
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Tableau::new(2);
            t.h(0);
            t.cnot(0, 1);
            let a = t.measure(0, &mut rng);
            let b = t.measure(1, &mut rng);
            assert!(!a.deterministic);
            assert!(b.deterministic);
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn ghz_stabilizers() {
        let mut t = Tableau::new(3);
        t.h(0);
        t.cnot(0, 1);
        t.cnot(1, 2);
        // XXX stabilizes GHZ.
        let xxx = PauliString::from_sparse(3, &[(0, Pauli::X), (1, Pauli::X), (2, Pauli::X)]);
        assert!(t.is_stabilized_by(&xxx));
        // ZZI stabilizes GHZ.
        let zzi = PauliString::from_sparse(3, &[(0, Pauli::Z), (1, Pauli::Z)]);
        assert!(t.is_stabilized_by(&zzi));
        // ZII does not.
        let zii = PauliString::from_sparse(3, &[(0, Pauli::Z)]);
        assert!(!t.is_stabilized_by(&zii));
        // -XXX does not (wrong sign).
        let mut neg = xxx.clone();
        neg.negate();
        assert!(!t.is_stabilized_by(&neg));
    }

    #[test]
    fn s_gate_turns_x_into_y() {
        // S X S† = Y, so H then S gives a state stabilized by Y.
        let mut t = Tableau::new(1);
        t.h(0);
        t.s(0);
        let y = PauliString::from_sparse(1, &[(0, Pauli::Y)]);
        assert!(t.is_stabilized_by(&y));
    }

    #[test]
    fn s_dagger_inverts_s() {
        let mut t = Tableau::new(2);
        t.h(0);
        t.cnot(0, 1);
        let before = t.clone();
        t.s(1);
        t.s_dagger(1);
        assert_eq!(t, before);
    }

    #[test]
    fn cz_is_symmetric() {
        let mut a = Tableau::new(2);
        a.h(0);
        a.h(1);
        let mut b = a.clone();
        a.cz(0, 1);
        b.cz(1, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn swap_moves_excitation() {
        let mut t = Tableau::new(2);
        let mut rng = rng();
        t.x(0);
        t.swap(0, 1);
        assert!(!t.measure(0, &mut rng).value);
        assert!(t.measure(1, &mut rng).value);
    }

    #[test]
    fn reset_forces_zero() {
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Tableau::new(2);
            t.h(0);
            t.cnot(0, 1);
            t.reset(0, &mut rng);
            let m = t.measure(0, &mut rng);
            assert!(m.deterministic);
            assert!(!m.value);
        }
    }

    #[test]
    fn reset_plus_is_stabilized_by_x() {
        let mut rng = rng();
        let mut t = Tableau::new(1);
        t.x(0);
        t.reset_plus(0, &mut rng);
        let x = PauliString::from_sparse(1, &[(0, Pauli::X)]);
        assert!(t.is_stabilized_by(&x));
    }

    #[test]
    fn prob_one_reports_without_disturbing() {
        let mut t = Tableau::new(2);
        t.h(0);
        assert_eq!(t.prob_one(0), 0.5);
        assert_eq!(t.prob_one(1), 0.0);
        t.x(1);
        assert_eq!(t.prob_one(1), 1.0);
        // prob_one(0) did not collapse qubit 0.
        assert_eq!(t.prob_one(0), 0.5);
    }

    #[test]
    fn measure_x_detects_plus_state() {
        let mut rng = rng();
        let mut t = Tableau::new(1);
        t.h(0);
        let m = t.measure_x(0, &mut rng);
        assert!(m.deterministic);
        assert!(!m.value);
        t.z(0); // |+⟩ -> |−⟩
        let m = t.measure_x(0, &mut rng);
        assert!(m.deterministic);
        assert!(m.value);
    }

    #[test]
    fn invariants_hold_after_random_circuit() {
        let mut rng = rng();
        // 70 qubits forces multi-word rows.
        let mut t = Tableau::new(70);
        for step in 0..500 {
            match step % 5 {
                0 => t.h(rng.gen_range(0..70)),
                1 => t.s(rng.gen_range(0..70)),
                2 => {
                    let c = rng.gen_range(0..70);
                    let mut tq = rng.gen_range(0..70);
                    if tq == c {
                        tq = (tq + 1) % 70;
                    }
                    t.cnot(c, tq);
                }
                3 => t.x(rng.gen_range(0..70)),
                _ => {
                    let q = rng.gen_range(0..70);
                    t.measure(q, &mut rng);
                }
            }
        }
        t.check_invariants();
    }

    #[test]
    fn pauli_errors_commute_through_cnot_as_expected() {
        // X on control propagates to X on both qubits through CNOT.
        let mut rng = rng();
        let mut t = Tableau::new(2);
        t.x(0);
        t.cnot(0, 1);
        assert!(t.measure(0, &mut rng).value);
        assert!(t.measure(1, &mut rng).value);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        let mut t = Tableau::new(2);
        t.h(2);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn cnot_same_qubit_panics() {
        let mut t = Tableau::new(2);
        t.cnot(1, 1);
    }

    #[test]
    fn reset_all_restores_the_fresh_state() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = Tableau::new(3);
        t.h(0);
        t.cnot(0, 1);
        t.s(2);
        let _ = t.measure(0, &mut rng);
        t.reset_all();
        assert_eq!(t, Tableau::new(3));
        // A reused tableau behaves exactly like a fresh one.
        t.x(1);
        assert!(t.measure(1, &mut rng).value);
        assert!(!t.measure(0, &mut rng).value);
    }
}
