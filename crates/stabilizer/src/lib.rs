//! Quantum circuit simulators used as the physical substrate for the QuEST
//! reproduction.
//!
//! Two complementary simulators are provided:
//!
//! * [`Tableau`] — an Aaronson–Gottesman (CHP-style) stabilizer simulator.
//!   It simulates Clifford circuits (H, S, CNOT, Paulis, preparation and
//!   measurement) in polynomial time and is the engine behind the
//!   surface-code experiments: syndrome extraction circuits are pure Clifford
//!   circuits, and Pauli noise commutes through them, so the entire
//!   error-correction loop of the paper is exactly representable.
//! * [`StateVector`] — a small dense state-vector simulator (up to ~20
//!   qubits) used to cross-validate the tableau simulator and to model
//!   non-Clifford gates (the T gate at the heart of magic-state
//!   distillation).
//!
//! # Example
//!
//! Prepare a Bell pair and observe perfectly correlated measurements:
//!
//! ```
//! use quest_stabilizer::{Tableau, StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut t = Tableau::new(2);
//! t.h(0);
//! t.cnot(0, 1);
//! let a = t.measure(0, &mut rng).value;
//! let b = t.measure(1, &mut rng).value;
//! assert_eq!(a, b);
//! ```

#![forbid(unsafe_code)]

pub mod circuit;
pub mod frame;
pub mod noise;
pub mod pauli;
pub mod statevector;
pub mod tableau;

pub use circuit::{Circuit, Gate};
pub use frame::{
    block_seed, BlockRngs, FramePlanes, FrameSimulator, FrameWord, SHOTS_PER_WORD, W512,
};
pub use noise::{NoiseChannel, PauliChannel};
pub use pauli::{Pauli, PauliString};
pub use statevector::{Complex, StateVector};
pub use tableau::{Measurement, Tableau};

// Re-export the RNG types used throughout so downstream crates and doc tests
// do not need a direct `rand` dependency for seeding.
pub use rand::rngs::StdRng;
pub use rand::{Rng, SeedableRng};
