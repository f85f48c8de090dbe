//! The single-threaded QuEST system: an array of MCEs over one shared
//! substrate.
//!
//! §4.2 organizes the control processor as an array of MCEs, each owning
//! a tiled subsection of the substrate, with the master controller
//! orchestrating logical operations across tiles; a one-tile machine is
//! an array of length one. The paper does not
//! evaluate cross-MCE logical instructions (footnote 9); this module
//! implements them as an *extension*: a transversal logical CNOT between
//! two same-distance tiles (physically exact for CSS codes — the rotated
//! surface code's logical CNOT is transversal qubit-by-qubit), with the
//! master coordinating via sync tokens and the MCEs' Pauli frames
//! propagating through the gate as they must (`X` frames copy
//! control→target, `Z` frames copy target→control).
//!
//! Instruction delivery and bus accounting go through the shared
//! [`DeliveryEngine`], so a multi-tile system can
//! be driven in any [`DeliveryMode`] — per-tile logical dispatch, cached
//! distillation-kernel replay, and (in the software baseline) per-cycle
//! QECC instruction traffic for every tile. The same workload accounted
//! in the three modes reproduces the architecture comparison of
//! Figure 14 *from simulation* rather than from the analytical model
//! (see [`MultiTileSystem::run_memory_workload`]).

use crate::delivery::{DeliveryEngine, DeliveryMode};
use crate::error::{check_distance, check_probability, BuildError, CnotError};
use crate::fault::RecoveryStats;
use crate::master::MasterController;
use crate::mce::Mce;
use crate::report::{decode_totals, RunReport};
use crate::tile;
use quest_isa::{InstrClass, LogicalInstr, LogicalProgram};
use quest_stabilizer::{PauliChannel, Tableau};
use quest_surface::{DecoderChoice, RotatedLattice};
use rand::Rng;

pub use crate::tile::LogicalBasis;

/// Instruction-buffer bytes per MCE (the §5.3 cache capacity used by
/// every system in this crate and by the runtime's shard workers).
pub const MCE_IBUF_BYTES: usize = 65_536;

/// An array of MCE-driven tiles over one simulated substrate.
///
/// # Example
///
/// ```
/// use quest_core::multi_tile::{LogicalBasis, MultiTileSystem};
/// use quest_stabilizer::{SeedableRng, StdRng};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// let mut sys = MultiTileSystem::new(3, 2, 0.0)?;
/// sys.prep_logical(0, LogicalBasis::Zero, &mut rng);
/// sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
/// sys.run_noisy_cycle(&mut rng);
/// sys.transversal_cnot(0, 1)?;
/// assert!(!sys.measure_logical_z(0, &mut rng));
/// assert!(!sys.measure_logical_z(1, &mut rng));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiTileSystem {
    lattice: RotatedLattice,
    mces: Vec<Mce>,
    master: MasterController,
    substrate: Tableau,
    noise: PauliChannel,
    engine: DeliveryEngine,
}

impl MultiTileSystem {
    /// Builds `tiles` distance-`d` tiles with per-round depolarizing data
    /// noise of total probability `p`, delivering instructions in
    /// [`DeliveryMode::QuestMce`] (hardware-managed QECC, uncached
    /// logical instructions).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if `tiles` is zero, `d` is not an odd
    /// number ≥ 3, or `p` is outside `[0, 1]`.
    pub fn new(d: usize, tiles: usize, p: f64) -> Result<MultiTileSystem, BuildError> {
        MultiTileSystem::with_delivery(d, tiles, p, DeliveryMode::QuestMce)
    }

    /// Like [`MultiTileSystem::new`] with an explicit delivery mode.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] on the same invalid parameters as
    /// [`MultiTileSystem::new`].
    pub fn with_delivery(
        d: usize,
        tiles: usize,
        p: f64,
        mode: DeliveryMode,
    ) -> Result<MultiTileSystem, BuildError> {
        MultiTileSystem::with_delivery_decoder(d, tiles, p, mode, DecoderChoice::default())
    }

    /// Like [`MultiTileSystem::with_delivery`] with an explicit global
    /// decoder backend for the master controller.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] on the same invalid parameters as
    /// [`MultiTileSystem::new`].
    pub fn with_delivery_decoder(
        d: usize,
        tiles: usize,
        p: f64,
        mode: DeliveryMode,
        decoder: DecoderChoice,
    ) -> Result<MultiTileSystem, BuildError> {
        check_distance(d)?;
        check_probability("error rate", p)?;
        if tiles == 0 {
            return Err(BuildError::NoTiles);
        }
        let lattice = RotatedLattice::new(d);
        let tile_width = lattice.num_qubits();
        let mces = (0..tiles)
            .map(|i| Mce::with_offset(&lattice, MCE_IBUF_BYTES, i * tile_width))
            .collect();
        Ok(MultiTileSystem {
            substrate: Tableau::new(tiles * tile_width),
            lattice,
            mces,
            master: MasterController::with_decoder(decoder),
            noise: PauliChannel::depolarizing(p),
            engine: DeliveryEngine::new(mode),
        })
    }

    /// Like [`MultiTileSystem::new`], additionally corrupting every
    /// tile's syndrome measurements with probability `q` in the MCE
    /// readout chain.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] on the same invalid parameters as
    /// [`MultiTileSystem::new`], or if `q` is outside `[0, 1]`.
    pub fn with_measurement_noise(
        d: usize,
        tiles: usize,
        p: f64,
        q: f64,
    ) -> Result<MultiTileSystem, BuildError> {
        check_probability("measurement flip probability", q)?;
        let mut sys = MultiTileSystem::new(d, tiles, p)?;
        for mce in &mut sys.mces {
            mce.set_measurement_flip(q);
        }
        Ok(sys)
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.mces.len()
    }

    /// The delivery mode this system accounts under.
    pub fn delivery(&self) -> DeliveryMode {
        self.engine.mode()
    }

    /// The shared tile lattice.
    pub fn lattice(&self) -> &RotatedLattice {
        &self.lattice
    }

    /// The MCE of tile `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn mce(&self, i: usize) -> &Mce {
        &self.mces[i]
    }

    /// The MCEs of all tiles, in tile order.
    pub fn mces(&self) -> &[Mce] {
        &self.mces
    }

    /// The master controller (bus counters live here).
    pub fn master(&self) -> &MasterController {
        &self.master
    }

    /// Prepares tile `i`'s logical qubit (bootstrap: direct transverse
    /// reset of the data qubits, then QECC projection on the next cycle).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn prep_logical<R: Rng + ?Sized>(&mut self, i: usize, basis: LogicalBasis, rng: &mut R) {
        tile::prep_logical(&mut self.mces[i], basis, &mut self.substrate, rng);
    }

    /// Delivers one logical instruction to tile `i` through the engine
    /// (bus-accounted under this system's delivery mode).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn dispatch_logical(&mut self, i: usize, instr: LogicalInstr, class: InstrClass) {
        self.engine
            .dispatch(&mut self.master, &mut self.mces[i], instr, class);
    }

    /// Runs a distillation kernel `replays` times on tile `i` through the
    /// engine: per-replay dispatch in the uncached modes, fill-once +
    /// replay commands under [`DeliveryMode::QuestMceCache`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn run_kernel(&mut self, i: usize, kernel: &[LogicalInstr], replays: u64) {
        self.engine
            .kernel(&mut self.master, &mut self.mces[i], kernel, replays);
    }

    /// Issues a master→MCE sync token to tile `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sync_tile(&mut self, i: usize) {
        self.master.sync(&mut self.mces[i], 0);
    }

    /// Runs one noisy QECC cycle on every tile and services escalations.
    /// Under [`DeliveryMode::SoftwareBaseline`] the cycle's physical
    /// instruction stream is bus-accounted for every tile.
    pub fn run_noisy_cycle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for mce in &self.mces {
            tile::noise_layer(mce, &self.noise, &mut self.substrate, rng);
        }
        for mce in &mut self.mces {
            tile::qecc_cycle_serviced(mce, &mut self.master, &mut self.substrate, rng);
        }
        self.account_cycle_all_tiles();
    }

    /// Like [`MultiTileSystem::run_noisy_cycle`], but with one independent
    /// RNG stream per tile (`rngs[i]` drives tile `i`'s noise layer and
    /// QECC cycle). This is the reference semantics for the concurrent
    /// runtime: because each tile consumes only its own stream, the
    /// outcome is invariant under any grouping of tiles onto threads.
    ///
    /// # Panics
    ///
    /// Panics if `rngs.len()` differs from the tile count.
    pub fn run_noisy_cycle_streams<R: Rng>(&mut self, rngs: &mut [R]) {
        assert_eq!(rngs.len(), self.mces.len(), "one RNG stream per tile");
        for (mce, rng) in self.mces.iter().zip(rngs.iter_mut()) {
            tile::noise_layer(mce, &self.noise, &mut self.substrate, rng);
        }
        for (mce, rng) in self.mces.iter_mut().zip(rngs.iter_mut()) {
            tile::qecc_cycle_serviced(mce, &mut self.master, &mut self.substrate, rng);
        }
        self.account_cycle_all_tiles();
    }

    fn account_cycle_all_tiles(&mut self) {
        let cycle_len = self.mces[0].microcode().cycle_len();
        for _ in 0..self.mces.len() {
            self.engine
                .account_cycle(&mut self.master, self.lattice.num_qubits(), cycle_len);
        }
    }

    /// Transversal logical CNOT from tile `control` to tile `target`:
    /// a physical CNOT between every pair of corresponding data qubits.
    /// Pauli frames propagate through the gate (pending X corrections on
    /// the control copy onto the target; pending Z corrections on the
    /// target copy onto the control), and the master issues a sync token
    /// to both MCEs.
    ///
    /// # Errors
    ///
    /// [`CnotError`] if the tile indices coincide or are out of range, or
    /// if either tile has not yet run a QECC cycle. A rejected CNOT
    /// leaves the system (including bus accounting) unchanged.
    pub fn transversal_cnot(&mut self, control: usize, target: usize) -> Result<(), CnotError> {
        tile::transversal_cnot_physics(&mut self.mces, &mut self.substrate, control, target)?;

        // Master-controller coordination: one sync token per involved MCE.
        self.master.sync_remote(0);
        self.master.sync_remote(0);
        Ok(())
    }

    /// Applies a logical X to tile `i` through its MCE's instruction path.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn logical_x(&mut self, i: usize) {
        self.mces[i].execute_logical(quest_isa::LogicalInstr::X(quest_isa::LogicalQubit(0)));
    }

    /// Reads out tile `i`'s logical qubit in the Z basis (destructive).
    /// The final decoding round's residual detection events cross the bus
    /// upstream and are accounted as syndrome traffic.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn measure_logical_z<R: Rng + ?Sized>(&mut self, i: usize, rng: &mut R) -> bool {
        let readout = self.mces[i].measure_logical_z_details(&mut self.substrate, rng);
        self.master.note_readout_syndrome(readout.final_events);
        readout.value
    }

    /// Runs a logical-Z memory workload of `cycles` QECC cycles on every
    /// tile, in the op order of `quest-runtime`'s
    /// `WorkloadSpec::delivery_memory`: each tile is delivered the
    /// program's non-distillation instructions and then its
    /// distillation-class instructions as one T-factory kernel that
    /// executes `distillation_replays` times (§5.2: distillation runs
    /// continuously); then `cycles` noisy cycles, one sync token per tile
    /// (cache management + logical movement, §7), and one Z readout per
    /// tile. Under [`DeliveryMode::QuestMceCache`] the kernel crosses the
    /// bus once and replays from the MCE instruction cache thereafter.
    ///
    /// Every draw comes from `rng`, in tile order, so with one tile the
    /// run equals `quest-runtime`'s `run_reference` of the same workload
    /// driven by the tile-0 stream.
    pub fn run_memory_workload<R: Rng + ?Sized>(
        &mut self,
        cycles: u64,
        program: &LogicalProgram,
        distillation_replays: u64,
        rng: &mut R,
    ) -> RunReport {
        let kernel: Vec<LogicalInstr> = program
            .iter()
            .filter(|(_, c)| *c == InstrClass::Distillation)
            .map(|(i, _)| *i)
            .collect();
        for tile in 0..self.mces.len() {
            for &(instr, class) in program {
                if class != InstrClass::Distillation {
                    self.dispatch_logical(tile, instr, class);
                }
            }
            self.run_kernel(tile, &kernel, distillation_replays);
        }
        for _ in 0..cycles {
            self.run_noisy_cycle(rng);
        }
        for tile in 0..self.mces.len() {
            self.sync_tile(tile);
        }
        let outcomes = (0..self.mces.len())
            .map(|tile| (tile, self.measure_logical_z(tile, rng)))
            .collect();
        self.report(outcomes, cycles)
    }

    /// The unified [`RunReport`] of this system's run so far: the given
    /// readout `outcomes` and per-tile `qecc_cycles`, plus the bus
    /// ledger, decode counters and master stats accumulated here.
    pub fn report(&self, outcomes: Vec<(usize, bool)>, qecc_cycles: u64) -> RunReport {
        let (local_decodes, escalations) = decode_totals(&self.mces);
        RunReport {
            delivery: self.engine.mode(),
            outcomes,
            bus: *self.master.bus(),
            qecc_cycles,
            local_decodes,
            escalations,
            master: self.master.stats(),
            decode_cost: self.master.decoder_cost(),
            recovery: RecoveryStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Traffic;
    use quest_isa::LogicalQubit;
    use quest_stabilizer::{SeedableRng, StdRng};
    use quest_surface::StabKind;

    #[test]
    fn invalid_parameters_are_typed_errors() {
        assert_eq!(
            MultiTileSystem::new(3, 0, 0.0).unwrap_err(),
            BuildError::NoTiles
        );
        assert_eq!(
            MultiTileSystem::new(6, 2, 0.0).unwrap_err(),
            BuildError::InvalidDistance(6)
        );
        assert!(matches!(
            MultiTileSystem::new(3, 2, f64::NAN).unwrap_err(),
            BuildError::InvalidProbability { .. }
        ));
        assert!(MultiTileSystem::new(3, 2, 0.5).is_ok());
        assert_eq!(
            MultiTileSystem::new(4, 1, 0.0).unwrap_err(),
            BuildError::InvalidDistance(4)
        );
        assert_eq!(
            MultiTileSystem::new(2, 1, 0.0).unwrap_err(),
            BuildError::InvalidDistance(2)
        );
        assert!(matches!(
            MultiTileSystem::new(3, 1, 1.5).unwrap_err(),
            BuildError::InvalidProbability { .. }
        ));
        assert!(matches!(
            MultiTileSystem::with_measurement_noise(3, 1, 0.0, -0.1).unwrap_err(),
            BuildError::InvalidProbability { .. }
        ));
        assert!(MultiTileSystem::new(3, 1, 0.0).is_ok());
    }

    fn program() -> LogicalProgram {
        let mut p = LogicalProgram::new();
        for i in 0..10u8 {
            p.push(
                LogicalInstr::H(LogicalQubit(i % 4)),
                InstrClass::Algorithmic,
            );
        }
        for _ in 0..50 {
            p.push(
                LogicalInstr::Cnot {
                    control: LogicalQubit(0),
                    target: LogicalQubit(1),
                },
                InstrClass::Distillation,
            );
        }
        p
    }

    /// One tile delivering in `mode`, with data noise `p`.
    fn single_tile(p: f64, mode: DeliveryMode) -> MultiTileSystem {
        MultiTileSystem::with_delivery(3, 1, p, mode).unwrap()
    }

    #[test]
    fn baseline_moves_orders_of_magnitude_more_bytes() {
        // Per-cycle QECC traffic dwarfs the one-shot logical program. Use
        // a modest replay count so the distillation stream stays below the
        // per-tile QECC stream (on a 17-qubit tile; at scale the gap is
        // five orders — see the analytical model).
        let mut rng = StdRng::seed_from_u64(3);
        let cycles = 200;
        let mut base = single_tile(1e-3, DeliveryMode::SoftwareBaseline);
        let b = base.run_memory_workload(cycles, &program(), 1, &mut rng);
        let mut quest = single_tile(1e-3, DeliveryMode::QuestMce);
        let q = quest.run_memory_workload(cycles, &program(), 1, &mut rng);
        assert!(
            b.bus_bytes() > 50 * q.bus_bytes(),
            "baseline {} vs QuEST {}",
            b.bus_bytes(),
            q.bus_bytes()
        );
    }

    #[test]
    fn cached_distillation_traffic_is_replay_count_independent() {
        // The cache decouples bus traffic from how often the kernel runs.
        let run = |replays: u64, mode: DeliveryMode| {
            single_tile(0.0, mode).run_memory_workload(
                5,
                &program(),
                replays,
                &mut StdRng::seed_from_u64(4),
            )
        };
        let f = run(10, DeliveryMode::QuestMceCache);
        let m = run(1000, DeliveryMode::QuestMceCache);
        // 990 extra replays cost only 2 bytes each (the replay command).
        assert_eq!(m.bus_bytes() - f.bus_bytes(), 990 * 2);
        // While the uncached mode pays the full kernel every time.
        let p = run(1000, DeliveryMode::QuestMce);
        assert!(
            p.bus_bytes() > 40 * m.bus_bytes(),
            "{} vs {}",
            p.bus_bytes(),
            m.bus_bytes()
        );
    }

    #[test]
    fn cache_mode_cuts_distillation_traffic() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut plain = single_tile(0.0, DeliveryMode::QuestMce);
        let p = plain.run_memory_workload(10, &program(), 10, &mut rng);
        let mut cached = single_tile(0.0, DeliveryMode::QuestMceCache);
        let c = cached.run_memory_workload(10, &program(), 10, &mut rng);
        // With one kernel occurrence, fill ≈ dispatch; the win shows in
        // the distillation class being replaced by one-time cache fill.
        assert_eq!(
            c.bus_bytes_of(Traffic::Distillation),
            0,
            "cached mode sends no per-instance distillation instructions"
        );
        assert!(c.bus_bytes() <= p.bus_bytes() + 4);
    }

    #[test]
    fn noiseless_run_is_logically_clean_and_quiet() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut sys = MultiTileSystem::new(3, 1, 0.0).unwrap();
        let r = sys.run_memory_workload(50, &LogicalProgram::new(), 0, &mut rng);
        assert!(r.logical_ok());
        assert_eq!(r.local_decodes, 0);
        assert_eq!(r.escalations, 0);
        assert_eq!(r.qecc_cycles, 50);
        assert_eq!(r.outcomes, vec![(0, false)]);
    }

    #[test]
    fn noisy_run_mostly_survives_at_low_error_rate() {
        let mut failures = 0;
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sys = MultiTileSystem::new(3, 1, 2e-3).unwrap();
            let r = sys.run_memory_workload(20, &LogicalProgram::new(), 0, &mut rng);
            if !r.logical_ok() {
                failures += 1;
            }
        }
        assert!(failures <= 2, "{failures}/20 logical failures at p=2e-3");
    }

    #[test]
    fn measurement_readout_noise_self_heals() {
        // An isolated measurement flip produces one event in round k and
        // one in round k+1 at the same check; the single-round LUT applies
        // the same (spurious) data correction twice, which XOR-cancels in
        // the Pauli frame. Logical information must survive pure readout
        // noise with high probability. Coincident flips can still fool the
        // single-round decoder: the measured base failure rate at these
        // parameters is ~10% over 400 seeds, so the bound leaves ~3 sigma
        // of headroom above the binomial mean of 2.5/25.
        let mut failures = 0;
        let shots = 25;
        for seed in 0..shots {
            let mut rng = StdRng::seed_from_u64(400 + seed);
            let mut sys = MultiTileSystem::with_measurement_noise(3, 1, 0.0, 0.02).unwrap();
            let r = sys.run_memory_workload(40, &LogicalProgram::new(), 0, &mut rng);
            failures += (!r.logical_ok()) as u32;
        }
        assert!(
            failures <= 7,
            "{failures}/{shots} failures under readout noise"
        );
    }

    #[test]
    fn two_level_decoding_is_actually_used() {
        // At a moderate error rate over many cycles, the local decoder
        // must resolve most rounds and escalations must be rare.
        let mut rng = StdRng::seed_from_u64(6);
        let mut sys = MultiTileSystem::new(5, 1, 3e-3).unwrap();
        let r = sys.run_memory_workload(300, &LogicalProgram::new(), 0, &mut rng);
        assert!(r.local_decodes > 0, "local decoder never fired");
        assert!(
            r.local_decodes > r.escalations,
            "local {} vs escalated {}",
            r.local_decodes,
            r.escalations
        );
    }

    #[test]
    fn zero_zero_cnot_stays_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
        sys.prep_logical(0, LogicalBasis::Zero, &mut rng);
        sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
        sys.run_noisy_cycle(&mut rng);
        sys.transversal_cnot(0, 1).unwrap();
        sys.run_noisy_cycle(&mut rng);
        assert!(!sys.measure_logical_z(0, &mut rng));
        assert!(!sys.measure_logical_z(1, &mut rng));
    }

    #[test]
    fn physical_logical_one_propagates() {
        // Flip the control's logical value *physically* (X along the
        // logical-X column); the CNOT must flip the target.
        let mut rng = StdRng::seed_from_u64(2);
        let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
        sys.prep_logical(0, LogicalBasis::Zero, &mut rng);
        sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
        sys.run_noisy_cycle(&mut rng);
        // Physical logical X on tile 0.
        let lat = sys.lattice().clone();
        let off = sys.mce(0).substrate_index(0);
        for row in 0..lat.distance() {
            sys.substrate.x(off + lat.data_index(row, 0));
        }
        sys.transversal_cnot(0, 1).unwrap();
        sys.run_noisy_cycle(&mut rng);
        assert!(sys.measure_logical_z(0, &mut rng));
        assert!(sys.measure_logical_z(1, &mut rng));
    }

    #[test]
    fn frame_only_logical_one_propagates() {
        // Flip the control's logical value in the *Pauli frame* only; the
        // frame must ride through the CNOT.
        let mut rng = StdRng::seed_from_u64(3);
        let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
        sys.prep_logical(0, LogicalBasis::Zero, &mut rng);
        sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
        sys.run_noisy_cycle(&mut rng);
        sys.logical_x(0);
        sys.transversal_cnot(0, 1).unwrap();
        assert!(sys.measure_logical_z(0, &mut rng));
        assert!(sys.measure_logical_z(1, &mut rng));
    }

    #[test]
    fn logical_bell_pair_is_correlated() {
        for seed in 0..12 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
            sys.prep_logical(0, LogicalBasis::Plus, &mut rng);
            sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
            sys.run_noisy_cycle(&mut rng);
            sys.transversal_cnot(0, 1).unwrap();
            sys.run_noisy_cycle(&mut rng);
            let a = sys.measure_logical_z(0, &mut rng);
            let b = sys.measure_logical_z(1, &mut rng);
            assert_eq!(a, b, "seed {seed}: Bell pair decorrelated");
        }
    }

    #[test]
    fn bell_pair_survives_noise_and_error_correction() {
        let mut mismatches = 0;
        let shots = 20;
        for seed in 0..shots {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let mut sys = MultiTileSystem::new(3, 2, 1e-3).unwrap();
            sys.prep_logical(0, LogicalBasis::Plus, &mut rng);
            sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
            sys.run_noisy_cycle(&mut rng);
            sys.transversal_cnot(0, 1).unwrap();
            for _ in 0..5 {
                sys.run_noisy_cycle(&mut rng);
            }
            let a = sys.measure_logical_z(0, &mut rng);
            let b = sys.measure_logical_z(1, &mut rng);
            mismatches += (a != b) as u32;
        }
        assert!(
            mismatches <= 2,
            "{mismatches}/{shots} Bell mismatches at p=1e-3"
        );
    }

    #[test]
    fn tiles_error_correct_independently() {
        // An error injected in one tile must not produce decoder activity
        // in the other.
        let mut rng = StdRng::seed_from_u64(5);
        let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
        sys.prep_logical(0, LogicalBasis::Zero, &mut rng);
        sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
        sys.run_noisy_cycle(&mut rng);
        let victim = sys.mce(0).substrate_index(sys.lattice().data_index(1, 1));
        sys.substrate.x(victim);
        sys.run_noisy_cycle(&mut rng);
        let s0 = sys.mce(0).decode_stats(StabKind::Z);
        let s1 = sys.mce(1).decode_stats(StabKind::Z);
        assert_eq!(s0.local_hits, 1);
        assert_eq!(s1.local_hits + s1.escalations, 0);
    }

    #[test]
    fn cnot_costs_only_sync_tokens() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
        sys.prep_logical(0, LogicalBasis::Zero, &mut rng);
        sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
        sys.run_noisy_cycle(&mut rng);
        let before = sys.master().bus().total();
        sys.transversal_cnot(0, 1).unwrap();
        let after = sys.master().bus().total();
        assert_eq!(after - before, 4, "two 2-byte sync tokens");
    }

    #[test]
    fn baseline_delivery_pays_per_cycle_per_tile() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut sys =
            MultiTileSystem::with_delivery(3, 3, 0.0, DeliveryMode::SoftwareBaseline).unwrap();
        let per_tile =
            (sys.lattice().num_qubits() as u64) * (sys.mce(0).microcode().cycle_len() as u64);
        sys.run_noisy_cycle(&mut rng);
        sys.run_noisy_cycle(&mut rng);
        assert_eq!(
            sys.master().bus().bytes(Traffic::QeccInstructions),
            2 * 3 * per_tile,
            "2 cycles x 3 tiles of streamed QECC instructions"
        );
        // The hardware-managed modes pay nothing for the same cycles.
        let mut hw = MultiTileSystem::new(3, 3, 0.0).unwrap();
        hw.run_noisy_cycle(&mut rng);
        assert_eq!(hw.master().bus().bytes(Traffic::QeccInstructions), 0);
    }

    #[test]
    fn per_tile_dispatch_and_kernel_account_like_single_tile() {
        let kernel = vec![
            LogicalInstr::H(LogicalQubit(0)),
            LogicalInstr::T(LogicalQubit(0)),
        ];
        for mode in DeliveryMode::ALL {
            let mut sys = MultiTileSystem::with_delivery(3, 2, 0.0, mode).unwrap();
            sys.dispatch_logical(1, LogicalInstr::X(LogicalQubit(0)), InstrClass::Algorithmic);
            sys.run_kernel(0, &kernel, 5);
            sys.sync_tile(1);

            let mut single = MultiTileSystem::with_delivery(3, 1, 0.0, mode).unwrap();
            let mut program = LogicalProgram::new();
            program.push(LogicalInstr::X(LogicalQubit(0)), InstrClass::Algorithmic);
            for &k in &kernel {
                program.push(k, InstrClass::Distillation);
            }
            let run = single.run_memory_workload(0, &program, 5, &mut StdRng::seed_from_u64(9));
            assert_eq!(
                *sys.master().bus(),
                run.bus,
                "{mode:?}: multi-tile delivery diverged from single-tile"
            );
        }
    }

    #[test]
    fn three_tile_ghz_is_fully_correlated() {
        // |+>_L ⊗ |0>_L ⊗ |0>_L with CNOT(0→1), CNOT(1→2) yields a
        // logical GHZ state: all three Z readouts agree, and both values
        // occur across seeds.
        let mut ones = 0;
        let shots = 16;
        for seed in 0..shots {
            let mut rng = StdRng::seed_from_u64(600 + seed);
            let mut sys = MultiTileSystem::new(3, 3, 0.0).unwrap();
            sys.prep_logical(0, LogicalBasis::Plus, &mut rng);
            sys.prep_logical(1, LogicalBasis::Zero, &mut rng);
            sys.prep_logical(2, LogicalBasis::Zero, &mut rng);
            sys.run_noisy_cycle(&mut rng);
            sys.transversal_cnot(0, 1).unwrap();
            sys.run_noisy_cycle(&mut rng);
            sys.transversal_cnot(1, 2).unwrap();
            sys.run_noisy_cycle(&mut rng);
            let a = sys.measure_logical_z(0, &mut rng);
            let b = sys.measure_logical_z(1, &mut rng);
            let c = sys.measure_logical_z(2, &mut rng);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(b, c, "seed {seed}");
            ones += a as u32;
        }
        assert!(ones > 0 && ones < shots as u32, "GHZ outcomes not random");
    }

    #[test]
    fn same_tile_cnot_is_rejected() {
        let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
        assert_eq!(
            sys.transversal_cnot(1, 1),
            Err(CnotError::SameTile { tile: 1 })
        );
    }

    #[test]
    fn out_of_range_cnot_is_rejected() {
        let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
        assert_eq!(
            sys.transversal_cnot(0, 2),
            Err(CnotError::TileOutOfRange { tile: 2, tiles: 2 })
        );
    }

    #[test]
    fn cnot_before_any_cycle_is_rejected_and_mutates_nothing() {
        let mut sys = MultiTileSystem::new(3, 2, 0.0).unwrap();
        // X references are FirstRound: unsettled until a cycle runs.
        let before_sync = sys.master().bus().bytes(crate::bus::Traffic::Sync);
        assert_eq!(
            sys.transversal_cnot(0, 1),
            Err(CnotError::ReferenceNotSettled { tile: 1 })
        );
        assert_eq!(
            sys.master().bus().bytes(crate::bus::Traffic::Sync),
            before_sync,
            "a rejected CNOT must not account sync traffic"
        );
    }
}
