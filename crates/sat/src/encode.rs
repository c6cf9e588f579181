//! The unified miter/encoding engine beneath every oracle-guided attack.
//!
//! Every attack in the suite — SAT, AppSAT, Double-DIP, BMC (`bbo`/`int`),
//! KC2, RANE, FALL's confirmation step — and the equivalence miter behind
//! the designer-side certifier and the simplify self-check reason about
//! the same object: copies of a circuit lowered to CNF with some ports
//! shared, some ports private, a "these vectors differ" constraint on top,
//! and (for the sequential modes) time frames appended incrementally. This
//! module owns that layer so the attack loops read as DIP-loop logic only:
//!
//! * [`CircuitEncoder`] — owns the [`Solver`] plus netlist→CNF lowering:
//!   instance encoding under a [`Binding`], fresh/constant literal supply,
//!   pinning, and vector-differ glue;
//! * [`MiterBuilder`] — a miter factory over a full-scan [`ScanView`]:
//!   named port groups (key / data / state, derived from net names),
//!   shared-input wiring between copies, per-copy key vectors, incremental
//!   [`frame`](MiterBuilder::frame) appending with state threading, and
//!   oracle-output pinning. Every bounded time frame in the workspace is
//!   one `frame` call; the equivalence miter encodes a second circuit's
//!   view into the same encoder.
//!
//! Retractable constraints come from the solver's activation-literal scopes
//! ([`Solver::push_scope`] / [`Solver::pop_scope`]); since the encoder owns
//! the solver (as a public field), attack loops drive both through one
//! value.
//!
//! # Example: a two-copy key miter
//!
//! Two copies of a locked circuit share their data input but carry private
//! key bits. If the outputs are constrained to differ while both keys are
//! pinned to the same value, the instance is UNSAT — same key, same
//! behavior:
//!
//! ```
//! use cutelock_netlist::{bench, unroll::scan_view};
//! use cutelock_sat::{MiterBuilder, PortVals, SatResult};
//!
//! let nl = bench::parse(
//!     "toy",
//!     "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XOR(a, keyinput0)\n",
//! )
//! .unwrap();
//! let sv = scan_view(&nl).unwrap(); // no flip-flops: the view is the circuit
//! let mut m = MiterBuilder::new(sv, &[]);
//! let k1 = m.fresh_keys();
//! let k2 = m.fresh_keys();
//! let xs = m.fresh_data();
//! let f1 = m.frame(&k1, PortVals::Fresh, PortVals::Shared(&xs)).unwrap();
//! let f2 = m.frame(&k2, PortVals::Fresh, PortVals::Shared(&xs)).unwrap();
//! let diff = m.enc.differ(&f1.outputs, &f2.outputs);
//! m.enc.solver.add_clause(&[diff]); // outputs must differ somewhere
//! m.enc.pin(&k1, &[true]); // ... but both keys are 1
//! m.enc.pin(&k2, &[true]);
//! assert_eq!(m.enc.solver.solve(), SatResult::Unsat);
//! ```

use std::collections::HashMap;
use std::rc::Rc;

use cutelock_netlist::unroll::ScanView;
use cutelock_netlist::{NetId, Netlist, NetlistError};

use crate::tseitin::{self, CircuitCnf};
use crate::{Lit, Solver};

/// Bindings from nets of a circuit about to be encoded to literals that
/// already exist in the solver — the shared-input wiring of a miter.
///
/// Nets left unbound get fresh variables during
/// [`CircuitEncoder::encode`].
#[derive(Debug, Clone, Default)]
pub struct Binding {
    map: HashMap<NetId, Lit>,
}

impl Binding {
    /// An empty binding: every input gets a fresh variable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds one net to an existing literal.
    pub fn bind(&mut self, id: NetId, lit: Lit) -> &mut Self {
        self.map.insert(id, lit);
        self
    }

    /// Binds `ids[i]` to `lits[i]`, positionally.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn bind_all(&mut self, ids: &[NetId], lits: &[Lit]) -> &mut Self {
        assert_eq!(ids.len(), lits.len(), "port width mismatch");
        for (&id, &l) in ids.iter().zip(lits) {
            self.map.insert(id, l);
        }
        self
    }

    /// The raw net→literal map (what [`tseitin::encode`] consumes).
    pub(crate) fn as_map(&self) -> &HashMap<NetId, Lit> {
        &self.map
    }
}

/// Owns the [`Solver`] and the netlist→CNF lowering every miter is built
/// from.
///
/// The solver is a public field: attack loops call
/// [`Solver::solve_scoped`], [`Solver::push_scope`] and friends on it
/// directly, while the encoder supplies instances, literals, and glue
/// constraints.
#[derive(Debug, Default)]
pub struct CircuitEncoder {
    /// The underlying incremental CDCL solver.
    pub solver: Solver,
}

impl CircuitEncoder {
    /// A fresh encoder with an empty solver.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Literal supply
    // ------------------------------------------------------------------

    /// A fresh, unconstrained literal.
    pub fn fresh_lit(&mut self) -> Lit {
        Lit::positive(self.solver.new_var())
    }

    /// `n` fresh, unconstrained literals.
    pub fn fresh_lits(&mut self, n: usize) -> Vec<Lit> {
        (0..n).map(|_| self.fresh_lit()).collect()
    }

    /// A literal permanently forced to `value`.
    pub fn lit_const(&mut self, value: bool) -> Lit {
        let l = self.fresh_lit();
        self.solver.add_clause(&[if value { l } else { !l }]);
        l
    }

    /// One forced literal per bit of `bits`, in order.
    pub fn lits_const(&mut self, bits: &[bool]) -> Vec<Lit> {
        bits.iter().map(|&b| self.lit_const(b)).collect()
    }

    // ------------------------------------------------------------------
    // Instances
    // ------------------------------------------------------------------

    /// Encodes one combinational instance of `nl`, wiring the nets named in
    /// `binding` to existing literals and giving every other input a fresh
    /// variable. Returns the per-net literal map.
    ///
    /// # Errors
    ///
    /// Fails if `nl` is sequential or cyclic.
    pub fn encode(&mut self, nl: &Netlist, binding: &Binding) -> Result<CircuitCnf, NetlistError> {
        tseitin::encode(nl, &mut self.solver, binding.as_map())
    }

    // ------------------------------------------------------------------
    // Glue constraints
    // ------------------------------------------------------------------

    /// Permanently pins one literal to a constant.
    pub fn pin_lit(&mut self, lit: Lit, value: bool) {
        self.solver.add_clause(&[if value { lit } else { !lit }]);
    }

    /// Permanently pins `lits[i]` to `values[i]` — how oracle answers are
    /// asserted.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn pin(&mut self, lits: &[Lit], values: &[bool]) {
        assert_eq!(lits.len(), values.len(), "pin width mismatch");
        for (&l, &v) in lits.iter().zip(values) {
            self.pin_lit(l, v);
        }
    }

    /// Asserts `a[i] == b[i]` for all i with binary clauses (no new
    /// variables).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    #[cfg(test)]
    pub(crate) fn assert_equal(&mut self, a: &[Lit], b: &[Lit]) {
        assert_eq!(a.len(), b.len(), "vector width mismatch");
        for (&x, &y) in a.iter().zip(b) {
            tseitin::assert_eq_lits(&mut self.solver, x, y);
        }
    }

    /// Returns a literal true iff the vectors differ somewhere — the heart
    /// of every miter. Assert it permanently for a one-shot check, or in a
    /// retractable scope for a DIP hunt.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn differ(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        tseitin::encode_vectors_differ(&mut self.solver, a, b)
    }

    // ------------------------------------------------------------------
    // Models
    // ------------------------------------------------------------------

    /// The model values of `lits` after a [`SatResult::Sat`] answer
    /// (unassigned literals read as `false`).
    ///
    /// [`SatResult::Sat`]: crate::SatResult::Sat
    pub fn values(&self, lits: &[Lit]) -> Vec<bool> {
        lits.iter()
            .map(|&l| self.solver.lit_value(l).unwrap_or(false))
            .collect()
    }
}

/// How one port group of a [`MiterBuilder::frame`] is driven.
#[derive(Debug, Clone, Copy)]
pub enum PortVals<'a> {
    /// Fresh free variables (the solver may choose — DIP hunting).
    Fresh,
    /// Wired to existing literals (miter input sharing, state threading).
    Shared(&'a [Lit]),
    /// Pinned to constants (replaying an oracle query).
    Const(&'a [bool]),
}

/// The literals of one encoded copy/frame of the scan view.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Data-input literals (fresh, shared, or constant per [`PortVals`]).
    pub xs: Vec<Lit>,
    /// State-input literals actually used by this frame.
    pub state: Vec<Lit>,
    /// Primary-output literals, in the source netlist's output order.
    pub outputs: Vec<Lit>,
    /// Observed next-state literals (the flip-flop subset named at
    /// [`MiterBuilder::new`]) — scan-attack observations.
    pub obs_next: Vec<Lit>,
    /// Full next-state literals, one per flip-flop — thread these into the
    /// next [`MiterBuilder::frame`] to append a time frame.
    pub next_state: Vec<Lit>,
}

impl Frame {
    /// The full observation vector of a scan query: primary outputs
    /// followed by the observable next-state bits.
    pub(crate) fn observations(&self) -> Vec<Lit> {
        let mut obs = self.outputs.clone();
        obs.extend_from_slice(&self.obs_next);
        obs
    }
}

/// A miter factory over the full-scan combinational view of a (locked)
/// sequential circuit.
///
/// Port groups are derived from the scan view itself: key inputs by the
/// `keyinput*` naming convention (numeric order), data inputs and primary
/// outputs positionally from the source netlist, state ports from the
/// [`ScanView`] flip-flop maps. Every copy or time frame — miter copies
/// with shared inputs, appended BMC frames, oracle-replay copies pinned to
/// constants — is one [`frame`](MiterBuilder::frame) call.
#[derive(Debug)]
pub struct MiterBuilder {
    /// The encoder (and solver) the miter is lowered into.
    pub enc: CircuitEncoder,
    sv: Rc<ScanView>,
    keys: Vec<NetId>,
    data: Vec<NetId>,
    outputs: Vec<NetId>,
    obs_states: Vec<usize>,
}

impl MiterBuilder {
    /// A builder over `sv` with a fresh encoder. `obs_states` lists the
    /// flip-flop indices whose next-state outputs are attacker-observable
    /// (the scan attacks pass the functional flip-flops shared with the
    /// oracle; sequential BMC modes, which only see primary outputs, pass
    /// `&[]`).
    ///
    /// Accepts the view by value or pre-shared (`Rc<ScanView>`).
    pub fn new(sv: impl Into<Rc<ScanView>>, obs_states: &[usize]) -> Self {
        Self::with_encoder(CircuitEncoder::new(), sv, obs_states)
    }

    /// Like [`MiterBuilder::new`], reusing an existing encoder/solver.
    pub(crate) fn with_encoder(
        enc: CircuitEncoder,
        sv: impl Into<Rc<ScanView>>,
        obs_states: &[usize],
    ) -> Self {
        let sv = sv.into();
        let keys = sv.netlist.key_inputs();
        let state: std::collections::HashSet<NetId> = sv.state_inputs.iter().copied().collect();
        let data: Vec<NetId> = sv
            .netlist
            .data_inputs()
            .into_iter()
            .filter(|id| !state.contains(id))
            .collect();
        // Taken from the view's explicit list, NOT by slicing
        // `netlist.outputs()`: output marking dedupes, so a primary output
        // that also feeds a flip-flop data input would otherwise vanish
        // from the observation vector.
        let outputs = sv.primary_outputs.clone();
        Self {
            enc,
            sv,
            keys,
            data,
            outputs,
            obs_states: obs_states.to_vec(),
        }
    }

    /// A fresh private key vector — one per miter copy.
    pub fn fresh_keys(&mut self) -> Vec<Lit> {
        self.enc.fresh_lits(self.keys.len())
    }

    /// A fresh shared data-input vector.
    pub fn fresh_data(&mut self) -> Vec<Lit> {
        self.enc.fresh_lits(self.data.len())
    }

    /// A fresh shared state vector (scan attacks make the state a free
    /// pseudo-input; BMC threads reset constants instead).
    pub fn fresh_state(&mut self) -> Vec<Lit> {
        self.enc.fresh_lits(self.sv.state_inputs.len())
    }

    /// Encodes one copy of the scan view: `keys` drive the key port, and
    /// the state/data ports are fresh, shared, or constant per [`PortVals`].
    /// Constant data literals are allocated before constant state literals.
    ///
    /// # Errors
    ///
    /// Propagates encoding failures (a scan view is combinational by
    /// construction, so this only fires on malformed netlists).
    ///
    /// # Panics
    ///
    /// Panics if a [`PortVals::Shared`]/[`PortVals::Const`] width does not
    /// match the port group.
    pub fn frame(
        &mut self,
        keys: &[Lit],
        state: PortVals<'_>,
        data: PortVals<'_>,
    ) -> Result<Frame, NetlistError> {
        assert_eq!(keys.len(), self.keys.len(), "key width mismatch");
        let xs = self.port_lits(data, self.data.len(), "data");
        let ss = self.port_lits(state, self.sv.state_inputs.len(), "state");
        let mut binding = Binding::new();
        binding.bind_all(&self.keys, keys);
        binding.bind_all(&self.data, &xs);
        binding.bind_all(&self.sv.state_inputs, &ss);
        let cnf = self.enc.encode(&self.sv.netlist, &binding)?;
        let outputs = cnf.lits(&self.outputs);
        let next_state = cnf.lits(&self.sv.next_state_outputs);
        let obs_next = self.obs_states.iter().map(|&f| next_state[f]).collect();
        Ok(Frame {
            xs,
            state: ss,
            outputs,
            obs_next,
            next_state,
        })
    }

    fn port_lits(&mut self, vals: PortVals<'_>, width: usize, port: &str) -> Vec<Lit> {
        match vals {
            PortVals::Fresh => self.enc.fresh_lits(width),
            PortVals::Shared(lits) => {
                assert_eq!(lits.len(), width, "{port} width mismatch");
                lits.to_vec()
            }
            PortVals::Const(bits) => {
                assert_eq!(bits.len(), width, "{port} width mismatch");
                self.enc.lits_const(bits)
            }
        }
    }

    /// A literal true iff the two frames' observation vectors (primary
    /// outputs plus observable next-state) differ somewhere.
    pub fn obs_differ(&mut self, a: &Frame, b: &Frame) -> Lit {
        let oa = a.observations();
        let ob = b.observations();
        self.enc.differ(&oa, &ob)
    }

    /// Pins a frame's observations to an oracle answer: primary outputs to
    /// `y`, observable next-state bits to `s_next` (pass `&[]` when no
    /// state is observed).
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn pin_observations(&mut self, frame: &Frame, y: &[bool], s_next: &[bool]) {
        let outputs = frame.outputs.clone();
        self.enc.pin(&outputs, y);
        let obs_next = frame.obs_next.clone();
        self.enc.pin(&obs_next, s_next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SatResult;
    use cutelock_netlist::bench;
    use cutelock_netlist::unroll::scan_view;

    fn locked_toy() -> Netlist {
        bench::parse(
            "toy",
            "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\nq = DFF(d)\n\
             d = XOR(a, q)\nx = XOR(d, keyinput0)\ny = BUF(x)\n",
        )
        .unwrap()
    }

    #[test]
    fn binding_binds_positionally() {
        let nl = bench::parse("t", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let mut enc = CircuitEncoder::new();
        let la = enc.fresh_lit();
        let lb = enc.fresh_lit();
        let mut binding = Binding::new();
        binding.bind_all(nl.inputs(), &[la, lb]);
        assert_eq!(binding.as_map().len(), 2);
        assert_eq!(binding.as_map()[&nl.inputs()[1]], lb);
        // A bound input reuses the given literal in the encoded instance.
        let cnf = enc.encode(&nl, &binding).unwrap();
        assert_eq!(cnf.lit(nl.inputs()[0]), la);
    }

    #[test]
    fn encoder_consts_and_pins() {
        let mut enc = CircuitEncoder::new();
        let t = enc.lit_const(true);
        let f = enc.lit_const(false);
        let free = enc.fresh_lit();
        enc.pin_lit(free, true);
        assert_eq!(enc.solver.solve(), SatResult::Sat);
        assert_eq!(enc.values(&[t, f, free]), vec![true, false, true]);
    }

    #[test]
    fn miter_ports_derived_from_scan_view() {
        let nl = locked_toy();
        let sv = scan_view(&nl).unwrap();
        let m = MiterBuilder::new(sv, &[0]);
        assert_eq!(m.keys.len(), 1);
        assert_eq!(m.data.len(), 1);
        assert_eq!(m.sv.state_inputs.len(), 1);
    }

    #[test]
    fn same_keys_cannot_disagree() {
        let nl = locked_toy();
        let sv = scan_view(&nl).unwrap();
        let mut m = MiterBuilder::new(sv, &[0]);
        let k1 = m.fresh_keys();
        let k2 = m.fresh_keys();
        let xs = m.fresh_data();
        let ss = m.fresh_state();
        let f1 = m
            .frame(&k1, PortVals::Shared(&ss), PortVals::Shared(&xs))
            .unwrap();
        let f2 = m
            .frame(&k2, PortVals::Shared(&ss), PortVals::Shared(&xs))
            .unwrap();
        let diff = m.obs_differ(&f1, &f2);
        m.enc.solver.add_clause(&[diff]);
        // With differing keys the miter is SAT…
        assert_eq!(m.enc.solver.solve(), SatResult::Sat);
        // …with equal keys it is UNSAT.
        m.enc.assert_equal(&k1, &k2);
        assert_eq!(m.enc.solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn const_frames_replay_oracle_queries() {
        let nl = locked_toy();
        let sv = scan_view(&nl).unwrap();
        let mut m = MiterBuilder::new(sv, &[0]);
        let keys = m.fresh_keys();
        // With a=1, q=0 and key k: d = 1, y = 1 XOR k, next q = 1.
        let f = m
            .frame(&keys, PortVals::Const(&[false]), PortVals::Const(&[true]))
            .unwrap();
        // Claim the oracle said y=1 and q'=1: forces k=0.
        m.pin_observations(&f, &[true], &[true]);
        assert_eq!(m.enc.solver.solve(), SatResult::Sat);
        assert_eq!(m.enc.values(&keys), vec![false]);
        // Also claiming y=0 under the same inputs is contradictory for k=0;
        // a second frame with the same key forces UNSAT.
        let f2 = m
            .frame(&keys, PortVals::Const(&[false]), PortVals::Const(&[true]))
            .unwrap();
        m.pin_observations(&f2, &[false], &[true]);
        assert_eq!(m.enc.solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn outputs_feeding_dffs_stay_observed() {
        // `y` is both a primary output and the D input of `q`, so the scan
        // view's output list holds it only once — the miter must still
        // observe it (regression: the observation vector used to come up
        // empty for such circuits).
        let nl = bench::parse(
            "t",
            "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\nq = DFF(y)\ny = XOR(a, keyinput0)\n",
        )
        .unwrap();
        let sv = scan_view(&nl).unwrap();
        assert_eq!(sv.primary_outputs.len(), 1);
        assert_eq!(sv.next_state_outputs.len(), 1);
        let mut m = MiterBuilder::new(sv, &[]);
        let k1 = m.fresh_keys();
        let k2 = m.fresh_keys();
        let xs = m.fresh_data();
        let ss = m.fresh_state();
        let f1 = m
            .frame(&k1, PortVals::Shared(&ss), PortVals::Shared(&xs))
            .unwrap();
        let f2 = m
            .frame(&k2, PortVals::Shared(&ss), PortVals::Shared(&xs))
            .unwrap();
        assert_eq!(f1.outputs.len(), 1, "y must stay in the observation");
        // And the miter over it is meaningful: differing keys flip y.
        let diff = m.obs_differ(&f1, &f2);
        m.enc.solver.add_clause(&[diff]);
        assert_eq!(m.enc.solver.solve(), SatResult::Sat);
        m.enc.assert_equal(&k1, &k2);
        assert_eq!(m.enc.solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn frames_thread_state_for_bmc() {
        let nl = locked_toy();
        let sv = scan_view(&nl).unwrap();
        let mut m = MiterBuilder::new(sv, &[]);
        let keys = m.fresh_keys();
        // Reset state: q = 0.
        let q0 = m.enc.lits_const(&[false]);
        let f0 = m
            .frame(&keys, PortVals::Shared(&q0), PortVals::Const(&[true]))
            .unwrap();
        let next = f0.next_state.clone();
        let f1 = m
            .frame(&keys, PortVals::Shared(&next), PortVals::Const(&[true]))
            .unwrap();
        // With k=0: y(t0) = a^q = 1, q(t1) = 1, y(t1) = a^q = 0.
        m.enc.pin(&keys, &[false]);
        assert_eq!(m.enc.solver.solve(), SatResult::Sat);
        assert_eq!(m.enc.values(&f0.outputs), vec![true]);
        assert_eq!(m.enc.values(&f1.outputs), vec![false]);
    }
}
