//! The shared scan-access miter model under the combinational oracle-guided
//! attacks (SAT, AppSAT, Double-DIP).
//!
//! With scan access the attack target is the full-scan view of the locked
//! netlist; observations are the primary outputs plus the next-state bits
//! of the flip-flops the oracle also has (lock-inserted state elements have
//! no oracle counterpart and stay unobservable). All CNF construction goes
//! through [`MiterBuilder`] — this module only adds the `LockedCircuit`
//! bookkeeping: which flip-flops are shared with the oracle, and how oracle
//! scan queries become pinned constraint frames.

use cutelock_core::{KeyValue, LockedCircuit};
use cutelock_netlist::unroll::scan_view;
use cutelock_sat::{Frame, Lit, MiterBuilder, PortVals, Solver};
use cutelock_sim::NetlistOracle;

use crate::dip::{Miter, Run};

/// For each flip-flop of the *original* circuit (the oracle's scan-chain
/// order), its index in the locked circuit's flip-flop list, or `None` when
/// some original flip-flop has no namesake in the locked netlist (lock
/// transforms preserve them; an external netlist pair may not).
pub(crate) fn shared_ffs(locked: &LockedCircuit) -> Option<Vec<usize>> {
    let locked_q: Vec<&str> = locked
        .netlist
        .dffs()
        .iter()
        .map(|ff| locked.netlist.net_name(ff.q()))
        .collect();
    locked
        .original
        .dffs()
        .iter()
        .map(|ff| {
            let name = locked.original.net_name(ff.q());
            locked_q.iter().position(|&n| n == name)
        })
        .collect()
}

/// The scan miter every combinational oracle-guided attack starts from:
/// key copies with private key vectors (`keys`, two to begin with), shared
/// data (`xs`) and state (`ss`) inputs, and one encoded frame per copy
/// (`frames`) whose observations the DIP hunt compares.
pub(crate) struct ScanModel {
    shared_ffs: Vec<usize>,
    m: MiterBuilder,
    oracle: NetlistOracle,
    /// Key vector per copy; every DIP constrains each of them.
    pub(crate) keys: Vec<Vec<Lit>>,
    xs: Vec<Lit>,
    ss: Vec<Lit>,
    frames: Vec<Frame>,
}

impl ScanModel {
    /// Builds the two-copy miter, or `None` when the netlist has no key
    /// inputs or is structurally unusable.
    pub(crate) fn new(run: &Run) -> Option<Self> {
        let locked = run.locked;
        if locked.netlist.key_inputs().is_empty() {
            return None;
        }
        let sv = scan_view(&locked.netlist).ok()?;
        let oracle = NetlistOracle::new(locked.original.clone()).ok()?;
        let shared = shared_ffs(locked)?;
        let mut m = MiterBuilder::new(sv, &shared);
        run.prepare(&mut m.enc.solver);
        let k1 = m.fresh_keys();
        let k2 = m.fresh_keys();
        let xs = m.fresh_data();
        let ss = m.fresh_state();
        let f1 = m
            .frame(&k1, PortVals::Shared(&ss), PortVals::Shared(&xs))
            .ok()?;
        let f2 = m
            .frame(&k2, PortVals::Shared(&ss), PortVals::Shared(&xs))
            .ok()?;
        Some(Self {
            shared_ffs: shared,
            m,
            oracle,
            keys: vec![k1, k2],
            xs,
            ss,
            frames: vec![f1, f2],
        })
    }

    /// The miter constraint: some observation of copies `a` and `b`
    /// differs.
    pub(crate) fn obs_differ(&mut self, a: usize, b: usize) -> Lit {
        let (fa, fb) = (self.frames[a].clone(), self.frames[b].clone());
        self.m.obs_differ(&fa, &fb)
    }

    /// Adds another key copy sharing `xs`/`ss` (Double-DIP's third).
    pub(crate) fn add_key_copy(&mut self) {
        let keys = self.m.fresh_keys();
        let frame = self
            .m
            .frame(
                &keys,
                PortVals::Shared(&self.ss),
                PortVals::Shared(&self.xs),
            )
            .expect("scan view encodes");
        self.keys.push(keys);
        self.frames.push(frame);
    }
}

impl Miter for ScanModel {
    fn solver(&mut self) -> &mut Solver {
        &mut self.m.enc.solver
    }

    fn key(&self) -> KeyValue {
        KeyValue::from_bits(self.m.enc.values(&self.keys[0]))
    }

    /// Queries the oracle on scan pattern `(x, s)` and pins a fresh
    /// constraint copy per key vector to its answer.
    fn learn(&mut self, _run: &Run) -> bool {
        let x = self.m.enc.values(&self.xs);
        let s = self.m.enc.values(&self.ss);
        let s_shared: Vec<bool> = self.shared_ffs.iter().map(|&f| s[f]).collect();
        let (y, s_next) = self.oracle.scan_query(&s_shared, &x);
        for keys in &self.keys {
            let f = self
                .m
                .frame(keys, PortVals::Const(&s), PortVals::Const(&x))
                .expect("scan view encodes");
            self.m.pin_observations(&f, &y, &s_next);
        }
        false
    }
}
