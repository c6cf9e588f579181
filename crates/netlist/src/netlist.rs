use std::collections::HashMap;
use std::fmt;

use crate::{GateKind, NetlistError, KEY_INPUT_PREFIX};

/// Identifier of a net (signal) inside one [`Netlist`].
///
/// Ids are dense indices assigned in creation order; they are only meaningful
/// relative to the netlist that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The dense index of this net.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Nothing drives the net yet (legal only transiently, during building).
    Undriven,
    /// The net is a primary input.
    Input,
    /// The net is the `Q` output of the flip-flop with this index.
    DffQ(usize),
    /// The net is the output of the gate with this index.
    Gate(usize),
}

/// A named signal.
#[derive(Debug, Clone)]
pub struct Net {
    pub(crate) name: String,
    pub(crate) driver: Driver,
}

impl Net {
    /// The net's name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// What drives this net.
    pub fn driver(&self) -> Driver {
        self.driver
    }
}

/// A combinational gate instance.
#[derive(Debug, Clone)]
pub struct Gate {
    pub(crate) kind: GateKind,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) output: NetId,
}

impl Gate {
    /// The gate's logic function.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Input nets, in positional order (`MUX` select comes first).
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The single output net.
    pub fn output(&self) -> NetId {
        self.output
    }
}

/// A D flip-flop.
///
/// All flip-flops share an implicit global clock; `.bench` has no clock nets.
#[derive(Debug, Clone)]
pub struct Dff {
    pub(crate) name: String,
    pub(crate) d: NetId,
    pub(crate) q: NetId,
    pub(crate) init: Option<bool>,
}

impl Dff {
    /// Instance name (used for reporting; the `Q` net carries the signal name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The data input net.
    pub fn d(&self) -> NetId {
        self.d
    }

    /// The output net.
    pub fn q(&self) -> NetId {
        self.q
    }

    /// Reset value, if specified (`None` means unknown / `X` at power-up).
    pub fn init(&self) -> Option<bool> {
        self.init
    }
}

/// A gate-level sequential netlist.
///
/// Invariants maintained by the mutation API:
///
/// * net names are unique;
/// * every net has at most one driver;
/// * gate arities match their [`GateKind`];
/// * [`Netlist::validate`] additionally checks that every net is driven and
///   that the combinational part (gates only; flip-flops break cycles) is
///   acyclic.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    name_map: HashMap<String, NetId>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    gates: Vec<Gate>,
    dffs: Vec<Dff>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Creates a new, undriven net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_net(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
        let name = name.into();
        if self.name_map.contains_key(&name) {
            return Err(NetlistError::DuplicateName(name));
        }
        let id = NetId(self.nets.len() as u32);
        self.name_map.insert(name.clone(), id);
        self.nets.push(Net {
            name,
            driver: Driver::Undriven,
        });
        Ok(id)
    }

    /// Creates a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
        let id = self.add_net(name)?;
        self.nets[id.index()].driver = Driver::Input;
        self.inputs.push(id);
        Ok(id)
    }

    /// Creates a key input named `keyinput{index}`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if that key bit already exists.
    pub fn add_key_input(&mut self, index: usize) -> Result<NetId, NetlistError> {
        self.add_input(format!("{KEY_INPUT_PREFIX}{index}"))
    }

    /// Marks an existing net as a primary output.
    ///
    /// Marking the same net twice is idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidNetId`] for a foreign id.
    pub fn mark_output(&mut self, id: NetId) -> Result<(), NetlistError> {
        self.check_id(id)?;
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
        Ok(())
    }

    /// Adds a gate driving a freshly created net named `out_name`.
    ///
    /// # Errors
    ///
    /// Fails on duplicate name, bad arity, or foreign input ids.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        out_name: impl Into<String>,
        inputs: &[NetId],
    ) -> Result<NetId, NetlistError> {
        let out = self.add_net(out_name)?;
        self.drive_with_gate(kind, out, inputs)?;
        Ok(out)
    }

    /// Adds a gate driving the existing (undriven) net `out`.
    ///
    /// This is how forward references are resolved when parsing and how
    /// feedback nets are closed when building by hand.
    ///
    /// # Errors
    ///
    /// Fails if `out` already has a driver, on bad arity, or on foreign ids.
    pub fn drive_with_gate(
        &mut self,
        kind: GateKind,
        out: NetId,
        inputs: &[NetId],
    ) -> Result<(), NetlistError> {
        self.check_id(out)?;
        for &i in inputs {
            self.check_id(i)?;
        }
        kind.check_arity(inputs.len())?;
        if self.nets[out.index()].driver != Driver::Undriven {
            return Err(NetlistError::MultipleDrivers(
                self.nets[out.index()].name.clone(),
            ));
        }
        let gidx = self.gates.len();
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output: out,
        });
        self.nets[out.index()].driver = Driver::Gate(gidx);
        Ok(())
    }

    /// Adds a D flip-flop driving the existing (undriven) net `q` from `d`.
    ///
    /// # Errors
    ///
    /// Fails if `q` already has a driver or either id is foreign.
    pub(crate) fn add_dff_to(
        &mut self,
        name: impl Into<String>,
        d: NetId,
        q: NetId,
    ) -> Result<usize, NetlistError> {
        self.check_id(d)?;
        self.check_id(q)?;
        if self.nets[q.index()].driver != Driver::Undriven {
            return Err(NetlistError::MultipleDrivers(
                self.nets[q.index()].name.clone(),
            ));
        }
        let idx = self.dffs.len();
        self.dffs.push(Dff {
            name: name.into(),
            d,
            q,
            init: None,
        });
        self.nets[q.index()].driver = Driver::DffQ(idx);
        Ok(idx)
    }

    /// Adds a D flip-flop; alias of `Netlist::add_dff_to` kept for call-site
    /// readability when `q` was created with [`Netlist::add_net`].
    ///
    /// # Errors
    ///
    /// Same as `Netlist::add_dff_to`.
    pub fn add_dff(
        &mut self,
        name: impl Into<String>,
        d: NetId,
        q: NetId,
    ) -> Result<usize, NetlistError> {
        self.add_dff_to(name, d, q)
    }

    /// Sets the power-up value of flip-flop `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn set_dff_init(&mut self, idx: usize, init: Option<bool>) {
        self.dffs[idx].init = init;
    }

    // ------------------------------------------------------------------
    // Mutation (used by locking transforms)
    // ------------------------------------------------------------------

    /// Re-routes the data input of flip-flop `idx` to `new_d`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidNetId`] for a foreign id.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn set_dff_d(&mut self, idx: usize, new_d: NetId) -> Result<(), NetlistError> {
        self.check_id(new_d)?;
        self.dffs[idx].d = new_d;
        Ok(())
    }

    /// Replaces every use of `old` as a gate input, flip-flop data input or
    /// primary output with `new`. The driver of `old` is untouched.
    ///
    /// Returns the number of replaced uses.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidNetId`] for foreign ids.
    pub fn replace_uses(&mut self, old: NetId, new: NetId) -> Result<usize, NetlistError> {
        self.check_id(old)?;
        self.check_id(new)?;
        let mut n = 0;
        for g in &mut self.gates {
            for i in &mut g.inputs {
                if *i == old {
                    *i = new;
                    n += 1;
                }
            }
        }
        for ff in &mut self.dffs {
            if ff.d == old {
                ff.d = new;
                n += 1;
            }
        }
        for o in &mut self.outputs {
            if *o == old {
                *o = new;
                n += 1;
            }
        }
        Ok(n)
    }

    /// Generates a net name starting with `prefix` that is not yet taken.
    pub fn fresh_name(&self, prefix: &str) -> String {
        if !self.name_map.contains_key(prefix) {
            return prefix.to_string();
        }
        let mut i = 0usize;
        loop {
            let candidate = format!("{prefix}_{i}");
            if !self.name_map.contains_key(&candidate) {
                return candidate;
            }
            i += 1;
        }
    }

    // ------------------------------------------------------------------
    // Access
    // ------------------------------------------------------------------

    /// Primary inputs in declaration order (key inputs included).
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// All gates, in creation order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// All flip-flops, in creation order.
    pub fn dffs(&self) -> &[Dff] {
        &self.dffs
    }

    /// Looks up a net by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is foreign to this netlist.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The name of net `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is foreign to this netlist.
    pub fn net_name(&self, id: NetId) -> &str {
        &self.nets[id.index()].name
    }

    /// Finds a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.name_map.get(name).copied()
    }

    /// Iterates over `(id, net)` pairs.
    pub(crate) fn iter_nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Primary inputs whose name marks them as key bits, sorted by the
    /// numeric suffix of their name so that `keyinput2` precedes `keyinput10`.
    pub fn key_inputs(&self) -> Vec<NetId> {
        let mut keys: Vec<NetId> = self
            .inputs
            .iter()
            .copied()
            .filter(|&id| self.net_name(id).starts_with(KEY_INPUT_PREFIX))
            .collect();
        keys.sort_by_key(|&id| {
            self.net_name(id)[KEY_INPUT_PREFIX.len()..]
                .parse::<u64>()
                .unwrap_or(u64::MAX)
        });
        keys
    }

    /// Primary inputs that are *not* key bits, in declaration order.
    pub fn data_inputs(&self) -> Vec<NetId> {
        self.inputs
            .iter()
            .copied()
            .filter(|&id| !self.net_name(id).starts_with(KEY_INPUT_PREFIX))
            .collect()
    }

    /// Number of combinational gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of flip-flops.
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }

    /// Number of primary inputs (key inputs included).
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Total number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// True if the netlist has no flip-flops.
    pub fn is_combinational(&self) -> bool {
        self.dffs.is_empty()
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Checks structural sanity: every net driven, and the gate graph is
    /// acyclic (flip-flops legitimately break cycles).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for net in &self.nets {
            if net.driver == Driver::Undriven {
                return Err(NetlistError::Undriven(net.name.clone()));
            }
        }
        crate::topo::gate_order(self)?;
        Ok(())
    }

    pub(crate) fn check_id(&self, id: NetId) -> Result<(), NetlistError> {
        if id.index() < self.nets.len() {
            Ok(())
        } else {
            Err(NetlistError::InvalidNetId(id.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Netlist {
        let mut nl = Netlist::new("toy");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_input("b").unwrap();
        let q = nl.add_net("q").unwrap();
        let d = nl.add_gate(GateKind::Xor, "d", &[a, q]).unwrap();
        nl.add_dff("ff0", d, q).unwrap();
        let y = nl.add_gate(GateKind::And, "y", &[d, b]).unwrap();
        nl.mark_output(y).unwrap();
        nl
    }

    #[test]
    fn build_and_validate() {
        let nl = toy();
        nl.validate().unwrap();
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.dff_count(), 1);
        assert_eq!(nl.input_count(), 2);
        assert_eq!(nl.output_count(), 1);
        assert!(!nl.is_combinational());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut nl = Netlist::new("t");
        nl.add_input("a").unwrap();
        assert_eq!(
            nl.add_input("a"),
            Err(NetlistError::DuplicateName("a".into()))
        );
        assert!(nl.add_net("a").is_err());
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let b = nl.add_gate(GateKind::Not, "b", &[a]).unwrap();
        assert!(matches!(
            nl.drive_with_gate(GateKind::Not, b, &[a]),
            Err(NetlistError::MultipleDrivers(_))
        ));
        assert!(matches!(
            nl.add_dff_to("ff", a, b),
            Err(NetlistError::MultipleDrivers(_))
        ));
    }

    #[test]
    fn undriven_net_fails_validation() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a").unwrap();
        let dangling = nl.add_net("x").unwrap();
        let y = nl.add_gate(GateKind::And, "y", &[a, dangling]).unwrap();
        nl.mark_output(y).unwrap();
        assert!(matches!(nl.validate(), Err(NetlistError::Undriven(_))));
    }

    #[test]
    fn key_inputs_sorted_numerically() {
        let mut nl = Netlist::new("t");
        nl.add_input("a").unwrap();
        let k10 = nl.add_key_input(10).unwrap();
        let k2 = nl.add_key_input(2).unwrap();
        let keys = nl.key_inputs();
        assert_eq!(keys, vec![k2, k10]);
        assert_eq!(nl.data_inputs().len(), 1);
    }

    #[test]
    fn replace_uses_rewires_everything() {
        let mut nl = toy();
        let a = nl.find_net("a").unwrap();
        let c1 = nl.add_gate(GateKind::Const1, "one", &[]).unwrap();
        let n = nl.replace_uses(a, c1).unwrap();
        assert_eq!(n, 1); // `a` feeds only the XOR
        for g in nl.gates() {
            assert!(!g.inputs().contains(&a));
        }
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let mut nl = Netlist::new("t");
        nl.add_input("x").unwrap();
        assert_eq!(nl.fresh_name("y"), "y");
        assert_eq!(nl.fresh_name("x"), "x_0");
        nl.add_net("x_0").unwrap();
        assert_eq!(nl.fresh_name("x"), "x_1");
    }

    #[test]
    fn mark_output_idempotent() {
        let mut nl = toy();
        let y = nl.find_net("y").unwrap();
        nl.mark_output(y).unwrap();
        assert_eq!(nl.output_count(), 1);
    }

    #[test]
    fn foreign_ids_rejected() {
        let mut nl = Netlist::new("t");
        let bogus = NetId(42);
        assert!(nl.mark_output(bogus).is_err());
        assert!(nl.add_gate(GateKind::Not, "x", &[bogus]).is_err());
    }
}
