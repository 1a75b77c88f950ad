//! Netlist storage, construction, validation, and levelization.

use std::collections::HashMap;

use crate::error::NetlistError;
use crate::gate::{Dff, DffId, Driver, Gate, GateId, GateKind, NetId};

/// A gate-level sequential netlist in the ISCAS-89 style.
///
/// A netlist consists of named nets, primary inputs and outputs,
/// combinational gates, and D flip-flops. Under the full-scan assumption
/// every flip-flop is a scan cell: its output (`q`) acts as a
/// pseudo-primary input and its data input (`d`) as a pseudo-primary
/// output.
///
/// Construct a netlist with [`NetlistBuilder`], by parsing `.bench` text
/// with [`Netlist::from_bench`](crate::Netlist::from_bench), or with the
/// synthetic generator in [`generate`](crate::generate).
///
/// # Examples
///
/// ```
/// use scan_netlist::{NetlistBuilder, GateKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("toy");
/// let a = b.input("a");
/// let clk_q = b.dff("state", "next");
/// let out = b.gate(GateKind::And, "out", &["a", "state"]);
/// b.output("out");
/// b.connect_dff_d("next", &["out"])?; // next = BUF(out)
/// let netlist = b.finish()?;
/// assert_eq!(netlist.num_inputs(), 1);
/// assert_eq!(netlist.num_dffs(), 1);
/// # let _ = (a, clk_q, out);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Netlist {
    name: String,
    net_names: Vec<String>,
    drivers: Vec<Driver>,
    gates: Vec<Gate>,
    dffs: Vec<Dff>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    /// Gates in topological (levelized) order.
    topo: Vec<GateId>,
    /// Level of each gate (1 + max level of its input drivers; PIs and FF
    /// outputs are level 0).
    levels: Vec<u32>,
    /// Fanout gate lists per net.
    fanouts: Vec<Vec<GateId>>,
}

impl Netlist {
    /// The circuit name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.net_names.len()
    }

    /// Number of combinational gates.
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of flip-flops (scan cells under full scan).
    #[must_use]
    pub fn num_dffs(&self) -> usize {
        self.dffs.len()
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Primary input nets, in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// All flip-flops, in declaration order.
    #[must_use]
    pub fn dffs(&self) -> &[Dff] {
        &self.dffs
    }

    /// All combinational gates.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Looks up a gate by id.
    #[must_use]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Looks up a flip-flop by id.
    #[must_use]
    pub fn dff(&self, id: DffId) -> Dff {
        self.dffs[id.index()]
    }

    /// The name of a net.
    #[must_use]
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.index()]
    }

    /// The driver of a net.
    #[must_use]
    pub fn driver(&self, net: NetId) -> Driver {
        self.drivers[net.index()]
    }

    /// Finds a net by name.
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names
            .iter()
            .position(|n| n == name)
            .map(|i| NetId(i as u32))
    }

    /// Gates in topological order (inputs before users); suitable for a
    /// single-pass levelized evaluation.
    #[must_use]
    pub fn topo_order(&self) -> &[GateId] {
        &self.topo
    }

    /// The level of a gate (length of the longest combinational path from
    /// any primary input or flip-flop output to the gate).
    #[must_use]
    pub fn gate_level(&self, id: GateId) -> u32 {
        self.levels[id.index()]
    }

    /// The maximum gate level (combinational depth) of the circuit.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.levels.iter().copied().max().unwrap_or(0)
    }

    /// Gates that read the given net.
    #[must_use]
    pub fn fanout(&self, net: NetId) -> &[GateId] {
        &self.fanouts[net.index()]
    }

    /// Number of gate input pins reading the given net (fanout count,
    /// counting repeated pins of one gate individually).
    #[must_use]
    pub fn fanout_count(&self, net: NetId) -> usize {
        self.fanouts[net.index()]
            .iter()
            .map(|&g| {
                self.gates[g.index()]
                    .inputs
                    .iter()
                    .filter(|&&n| n == net)
                    .count()
            })
            .sum()
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.net_names.len() as u32).map(NetId)
    }

    /// Iterates over all gate ids in storage order.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len() as u32).map(GateId)
    }

    /// Iterates over all flip-flop ids in declaration order.
    pub fn dff_ids(&self) -> impl Iterator<Item = DffId> + '_ {
        (0..self.dffs.len() as u32).map(DffId)
    }
}

/// Incremental builder for [`Netlist`].
///
/// Nets are created on first reference by name; [`NetlistBuilder::finish`]
/// validates single-driver discipline, absence of combinational cycles,
/// and that every referenced net is driven.
#[derive(Clone, Debug)]
pub struct NetlistBuilder {
    name: String,
    net_names: Vec<String>,
    by_name: HashMap<String, NetId>,
    drivers: Vec<Option<Driver>>,
    gates: Vec<Gate>,
    dffs: Vec<Dff>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    /// Nets that received a second driver; reported by `finish`.
    conflicts: Vec<NetId>,
}

impl NetlistBuilder {
    /// Creates an empty builder for a circuit with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            net_names: Vec::new(),
            // lint:allow(L014): name→id lookup only (get/insert), never iterated
            by_name: HashMap::new(),
            drivers: Vec::new(),
            gates: Vec::new(),
            dffs: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            conflicts: Vec::new(),
        }
    }

    /// Returns the id for a named net, creating the net if needed.
    pub fn net(&mut self, name: &str) -> NetId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = NetId(self.net_names.len() as u32);
        self.net_names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        self.drivers.push(None);
        id
    }

    /// Declares a primary input net.
    pub fn input(&mut self, name: &str) -> NetId {
        let id = self.net(name);
        // A repeated INPUT(x) is reported as DuplicateInput by finish();
        // don't also record it as a driver conflict.
        if !self.inputs.contains(&id) {
            self.set_driver(id, Driver::PrimaryInput);
        }
        self.inputs.push(id);
        id
    }

    /// Declares a primary output net (the net may be driven later).
    pub fn output(&mut self, name: &str) -> NetId {
        let id = self.net(name);
        self.outputs.push(id);
        id
    }

    /// Adds a combinational gate driving `output` from `inputs`.
    ///
    /// Returns the output net id.
    pub fn gate(&mut self, kind: GateKind, output: &str, inputs: &[&str]) -> NetId {
        let out = self.net(output);
        let ins: Vec<NetId> = inputs.iter().map(|n| self.net(n)).collect();
        self.push_gate(kind, out, ins)
    }

    /// [`NetlistBuilder::gate`] over input nets that already exist.
    pub(crate) fn gate_from_ids(
        &mut self,
        kind: GateKind,
        output: &str,
        inputs: Vec<NetId>,
    ) -> NetId {
        let out = self.net(output);
        self.push_gate(kind, out, inputs)
    }

    fn push_gate(&mut self, kind: GateKind, out: NetId, ins: Vec<NetId>) -> NetId {
        let gid = GateId(self.gates.len() as u32);
        self.gates.push(Gate {
            kind,
            inputs: ins,
            output: out,
        });
        self.set_driver(out, Driver::Gate(gid));
        out
    }

    /// Adds a D flip-flop with output net `q` and data input net `d`
    /// (ISCAS-89 `q = DFF(d)`), returning the Q net id.
    pub fn dff(&mut self, q: &str, d: &str) -> NetId {
        let qid = self.net(q);
        let did = self.net(d);
        let ffid = DffId(self.dffs.len() as u32);
        self.dffs.push(Dff { d: did, q: qid });
        self.set_driver(qid, Driver::Dff(ffid));
        qid
    }

    /// Convenience: drives the named DFF data net with a buffer of a
    /// single source (used by doc examples and generators).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MultipleDrivers`] if `d_net` is already
    /// driven.
    pub fn connect_dff_d(&mut self, d_net: &str, sources: &[&str]) -> Result<(), NetlistError> {
        let d = self.net(d_net);
        if self.drivers[d.index()].is_some() {
            return Err(NetlistError::MultipleDrivers {
                net: self.net_names[d.index()].clone(),
            });
        }
        let kind = if sources.len() == 1 {
            GateKind::Buf
        } else {
            GateKind::And
        };
        self.gate(kind, d_net, sources);
        Ok(())
    }

    fn set_driver(&mut self, net: NetId, driver: Driver) {
        let slot = &mut self.drivers[net.index()];
        if slot.is_none() {
            *slot = Some(driver);
        } else {
            // Record the conflict by leaving the first driver in place and
            // remembering the net; simplest is to push a sentinel gate-level
            // error at finish time. We tag conflicts in a side list.
            self.conflicts.push(net);
        }
    }

    /// Validates and freezes the netlist.
    ///
    /// # Errors
    ///
    /// Returns an error if any net has zero or multiple drivers, a primary
    /// input is declared twice, or the combinational logic is cyclic.
    ///
    /// # Panics
    ///
    /// Panics only on internal invariant violations (never for caller
    /// mistakes, which are reported as errors).
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        // Duplicate primary input declarations.
        {
            // lint:allow(L014): duplicate detection via insert(), never iterated
            let mut seen = std::collections::HashSet::new();
            for &i in &self.inputs {
                if !seen.insert(i) {
                    return Err(NetlistError::DuplicateInput {
                        net: self.net_names[i.index()].clone(),
                    });
                }
            }
        }
        if let Some(&net) = self.conflicts.first() {
            return Err(NetlistError::MultipleDrivers {
                net: self.net_names[net.index()].clone(),
            });
        }
        // Every net driven.
        let mut drivers = Vec::with_capacity(self.drivers.len());
        for (i, d) in self.drivers.iter().enumerate() {
            match d {
                Some(d) => drivers.push(*d),
                None => {
                    return Err(NetlistError::Undriven {
                        net: self.net_names[i].clone(),
                    })
                }
            }
        }
        // Levelize: Kahn's algorithm over gates only (PIs and DFF Qs are
        // sources; DFF D inputs are sinks and do not feed back
        // combinationally).
        let num_gates = self.gates.len();
        let mut indegree = vec![0u32; num_gates];
        let mut fanouts: Vec<Vec<GateId>> = vec![Vec::new(); self.net_names.len()];
        for (gi, gate) in self.gates.iter().enumerate() {
            for &input in &gate.inputs {
                // A gate reading the same net on several pins appears once
                // in the fanout list; fanout_count() counts pins.
                if fanouts[input.index()].last() != Some(&GateId(gi as u32)) {
                    fanouts[input.index()].push(GateId(gi as u32));
                    if let Driver::Gate(_) = drivers[input.index()] {
                        indegree[gi] += 1;
                    }
                }
            }
        }
        let mut levels = vec![0u32; num_gates];
        let mut topo = Vec::with_capacity(num_gates);
        let mut queue: Vec<GateId> = indegree
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| GateId(i as u32))
            .collect();
        let mut head = 0;
        while head < queue.len() {
            let g = queue[head];
            head += 1;
            topo.push(g);
            let out = self.gates[g.index()].output;
            let lvl = levels[g.index()];
            for &succ in &fanouts[out.index()] {
                levels[succ.index()] = levels[succ.index()].max(lvl + 1);
                indegree[succ.index()] -= 1;
                if indegree[succ.index()] == 0 {
                    queue.push(succ);
                }
            }
        }
        if topo.len() != num_gates {
            // Some gate is on a combinational cycle; find one for the error.
            let cyclic = (0..num_gates)
                .find(|&i| indegree[i] > 0)
                .expect("cycle implies a gate with nonzero indegree");
            return Err(NetlistError::CombinationalCycle {
                net: self.net_names[self.gates[cyclic].output.index()].clone(),
            });
        }
        // Adjust levels so every gate level is 1 + max(level of gate-driven
        // inputs), with source-driven gates at level 1 (done: levels start
        // at 0 for source gates; shift by 1 for a conventional depth).
        for l in &mut levels {
            *l += 1;
        }
        Ok(Netlist {
            name: self.name,
            net_names: self.net_names,
            drivers,
            gates: self.gates,
            dffs: self.dffs,
            inputs: self.inputs,
            outputs: self.outputs,
            topo,
            levels,
            fanouts,
        })
    }
}

impl NetlistBuilder {
    /// Number of nets created so far.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.net_names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> NetlistBuilder {
        let mut b = NetlistBuilder::new("tiny");
        b.input("a");
        b.input("b");
        b.gate(GateKind::And, "x", &["a", "b"]);
        b.gate(GateKind::Not, "y", &["x"]);
        b.output("y");
        b
    }

    #[test]
    fn builds_and_levelizes() {
        let n = tiny().finish().unwrap();
        assert_eq!(n.num_gates(), 2);
        assert_eq!(n.depth(), 2);
        let x = n.find_net("x").unwrap();
        let y = n.find_net("y").unwrap();
        assert!(matches!(n.driver(x), Driver::Gate(_)));
        assert_eq!(n.fanout(x).len(), 1);
        assert_eq!(n.fanout(y).len(), 0);
        // topo order puts the AND before the NOT
        let order = n.topo_order();
        assert_eq!(n.gate(order[0]).kind, GateKind::And);
        assert_eq!(n.gate(order[1]).kind, GateKind::Not);
    }

    #[test]
    fn undriven_net_rejected() {
        let mut b = tiny();
        b.gate(GateKind::Or, "z", &["x", "ghost"]);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, NetlistError::Undriven { net } if net == "ghost"));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut b = tiny();
        b.gate(GateKind::Or, "x", &["a", "b"]);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { net } if net == "x"));
    }

    #[test]
    fn duplicate_input_rejected() {
        let mut b = NetlistBuilder::new("d");
        b.input("a");
        b.input("a");
        b.gate(GateKind::Buf, "y", &["a"]);
        b.output("y");
        let err = b.finish().unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateInput { net } if net == "a"));
    }

    #[test]
    fn combinational_cycle_rejected() {
        let mut b = NetlistBuilder::new("c");
        b.input("a");
        b.gate(GateKind::And, "x", &["a", "y"]);
        b.gate(GateKind::Or, "y", &["x", "a"]);
        b.output("y");
        let err = b.finish().unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalCycle { .. }));
    }

    #[test]
    fn dff_breaks_cycles() {
        // State feedback through a DFF is fine.
        let mut b = NetlistBuilder::new("seq");
        b.input("a");
        b.dff("q", "d");
        b.gate(GateKind::Xor, "d", &["a", "q"]);
        b.output("d");
        let n = b.finish().unwrap();
        assert_eq!(n.num_dffs(), 1);
        assert_eq!(n.depth(), 1);
    }

    #[test]
    fn fanout_count_counts_pins() {
        let mut b = NetlistBuilder::new("f");
        b.input("a");
        b.gate(GateKind::Xor, "y", &["a", "a"]);
        b.output("y");
        let n = b.finish().unwrap();
        let a = n.find_net("a").unwrap();
        assert_eq!(n.fanout(a).len(), 1);
        assert_eq!(n.fanout_count(a), 2);
    }
}
