//! The And-Inverter-Graph core IR: a structurally hashed, constant-folding
//! network of two-input AND nodes with complemented edges.
//!
//! The AIG is the canonical substrate of modern logic synthesis and formal
//! verification (ABC-style): every gate type reduces to AND and inversion,
//! inversion is free (a bit on the edge, not a node), structural hashing
//! merges identical logic at construction time, and constant folding removes
//! trivial nodes before they exist. The suite uses it as the shared IR
//! between layers:
//!
//! * [`Aig::from_circuit`] / [`Aig::to_circuit`] — lowering/raising that
//!   preserves the primary interface (input names and order, output count
//!   and order), so locked circuits stay locked with the same key inputs;
//! * [`Aig::add_circuit`] — lowering *into* an existing AIG with inputs
//!   shared by name, which is how miters are built AIG-side: logic common to
//!   both halves hashes to one node before any CNF exists;
//! * [`Aig::miter`] — the disequality output over two output vectors;
//! * [`Aig::eval_words`] — packed 64-lane simulation over every node, the
//!   signature kernel behind the fraig-style equivalence sweep in
//!   `kratt-synth`.
//!
//! Node indices are topologically ordered by construction (fanins always
//! precede their node), so passes can iterate `1..num_nodes()` without
//! recomputing an order.

use crate::circuit::{Circuit, NetId};
use crate::{GateType, NetlistError};
use std::collections::HashMap;

/// An edge of the AIG: a node index plus a complement bit.
///
/// The constant-false node is node 0, so [`AigLit::FALSE`] is node 0 plain
/// and [`AigLit::TRUE`] is node 0 complemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AigLit(u32);

impl AigLit {
    /// The constant-false edge (node 0, plain).
    pub const FALSE: AigLit = AigLit(0);
    /// The constant-true edge (node 0, complemented).
    pub const TRUE: AigLit = AigLit(1);

    /// Builds an edge from a node index and a complement flag.
    pub fn new(node: u32, complemented: bool) -> Self {
        AigLit(node << 1 | u32::from(complemented))
    }

    /// The node this edge points at.
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the edge inverts the node's value.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 != 0
    }

    /// The inverted edge. Inversion is free in an AIG — no node is created.
    #[must_use]
    pub fn complement(self) -> Self {
        AigLit(self.0 ^ 1)
    }

    /// This edge if `value` is `true`, its complement otherwise.
    #[must_use]
    pub fn when(self, value: bool) -> Self {
        if value {
            self
        } else {
            self.complement()
        }
    }

    /// Whether this edge is one of the two constants.
    pub fn is_constant(self) -> bool {
        self.node() == 0
    }
}

/// One AND node: its two fanin edges. Primary inputs and the constant node
/// carry sentinel fanins and are distinguished by [`Aig::is_input`].
#[derive(Debug, Clone, Copy)]
struct AigNode {
    fanin0: AigLit,
    fanin1: AigLit,
}

const NO_FANIN: AigLit = AigLit(u32::MAX);

/// A structural invariant violation found by [`Aig::check_invariants`].
///
/// A freshly built AIG can never contain one: the builders enforce the
/// invariants by construction. Violations arise only from the raw fixture
/// hooks (or a buggy in-place rewrite) and are what the `kratt-lint` AIG
/// rules report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AigViolation {
    /// An AND node with a fanin whose index does not precede it, breaking
    /// the topological ordering every `1..num_nodes()` pass relies on.
    FaninOrder {
        /// The offending AND node.
        node: u32,
        /// The fanin node index that fails to precede it.
        fanin: u32,
    },
    /// Two AND nodes with the same (canonical) fanin pair — logic the strash
    /// table should have merged into one node.
    DuplicateNode {
        /// The earlier of the two structurally identical nodes.
        first: u32,
        /// The later duplicate.
        second: u32,
    },
}

impl std::fmt::Display for AigViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AigViolation::FaninOrder { node, fanin } => {
                write!(
                    f,
                    "AND node {node} has fanin {fanin} that does not precede it"
                )
            }
            AigViolation::DuplicateNode { first, second } => {
                write!(
                    f,
                    "AND nodes {first} and {second} share the same fanin pair"
                )
            }
        }
    }
}

/// Structural statistics of an [`Aig`]'s registered-output cone, as
/// reported by [`Aig::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AigStats {
    /// Primary inputs (all registered inputs, in or out of the cone).
    pub inputs: usize,
    /// Registered outputs.
    pub outputs: usize,
    /// Live AND nodes (reachable from a registered output).
    pub ands: usize,
    /// Longest input-to-output AND path.
    pub levels: usize,
    /// Peak fanout over live nodes (fanin references plus output
    /// registrations).
    pub max_fanout: usize,
}

/// A structurally hashed And-Inverter Graph. See the [module](self) docs.
#[derive(Debug, Clone)]
pub struct Aig {
    name: String,
    nodes: Vec<AigNode>,
    /// Node indices of the primary inputs, in declaration order.
    inputs: Vec<u32>,
    input_names: Vec<String>,
    input_by_name: HashMap<String, u32>,
    outputs: Vec<AigLit>,
    output_names: Vec<String>,
    /// Structural hash: normalised `(fanin0, fanin1)` → node.
    strash: HashMap<(AigLit, AigLit), u32>,
}

impl Aig {
    /// An empty AIG holding only the constant node.
    pub fn new(name: impl Into<String>) -> Self {
        Aig {
            name: name.into(),
            nodes: vec![AigNode {
                fanin0: NO_FANIN,
                fanin1: NO_FANIN,
            }],
            inputs: Vec::new(),
            input_names: Vec::new(),
            input_by_name: HashMap::new(),
            outputs: Vec::new(),
            output_names: Vec::new(),
            strash: HashMap::new(),
        }
    }

    /// The AIG's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total node count (constant + inputs + ANDs).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of AND nodes.
    pub fn num_ands(&self) -> usize {
        self.nodes.len() - 1 - self.inputs.len()
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Primary-input names, in declaration order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Node indices of the primary inputs, in declaration order.
    pub fn input_nodes(&self) -> &[u32] {
        &self.inputs
    }

    /// Output edges, in declaration order.
    pub fn outputs(&self) -> &[AigLit] {
        &self.outputs
    }

    /// Output names, parallel to [`Aig::outputs`].
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }

    /// Whether `node` is a primary input.
    pub fn is_input(&self, node: u32) -> bool {
        node != 0 && self.nodes[node as usize].fanin0 == NO_FANIN
    }

    /// Whether `node` is an AND node (not the constant, not an input).
    pub fn is_and(&self, node: u32) -> bool {
        node != 0 && self.nodes[node as usize].fanin0 != NO_FANIN
    }

    /// The fanin edges of an AND node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an AND node. This is an API-contract check,
    /// not an input-validation gap: callers select AND nodes via
    /// [`Aig::is_and`], and the structural invariants behind that contract
    /// (topological fanin order, strash consistency) are checkable with
    /// [`Aig::check_invariants`] and linted by the `kratt-lint` AIG rules.
    pub fn fanins(&self, node: u32) -> (AigLit, AigLit) {
        let n = &self.nodes[node as usize];
        assert!(n.fanin0 != NO_FANIN, "node {node} is not an AND node");
        (n.fanin0, n.fanin1)
    }

    /// The plain (uncomplemented) edge of an existing input, by name.
    pub fn input_lit(&self, name: &str) -> Option<AigLit> {
        self.input_by_name
            .get(name)
            .map(|&node| AigLit::new(node, false))
    }

    /// Adds a primary input (or returns the existing one with this name —
    /// shared-by-name inputs are what makes cross-circuit miters hash their
    /// common logic together).
    pub fn add_input(&mut self, name: impl Into<String>) -> AigLit {
        let name = name.into();
        if let Some(&node) = self.input_by_name.get(&name) {
            return AigLit::new(node, false);
        }
        let node = self.nodes.len() as u32;
        self.nodes.push(AigNode {
            fanin0: NO_FANIN,
            fanin1: NO_FANIN,
        });
        self.inputs.push(node);
        self.input_by_name.insert(name.clone(), node);
        self.input_names.push(name);
        AigLit::new(node, false)
    }

    /// Declares an output edge with a name.
    pub fn add_output(&mut self, name: impl Into<String>, lit: AigLit) {
        self.outputs.push(lit);
        self.output_names.push(name.into());
    }

    /// The conjunction of two edges, with constant folding, trivial-case
    /// simplification (`a·a = a`, `a·¬a = 0`) and structural hashing.
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // Constant folding.
        if a == AigLit::FALSE || b == AigLit::FALSE || a == b.complement() {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE {
            return b;
        }
        if b == AigLit::TRUE || a == b {
            return a;
        }
        // Canonical operand order for hashing.
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&node) = self.strash.get(&key) {
            return AigLit::new(node, false);
        }
        let node = self.nodes.len() as u32;
        self.nodes.push(AigNode {
            fanin0: key.0,
            fanin1: key.1,
        });
        self.strash.insert(key, node);
        AigLit::new(node, false)
    }

    /// The disjunction of two edges (through De Morgan).
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.and(a.complement(), b.complement()).complement()
    }

    /// The parity of two edges (three AND nodes, shared where possible).
    pub fn xor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        let both = self.and(a, b);
        let neither = self.and(a.complement(), b.complement());
        self.and(both.complement(), neither.complement())
    }

    /// `if s then t else e`.
    pub fn mux(&mut self, s: AigLit, t: AigLit, e: AigLit) -> AigLit {
        let on = self.and(s, t);
        let off = self.and(s.complement(), e);
        self.or(on, off)
    }

    /// Balanced conjunction of any number of edges (`TRUE` for none).
    pub fn and_many(&mut self, lits: &[AigLit]) -> AigLit {
        self.reduce_balanced(lits, AigLit::TRUE, Self::and)
    }

    /// Balanced disjunction of any number of edges (`FALSE` for none).
    pub fn or_many(&mut self, lits: &[AigLit]) -> AigLit {
        self.reduce_balanced(lits, AigLit::FALSE, Self::or)
    }

    /// Chained parity of any number of edges (`FALSE` for none).
    pub fn xor_many(&mut self, lits: &[AigLit]) -> AigLit {
        self.reduce_balanced(lits, AigLit::FALSE, Self::xor)
    }

    fn reduce_balanced(
        &mut self,
        lits: &[AigLit],
        empty: AigLit,
        mut op: impl FnMut(&mut Self, AigLit, AigLit) -> AigLit,
    ) -> AigLit {
        match lits {
            [] => empty,
            [single] => *single,
            _ => {
                let mut level = lits.to_vec();
                while level.len() > 1 {
                    let mut next = Vec::with_capacity(level.len().div_ceil(2));
                    for pair in level.chunks(2) {
                        next.push(match pair {
                            [a, b] => op(self, *a, *b),
                            [a] => *a,
                            _ => unreachable!("chunks(2)"),
                        });
                    }
                    level = next;
                }
                level[0]
            }
        }
    }

    /// Lowers `circuit` into this AIG, sharing inputs *by name* with whatever
    /// is already here and consulting `bound` first: an input whose name is
    /// bound maps to the given edge (typically a constant) instead of
    /// becoming an AIG input. Returns the edge of every net, indexed by
    /// [`NetId::index`] — outputs are **not** registered (use
    /// [`Aig::add_circuit`] for that).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the circuit is cyclic.
    pub fn lower_circuit(
        &mut self,
        circuit: &Circuit,
        bound: &HashMap<String, AigLit>,
    ) -> Result<Vec<AigLit>, NetlistError> {
        let mut lits = vec![AigLit::FALSE; circuit.num_nets()];
        for &pi in circuit.inputs() {
            let name = circuit.net_name(pi);
            lits[pi.index()] = match bound.get(name) {
                Some(&lit) => lit,
                None => self.add_input(name),
            };
        }
        for &gid in crate::analysis::topological_order(circuit)?.iter() {
            let gate = circuit.gate(gid);
            let ins: Vec<AigLit> = gate.inputs.iter().map(|n| lits[n.index()]).collect();
            let value = match gate.ty {
                GateType::And => self.and_many(&ins),
                GateType::Nand => self.and_many(&ins).complement(),
                GateType::Or => self.or_many(&ins),
                GateType::Nor => self.or_many(&ins).complement(),
                GateType::Xor => self.xor_many(&ins),
                GateType::Xnor => self.xor_many(&ins).complement(),
                GateType::Not => ins[0].complement(),
                GateType::Buf => ins[0],
                GateType::Const0 => AigLit::FALSE,
                GateType::Const1 => AigLit::TRUE,
            };
            lits[gate.output.index()] = value;
        }
        Ok(lits)
    }

    /// Lowers `circuit` into this AIG (inputs shared by name) and registers
    /// its outputs. Returns the output edges in circuit output order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the circuit is cyclic.
    pub fn add_circuit(&mut self, circuit: &Circuit) -> Result<Vec<AigLit>, NetlistError> {
        let lits = self.lower_circuit(circuit, &HashMap::new())?;
        let outputs: Vec<AigLit> = circuit.outputs().iter().map(|o| lits[o.index()]).collect();
        for (&o, &lit) in circuit.outputs().iter().zip(&outputs) {
            self.add_output(circuit.net_name(o), lit);
        }
        Ok(outputs)
    }

    /// Lowers a circuit into a fresh AIG, preserving the primary interface
    /// (input names and order, output names and order).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the circuit is cyclic.
    pub fn from_circuit(circuit: &Circuit) -> Result<Self, NetlistError> {
        let mut aig = Aig::new(circuit.name());
        aig.add_circuit(circuit)?;
        Ok(aig)
    }

    /// The disequality edge over two output vectors living in this AIG: true
    /// iff at least one pair of corresponding outputs differs. Because both
    /// halves share the AIG, common logic is already one node by the time
    /// the XORs are built.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length — a programming error at the
    /// call site (both vectors come from [`Aig::add_circuit`], whose lengths
    /// the caller controls), not a property of the AIG itself.
    pub fn miter(&mut self, a: &[AigLit], b: &[AigLit]) -> AigLit {
        assert_eq!(a.len(), b.len(), "miter requires matching output counts");
        let diffs: Vec<AigLit> = a.iter().zip(b).map(|(&la, &lb)| self.xor(la, lb)).collect();
        self.or_many(&diffs)
    }

    /// Marks every node reachable backwards from `roots` (the constant node
    /// is never marked; inputs are). Indexed by node.
    pub fn cone(&self, roots: &[AigLit]) -> Vec<bool> {
        let mut mark = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = roots.iter().map(|l| l.node()).filter(|&n| n != 0).collect();
        while let Some(node) = stack.pop() {
            if mark[node as usize] {
                continue;
            }
            mark[node as usize] = true;
            if self.is_and(node) {
                let (f0, f1) = self.fanins(node);
                for f in [f0, f1] {
                    if f.node() != 0 && !mark[f.node() as usize] {
                        stack.push(f.node());
                    }
                }
            }
        }
        mark
    }

    /// Reference counts within `cone` (fanin references of marked AND nodes
    /// plus one per registered output), indexed by node.
    pub fn reference_counts(&self, cone: &[bool]) -> Vec<u32> {
        let mut refs = vec![0u32; self.nodes.len()];
        for node in 1..self.nodes.len() as u32 {
            if cone[node as usize] && self.is_and(node) {
                let (f0, f1) = self.fanins(node);
                refs[f0.node() as usize] += 1;
                refs[f1.node() as usize] += 1;
            }
        }
        for output in &self.outputs {
            refs[output.node() as usize] += 1;
        }
        refs
    }

    /// Checks the structural invariants every well-formed AIG upholds by
    /// construction: AND fanins precede their node (topological index
    /// ordering, which every pass iterating `1..num_nodes()` relies on) and
    /// no two AND nodes share a fanin pair (strash consistency). A non-empty
    /// result means the AIG was corrupted — possible only through the raw
    /// fixture hooks or a buggy rewrite, never through the public builders.
    pub fn check_invariants(&self) -> Vec<AigViolation> {
        let mut violations = Vec::new();
        let mut seen: HashMap<(AigLit, AigLit), u32> = HashMap::new();
        for node in 1..self.nodes.len() as u32 {
            if !self.is_and(node) {
                continue;
            }
            let (f0, f1) = self.fanins(node);
            for fanin in [f0, f1] {
                if fanin.node() >= node {
                    violations.push(AigViolation::FaninOrder {
                        node,
                        fanin: fanin.node(),
                    });
                }
            }
            let key = if f0 <= f1 { (f0, f1) } else { (f1, f0) };
            match seen.get(&key) {
                Some(&first) => violations.push(AigViolation::DuplicateNode {
                    first,
                    second: node,
                }),
                None => {
                    seen.insert(key, node);
                }
            }
        }
        violations
    }

    /// Structural statistics over the registered-output cone: live AND
    /// count, depth and peak fanout. Dangling logic is excluded, so the
    /// numbers match what [`Aig::to_circuit`] would raise and what the CNF
    /// encoder would materialise.
    pub fn stats(&self) -> AigStats {
        let cone = self.cone(&self.outputs);
        let refs = self.reference_counts(&cone);
        let mut level = vec![0u32; self.nodes.len()];
        let mut ands = 0;
        for node in 1..self.nodes.len() as u32 {
            if !cone[node as usize] || !self.is_and(node) {
                continue;
            }
            ands += 1;
            let (f0, f1) = self.fanins(node);
            level[node as usize] = 1 + level[f0.node() as usize].max(level[f1.node() as usize]);
        }
        AigStats {
            inputs: self.inputs.len(),
            outputs: self.outputs.len(),
            ands,
            levels: self
                .outputs
                .iter()
                .map(|o| level[o.node() as usize] as usize)
                .max()
                .unwrap_or(0),
            max_fanout: (0..self.nodes.len())
                .filter(|&n| n != 0 && cone[n])
                .map(|n| refs[n] as usize)
                .max()
                .unwrap_or(0),
        }
    }

    /// The AND nodes not reachable from any registered output — dangling
    /// logic that [`Aig::to_circuit`] sweeps. Useful as a lint query: a
    /// raising that left dangling gates behind would violate the "raising is
    /// the dangling-node sweep" contract.
    pub fn dangling_nodes(&self) -> Vec<u32> {
        let cone = self.cone(&self.outputs);
        (1..self.nodes.len() as u32)
            .filter(|&node| self.is_and(node) && !cone[node as usize])
            .collect()
    }

    /// Pushes an AND node without structural hashing, canonical operand
    /// ordering, constant folding or index checks. This deliberately bypasses
    /// every invariant [`Aig::check_invariants`] verifies so lint-rule
    /// fixtures can craft corrupted AIGs; it must never be used outside such
    /// fixtures.
    #[doc(hidden)]
    pub fn raw_push_and(&mut self, fanin0: AigLit, fanin1: AigLit) -> AigLit {
        let node = self.nodes.len() as u32;
        self.nodes.push(AigNode { fanin0, fanin1 });
        AigLit::new(node, false)
    }

    /// Evaluates every node over 64 packed patterns: `input_words[i]` holds
    /// the 64 values of input *i* (bit *p* = pattern *p*). Returns one word
    /// per node (plain phase); read an edge with [`Aig::lit_word`].
    ///
    /// # Panics
    ///
    /// Panics if `input_words` does not match the input count — an
    /// API-contract check on the caller's pattern vector, matching the
    /// width check of [`Circuit::simulate`].
    pub fn eval_words(&self, input_words: &[u64]) -> Vec<u64> {
        assert_eq!(
            input_words.len(),
            self.inputs.len(),
            "one word per primary input"
        );
        let mut values = vec![0u64; self.nodes.len()];
        for (&node, &word) in self.inputs.iter().zip(input_words) {
            values[node as usize] = word;
        }
        for node in 1..self.nodes.len() as u32 {
            if self.is_and(node) {
                let (f0, f1) = self.fanins(node);
                values[node as usize] = Self::word_of(&values, f0) & Self::word_of(&values, f1);
            }
        }
        values
    }

    fn word_of(values: &[u64], lit: AigLit) -> u64 {
        let word = values[lit.node() as usize];
        if lit.is_complemented() {
            !word
        } else {
            word
        }
    }

    /// The packed value of an edge given the node words of
    /// [`Aig::eval_words`].
    pub fn lit_word(&self, values: &[u64], lit: AigLit) -> u64 {
        Self::word_of(values, lit)
    }

    /// Raises the AIG back to a gate-level [`Circuit`]: inputs in declaration
    /// order with their names, one AND gate per AND node reachable from the
    /// outputs (the raising *is* the dangling-node sweep), NOT gates for
    /// complemented edges, and one named BUF/NOT per output so output names
    /// survive the round trip.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Transform`] if the AIG violates its structural
    /// invariants (only possible through the raw fixture hooks; see
    /// [`Aig::check_invariants`]). Ordinary construction errors cannot occur.
    pub fn to_circuit(&self) -> Result<Circuit, NetlistError> {
        // Raising iterates nodes in index order and assumes strash-merged,
        // topologically ordered nodes; catch corrupted AIGs early in debug
        // builds instead of producing a silently wrong netlist.
        debug_assert!(
            self.check_invariants().is_empty(),
            "AIG `{}` violates structural invariants: {:?}",
            self.name,
            self.check_invariants()
        );
        let mut circuit = Circuit::new(self.name.clone());
        let mut plain: Vec<Option<NetId>> = vec![None; self.nodes.len()];
        let mut negated: Vec<Option<NetId>> = vec![None; self.nodes.len()];
        for (&node, name) in self.inputs.iter().zip(&self.input_names) {
            plain[node as usize] = Some(circuit.add_input(name)?);
        }
        // An out-of-range fanin (possible only through the raw fixture
        // hooks) would panic inside `cone` before `net_of` could report a
        // typed error; surface it here first.
        for node in 1..self.nodes.len() as u32 {
            if self.is_and(node) {
                let (f0, f1) = self.fanins(node);
                if [f0, f1]
                    .iter()
                    .any(|f| f.node() as usize >= self.nodes.len())
                {
                    return Err(malformed(node, "fanin points outside the node array"));
                }
            }
        }
        let cone = self.cone(&self.outputs);
        for node in 1..self.nodes.len() as u32 {
            if !cone[node as usize] || !self.is_and(node) {
                continue;
            }
            let (f0, f1) = self.fanins(node);
            let a = Self::net_of(&mut circuit, &mut plain, &mut negated, f0)?;
            let b = Self::net_of(&mut circuit, &mut plain, &mut negated, f1)?;
            plain[node as usize] = Some(circuit.add_gate_auto(GateType::And, "aig", &[a, b])?);
        }
        for (&lit, name) in self.outputs.iter().zip(&self.output_names) {
            let net = if lit == AigLit::FALSE {
                add_named_or_auto(&mut circuit, GateType::Const0, name, &[])?
            } else if lit == AigLit::TRUE {
                add_named_or_auto(&mut circuit, GateType::Const1, name, &[])?
            } else {
                let plain_net = plain[lit.node() as usize]
                    .ok_or_else(|| malformed(lit.node(), "output cone node was never raised"))?;
                let ty = if lit.is_complemented() {
                    GateType::Not
                } else {
                    GateType::Buf
                };
                add_named_or_auto(&mut circuit, ty, name, &[plain_net])?
            };
            circuit.mark_output(net);
        }
        Ok(circuit)
    }

    fn net_of(
        circuit: &mut Circuit,
        plain: &mut [Option<NetId>],
        negated: &mut [Option<NetId>],
        lit: AigLit,
    ) -> Result<NetId, NetlistError> {
        if lit == AigLit::FALSE {
            return Self::cached_gate(circuit, plain, 0, GateType::Const0, &[]);
        }
        if lit == AigLit::TRUE {
            return Self::cached_gate(circuit, negated, 0, GateType::Const1, &[]);
        }
        // A `None` here means a fanin did not precede its node — impossible
        // in a well-formed AIG (nodes are topologically ordered by
        // construction), reachable only through the raw fixture hooks.
        let node = lit.node() as usize;
        if !lit.is_complemented() {
            return plain[node]
                .ok_or_else(|| malformed(lit.node(), "fanin does not precede its node"));
        }
        if let Some(net) = negated[node] {
            return Ok(net);
        }
        let base =
            plain[node].ok_or_else(|| malformed(lit.node(), "fanin does not precede its node"))?;
        let net = circuit.add_gate_auto(GateType::Not, "aig_n", &[base])?;
        negated[node] = Some(net);
        Ok(net)
    }

    fn cached_gate(
        circuit: &mut Circuit,
        cache: &mut [Option<NetId>],
        slot: usize,
        ty: GateType,
        inputs: &[NetId],
    ) -> Result<NetId, NetlistError> {
        if let Some(net) = cache[slot] {
            return Ok(net);
        }
        let net = circuit.add_gate_auto(ty, "aig_k", inputs)?;
        cache[slot] = Some(net);
        Ok(net)
    }
}

/// The [`NetlistError`] raised when [`Aig::to_circuit`] meets a node that
/// breaks the AIG's structural invariants.
fn malformed(node: u32, reason: &str) -> NetlistError {
    NetlistError::Transform(format!("malformed AIG: node {node}: {reason}"))
}

/// Adds a gate named `name` when that name is free, otherwise under a
/// derived fresh name.
fn add_named_or_auto(
    circuit: &mut Circuit,
    ty: GateType,
    name: &str,
    inputs: &[NetId],
) -> Result<NetId, NetlistError> {
    if circuit.find_net(name).is_none() {
        circuit.add_gate(ty, name, inputs)
    } else {
        circuit.add_gate_auto(ty, name, inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::exhaustively_equivalent;

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new("sample");
        let ins: Vec<NetId> = (0..5)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        let g1 = c
            .add_gate(GateType::And, "g1", &[ins[0], ins[1], ins[2]])
            .unwrap();
        let g2 = c
            .add_gate(GateType::Nor, "g2", &[ins[2], ins[3], ins[4]])
            .unwrap();
        let g3 = c.add_gate(GateType::Xor, "g3", &[g1, g2]).unwrap();
        let g4 = c.add_gate(GateType::Nand, "g4", &[g3, ins[0]]).unwrap();
        let g5 = c.add_gate(GateType::Xnor, "g5", &[g4, g2, ins[4]]).unwrap();
        c.mark_output(g3);
        c.mark_output(g5);
        c
    }

    #[test]
    fn constant_folding_and_trivial_cases() {
        let mut aig = Aig::new("fold");
        let a = aig.add_input("a");
        assert_eq!(aig.and(a, AigLit::FALSE), AigLit::FALSE);
        assert_eq!(aig.and(AigLit::TRUE, a), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, a.complement()), AigLit::FALSE);
        assert_eq!(aig.num_ands(), 0, "no node was ever needed");
        assert_eq!(aig.or(a, AigLit::TRUE), AigLit::TRUE);
        assert_eq!(aig.xor(a, AigLit::FALSE), a);
        assert_eq!(aig.xor(a, AigLit::TRUE), a.complement());
    }

    #[test]
    fn structural_hashing_merges_identical_nodes() {
        let mut aig = Aig::new("hash");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        let y = aig.and(b, a);
        assert_eq!(x, y, "commuted operands hash to one node");
        assert_eq!(aig.num_ands(), 1);
        let x2 = aig.xor(a, b);
        let y2 = aig.xor(b, a);
        assert_eq!(x2, y2);
    }

    #[test]
    fn inputs_are_shared_by_name() {
        let mut aig = Aig::new("shared");
        let a1 = aig.add_input("a");
        let a2 = aig.add_input("a");
        assert_eq!(a1, a2);
        assert_eq!(aig.num_inputs(), 1);
        assert_eq!(aig.input_lit("a"), Some(a1));
        assert_eq!(aig.input_lit("b"), None);
    }

    #[test]
    fn round_trip_preserves_interface_and_function() {
        let c = sample_circuit();
        let aig = Aig::from_circuit(&c).unwrap();
        assert_eq!(aig.num_inputs(), c.num_inputs());
        assert_eq!(aig.num_outputs(), c.num_outputs());
        let raised = aig.to_circuit().unwrap();
        assert_eq!(raised.num_inputs(), c.num_inputs());
        assert_eq!(raised.num_outputs(), c.num_outputs());
        for (&a, &b) in c.inputs().iter().zip(raised.inputs()) {
            assert_eq!(c.net_name(a), raised.net_name(b));
        }
        for (&a, &b) in c.outputs().iter().zip(raised.outputs()) {
            assert_eq!(c.net_name(a), raised.net_name(b));
        }
        assert!(exhaustively_equivalent(&c, &raised).unwrap());
    }

    #[test]
    fn constant_and_input_outputs_round_trip() {
        let mut aig = Aig::new("edges");
        let a = aig.add_input("a");
        aig.add_output("t", AigLit::TRUE);
        aig.add_output("f", AigLit::FALSE);
        aig.add_output("pass", a);
        aig.add_output("inv", a.complement());
        let c = aig.to_circuit().unwrap();
        assert_eq!(c.num_outputs(), 4);
        assert_eq!(
            c.simulate(&[false]).unwrap(),
            vec![true, false, false, true]
        );
        assert_eq!(c.simulate(&[true]).unwrap(), vec![true, false, true, false]);
    }

    #[test]
    fn dangling_logic_is_swept_by_raising() {
        let mut aig = Aig::new("sweep");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let used = aig.and(a, b);
        let dangling = aig.or(a, b);
        let _ = dangling;
        aig.add_output("o", used);
        assert_eq!(aig.num_ands(), 2);
        let c = aig.to_circuit().unwrap();
        // Only the used AND plus the output BUF survive.
        assert_eq!(c.num_gates(), 2);
    }

    #[test]
    fn miter_of_circuit_with_itself_is_constant_false() {
        let c = sample_circuit();
        let mut aig = Aig::new("miter");
        let outs_a = aig.add_circuit(&c).unwrap();
        let outs_b = aig.add_circuit(&c).unwrap();
        // Identical halves hash node-for-node: the miter folds to constant 0.
        let miter = aig.miter(&outs_a, &outs_b);
        assert_eq!(miter, AigLit::FALSE);
    }

    #[test]
    fn eval_words_matches_the_circuit_simulator() {
        let c = sample_circuit();
        let aig = Aig::from_circuit(&c).unwrap();
        let sim = crate::sim::Simulator::new(&c).unwrap();
        // 64 fixed patterns.
        let words: Vec<u64> = (0..c.num_inputs() as u64)
            .map(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1))
            .collect();
        let expected = sim.run_words(&words).unwrap();
        let values = aig.eval_words(&words);
        for (lit, want) in aig.outputs().iter().zip(expected) {
            assert_eq!(aig.lit_word(&values, *lit), want);
        }
    }

    #[test]
    fn well_formed_aigs_pass_the_invariant_check() {
        let aig = Aig::from_circuit(&sample_circuit()).unwrap();
        assert!(aig.check_invariants().is_empty());
        // Every gate of the sample feeds an output, so nothing dangles.
        assert!(aig.dangling_nodes().is_empty());
        let mut empty = Aig::new("empty");
        empty.add_input("a");
        assert!(empty.check_invariants().is_empty());
    }

    #[test]
    fn raw_pushed_corruption_is_detected_and_raising_refuses_it() {
        // Fanin-order violation: a node pointing at a later node.
        let mut aig = Aig::new("bad_order");
        let a = aig.add_input("a");
        let forward = AigLit::new(9, false);
        let bad = aig.raw_push_and(a, forward);
        aig.add_output("o", bad);
        assert!(aig
            .check_invariants()
            .iter()
            .any(|v| matches!(v, AigViolation::FaninOrder { .. })));

        // Strash violation: a duplicate of an existing fanin pair.
        let mut aig = Aig::new("bad_strash");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        let dup = aig.raw_push_and(a, b);
        aig.add_output("o1", x);
        aig.add_output("o2", dup);
        assert!(aig
            .check_invariants()
            .iter()
            .any(|v| matches!(v, AigViolation::DuplicateNode { .. })));

        // Raising a malformed AIG is a typed error in release builds (and a
        // debug assertion in debug builds, where this test cannot run it).
        if cfg!(not(debug_assertions)) {
            let mut aig = Aig::new("bad_raise");
            let a = aig.add_input("a");
            let forward = aig.raw_push_and(a, AigLit::new(5, false));
            aig.add_output("o", forward);
            assert!(matches!(aig.to_circuit(), Err(NetlistError::Transform(_))));
        }
    }

    #[test]
    fn dangling_nodes_are_reported_and_swept() {
        let mut aig = Aig::new("dangle");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let used = aig.and(a, b);
        let dangling = aig.or(a, b);
        aig.add_output("o", used);
        let nodes = aig.dangling_nodes();
        assert_eq!(nodes, vec![dangling.node()]);
        // After raising (which sweeps) and re-lowering, nothing dangles.
        let swept = Aig::from_circuit(&aig.to_circuit().unwrap()).unwrap();
        assert!(swept.dangling_nodes().is_empty());
    }

    #[test]
    fn cone_and_reference_counts() {
        let mut aig = Aig::new("cone");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let x = aig.and(a, b);
        let y = aig.and(x, b.complement()); // folds? no: x·¬b is a real node
        let dangling = aig.or(a, b);
        aig.add_output("o", y);
        let cone = aig.cone(aig.outputs());
        assert!(cone[x.node() as usize]);
        assert!(cone[y.node() as usize]);
        assert!(!cone[dangling.node() as usize]);
        let refs = aig.reference_counts(&cone);
        assert_eq!(refs[x.node() as usize], 1);
        assert_eq!(refs[y.node() as usize], 1); // the output
        assert_eq!(refs[b.node() as usize], 2);
    }

    proptest::proptest! {
        /// `Circuit → Aig → Circuit` round-trips preserve the function of
        /// random circuits, checked exhaustively over every input pattern.
        #[test]
        fn prop_round_trip_is_equivalence_preserving(seed in 0u64..200) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
            let mut c = Circuit::new(format!("rand{seed}"));
            let n_inputs = rng.gen_range(1..9usize);
            let mut nets: Vec<NetId> = (0..n_inputs)
                .map(|i| c.add_input(format!("i{i}")).unwrap())
                .collect();
            let n_gates = rng.gen_range(1..30usize);
            for g in 0..n_gates {
                let ty = GateType::ALL[rng.gen_range(0..GateType::ALL.len())];
                let arity = match ty {
                    GateType::Const0 | GateType::Const1 => 0,
                    GateType::Not | GateType::Buf => 1,
                    _ => rng.gen_range(1..5usize),
                };
                let ins: Vec<NetId> = (0..arity)
                    .map(|_| nets[rng.gen_range(0..nets.len())])
                    .collect();
                nets.push(c.add_gate(ty, format!("g{g}"), &ins).unwrap());
            }
            c.mark_output(*nets.last().unwrap());
            c.mark_output(nets[rng.gen_range(0..nets.len())]);
            let raised = Aig::from_circuit(&c).unwrap().to_circuit().unwrap();
            proptest::prop_assert!(exhaustively_equivalent(&c, &raised).unwrap());
            // The raised netlist never grew: hashing and folding only shrink.
            proptest::prop_assert!(
                Aig::from_circuit(&raised).unwrap().num_ands()
                    <= Aig::from_circuit(&c).unwrap().num_ands()
            );
        }
    }
}
