//! A small reduced ordered binary decision diagram (ROBDD) engine.
//!
//! The CEGAR loop is complete but degenerates into key enumeration on
//! point-function locking units (each counterexample eliminates a single
//! key), which cannot scale to the paper's 64–128-bit keys. DepQBF copes with
//! those instances through QCDCL-style learning; this reproduction instead
//! decides them through BDDs: the locking unit is tiny (a few hundred gates
//! over the protected and key inputs) and its function — comparators, AND/OR
//! trees of XORs — has a compact BDD under an interleaved variable order, so
//! `∃K ∀PPI unit = const` reduces to one universal quantification followed by
//! a satisfying-path lookup. A configurable node budget keeps the engine
//! safe: if the BDD blows up, the caller falls back to CEGAR.

use kratt_netlist::{Circuit, GateType, NetId};
use std::collections::HashMap;

/// Reference to a BDD node (terminals are `ZERO` and `ONE`).
pub type Ref = u32;

/// The constant-false BDD.
pub const ZERO: Ref = 0;
/// The constant-true BDD.
pub const ONE: Ref = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    low: Ref,
    high: Ref,
}

/// Error raised when the configured node budget is exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLimitExceeded;

impl std::fmt::Display for NodeLimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bdd node budget exceeded")
    }
}

impl std::error::Error for NodeLimitExceeded {}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
    Xor,
}

/// A BDD manager with a fixed variable order and a node budget.
#[derive(Debug)]
pub struct BddManager {
    nodes: Vec<Node>,
    unique: HashMap<Node, Ref>,
    apply_cache: HashMap<(Op, Ref, Ref), Ref>,
    not_cache: HashMap<Ref, Ref>,
    node_limit: usize,
}

impl BddManager {
    /// Creates a manager for `num_vars` variables with the given node budget.
    pub fn new(node_limit: usize) -> Self {
        let terminal = Node {
            var: u32::MAX,
            low: 0,
            high: 0,
        };
        BddManager {
            // Slots 0 and 1 are the terminals; their contents are never read.
            nodes: vec![terminal, terminal],
            unique: HashMap::new(),
            apply_cache: HashMap::new(),
            not_cache: HashMap::new(),
            node_limit,
        }
    }

    /// Number of live nodes (including terminals).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn mk(&mut self, var: u32, low: Ref, high: Ref) -> Result<Ref, NodeLimitExceeded> {
        if low == high {
            return Ok(low);
        }
        let node = Node { var, low, high };
        if let Some(&existing) = self.unique.get(&node) {
            return Ok(existing);
        }
        if self.nodes.len() >= self.node_limit {
            return Err(NodeLimitExceeded);
        }
        let index = self.nodes.len() as Ref;
        self.nodes.push(node);
        self.unique.insert(node, index);
        Ok(index)
    }

    fn var_of(&self, f: Ref) -> u32 {
        if f <= 1 {
            u32::MAX
        } else {
            self.nodes[f as usize].var
        }
    }

    /// The BDD of a single variable.
    pub fn variable(&mut self, var: u32) -> Result<Ref, NodeLimitExceeded> {
        self.mk(var, ZERO, ONE)
    }

    /// Negation.
    pub fn not(&mut self, f: Ref) -> Result<Ref, NodeLimitExceeded> {
        match f {
            ZERO => return Ok(ONE),
            ONE => return Ok(ZERO),
            _ => {}
        }
        if let Some(&cached) = self.not_cache.get(&f) {
            return Ok(cached);
        }
        let node = self.nodes[f as usize];
        let low = self.not(node.low)?;
        let high = self.not(node.high)?;
        let result = self.mk(node.var, low, high)?;
        self.not_cache.insert(f, result);
        Ok(result)
    }

    fn apply(&mut self, op: Op, f: Ref, g: Ref) -> Result<Ref, NodeLimitExceeded> {
        // Terminal cases.
        match (op, f, g) {
            (Op::And, ZERO, _) | (Op::And, _, ZERO) => return Ok(ZERO),
            (Op::And, ONE, x) | (Op::And, x, ONE) => return Ok(x),
            (Op::Or, ONE, _) | (Op::Or, _, ONE) => return Ok(ONE),
            (Op::Or, ZERO, x) | (Op::Or, x, ZERO) => return Ok(x),
            (Op::Xor, ZERO, x) | (Op::Xor, x, ZERO) => return Ok(x),
            (Op::Xor, ONE, x) | (Op::Xor, x, ONE) => return self.not(x),
            _ => {}
        }
        if f == g {
            return Ok(match op {
                Op::And | Op::Or => f,
                Op::Xor => ZERO,
            });
        }
        // Normalise the cache key for the commutative operations.
        let key = if f <= g { (op, f, g) } else { (op, g, f) };
        if let Some(&cached) = self.apply_cache.get(&key) {
            return Ok(cached);
        }
        let fv = self.var_of(f);
        let gv = self.var_of(g);
        let top = fv.min(gv);
        let (f_low, f_high) = if fv == top {
            let n = self.nodes[f as usize];
            (n.low, n.high)
        } else {
            (f, f)
        };
        let (g_low, g_high) = if gv == top {
            let n = self.nodes[g as usize];
            (n.low, n.high)
        } else {
            (g, g)
        };
        let low = self.apply(op, f_low, g_low)?;
        let high = self.apply(op, f_high, g_high)?;
        let result = self.mk(top, low, high)?;
        self.apply_cache.insert(key, result);
        Ok(result)
    }

    /// Conjunction.
    pub fn and(&mut self, f: Ref, g: Ref) -> Result<Ref, NodeLimitExceeded> {
        self.apply(Op::And, f, g)
    }

    /// Disjunction.
    pub fn or(&mut self, f: Ref, g: Ref) -> Result<Ref, NodeLimitExceeded> {
        self.apply(Op::Or, f, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Result<Ref, NodeLimitExceeded> {
        self.apply(Op::Xor, f, g)
    }

    /// Universal quantification of every variable for which `quantified`
    /// returns `true`.
    pub fn forall(&mut self, f: Ref, quantified: &[bool]) -> Result<Ref, NodeLimitExceeded> {
        let mut memo: HashMap<Ref, Ref> = HashMap::new();
        self.forall_rec(f, quantified, &mut memo)
    }

    fn forall_rec(
        &mut self,
        f: Ref,
        quantified: &[bool],
        memo: &mut HashMap<Ref, Ref>,
    ) -> Result<Ref, NodeLimitExceeded> {
        if f <= 1 {
            return Ok(f);
        }
        if let Some(&cached) = memo.get(&f) {
            return Ok(cached);
        }
        let node = self.nodes[f as usize];
        let low = self.forall_rec(node.low, quantified, memo)?;
        let high = self.forall_rec(node.high, quantified, memo)?;
        let result = if quantified.get(node.var as usize).copied().unwrap_or(false) {
            self.and(low, high)?
        } else {
            self.mk(node.var, low, high)?
        };
        memo.insert(f, result);
        Ok(result)
    }

    /// Returns one satisfying assignment of `f` as `(variable, value)` pairs
    /// (variables not on the chosen path are left out), or `None` when `f`
    /// is the constant false.
    pub fn any_sat(&self, f: Ref) -> Option<Vec<(u32, bool)>> {
        if f == ZERO {
            return None;
        }
        let mut assignment = Vec::new();
        let mut current = f;
        while current > 1 {
            let node = self.nodes[current as usize];
            if node.high != ZERO {
                assignment.push((node.var, true));
                current = node.high;
            } else {
                assignment.push((node.var, false));
                current = node.low;
            }
        }
        Some(assignment)
    }

    /// Builds the BDD of one circuit output given a mapping from primary
    /// inputs to BDD variable indices.
    ///
    /// A net without a variable that no gate drives reads as constant 0, so
    /// every primary input the output depends on must be in `var_of_input`.
    ///
    /// # Errors
    ///
    /// Returns [`NodeLimitExceeded`] if the intermediate BDDs outgrow the
    /// node budget.
    pub fn build_circuit_output(
        &mut self,
        circuit: &Circuit,
        var_of_input: &HashMap<NetId, u32>,
        output: NetId,
    ) -> Result<Ref, NodeLimitExceeded> {
        let order =
            kratt_netlist::analysis::topological_order(circuit).expect("locking units are acyclic");
        let mut value: HashMap<NetId, Ref> = HashMap::new();
        for (&net, &var) in var_of_input {
            let bdd = self.variable(var)?;
            value.insert(net, bdd);
        }
        for gid in order {
            let gate = circuit.gate(gid);
            let inputs: Vec<Ref> = gate
                .inputs
                .iter()
                .map(|n| value.get(n).copied().unwrap_or(ZERO))
                .collect();
            let result = match gate.ty {
                GateType::And | GateType::Nand => {
                    let mut acc = ONE;
                    for &input in &inputs {
                        acc = self.and(acc, input)?;
                    }
                    if gate.ty == GateType::Nand {
                        self.not(acc)?
                    } else {
                        acc
                    }
                }
                GateType::Or | GateType::Nor => {
                    let mut acc = ZERO;
                    for &input in &inputs {
                        acc = self.or(acc, input)?;
                    }
                    if gate.ty == GateType::Nor {
                        self.not(acc)?
                    } else {
                        acc
                    }
                }
                GateType::Xor | GateType::Xnor => {
                    let mut acc = ZERO;
                    for &input in &inputs {
                        acc = self.xor(acc, input)?;
                    }
                    if gate.ty == GateType::Xnor {
                        self.not(acc)?
                    } else {
                        acc
                    }
                }
                GateType::Not => self.not(inputs[0])?,
                GateType::Buf => inputs[0],
                GateType::Const0 => ZERO,
                GateType::Const1 => ONE,
            };
            value.insert(gate.output, result);
        }
        Ok(value.get(&output).copied().unwrap_or(ZERO))
    }
}

/// Chooses a BDD variable order for the circuit's primary inputs by the
/// position of the first gate that consumes each input (inputs feeding the
/// same early gate end up adjacent — the interleaved `x_i, k_i` order the
/// locking-unit structures want).
pub fn interleaved_input_order(circuit: &Circuit) -> HashMap<NetId, u32> {
    let order = kratt_netlist::analysis::topological_order(circuit).unwrap_or_default();
    let mut first_use: HashMap<NetId, usize> = HashMap::new();
    for (position, &gid) in order.iter().enumerate() {
        for &input in &circuit.gate(gid).inputs {
            if circuit.is_input(input) {
                first_use.entry(input).or_insert(position);
            }
        }
    }
    let mut inputs: Vec<NetId> = circuit.inputs().to_vec();
    inputs.sort_by_key(|n| (first_use.get(n).copied().unwrap_or(usize::MAX), n.index()));
    inputs
        .into_iter()
        .enumerate()
        .map(|(i, n)| (n, i as u32))
        .collect()
}

/// Chooses a BDD variable order for an exists-forall instance by structural
/// pairing: each universal input is followed immediately by the existential
/// input(s) closest to it in the gate graph.
///
/// [`interleaved_input_order`] recovers the `x_i, k_i` interleaving only when
/// each comparator pair feeds a single early gate, which resynthesis breaks:
/// once an XOR is decomposed and its pieces are shared, first-use positions
/// scatter the pairs, and the BDD of a 32-bit comparator under a scattered
/// order needs tens of millions of nodes instead of a few hundred. Pairing by
/// graph distance is invariant to such restructuring, so the BDD fast path
/// keeps working on resynthesised and technology-mapped netlists (the
/// paper's Fig. 6 setting).
pub fn paired_input_order(
    circuit: &Circuit,
    existential: &[NetId],
    universal: &[NetId],
) -> HashMap<NetId, u32> {
    use std::collections::{HashSet, VecDeque};

    let base = interleaved_input_order(circuit);
    if existential.is_empty() || universal.is_empty() {
        return base;
    }
    let rank = |n: NetId| base.get(&n).copied().unwrap_or(u32::MAX);

    // Undirected net adjacency through gates (input <-> output edges).
    let mut adjacency: HashMap<NetId, Vec<NetId>> = HashMap::new();
    for (_, gate) in circuit.gates() {
        for &input in &gate.inputs {
            adjacency.entry(input).or_default().push(gate.output);
            adjacency.entry(gate.output).or_default().push(input);
        }
    }

    // One multi-source BFS from all universal inputs labels every net with
    // the universal that reaches it first; each existential input then pairs
    // with its label (its nearest universal). Keys the BFS never reaches are
    // disconnected from every universal and fall through to the trailing
    // first-use order below.
    let mut source_of: HashMap<NetId, NetId> = HashMap::new();
    let mut queue: VecDeque<NetId> = VecDeque::new();
    for &u in universal {
        source_of.entry(u).or_insert(u);
        queue.push_back(u);
    }
    while let Some(net) = queue.pop_front() {
        let source = source_of[&net];
        for &next in adjacency.get(&net).map(Vec::as_slice).unwrap_or(&[]) {
            source_of.entry(next).or_insert_with(|| {
                queue.push_back(next);
                source
            });
        }
    }
    let mut keys_of: HashMap<NetId, Vec<NetId>> = HashMap::new();
    for &key in existential {
        if let Some(&u) = source_of.get(&key) {
            if u != key {
                keys_of.entry(u).or_default().push(key);
            }
        }
    }

    // Emit each universal followed by its keys, everything else afterwards.
    let mut universals: Vec<NetId> = universal.to_vec();
    universals.sort_by_key(|&n| rank(n));
    let mut ordered: Vec<NetId> = Vec::with_capacity(circuit.inputs().len());
    for u in universals {
        ordered.push(u);
        if let Some(mut keys) = keys_of.remove(&u) {
            keys.sort_by_key(|&n| rank(n));
            ordered.append(&mut keys);
        }
    }
    let placed: HashSet<NetId> = ordered.iter().copied().collect();
    let mut rest: Vec<NetId> = circuit
        .inputs()
        .iter()
        .copied()
        .filter(|n| !placed.contains(n))
        .collect();
    rest.sort_by_key(|&n| rank(n));
    ordered.extend(rest);
    ordered
        .into_iter()
        .enumerate()
        .map(|(i, n)| (n, i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_netlist::GateType;

    /// A 16-bit key/data comparator whose first-use order is deliberately
    /// scattered: an early wide OR consumes every data input, so
    /// [`interleaved_input_order`] groups all `x_i` before all `k_i` — the
    /// shape resynthesis produces on real locking units.
    fn scattered_comparator() -> (Circuit, Vec<NetId>, Vec<NetId>, NetId) {
        let mut c = Circuit::new("scattered_cmp");
        let xs: Vec<NetId> = (0..16)
            .map(|i| c.add_input(format!("x{i}")).unwrap())
            .collect();
        let ks: Vec<NetId> = (0..16)
            .map(|i| c.add_input(format!("keyinput{i}")).unwrap())
            .collect();
        let early = c.add_gate(GateType::Or, "early", &xs).unwrap();
        c.mark_output(early);
        let mut acc = None;
        for i in 0..16 {
            let eq = c
                .add_gate(GateType::Xnor, format!("eq{i}"), &[xs[i], ks[i]])
                .unwrap();
            acc = Some(match acc {
                None => eq,
                Some(prev) => c
                    .add_gate(GateType::And, format!("acc{i}"), &[prev, eq])
                    .unwrap(),
            });
        }
        let cmp = acc.unwrap();
        c.mark_output(cmp);
        (c, xs, ks, cmp)
    }

    /// Regression test for the Fig. 6 BDD blowup: the paired order must keep
    /// each key adjacent to its data input even when first-use positions
    /// scatter them, and the comparator BDD must stay linear under it while
    /// the first-use order exhausts the same node budget.
    #[test]
    fn paired_order_keeps_scattered_comparator_compact() {
        let (c, xs, ks, cmp) = scattered_comparator();

        let interleaved = interleaved_input_order(&c);
        for i in 0..16 {
            assert!(
                interleaved[&xs[i]] < interleaved[&ks[0]],
                "precondition lost: first-use order should group every x before every k"
            );
        }

        let paired = paired_input_order(&c, &ks, &xs);
        for i in 0..16 {
            assert_eq!(
                paired[&ks[i]],
                paired[&xs[i]] + 1,
                "key {i} is not adjacent to its data input"
            );
        }

        let budget = 1 << 12;
        let mut manager = BddManager::new(budget);
        assert!(
            manager.build_circuit_output(&c, &paired, cmp).is_ok(),
            "paired order must keep the comparator BDD within {budget} nodes"
        );
        let mut scattered = BddManager::new(budget);
        assert!(
            scattered
                .build_circuit_output(&c, &interleaved, cmp)
                .is_err(),
            "the scattered first-use order should exceed the same budget \
             (otherwise this test no longer exercises the blowup)"
        );
    }

    #[test]
    fn basic_boolean_identities() {
        let mut m = BddManager::new(1 << 16);
        let a = m.variable(0).unwrap();
        let b = m.variable(1).unwrap();
        let ab = m.and(a, b).unwrap();
        let ba = m.and(b, a).unwrap();
        assert_eq!(ab, ba, "hash consing must canonicalise");
        let na = m.not(a).unwrap();
        let contradiction = m.and(a, na).unwrap();
        assert_eq!(contradiction, ZERO);
        let tautology = m.or(a, na).unwrap();
        assert_eq!(tautology, ONE);
        let axa = m.xor(a, a).unwrap();
        assert_eq!(axa, ZERO);
        let double_not = m.not(na).unwrap();
        assert_eq!(double_not, a);
    }

    #[test]
    fn forall_quantifies_correctly() {
        let mut m = BddManager::new(1 << 16);
        let x = m.variable(0).unwrap();
        let k = m.variable(1).unwrap();
        // f = x XNOR k: forall x f == false (no k works for both x values).
        let fx = m.xor(x, k).unwrap();
        let f = m.not(fx).unwrap();
        let forall_x = m.forall(f, &[true, false]).unwrap();
        assert_eq!(forall_x, ZERO);
        // g = x OR k: forall x g == k.
        let g = m.or(x, k).unwrap();
        let forall_x = m.forall(g, &[true, false]).unwrap();
        assert_eq!(forall_x, k);
    }

    #[test]
    fn any_sat_returns_a_model() {
        let mut m = BddManager::new(1 << 16);
        let a = m.variable(0).unwrap();
        let b = m.variable(1).unwrap();
        let nb = m.not(b).unwrap();
        let f = m.and(a, nb).unwrap();
        let model = m.any_sat(f).unwrap();
        assert!(model.contains(&(0, true)));
        assert!(model.contains(&(1, false)));
        assert!(m.any_sat(ZERO).is_none());
    }

    #[test]
    fn node_limit_is_enforced() {
        let mut m = BddManager::new(8);
        let mut acc = ONE;
        let mut failed = false;
        for v in 0..16 {
            let var = match m.variable(v) {
                Ok(var) => var,
                Err(NodeLimitExceeded) => {
                    failed = true;
                    break;
                }
            };
            match m.xor(acc, var) {
                Ok(next) => acc = next,
                Err(NodeLimitExceeded) => {
                    failed = true;
                    break;
                }
            }
        }
        assert!(failed, "a tiny node budget must be exceeded");
    }

    #[test]
    fn circuit_bdd_matches_simulation() {
        // f = (a AND b) XOR NOT c, checked on all 8 patterns.
        let mut c = Circuit::new("toy");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let d = c.add_input("c").unwrap();
        let ab = c.add_gate(GateType::And, "ab", &[a, b]).unwrap();
        let nc = c.add_gate(GateType::Not, "nc", &[d]).unwrap();
        let f = c.add_gate(GateType::Xor, "f", &[ab, nc]).unwrap();
        c.mark_output(f);

        let var_of = interleaved_input_order(&c);
        let mut m = BddManager::new(1 << 16);
        let root = m.build_circuit_output(&c, &var_of, f).unwrap();
        let sim = kratt_netlist::sim::Simulator::new(&c).unwrap();
        for pattern in 0u64..8 {
            let bits: Vec<bool> = (0..3).map(|i| pattern >> i & 1 != 0).collect();
            let expected = sim.run(&bits).unwrap()[0];
            // Evaluate the BDD by walking it under the assignment.
            let mut current = root;
            while current > 1 {
                let node = m.nodes[current as usize];
                // Recover which input this variable index corresponds to.
                let (net, _) = var_of.iter().find(|(_, &v)| v == node.var).unwrap();
                let position = c.input_position(*net).unwrap();
                current = if bits[position] { node.high } else { node.low };
            }
            assert_eq!(current == ONE, expected, "pattern {pattern:03b}");
        }
    }
}
