//! A thin gate-level adapter: runs any [`ForwardDomain`] directly over a
//! [`Circuit`], lowering each gate onto the domain's two primitives (AND
//! transfer and complement) on the fly — no AIG construction, no
//! structural hashing. The results therefore carry exactly *gate-level*
//! precision: what a per-gate constant propagation sees, nothing more.
//! That is a feature where the consumer models a gate-level tool — the
//! SCOPE kernel replays `set_inputs_constant`'s rebuild decisions off these
//! values.

use crate::domain::ForwardDomain;
use crate::ternary::{Ternary, TernaryDomain};
use kratt_netlist::analysis::topological_order;
use kratt_netlist::{Circuit, GateId, GateType, NetId, NetlistError};
use std::borrow::Borrow;
use std::sync::Arc;

/// A reusable forward-analysis plan over one circuit: the circuit's cached
/// topological order, shared across runs (a cofactor sweep over `k` key
/// bits runs `2k` analyses over the same order).
pub struct CircuitAnalysis {
    order: Arc<[GateId]>,
}

impl CircuitAnalysis {
    /// Prepares the analysis plan over the circuit's topological order.
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit is cyclic.
    pub fn new(circuit: &Circuit) -> Result<Self, NetlistError> {
        Ok(CircuitAnalysis {
            order: topological_order(circuit)?,
        })
    }

    /// The precomputed topological gate order.
    pub fn order(&self) -> &[GateId] {
        &self.order
    }

    /// Runs a forward domain over the circuit with some primary inputs
    /// pinned. Returns one value per net (indexed by [`NetId::index`]);
    /// undriven nets evaluate to `top`.
    pub fn run<D: ForwardDomain>(
        &self,
        circuit: &Circuit,
        domain: &D,
        pins: &[(NetId, D::Value)],
    ) -> Vec<D::Value> {
        let mut values = Vec::new();
        let pins = pins.iter().cloned();
        self.run_into(circuit, domain, pins, &mut values, &mut Vec::new());
        values
    }

    /// [`run`](Self::run) into caller-owned buffers: `values` receives one
    /// value per net and `fanins` holds each gate's input values in turn, so
    /// a caller running many analyses allocates nothing after the first.
    fn run_into<D: ForwardDomain>(
        &self,
        circuit: &Circuit,
        domain: &D,
        pins: impl IntoIterator<Item = (NetId, D::Value)>,
        values: &mut Vec<D::Value>,
        fanins: &mut Vec<D::Value>,
    ) {
        values.clear();
        values.resize(circuit.num_nets(), domain.top());
        for (index, &pi) in circuit.inputs().iter().enumerate() {
            values[pi.index()] = domain.input(pi.index() as u32, index);
        }
        for (net, value) in pins {
            values[net.index()] = value;
        }
        for &gid in self.order.iter() {
            let gate = circuit.gate(gid);
            fanins.clear();
            fanins.extend(gate.inputs.iter().map(|n| values[n.index()].clone()));
            values[gate.output.index()] = gate_transfer(domain, gate.ty, fanins);
        }
    }

    /// A ternary run with boolean pins. `values` receives one value per net
    /// and `fanins` holds each gate's input values in turn: a caller that
    /// keeps both across runs, as SCOPE's cofactor sweep does, allocates
    /// nothing after the first run.
    pub fn ternary_into(
        &self,
        circuit: &Circuit,
        pins: &[(NetId, bool)],
        values: &mut Vec<Ternary>,
        fanins: &mut Vec<Ternary>,
    ) {
        let domain = TernaryDomain;
        let pins = pins
            .iter()
            .map(|&(net, value)| (net, domain.constant(value)));
        self.run_into(circuit, &domain, pins, values, fanins);
    }
}

/// The transfer of one gate, expressed through the domain's AND and
/// complement primitives (the same lowering an AIG construction performs,
/// minus the structural hashing):
///
/// * `AND` folds the conjunction; `NAND` complements it.
/// * `OR`/`NOR` go through De Morgan.
/// * `XOR` folds pairwise as `!( !(a·!b) · !(!a·b) )`; `XNOR` complements.
/// * `NOT`/`BUF` are a complement / the identity, constants seed.
pub fn gate_transfer<D: ForwardDomain>(domain: &D, ty: GateType, inputs: &[D::Value]) -> D::Value {
    match ty {
        GateType::Const0 => domain.constant(false),
        GateType::Const1 => domain.constant(true),
        GateType::Buf => inputs[0].clone(),
        GateType::Not => domain.complement(&inputs[0]),
        GateType::And => fold_and(domain, inputs.iter()),
        GateType::Nand => domain.complement(&fold_and(domain, inputs.iter())),
        GateType::Or => {
            let complements = inputs.iter().map(|v| domain.complement(v));
            domain.complement(&fold_and(domain, complements))
        }
        GateType::Nor => fold_and(domain, inputs.iter().map(|v| domain.complement(v))),
        GateType::Xor | GateType::Xnor => {
            let mut acc = inputs[0].clone();
            for value in &inputs[1..] {
                acc = xor2(domain, &acc, value);
            }
            if ty == GateType::Xnor {
                acc = domain.complement(&acc);
            }
            acc
        }
    }
}

fn fold_and<D: ForwardDomain, V: Borrow<D::Value>>(
    domain: &D,
    mut inputs: impl Iterator<Item = V>,
) -> D::Value {
    let first = match inputs.next() {
        Some(value) => value.borrow().clone(),
        None => domain.constant(true),
    };
    inputs.fold(first, |acc, v| domain.and(&acc, v.borrow()))
}

fn xor2<D: ForwardDomain>(domain: &D, a: &D::Value, b: &D::Value) -> D::Value {
    let not_a = domain.complement(a);
    let not_b = domain.complement(b);
    let a_only = domain.and(a, &not_b);
    let b_only = domain.and(&not_a, b);
    let neither = domain.and(&domain.complement(&a_only), &domain.complement(&b_only));
    domain.complement(&neither)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Circuit {
        let mut c = Circuit::new("toy");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let k = c.add_input("keyinput0").unwrap();
        let x = c.add_gate(GateType::Xor, "x", &[a, k]).unwrap();
        let n = c.add_gate(GateType::Nand, "n", &[x, b]).unwrap();
        let o = c.add_gate(GateType::Or, "o", &[n, a]).unwrap();
        c.mark_output(o);
        c
    }

    #[test]
    fn ternary_over_gates_matches_gate_semantics() {
        let c = toy();
        let plan = CircuitAnalysis::new(&c).unwrap();
        let k = c.find_net("keyinput0").unwrap();
        let a = c.find_net("a").unwrap();
        let (mut values, mut fanins) = (Vec::new(), Vec::new());
        // Nothing pinned: all X past the inputs.
        plan.ternary_into(&c, &[], &mut values, &mut fanins);
        assert_eq!(values[c.find_net("o").unwrap().index()], Ternary::X);
        // NAND with a constant-zero input is constant one, OR saturates; the
        // buffers are reused.
        plan.ternary_into(&c, &[(k, false), (a, false)], &mut values, &mut fanins);
        assert_eq!(values[c.find_net("x").unwrap().index()], Ternary::Zero);
        assert_eq!(values[c.find_net("n").unwrap().index()], Ternary::One);
        assert_eq!(values[c.find_net("o").unwrap().index()], Ternary::One);
    }

    #[test]
    fn gate_transfer_covers_the_library() {
        use Ternary::*;
        let d = crate::ternary::TernaryDomain;
        let cases: Vec<(GateType, Vec<Ternary>, Ternary)> = vec![
            (GateType::And, vec![One, X], X),
            (GateType::And, vec![Zero, X], Zero),
            (GateType::Nand, vec![Zero, X], One),
            (GateType::Or, vec![One, X], One),
            (GateType::Or, vec![Zero, X], X),
            (GateType::Nor, vec![Zero, Zero], One),
            (GateType::Xor, vec![One, One, X], X),
            (GateType::Xor, vec![One, One, One], One),
            (GateType::Xnor, vec![One, Zero], Zero),
            (GateType::Not, vec![Zero], One),
            (GateType::Buf, vec![X], X),
            (GateType::Const0, vec![], Zero),
            (GateType::Const1, vec![], One),
        ];
        for (ty, inputs, expected) in cases {
            assert_eq!(
                gate_transfer(&d, ty, &inputs),
                expected,
                "{ty:?} {inputs:?}"
            );
        }
    }

    #[test]
    fn single_input_wide_gates_collapse() {
        use Ternary::*;
        let d = crate::ternary::TernaryDomain;
        assert_eq!(gate_transfer(&d, GateType::And, &[X]), X);
        assert_eq!(gate_transfer(&d, GateType::Nand, &[One]), Zero);
        assert_eq!(gate_transfer(&d, GateType::Xor, &[One]), One);
    }
}
