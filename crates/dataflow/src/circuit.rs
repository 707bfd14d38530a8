//! A thin gate-level adapter: runs any [`ForwardDomain`] directly over a
//! [`Circuit`], lowering each gate onto the domain's two primitives (AND
//! transfer and complement) on the fly — no AIG construction, no
//! structural hashing. The results therefore carry exactly *gate-level*
//! precision: what a per-gate constant propagation sees, nothing more.
//! That is a feature where the consumer models a gate-level tool — the
//! SCOPE kernel replays `set_inputs_constant`'s rebuild decisions off these
//! values.

use crate::domain::ForwardDomain;
use kratt_netlist::analysis::topological_order;
use kratt_netlist::{Circuit, GateId, GateType, NetId, NetlistError};

/// A reusable forward-analysis plan over one circuit: the topological
/// order is computed once and shared across runs (a cofactor sweep over
/// `k` key bits runs `2k` analyses over the same order).
pub struct CircuitAnalysis {
    order: Vec<GateId>,
}

impl CircuitAnalysis {
    /// Prepares the analysis plan (one topological sort).
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
        let mut values = vec![domain.top(); circuit.num_nets()];
        for (index, &pi) in circuit.inputs().iter().enumerate() {
            values[pi.index()] = domain.input(pi.index() as u32, index);
        }
        for (net, value) in pins {
            values[net.index()] = value.clone();
        }
        let mut scratch: Vec<D::Value> = Vec::new();
        for &gid in &self.order {
            let gate = circuit.gate(gid);
            scratch.clear();
            scratch.extend(gate.inputs.iter().map(|n| values[n.index()].clone()));
            values[gate.output.index()] = gate_transfer(domain, gate.ty, &scratch);
        }
        values
    }

    /// Convenience: a ternary run with boolean pins.
    pub fn ternary(
        &self,
        circuit: &Circuit,
        pins: &[(NetId, bool)],
    ) -> Vec<crate::ternary::Ternary> {
        let domain = crate::ternary::TernaryDomain;
        let pins: Vec<(NetId, crate::ternary::Ternary)> = pins
            .iter()
            .map(|&(net, value)| (net, domain.constant(value)))
            .collect();
        self.run(circuit, &domain, &pins)
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
            let complements: Vec<D::Value> = inputs.iter().map(|v| domain.complement(v)).collect();
            domain.complement(&fold_and(domain, complements.iter()))
        }
        GateType::Nor => {
            let complements: Vec<D::Value> = inputs.iter().map(|v| domain.complement(v)).collect();
            fold_and(domain, complements.iter())
        }
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

fn fold_and<'a, D: ForwardDomain>(
    domain: &D,
    mut inputs: impl Iterator<Item = &'a D::Value>,
) -> D::Value
where
    D::Value: 'a,
{
    let first = inputs
        .next()
        .cloned()
        .unwrap_or_else(|| domain.constant(true));
    inputs.fold(first, |acc, v| domain.and(&acc, v))
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
    use crate::ternary::Ternary;

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
        // Nothing pinned: all X past the inputs.
        let values = plan.ternary(&c, &[]);
        assert_eq!(values[c.find_net("o").unwrap().index()], Ternary::X);
        // NAND with a constant-zero input is constant one, OR saturates.
        let values = plan.ternary(&c, &[(k, false), (a, false)]);
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
