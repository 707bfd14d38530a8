//! The dataflow-backed SCOPE kernel: per-key-bit constant-propagation
//! signatures computed from two ternary cofactor runs per bit, without
//! building a single circuit.
//!
//! SCOPE's features are defined by a rebuild: [`set_inputs_constant`] once
//! per key-bit cofactor — topological sort, constant-folded rebuild into a
//! fresh [`Circuit`] (string-keyed net table included), a dangling-logic
//! prune (a second rebuild) — followed by a stats pass. This module
//! reproduces the *feature vector* of that pipeline exactly, by
//! construction, without building anything:
//!
//! 1. One ternary forward run over the shared [`CircuitAnalysis`] plan
//!    (the topological order is computed once per circuit, not once per
//!    cofactor) pins the key bit and classifies every net as constant or
//!    live. A net folds to a constant in `rebuild_simplified` **iff** its
//!    gate-level ternary value is not `X` — each simplification rule
//!    (`AND` with a false constant input, `OR` with a true one, fully
//!    constant gates, XOR parity) is precisely the ternary transfer of the
//!    gate, so the two classifications coincide inductively.
//! 2. A *virtual replay* then walks the gates in the same order
//!    `rebuild_simplified` does and mirrors every decision that affects
//!    the gate count, literal count or logic depth — which gates are
//!    emitted (including single-input collapses to `NOT`/alias and the
//!    XOR parity flip that decides between them), how output names are
//!    restored (rename vs keeper buffer vs materialised constant) and the
//!    final reachability prune — on integer node records instead of a
//!    real circuit.
//!
//! Name bookkeeping is replayed per *original net* rather than per string:
//! inside the gate loop a simplified gate always receives its original
//! output-net name (net names are unique, so the name cannot have been
//! taken by an earlier emission), and auto-generated `name$N` names are
//! always fresh. The one pathology not modelled is an original output
//! literally named like an auto-generated name (`foo$3`) colliding with a
//! generated one — no netlist in the suite (or produced by
//! [`Circuit::fresh_net_name`]'s collision avoidance) does this.
//!
//! [`set_inputs_constant`]: kratt_netlist::transform::set_inputs_constant
//! [`Circuit::fresh_net_name`]: kratt_netlist::Circuit::fresh_net_name

use crate::scope::ScopeFeatures;
use kratt_dataflow::{CircuitAnalysis, Ternary};
use kratt_netlist::{Circuit, GateType, NetId, NetlistError};

/// A reusable SCOPE analysis plan over one locked circuit: the topological
/// order is shared by all `2 × key_bits` cofactor runs.
pub struct ScopePlan<'c> {
    circuit: &'c Circuit,
    analysis: CircuitAnalysis,
}

/// The virtual image of the simplified circuit: one record per node the
/// rebuild would create (primary inputs, emitted gates, keeper buffers,
/// materialised constants), carrying exactly the fields the feature vector
/// needs.
#[derive(Default)]
struct Virtual {
    /// Logic level (primary inputs 0, gates 1 + max over fanins).
    level: Vec<usize>,
    /// Number of gate input pins (0 for inputs and constants).
    arity: Vec<usize>,
    /// Whether the node is a gate (counts toward the gate/literal totals).
    gate: Vec<bool>,
    /// Fanin node ids, for the reachability prune.
    fanin: Vec<Vec<u32>>,
    /// The original net whose *name* this node carries, if any.
    name_of: Vec<Option<usize>>,
    /// Whether the node is a primary input of the result.
    input: Vec<bool>,
    /// Whether the node has been marked as a result output.
    output: Vec<bool>,
}

impl Virtual {
    fn push(
        &mut self,
        level: usize,
        arity: usize,
        gate: bool,
        fanin: Vec<u32>,
        name_of: Option<usize>,
        input: bool,
    ) -> u32 {
        let id = self.level.len() as u32;
        self.level.push(level);
        self.arity.push(arity);
        self.gate.push(gate);
        self.fanin.push(fanin);
        self.name_of.push(name_of);
        self.input.push(input);
        self.output.push(false);
        id
    }
}

impl<'c> ScopePlan<'c> {
    /// Prepares the shared plan (one topological sort).
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit is cyclic.
    pub fn new(circuit: &'c Circuit) -> Result<Self, NetlistError> {
        Ok(ScopePlan {
            circuit,
            analysis: CircuitAnalysis::new(circuit)?,
        })
    }

    /// The SCOPE feature vector of the circuit with the given inputs tied
    /// to constants — equal, field for field, to
    /// `stats(&set_inputs_constant(circuit, pins)?)`.
    pub fn features(&self, pins: &[(NetId, bool)]) -> ScopeFeatures {
        let ternary = self.analysis.ternary(self.circuit, pins);
        self.replay(&ternary, pins)
    }

    /// Replays `rebuild_simplified` + `prune_dangling` + `stats` virtually.
    fn replay(&self, ternary: &[Ternary], pins: &[(NetId, bool)]) -> ScopeFeatures {
        let circuit = self.circuit;
        let n_nets = circuit.num_nets();
        let mut pinned = vec![false; n_nets];
        for &(net, _) in pins {
            pinned[net.index()] = true;
        }
        let mut vn = Virtual::default();
        // How each original net is represented: a virtual node, or `None`
        // for a folded constant (pinned inputs included).
        let mut repr: Vec<Option<u32>> = vec![None; n_nets];
        // Whether the original net's name exists in the virtual result.
        let mut claimed = vec![false; n_nets];

        for &pi in circuit.inputs() {
            if pinned[pi.index()] {
                continue;
            }
            let v = vn.push(0, 0, false, Vec::new(), Some(pi.index()), true);
            repr[pi.index()] = Some(v);
            claimed[pi.index()] = true;
        }

        for &gid in self.analysis.order() {
            let gate = circuit.gate(gid);
            let out = gate.output.index();
            if ternary[out].is_constant() {
                // The rebuild folds this gate away (constant output ⇔
                // constant representation, see the module docs).
                continue;
            }
            let live: Vec<u32> = gate.inputs.iter().filter_map(|n| repr[n.index()]).collect();
            // With a non-constant output, BUF aliases and NOT emits; the
            // other types reduce over their live inputs with the XOR parity
            // flip deciding the single-input collapse direction.
            let effective = match gate.ty {
                GateType::Buf => {
                    repr[out] = Some(live[0]);
                    continue;
                }
                GateType::Not => GateType::Not,
                GateType::Xor | GateType::Xnor => {
                    let ones = gate
                        .inputs
                        .iter()
                        .filter(|n| ternary[n.index()] == Ternary::One)
                        .count();
                    if ones % 2 == 1 {
                        gate.ty.complement()
                    } else {
                        gate.ty
                    }
                }
                other => other,
            };
            if live.len() == 1 && !effective.is_inverting() {
                repr[out] = Some(live[0]);
                continue;
            }
            let level = 1 + live
                .iter()
                .map(|&v| vn.level[v as usize])
                .max()
                .unwrap_or(0);
            let arity = live.len();
            let v = vn.push(level, arity, true, live, Some(out), false);
            claimed[out] = true;
            repr[out] = Some(v);
        }

        // Output finalisation: materialise constants, restore the original
        // output names by rename or keeper buffer — the same decision tree
        // as the rebuild, driven by the per-net `claimed` bookkeeping.
        let mut finalised: Vec<u32> = Vec::with_capacity(circuit.outputs().len());
        for &o in circuit.outputs() {
            let oi = o.index();
            let mapped = match repr[oi] {
                Some(v) => v,
                None => {
                    let named = !claimed[oi];
                    let v = vn.push(1, 0, true, Vec::new(), named.then_some(oi), false);
                    if named {
                        claimed[oi] = true;
                    }
                    v
                }
            };
            let fin = if vn.name_of[mapped as usize] == Some(oi) {
                mapped
            } else if !vn.input[mapped as usize] && !vn.output[mapped as usize] && !claimed[oi] {
                // Rename: the node takes the output's name, releasing the
                // one it carried.
                if let Some(old) = vn.name_of[mapped as usize] {
                    claimed[old] = false;
                }
                vn.name_of[mapped as usize] = Some(oi);
                claimed[oi] = true;
                mapped
            } else {
                // Keeper buffer.
                let named = !claimed[oi];
                let level = vn.level[mapped as usize] + 1;
                let v = vn.push(level, 1, true, vec![mapped], named.then_some(oi), false);
                if named {
                    claimed[oi] = true;
                }
                v
            };
            vn.output[fin as usize] = true;
            finalised.push(fin);
        }

        // The dangling prune: only nodes reaching a finalised output count.
        let mut reachable = vec![false; vn.level.len()];
        let mut stack: Vec<u32> = Vec::new();
        for &f in &finalised {
            if !reachable[f as usize] {
                reachable[f as usize] = true;
                stack.push(f);
            }
        }
        while let Some(v) = stack.pop() {
            for &f in &vn.fanin[v as usize] {
                if !reachable[f as usize] {
                    reachable[f as usize] = true;
                    stack.push(f);
                }
            }
        }

        let mut gates = 0usize;
        let mut literals = 0usize;
        for (v, &alive) in reachable.iter().enumerate() {
            if alive && vn.gate[v] {
                gates += 1;
                literals += vn.arity[v];
            }
        }
        let depth = finalised
            .iter()
            .map(|&f| vn.level[f as usize])
            .max()
            .unwrap_or(0);
        ScopeFeatures {
            gates,
            literals,
            depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_netlist::analysis::stats;
    use kratt_netlist::transform::set_inputs_constant;
    use kratt_netlist::GateType;

    /// Replay vs real resynthesis over every single-input cofactor.
    fn assert_replay_matches(circuit: &Circuit) {
        let plan = ScopePlan::new(circuit).unwrap();
        for &pi in circuit.inputs() {
            for value in [false, true] {
                let real = set_inputs_constant(circuit, &[(pi, value)]).unwrap();
                let expected = ScopeFeatures::from(stats(&real).unwrap());
                let got = plan.features(&[(pi, value)]);
                assert_eq!(
                    got,
                    expected,
                    "cofactor {}={} diverged",
                    circuit.net_name(pi),
                    u8::from(value)
                );
            }
        }
    }

    #[test]
    fn replay_matches_resynthesis_on_gate_soup() {
        // Exercises every gate type, parity flips, buffer collapses, output
        // renames and keeper buffers.
        let mut c = Circuit::new("soup");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let k = c.add_input("keyinput0").unwrap();
        let x1 = c.add_gate(GateType::Xor, "x1", &[a, k]).unwrap();
        let n1 = c.add_gate(GateType::Nand, "n1", &[x1, b]).unwrap();
        let o1 = c.add_gate(GateType::Xnor, "o1", &[n1, k, b]).unwrap();
        let buf = c.add_gate(GateType::Buf, "buf", &[o1]).unwrap();
        let inv = c.add_gate(GateType::Not, "inv", &[x1]).unwrap();
        let o2 = c.add_gate(GateType::Nor, "o2", &[inv, a, k]).unwrap();
        let o3 = c.add_gate(GateType::Or, "o3", &[buf, o2]).unwrap();
        c.mark_output(o3);
        c.mark_output(buf);
        c.mark_output(inv);
        assert_replay_matches(&c);
    }

    #[test]
    fn replay_matches_resynthesis_on_collapsing_outputs() {
        // An output that collapses to a constant under one cofactor, an
        // output aliased straight to an input, and a duplicated output.
        let mut c = Circuit::new("collapse");
        let a = c.add_input("a").unwrap();
        let k = c.add_input("keyinput0").unwrap();
        let g = c.add_gate(GateType::And, "g", &[a, k]).unwrap();
        let h = c.add_gate(GateType::Buf, "h", &[a]).unwrap();
        c.mark_output(g);
        c.mark_output(h);
        c.mark_output(g);
        assert_replay_matches(&c);
    }

    #[test]
    fn replay_matches_resynthesis_on_const_gates() {
        let mut c = Circuit::new("consts");
        let a = c.add_input("a").unwrap();
        let one = c.add_gate(GateType::Const1, "one", &[]).unwrap();
        let o = c.add_gate(GateType::Xor, "o", &[a, one]).unwrap();
        c.mark_output(o);
        c.mark_output(one);
        assert_replay_matches(&c);
    }
}
