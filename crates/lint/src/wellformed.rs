//! Well-formedness rules over [`Circuit`]: the structural contract the rest
//! of the suite assumes, checked explicitly.

use crate::diagnostic::{Diagnostic, Severity};
use crate::rule::{LintContext, Rule};
use kratt_netlist::analysis::{fanin_cone_gates, topological_order};
use kratt_netlist::{Circuit, NetlistError};
use std::collections::HashMap;

/// Every well-formedness rule, in catalogue order.
pub(crate) fn rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(UndrivenNet),
        Box::new(MultiplyDrivenNet),
        Box::new(FloatingOutput),
        Box::new(DeadLogic),
        Box::new(UnusedKeyInput),
        Box::new(CombinationalCycle),
        Box::new(InterfaceDrift),
    ]
}

/// `undriven-net` (error): a net that is neither a primary input nor driven
/// by any gate. Such a net has no defined value; simulation and lowering
/// both rely on every net having exactly one source.
///
/// Output nets are excluded here — an undriven *output* is the more specific
/// `floating-output` finding.
pub struct UndrivenNet;

impl Rule for UndrivenNet {
    fn id(&self) -> &'static str {
        "undriven-net"
    }
    fn summary(&self) -> &'static str {
        "net is neither a primary input nor driven by any gate"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(circuit) = ctx.circuit() else {
            return Vec::new();
        };
        circuit
            .nets()
            .filter(|&n| {
                !circuit.is_input(n) && circuit.driver(n).is_none() && !circuit.is_output(n)
            })
            .map(|n| {
                Diagnostic::at(
                    self.id(),
                    Severity::Error,
                    circuit.net_name(n),
                    "net has no driver and is not a primary input",
                )
            })
            .collect()
    }
}

/// `multiply-driven-net` (error): a net driven by more than one gate, or a
/// primary input driven by a gate. Either way two sources fight over one
/// wire and the circuit's value is ill-defined.
pub struct MultiplyDrivenNet;

impl Rule for MultiplyDrivenNet {
    fn id(&self) -> &'static str {
        "multiply-driven-net"
    }
    fn summary(&self) -> &'static str {
        "net driven by more than one gate, or a gate drives a primary input"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(circuit) = ctx.circuit() else {
            return Vec::new();
        };
        let mut drivers: HashMap<kratt_netlist::NetId, usize> = HashMap::new();
        for (_, gate) in circuit.gates() {
            *drivers.entry(gate.output).or_insert(0) += 1;
        }
        let mut found = Vec::new();
        for net in circuit.nets() {
            let n = drivers.get(&net).copied().unwrap_or(0);
            if circuit.is_input(net) && n > 0 {
                found.push(Diagnostic::at(
                    self.id(),
                    Severity::Error,
                    circuit.net_name(net),
                    format!("primary input is driven by {n} gate(s)"),
                ));
            } else if n > 1 {
                found.push(Diagnostic::at(
                    self.id(),
                    Severity::Error,
                    circuit.net_name(net),
                    format!("net is driven by {n} gates"),
                ));
            }
        }
        found
    }
}

/// `floating-output` (error): a primary output that is neither an input nor
/// driven by any gate — the circuit promises a value it never produces.
pub struct FloatingOutput;

impl Rule for FloatingOutput {
    fn id(&self) -> &'static str {
        "floating-output"
    }
    fn summary(&self) -> &'static str {
        "primary output has no driver"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(circuit) = ctx.circuit() else {
            return Vec::new();
        };
        let mut seen = std::collections::HashSet::new();
        circuit
            .outputs()
            .iter()
            .filter(|&&o| seen.insert(o))
            .filter(|&&o| !circuit.is_input(o) && circuit.driver(o).is_none())
            .map(|&o| {
                Diagnostic::at(
                    self.id(),
                    Severity::Error,
                    circuit.net_name(o),
                    "primary output is not driven by any gate",
                )
            })
            .collect()
    }
}

/// `dead-logic` (warning): a gate outside the fan-in cone of every primary
/// output. It burns area without influencing the function — usually a
/// leftover of a buggy transform (or deliberately inserted decoy logic).
pub struct DeadLogic;

impl Rule for DeadLogic {
    fn id(&self) -> &'static str {
        "dead-logic"
    }
    fn summary(&self) -> &'static str {
        "gate cannot reach any primary output"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(circuit) = ctx.circuit() else {
            return Vec::new();
        };
        let live = fanin_cone_gates(circuit, circuit.outputs());
        circuit
            .gates()
            .filter(|(gid, _)| !live.contains(gid))
            .map(|(_, gate)| {
                Diagnostic::at(
                    self.id(),
                    Severity::Warning,
                    circuit.net_name(gate.output),
                    "gate output never reaches a primary output",
                )
            })
            .collect()
    }
}

/// `unused-key-input` (warning): a key input consumed by no gate. A key bit
/// nobody reads cannot protect anything — the effective key length is
/// shorter than the interface claims.
pub struct UnusedKeyInput;

impl Rule for UnusedKeyInput {
    fn id(&self) -> &'static str {
        "unused-key-input"
    }
    fn summary(&self) -> &'static str {
        "key input is consumed by no gate"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(circuit) = ctx.circuit() else {
            return Vec::new();
        };
        let mut consumed = vec![false; circuit.num_nets()];
        for (_, gate) in circuit.gates() {
            for &input in &gate.inputs {
                consumed[input.index()] = true;
            }
        }
        circuit
            .key_inputs()
            .into_iter()
            .filter(|k| !consumed[k.index()] && !circuit.is_output(*k))
            .map(|k| {
                Diagnostic::at(
                    self.id(),
                    Severity::Warning,
                    circuit.net_name(k),
                    "key input feeds no gate; it cannot affect the function",
                )
            })
            .collect()
    }
}

/// `combinational-cycle` (error): the gates cannot be topologically ordered.
/// The full cycle path (from [`NetlistError::CombinationalCycle`]) is spelled
/// out in the message so the loop can be traced net by net.
pub struct CombinationalCycle;

impl Rule for CombinationalCycle {
    fn id(&self) -> &'static str {
        "combinational-cycle"
    }
    fn summary(&self) -> &'static str {
        "gates form a combinational cycle (full path reported)"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(circuit) = ctx.circuit() else {
            return Vec::new();
        };
        match topological_order(circuit) {
            Ok(_) => Vec::new(),
            Err(ref err @ NetlistError::CombinationalCycle(ref path)) => {
                let location = path.first().cloned().unwrap_or_default();
                vec![Diagnostic::at(
                    self.id(),
                    Severity::Error,
                    location,
                    err.to_string(),
                )]
            }
            Err(_) => Vec::new(),
        }
    }
}

/// `interface-drift` (error): the locked circuit's functional interface has
/// drifted from the original's. A correct locking transform adds key inputs
/// and nothing else: the data inputs and the outputs must match the original
/// by name, order and count, or downstream equivalence checks silently
/// compare the wrong pins.
pub struct InterfaceDrift;

impl InterfaceDrift {
    fn compare(
        &self,
        what: &str,
        original: &[String],
        locked: &[String],
        found: &mut Vec<Diagnostic>,
    ) {
        if original.len() != locked.len() {
            found.push(Diagnostic::global(
                self.id(),
                Severity::Error,
                format!(
                    "locked circuit has {} {what}s, original has {}",
                    locked.len(),
                    original.len()
                ),
            ));
            return;
        }
        for (orig, lock) in original.iter().zip(locked) {
            if orig != lock {
                found.push(Diagnostic::at(
                    self.id(),
                    Severity::Error,
                    lock.clone(),
                    format!("{what} `{lock}` does not match original's `{orig}` at this position"),
                ));
            }
        }
    }

    fn original_data_inputs(original: &Circuit) -> Vec<String> {
        // An already-locked "original" (re-locking experiments) contributes
        // only its data inputs to the contract.
        original.data_input_names()
    }
}

impl Rule for InterfaceDrift {
    fn id(&self) -> &'static str {
        "interface-drift"
    }
    fn summary(&self) -> &'static str {
        "locked circuit's data inputs or outputs drifted from the original"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let (Some(locked), Some(original)) = (ctx.circuit(), ctx.original()) else {
            return Vec::new();
        };
        let mut found = Vec::new();
        self.compare(
            "data input",
            &Self::original_data_inputs(original),
            &locked.data_input_names(),
            &mut found,
        );
        self.compare(
            "output",
            &original.net_names(original.outputs()),
            &locked.net_names(locked.outputs()),
            &mut found,
        );
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_netlist::GateType;

    fn run(rule: &dyn Rule, circuit: &Circuit) -> Vec<Diagnostic> {
        rule.check(&LintContext::for_circuit(circuit))
    }

    /// A small clean circuit every rule should stay silent on.
    fn clean() -> Circuit {
        let mut c = Circuit::new("clean");
        let a = c.add_input("a").unwrap();
        let k = c.add_input("keyinput0").unwrap();
        let x = c.add_gate(GateType::Xor, "x", &[a, k]).unwrap();
        c.mark_output(x);
        c
    }

    #[test]
    fn clean_circuit_passes_every_rule() {
        let c = clean();
        for rule in rules() {
            assert!(
                run(rule.as_ref(), &c).is_empty(),
                "rule `{}` fired on a clean circuit",
                rule.id()
            );
        }
    }

    #[test]
    fn undriven_net_fires() {
        let mut c = clean();
        c.raw_add_undriven_net("ghost").unwrap();
        let found = run(&UndrivenNet, &c);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].location.as_deref(), Some("ghost"));
        assert_eq!(found[0].severity, Severity::Error);
    }

    #[test]
    fn multiply_driven_net_fires_for_double_drivers_and_driven_inputs() {
        let mut c = clean();
        let a = c.find_net("a").unwrap();
        let x = c.find_net("x").unwrap();
        c.raw_push_gate(GateType::Not, &[a], x); // second driver on x
        c.raw_push_gate(GateType::Buf, &[x], a); // gate drives input a
        let found = run(&MultiplyDrivenNet, &c);
        assert_eq!(found.len(), 2);
        let locs: Vec<_> = found.iter().filter_map(|d| d.location.as_deref()).collect();
        assert!(locs.contains(&"x"));
        assert!(locs.contains(&"a"));
    }

    #[test]
    fn floating_output_fires() {
        let mut c = clean();
        let ghost = c.raw_add_undriven_net("ghost_out").unwrap();
        c.mark_output(ghost);
        let found = run(&FloatingOutput, &c);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].location.as_deref(), Some("ghost_out"));
        // The undriven-net rule leaves output nets to this rule.
        assert!(run(&UndrivenNet, &c).is_empty());
    }

    #[test]
    fn dead_logic_fires() {
        let mut c = clean();
        let a = c.find_net("a").unwrap();
        c.add_gate(GateType::Not, "dead", &[a]).unwrap();
        let found = run(&DeadLogic, &c);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].location.as_deref(), Some("dead"));
        assert_eq!(found[0].severity, Severity::Warning);
    }

    #[test]
    fn unused_key_input_fires() {
        let mut c = clean();
        c.add_input("keyinput1").unwrap();
        let found = run(&UnusedKeyInput, &c);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].location.as_deref(), Some("keyinput1"));
        // An unused *data* input is not this rule's business.
        let mut c = clean();
        c.add_input("b").unwrap();
        assert!(run(&UnusedKeyInput, &c).is_empty());
    }

    #[test]
    fn combinational_cycle_fires_with_the_full_path() {
        let mut c = Circuit::new("cyc");
        let a = c.add_input("a").unwrap();
        let x = c.add_gate(GateType::And, "x", &[a, a]).unwrap();
        let y = c.add_gate(GateType::Buf, "y", &[x]).unwrap();
        c.mark_output(y);
        c.raw_set_gate_input(c.driver(x).unwrap(), 1, y);
        let found = run(&CombinationalCycle, &c);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].severity, Severity::Error);
        assert!(found[0].message.contains("`x`"), "{}", found[0].message);
        assert!(found[0].message.contains("`y`"), "{}", found[0].message);
    }

    #[test]
    fn interface_drift_fires_on_renames_and_missing_outputs() {
        let original = clean();
        // Renamed data input.
        let mut locked = Circuit::new("locked");
        let b = locked.add_input("b").unwrap();
        let k = locked.add_input("keyinput0").unwrap();
        let x = locked.add_gate(GateType::Xor, "x", &[b, k]).unwrap();
        locked.mark_output(x);
        let rule = InterfaceDrift;
        let found = rule.check(&LintContext::for_locked(&original, &locked));
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("`b`"));
        // Dropped output.
        let mut locked = original.clone();
        locked.set_name("locked2");
        let extra = locked.find_net("a").unwrap();
        locked.mark_output(extra);
        let found = rule.check(&LintContext::for_locked(&original, &locked));
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("outputs"));
        // Without an original the rule stays silent.
        assert!(rule.check(&LintContext::for_circuit(&locked)).is_empty());
    }
}
