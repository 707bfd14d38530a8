//! QDIMACS export of the ∃∀ instances KRATT generates.
//!
//! The original KRATT tool does not solve QBF itself — it writes a QDIMACS
//! file and calls DepQBF on it. The reproduction solves the instances
//! in-tree (see [`ExistsForallSolver`](crate::ExistsForallSolver)), but this
//! module keeps the interchange path alive: it emits exactly the prenex
//! ∃K ∀PPI ∃aux CNF the paper describes, so the instance can be handed to
//! DepQBF (or any QDIMACS solver) for cross-checking. The matrix is the AIG
//! image the in-tree CEGAR verifier solves, so the exported instance is the
//! one the in-tree engine decides.
//!
//! ```
//! use kratt_netlist::{Circuit, GateType};
//! use kratt_qbf::qdimacs;
//!
//! # fn main() -> Result<(), kratt_netlist::NetlistError> {
//! let mut c = Circuit::new("unit");
//! let x = c.add_input("x")?;
//! let k = c.add_input("keyinput0")?;
//! let out = c.add_gate(GateType::And, "out", &[x, k])?;
//! c.mark_output(out);
//! let text = qdimacs::export(&c, &[k], &[x], out, false);
//! assert!(text.contains("p cnf"));
//! assert!(text.lines().any(|l| l.starts_with("e ")));
//! assert!(text.lines().any(|l| l.starts_with("a ")));
//! # Ok(())
//! # }
//! ```

use crate::{polarised, unit_aig};
use kratt_netlist::{Circuit, NetId};
use kratt_sat::cnf::{clause_to_dimacs, ClauseSink, Cnf};
use kratt_sat::{encode_aig, Var};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Serialises `∃ existential ∀ universal ∃ aux . circuit[output] = target` in
/// QDIMACS format.
///
/// The matrix is the [`encode_aig`] image of the circuit lowered into an AIG
/// with `output` as its one output — the CNF the in-tree CEGAR verifier
/// solves — plus the unit clause asserting `target`. Primary inputs that
/// appear in neither list are treated as universal, the same conservative
/// default the in-tree solver uses. The auxiliary variables (one per encoded
/// AIG node) are placed in an innermost existential block, as required for
/// the encoding to be equisatisfiable with the circuit-level formula.
///
/// # Panics
///
/// Panics if a quantified net is not a primary input of `circuit`, or if
/// the circuit is cyclic (the construction API cannot produce one).
pub fn export(
    circuit: &Circuit,
    existential: &[NetId],
    universal: &[NetId],
    output: NetId,
    target: bool,
) -> String {
    let mut universal: Vec<NetId> = universal.to_vec();
    for &pi in circuit.inputs() {
        if !existential.contains(&pi) && !universal.contains(&pi) {
            universal.push(pi);
        }
    }

    let mut cnf = Cnf::new();
    let aig = unit_aig(circuit, output, &HashMap::new());
    let encoding = encode_aig(&mut cnf, &aig, &HashMap::new());
    cnf.add_clause([polarised(encoding.outputs()[0], target)]);

    let var_of = |net: NetId| {
        encoding
            .input_var(circuit.net_name(net))
            .expect("quantified nets are primary inputs")
    };
    let exist_vars: Vec<Var> = existential.iter().map(|&n| var_of(n)).collect();
    let universal_vars: Vec<Var> = universal.iter().map(|&n| var_of(n)).collect();
    let mut outer: Vec<Var> = exist_vars.clone();
    outer.extend(universal_vars.iter().copied());
    let inner: Vec<Var> = (0..cnf.num_vars())
        .map(Var::from_index)
        .filter(|v| !outer.contains(v))
        .collect();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "c {} : exists-forall instance, output `{}` = {}",
        circuit.name(),
        circuit.net_name(output),
        u8::from(target)
    );
    for (&net, &var) in existential.iter().zip(&exist_vars) {
        let _ = writeln!(
            text,
            "c exists {} -> {}",
            circuit.net_name(net),
            var.index() + 1
        );
    }
    for (&net, &var) in universal.iter().zip(&universal_vars) {
        let _ = writeln!(
            text,
            "c forall {} -> {}",
            circuit.net_name(net),
            var.index() + 1
        );
    }
    let _ = writeln!(text, "p cnf {} {}", cnf.num_vars(), cnf.num_clauses());
    let _ = writeln!(text, "{}", quantifier_line('e', &exist_vars));
    let _ = writeln!(text, "{}", quantifier_line('a', &universal_vars));
    if !inner.is_empty() {
        let _ = writeln!(text, "{}", quantifier_line('e', &inner));
    }
    for clause in cnf.clauses() {
        let _ = writeln!(text, "{}", clause_to_dimacs(clause));
    }
    text
}

fn quantifier_line(kind: char, vars: &[Var]) -> String {
    let mut line = String::new();
    let _ = write!(line, "{kind}");
    for var in vars {
        let _ = write!(line, " {}", var.index() + 1);
    }
    line.push_str(" 0");
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_netlist::GateType;

    fn sarlock_like_unit() -> (Circuit, Vec<NetId>, Vec<NetId>, NetId) {
        let mut c = Circuit::new("unit");
        let xs: Vec<NetId> = (0..2)
            .map(|i| c.add_input(format!("x{i}")).unwrap())
            .collect();
        let ks: Vec<NetId> = (0..2)
            .map(|i| c.add_input(format!("keyinput{i}")).unwrap())
            .collect();
        let eq0 = c.add_gate(GateType::Xnor, "eq0", &[xs[0], ks[0]]).unwrap();
        let eq1 = c.add_gate(GateType::Xnor, "eq1", &[xs[1], ks[1]]).unwrap();
        let cmp = c.add_gate(GateType::And, "cmp", &[eq0, eq1]).unwrap();
        let nk0 = c.add_gate(GateType::Not, "nk0", &[ks[0]]).unwrap();
        let guard = c.add_gate(GateType::And, "guard", &[nk0, ks[1]]).unwrap();
        let not_guard = c.add_gate(GateType::Not, "not_guard", &[guard]).unwrap();
        let out = c.add_gate(GateType::And, "out", &[cmp, not_guard]).unwrap();
        c.mark_output(out);
        (c, ks, xs, out)
    }

    #[test]
    fn export_has_well_formed_prefix_and_header() {
        let (c, ks, xs, out) = sarlock_like_unit();
        let text = export(&c, &ks, &xs, out, false);
        let lines: Vec<&str> = text.lines().collect();
        let header_idx = lines.iter().position(|l| l.starts_with("p cnf")).unwrap();
        // The quantifier prefix follows the header immediately: e, a, e.
        assert!(lines[header_idx + 1].starts_with("e "));
        assert!(lines[header_idx + 2].starts_with("a "));
        assert!(lines[header_idx + 3].starts_with("e "));
        // Every quantifier line is zero-terminated.
        for offset in 1..=3 {
            assert!(lines[header_idx + offset].ends_with(" 0"));
        }
        // Header counts match body.
        let mut parts = lines[header_idx].split_whitespace().skip(2);
        let vars: usize = parts.next().unwrap().parse().unwrap();
        let clauses: usize = parts.next().unwrap().parse().unwrap();
        let clause_lines = lines.len() - header_idx - 4;
        assert_eq!(clause_lines, clauses);
        assert!(vars >= c.num_inputs());
    }

    #[test]
    fn prefix_partitions_all_variables_exactly_once() {
        let (c, ks, xs, out) = sarlock_like_unit();
        let text = export(&c, &ks, &xs, out, true);
        let lines: Vec<&str> = text.lines().collect();
        let header_idx = lines.iter().position(|l| l.starts_with("p cnf")).unwrap();
        let total_vars: usize = lines[header_idx]
            .split_whitespace()
            .nth(2)
            .unwrap()
            .parse()
            .unwrap();
        let mut seen = std::collections::HashSet::new();
        for line in &lines[header_idx + 1..] {
            if !(line.starts_with("e ") || line.starts_with("a ")) {
                break;
            }
            for token in line[2..].split_whitespace() {
                let value: usize = token.parse().unwrap();
                if value == 0 {
                    continue;
                }
                assert!(seen.insert(value), "variable {value} quantified twice");
            }
        }
        assert_eq!(seen.len(), total_vars, "every variable must be quantified");
    }

    #[test]
    fn key_inputs_are_in_the_outer_existential_block() {
        let (c, ks, xs, out) = sarlock_like_unit();
        let text = export(&c, &ks, &xs, out, false);
        // The comments record the name -> index mapping; the outer block must
        // contain exactly the existential indices.
        let exist_indices: Vec<String> = text
            .lines()
            .filter(|l| l.starts_with("c exists"))
            .map(|l| l.split_whitespace().last().unwrap().to_string())
            .collect();
        assert_eq!(exist_indices.len(), ks.len());
        let outer = text.lines().find(|l| l.starts_with("e ")).unwrap();
        for index in exist_indices {
            assert!(outer.split_whitespace().any(|t| t == index));
        }
    }

    #[test]
    fn unlisted_inputs_are_universal() {
        let mut c = Circuit::new("or");
        let x = c.add_input("x").unwrap();
        let k = c.add_input("keyinput0").unwrap();
        let out = c.add_gate(GateType::Or, "out", &[x, k]).unwrap();
        c.mark_output(out);
        let _ = x;
        let text = export(&c, &[k], &[], out, true);
        assert!(text.lines().any(|l| l.starts_with("c forall x")));
    }
}
