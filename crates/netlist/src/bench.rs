//! Reading and writing the ISCAS-89 `.bench` netlist format.
//!
//! The `.bench` format is the lingua franca of the logic-locking literature:
//! the ISCAS'85 / ITC'99 benchmarks, the Valkyrie repository and the
//! HeLLO: CTF'22 circuits are all distributed in it. A file looks like
//!
//! ```text
//! # locked with 3 key bits
//! INPUT(G1)
//! INPUT(keyinput0)
//! OUTPUT(G17)
//! n1 = NAND(G1, keyinput0)
//! G17 = NOT(n1)
//! ```

use crate::circuit::{Circuit, NetId};
use crate::{GateType, NetlistError};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Parses `.bench` text into a [`Circuit`].
///
/// Gates may appear in any order (forward references are resolved), in line
/// with how synthesis tools emit these files.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed lines, unknown gate
/// keywords, or sequential elements (`DFF`), and the usual construction
/// errors for duplicate drivers.
pub fn parse(name: &str, text: &str) -> Result<Circuit, NetlistError> {
    struct PendingGate {
        line: usize,
        output: String,
        ty: GateType,
        inputs: Vec<String>,
    }

    let mut inputs: Vec<(usize, String)> = Vec::new();
    let mut outputs: Vec<(usize, String)> = Vec::new();
    let mut pending: Vec<PendingGate> = Vec::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw_line.find('#') {
            Some(pos) => &raw_line[..pos],
            None => raw_line,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = strip_directive(line, "INPUT") {
            inputs.push((line_no, rest.to_string()));
        } else if let Some(rest) = strip_directive(line, "OUTPUT") {
            outputs.push((line_no, rest.to_string()));
        } else if let Some(eq) = line.find('=') {
            let output = line[..eq].trim().to_string();
            let rhs = line[eq + 1..].trim();
            let open = rhs.find('(').ok_or_else(|| NetlistError::Parse {
                line: line_no,
                message: format!("expected `GATE(...)`, found `{rhs}`"),
            })?;
            let close = rhs.rfind(')').ok_or_else(|| NetlistError::Parse {
                line: line_no,
                message: "missing closing parenthesis".into(),
            })?;
            let keyword = rhs[..open].trim();
            let ty = GateType::from_bench_keyword(keyword).map_err(|_| NetlistError::Parse {
                line: line_no,
                message: format!("unknown or unsupported gate `{keyword}` (sequential circuits are not supported)"),
            })?;
            let args = rhs[open + 1..close].trim();
            let gate_inputs: Vec<String> = if args.is_empty() {
                Vec::new()
            } else {
                args.split(',').map(|s| s.trim().to_string()).collect()
            };
            if gate_inputs.iter().any(|s| s.is_empty()) {
                return Err(NetlistError::Parse {
                    line: line_no,
                    message: "empty operand in gate argument list".into(),
                });
            }
            pending.push(PendingGate {
                line: line_no,
                output,
                ty,
                inputs: gate_inputs,
            });
        } else {
            return Err(NetlistError::Parse {
                line: line_no,
                message: format!("unrecognised line `{line}`"),
            });
        }
    }

    let mut circuit = Circuit::new(name);
    let mut net_of: HashMap<String, NetId> = HashMap::new();
    for (line, input) in &inputs {
        let id = circuit.add_input(input.clone()).map_err(|e| match e {
            NetlistError::DuplicateNet(n) => NetlistError::Parse {
                line: *line,
                message: format!("input `{n}` declared twice"),
            },
            other => other,
        })?;
        net_of.insert(input.clone(), id);
    }

    // Resolve gates in dependency order: repeatedly add gates whose inputs
    // are all known. This handles arbitrary declaration order.
    let mut remaining = pending;
    while !remaining.is_empty() {
        let mut progressed = false;
        let mut next_round = Vec::new();
        for gate in remaining {
            if gate.inputs.iter().all(|i| net_of.contains_key(i)) {
                let input_ids: Vec<NetId> = gate.inputs.iter().map(|i| net_of[i]).collect();
                let out = circuit
                    .add_gate(gate.ty, gate.output.clone(), &input_ids)
                    .map_err(|e| NetlistError::Parse {
                        line: gate.line,
                        message: e.to_string(),
                    })?;
                net_of.insert(gate.output, out);
                progressed = true;
            } else {
                next_round.push(gate);
            }
        }
        if !progressed {
            let gate = &next_round[0];
            let missing = gate
                .inputs
                .iter()
                .find(|i| !net_of.contains_key(*i))
                .cloned()
                .unwrap_or_default();
            return Err(NetlistError::Parse {
                line: gate.line,
                message: format!(
                    "net `{missing}` used by `{}` is never defined (or the netlist is cyclic)",
                    gate.output
                ),
            });
        }
        remaining = next_round;
    }

    for (line, output) in &outputs {
        let id = net_of
            .get(output)
            .copied()
            .ok_or_else(|| NetlistError::Parse {
                line: *line,
                message: format!("output `{output}` is never defined"),
            })?;
        circuit.mark_output(id);
    }
    Ok(circuit)
}

fn strip_directive<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let upper = line.to_ascii_uppercase();
    if !upper.starts_with(keyword) {
        return None;
    }
    let rest = line[keyword.len()..].trim();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.trim())
}

/// Serialises a circuit to `.bench` text: a header comment, `INPUT`/`OUTPUT`
/// declarations, then one line per gate in topological order.
///
/// # Errors
///
/// Returns an error if the circuit is cyclic (no topological order exists).
pub fn write(circuit: &Circuit) -> Result<String, NetlistError> {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", circuit.name());
    let _ = writeln!(
        out,
        "# {} inputs, {} outputs, {} gates",
        circuit.num_inputs(),
        circuit.num_outputs(),
        circuit.num_gates()
    );
    for &input in circuit.inputs() {
        let _ = writeln!(out, "INPUT({})", circuit.net_name(input));
    }
    for &output in circuit.outputs() {
        let _ = writeln!(out, "OUTPUT({})", circuit.net_name(output));
    }
    let _ = writeln!(out);
    for &gid in crate::analysis::topological_order(circuit)?.iter() {
        let gate = circuit.gate(gid);
        let args: Vec<&str> = gate.inputs.iter().map(|&n| circuit.net_name(n)).collect();
        let _ = writeln!(
            out,
            "{} = {}({})",
            circuit.net_name(gate.output),
            gate.ty.bench_keyword(),
            args.join(", ")
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::exhaustively_equivalent;

    const C17: &str = r#"
# c17 from ISCAS'85
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)

G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
"#;

    #[test]
    fn parses_c17_and_simulates() {
        let c = parse("c17", C17).unwrap();
        assert_eq!(c.num_inputs(), 5);
        assert_eq!(c.num_outputs(), 2);
        assert_eq!(c.num_gates(), 6);
        // G1..G7 = 0 -> all NAND outputs of zeros are 1, G22 = NAND(1,1) = 0.
        let out = c.simulate(&[false; 5]).unwrap();
        assert_eq!(out, vec![false, false]);
        // All ones: G10 = NAND(1,1)=0, G11=0, G16=NAND(1,0)=1, G19=NAND(0,1)=1,
        // G22=NAND(0,1)=1, G23=NAND(1,1)=0.
        let out = c.simulate(&[true; 5]).unwrap();
        assert_eq!(out, vec![true, false]);
    }

    #[test]
    fn round_trip_preserves_function_and_interface() {
        let c = parse("c17", C17).unwrap();
        let text = write(&c).unwrap();
        let d = parse("c17", &text).unwrap();
        assert_eq!(c.num_inputs(), d.num_inputs());
        assert_eq!(c.num_outputs(), d.num_outputs());
        assert_eq!(c.num_gates(), d.num_gates());
        assert!(exhaustively_equivalent(&c, &d).unwrap());
    }

    #[test]
    fn forward_references_are_resolved() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(x)\nx = BUF(a)\n";
        let c = parse("fwd", text).unwrap();
        assert_eq!(c.simulate(&[true]).unwrap(), vec![false]);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header\n\nINPUT(a) # trailing\nOUTPUT(y)\ny = BUF(a)\n";
        let c = parse("cmt", text).unwrap();
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn constants_parse() {
        let text = "INPUT(a)\nOUTPUT(y)\none = CONST1()\ny = AND(a, one)\n";
        let c = parse("const", text).unwrap();
        assert_eq!(c.simulate(&[true]).unwrap(), vec![true]);
        assert_eq!(c.simulate(&[false]).unwrap(), vec![false]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = DFF(a)\n";
        match parse("dff", text) {
            Err(NetlistError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
        let text = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
        match parse("ghost", text) {
            Err(NetlistError::Parse { line, message }) => {
                assert_eq!(line, 3);
                assert!(message.contains("ghost"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        let text = "INPUT(a)\nOUTPUT(y)\nthis is not bench\n";
        assert!(matches!(
            parse("bad", text),
            Err(NetlistError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn undefined_output_is_an_error() {
        let text = "INPUT(a)\nOUTPUT(nope)\ny = BUF(a)\n";
        assert!(parse("undef", text).is_err());
    }

    #[test]
    fn key_inputs_recognised_after_parse() {
        let text = "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XOR(a, keyinput0)\n";
        let c = parse("locked", text).unwrap();
        assert_eq!(c.key_inputs().len(), 1);
        assert_eq!(c.data_inputs().len(), 1);
    }
}
