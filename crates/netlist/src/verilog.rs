//! Reading and writing a structural (gate-level) Verilog subset.
//!
//! Logic-locking tool flows move netlists between `.bench` and gate-level
//! Verilog constantly: synthesis tools such as Cadence Genus (used by the
//! paper to resynthesise the locked designs) read and emit Verilog, while the
//! attack scripts work on `.bench`. This module provides the Verilog side of
//! that bridge for the same purely combinational circuits the rest of the
//! crate handles.
//!
//! The supported subset is a single `module` containing
//!
//! * scalar `input` / `output` / `wire` declarations,
//! * the Verilog gate primitives `and`, `nand`, `or`, `nor`, `xor`, `xnor`,
//!   `not` and `buf` (output terminal first, as the standard defines),
//! * `assign` statements whose right-hand side is a net name, `~net`,
//!   `1'b0` or `1'b1`,
//! * line (`//`) and block (`/* ... */`) comments and escaped identifiers
//!   (`\name `).
//!
//! Vectors (`[7:0]`), behavioural blocks, parameters and hierarchy are out of
//! scope and produce a [`NetlistError::Parse`] that names the construct.
//!
//! ```
//! use kratt_netlist::verilog;
//!
//! # fn main() -> Result<(), kratt_netlist::NetlistError> {
//! let text = "
//! module half_adder (a, b, sum, carry);
//!   input a, b;
//!   output sum, carry;
//!   xor g0 (sum, a, b);
//!   and g1 (carry, a, b);
//! endmodule
//! ";
//! let circuit = verilog::parse(text)?;
//! assert_eq!(circuit.name(), "half_adder");
//! assert_eq!(circuit.simulate(&[true, true])?, vec![false, true]);
//! let round_trip = verilog::write(&circuit)?;
//! assert!(round_trip.contains("module half_adder"));
//! # Ok(())
//! # }
//! ```

use crate::circuit::{Circuit, NetId};
use crate::{GateType, NetlistError};
use std::collections::HashMap;
use std::fmt::Write as _;

/// A gate primitive keyword of the supported Verilog subset.
fn gate_type_from_primitive(keyword: &str) -> Option<GateType> {
    Some(match keyword {
        "and" => GateType::And,
        "nand" => GateType::Nand,
        "or" => GateType::Or,
        "nor" => GateType::Nor,
        "xor" => GateType::Xor,
        "xnor" => GateType::Xnor,
        "not" => GateType::Not,
        "buf" => GateType::Buf,
        _ => return None,
    })
}

fn primitive_from_gate_type(ty: GateType) -> Option<&'static str> {
    Some(match ty {
        GateType::And => "and",
        GateType::Nand => "nand",
        GateType::Or => "or",
        GateType::Nor => "nor",
        GateType::Xor => "xor",
        GateType::Xnor => "xnor",
        GateType::Not => "not",
        GateType::Buf => "buf",
        GateType::Const0 | GateType::Const1 => return None,
    })
}

/// Whether a net name can be written as a plain Verilog identifier
/// (otherwise it is emitted as an escaped identifier `\name `).
fn is_simple_identifier(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    name.chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$')
        && !is_reserved_word(name)
}

fn is_reserved_word(name: &str) -> bool {
    matches!(
        name,
        "module"
            | "endmodule"
            | "input"
            | "output"
            | "inout"
            | "wire"
            | "assign"
            | "and"
            | "nand"
            | "or"
            | "nor"
            | "xor"
            | "xnor"
            | "not"
            | "buf"
            | "supply0"
            | "supply1"
            | "reg"
            | "always"
            | "begin"
            | "end"
    )
}

fn emit_identifier(name: &str) -> String {
    if is_simple_identifier(name) {
        name.to_string()
    } else {
        // Escaped identifiers are terminated by whitespace.
        format!("\\{name} ")
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Serialises a circuit as a single structural Verilog module.
///
/// Gates are written as Verilog primitives in topological order; constant
/// gates become `assign net = 1'b0;` / `1'b1;`. Net names that are not legal
/// plain identifiers are written as escaped identifiers, so arbitrary
/// `.bench` names survive a round trip.
///
/// Two interface corner cases that `.bench` allows but Verilog ports cannot
/// express directly are handled by inserting buffers:
///
/// * a primary *input* net that is also marked as a primary output is exposed
///   through a fresh output port named `<name>__po`;
/// * a net listed more than once in the output list keeps its first port and
///   each further occurrence becomes a fresh port named `<name>__dup<i>`.
///
/// # Errors
///
/// Returns an error if the circuit is cyclic (no topological order exists).
pub fn write(circuit: &Circuit) -> Result<String, NetlistError> {
    let order = crate::analysis::topological_order(circuit)?;

    // Resolve the output port list: (port name, driven-by net).
    let mut seen_output_nets: Vec<NetId> = Vec::new();
    let mut output_ports: Vec<(String, NetId)> = Vec::new();
    for (position, &net) in circuit.outputs().iter().enumerate() {
        let base = circuit.net_name(net).to_string();
        if circuit.is_input(net) {
            output_ports.push((format!("{base}__po"), net));
        } else if seen_output_nets.contains(&net) {
            output_ports.push((format!("{base}__dup{position}"), net));
        } else {
            seen_output_nets.push(net);
            output_ports.push((base, net));
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "// {}", circuit.name());
    let _ = writeln!(
        out,
        "// {} inputs, {} outputs, {} gates",
        circuit.num_inputs(),
        circuit.num_outputs(),
        circuit.num_gates()
    );
    let module_name = if is_simple_identifier(circuit.name()) {
        circuit.name().to_string()
    } else {
        emit_identifier(circuit.name())
    };

    let mut ports: Vec<String> = Vec::new();
    for &input in circuit.inputs() {
        ports.push(emit_identifier(circuit.net_name(input)));
    }
    for (name, _) in &output_ports {
        ports.push(emit_identifier(name));
    }
    let _ = writeln!(out, "module {module_name} ({});", ports.join(", "));

    for &input in circuit.inputs() {
        let _ = writeln!(out, "  input {};", emit_identifier(circuit.net_name(input)));
    }
    for (name, _) in &output_ports {
        let _ = writeln!(out, "  output {};", emit_identifier(name));
    }

    // Internal wires: every gate-driven net that is not itself an output port.
    let port_names: Vec<&str> = output_ports.iter().map(|(n, _)| n.as_str()).collect();
    for (_, gate) in circuit.gates() {
        let name = circuit.net_name(gate.output);
        if !port_names.contains(&name) {
            let _ = writeln!(out, "  wire {};", emit_identifier(name));
        }
    }
    let _ = writeln!(out);

    let mut instance = 0usize;
    for &gid in order.iter() {
        let gate = circuit.gate(gid);
        let output_name = circuit.net_name(gate.output);
        match gate.ty {
            GateType::Const0 => {
                let _ = writeln!(out, "  assign {} = 1'b0;", emit_identifier(output_name));
            }
            GateType::Const1 => {
                let _ = writeln!(out, "  assign {} = 1'b1;", emit_identifier(output_name));
            }
            ty => {
                let primitive = primitive_from_gate_type(ty).expect("non-constant gate");
                let mut terminals = vec![emit_identifier(output_name)];
                terminals.extend(
                    gate.inputs
                        .iter()
                        .map(|&n| emit_identifier(circuit.net_name(n))),
                );
                let _ = writeln!(out, "  {primitive} g{instance} ({});", terminals.join(", "));
                instance += 1;
            }
        }
    }

    // Buffers feeding the synthesized output ports (input-as-output and
    // duplicated outputs).
    for (name, net) in &output_ports {
        if name != circuit.net_name(*net) {
            let _ = writeln!(
                out,
                "  buf g{instance} ({}, {});",
                emit_identifier(name),
                emit_identifier(circuit.net_name(*net))
            );
            instance += 1;
        }
    }

    let _ = writeln!(out, "endmodule");
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Identifier(String),
    Symbol(char),
    Constant(bool),
}

/// One statement of the module body plus the line it started on.
#[derive(Debug)]
struct Statement {
    line: usize,
    tokens: Vec<Token>,
}

fn parse_error(line: usize, message: impl Into<String>) -> NetlistError {
    NetlistError::Parse {
        line,
        message: message.into(),
    }
}

/// Strips `/* ... */` comments, replacing them with spaces but preserving
/// newlines so later line numbers stay accurate.
fn strip_block_comments(text: &str) -> Result<String, NetlistError> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    let mut line = 1usize;
    let mut in_comment_since: Option<usize> = None;
    while let Some(c) = chars.next() {
        if c == '\n' {
            line += 1;
            out.push('\n');
            continue;
        }
        if in_comment_since.is_some() {
            if c == '*' && chars.peek() == Some(&'/') {
                chars.next();
                in_comment_since = None;
                out.push(' ');
                out.push(' ');
            } else {
                out.push(' ');
            }
            continue;
        }
        if c == '/' && chars.peek() == Some(&'*') {
            chars.next();
            in_comment_since = Some(line);
            out.push(' ');
            out.push(' ');
            continue;
        }
        out.push(c);
    }
    match in_comment_since {
        Some(start) => Err(parse_error(start, "unterminated block comment")),
        None => Ok(out),
    }
}

/// Tokenises one physical line (with `//` comments already possible).
fn tokenize_line(
    line_no: usize,
    line: &str,
    tokens: &mut Vec<(usize, Token)>,
) -> Result<(), NetlistError> {
    let line = match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    };
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            c if c.is_whitespace() => {}
            '(' | ')' | ',' | ';' | '=' | '~' => tokens.push((line_no, Token::Symbol(c))),
            '\\' => {
                // Escaped identifier: runs until whitespace.
                let mut name = String::new();
                while let Some(&next) = chars.peek() {
                    if next.is_whitespace() {
                        break;
                    }
                    name.push(next);
                    chars.next();
                }
                if name.is_empty() {
                    return Err(parse_error(line_no, "empty escaped identifier"));
                }
                tokens.push((line_no, Token::Identifier(name)));
            }
            '1' if chars.peek() == Some(&'\'') => {
                chars.next();
                let base = chars.next();
                let digit = chars.next();
                match (base, digit) {
                    (Some('b'), Some('0')) => tokens.push((line_no, Token::Constant(false))),
                    (Some('b'), Some('1')) => tokens.push((line_no, Token::Constant(true))),
                    _ => {
                        return Err(parse_error(
                            line_no,
                            "only the constants 1'b0 and 1'b1 are supported",
                        ))
                    }
                }
            }
            '[' => {
                return Err(parse_error(
                    line_no,
                    "vector ranges are not supported; flatten the netlist to scalar nets",
                ))
            }
            c if c.is_ascii_alphanumeric() || c == '_' || c == '$' => {
                let mut name = String::new();
                name.push(c);
                while let Some(&next) = chars.peek() {
                    if next.is_ascii_alphanumeric() || next == '_' || next == '$' || next == '.' {
                        name.push(next);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push((line_no, Token::Identifier(name)));
            }
            other => {
                return Err(parse_error(
                    line_no,
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }
    Ok(())
}

fn split_statements(tokens: Vec<(usize, Token)>) -> Result<Vec<Statement>, NetlistError> {
    let mut statements = Vec::new();
    let mut current: Vec<Token> = Vec::new();
    let mut start_line = 0usize;
    for (line, token) in tokens {
        if current.is_empty() {
            start_line = line;
        }
        match &token {
            Token::Symbol(';') => {
                statements.push(Statement {
                    line: start_line,
                    tokens: std::mem::take(&mut current),
                });
            }
            Token::Identifier(word) if word == "endmodule" => {
                if !current.is_empty() {
                    return Err(parse_error(
                        line,
                        "statement not terminated by `;` before `endmodule`",
                    ));
                }
                statements.push(Statement {
                    line,
                    tokens: vec![Token::Identifier("endmodule".to_string())],
                });
            }
            _ => current.push(token),
        }
    }
    if !current.is_empty() {
        return Err(parse_error(
            start_line,
            "unterminated statement at end of file",
        ));
    }
    Ok(statements)
}

/// A gate whose operands may be declared later in the file.
#[derive(Debug)]
struct PendingGate {
    line: usize,
    ty: GateType,
    output: String,
    inputs: Vec<String>,
    /// `true` when the single input should be complemented (an
    /// `assign y = ~x;` statement).
    complement: bool,
}

/// Parses structural Verilog text into a [`Circuit`].
///
/// The circuit name is taken from the `module` header. Gate instantiations
/// and `assign` statements may reference nets before they are defined.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] (with the offending line) for constructs
/// outside the supported subset — vectors, behavioural code, multiple
/// modules, undeclared or doubly-driven nets.
pub fn parse(text: &str) -> Result<Circuit, NetlistError> {
    let text = strip_block_comments(text)?;
    let mut tokens: Vec<(usize, Token)> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        tokenize_line(idx + 1, line, &mut tokens)?;
    }
    let statements = split_statements(tokens)?;
    if statements.is_empty() {
        return Err(parse_error(1, "no module found"));
    }

    let mut module_name: Option<String> = None;
    let mut inputs: Vec<(usize, String)> = Vec::new();
    let mut outputs: Vec<(usize, String)> = Vec::new();
    let mut wires: Vec<String> = Vec::new();
    let mut gates: Vec<PendingGate> = Vec::new();
    let mut constants: Vec<(usize, String, bool)> = Vec::new();
    let mut saw_endmodule = false;

    for statement in &statements {
        let line = statement.line;
        if saw_endmodule {
            return Err(parse_error(
                line,
                "only a single module per file is supported",
            ));
        }
        let mut toks = statement.tokens.iter();
        let head = match toks.next() {
            Some(Token::Identifier(word)) => word.as_str(),
            Some(other) => {
                return Err(parse_error(line, format!("unexpected token {other:?}")));
            }
            None => continue,
        };
        match head {
            "module" => {
                if module_name.is_some() {
                    return Err(parse_error(
                        line,
                        "only a single module per file is supported",
                    ));
                }
                match toks.next() {
                    Some(Token::Identifier(name)) => module_name = Some(name.clone()),
                    _ => return Err(parse_error(line, "expected a module name")),
                }
                // The port list only repeats names declared as input/output
                // below; it is validated for balance but otherwise ignored.
                let mut depth = 0i32;
                for token in toks {
                    match token {
                        Token::Symbol('(') => depth += 1,
                        Token::Symbol(')') => depth -= 1,
                        Token::Symbol(',') | Token::Identifier(_) => {}
                        other => {
                            return Err(parse_error(
                                line,
                                format!("unexpected token {other:?} in port list"),
                            ))
                        }
                    }
                }
                if depth != 0 {
                    return Err(parse_error(line, "unbalanced parentheses in module header"));
                }
            }
            "endmodule" => saw_endmodule = true,
            "input" | "output" | "wire" => {
                for token in toks {
                    match token {
                        Token::Identifier(name) => match head {
                            "input" => inputs.push((line, name.clone())),
                            "output" => outputs.push((line, name.clone())),
                            _ => wires.push(name.clone()),
                        },
                        Token::Symbol(',') => {}
                        other => {
                            return Err(parse_error(
                                line,
                                format!("unexpected token {other:?} in {head} declaration"),
                            ))
                        }
                    }
                }
            }
            "assign" => {
                let target = match toks.next() {
                    Some(Token::Identifier(name)) => name.clone(),
                    _ => return Err(parse_error(line, "expected a net name after `assign`")),
                };
                match toks.next() {
                    Some(Token::Symbol('=')) => {}
                    _ => return Err(parse_error(line, "expected `=` in assign statement")),
                }
                let rest: Vec<&Token> = toks.collect();
                match rest.as_slice() {
                    [Token::Constant(value)] => constants.push((line, target, *value)),
                    [Token::Identifier(source)] => gates.push(PendingGate {
                        line,
                        ty: GateType::Buf,
                        output: target,
                        inputs: vec![source.clone()],
                        complement: false,
                    }),
                    [Token::Symbol('~'), Token::Identifier(source)] => gates.push(PendingGate {
                        line,
                        ty: GateType::Not,
                        output: target,
                        inputs: vec![source.clone()],
                        complement: true,
                    }),
                    _ => {
                        return Err(parse_error(
                            line,
                            "only `assign y = x;`, `assign y = ~x;`, `assign y = 1'b0;` and `assign y = 1'b1;` are supported",
                        ))
                    }
                }
            }
            primitive => {
                let ty = gate_type_from_primitive(primitive).ok_or_else(|| {
                    parse_error(
                        line,
                        format!("unsupported construct `{primitive}` (only structural gate primitives are supported)"),
                    )
                })?;
                let mut rest: Vec<&Token> = toks.collect();
                // Optional instance name before the terminal list.
                if let Some(Token::Identifier(_)) = rest.first() {
                    rest.remove(0);
                }
                if rest.first() != Some(&&Token::Symbol('('))
                    || rest.last() != Some(&&Token::Symbol(')'))
                {
                    return Err(parse_error(line, "expected a parenthesised terminal list"));
                }
                let mut terminals: Vec<String> = Vec::new();
                for token in &rest[1..rest.len() - 1] {
                    match token {
                        Token::Identifier(name) => terminals.push((*name).clone()),
                        Token::Symbol(',') => {}
                        other => {
                            return Err(parse_error(
                                line,
                                format!("unexpected token {other:?} in terminal list"),
                            ))
                        }
                    }
                }
                if terminals.len() < 2 {
                    return Err(parse_error(
                        line,
                        format!("gate `{primitive}` needs an output and at least one input"),
                    ));
                }
                let output = terminals.remove(0);
                gates.push(PendingGate {
                    line,
                    ty,
                    output,
                    inputs: terminals,
                    complement: false,
                });
            }
        }
    }

    if !saw_endmodule {
        return Err(parse_error(
            statements.last().map(|s| s.line).unwrap_or(1),
            "missing `endmodule`",
        ));
    }
    let module_name = module_name.ok_or_else(|| parse_error(1, "missing `module` header"))?;

    // Silence the unused-field warning path: complement is encoded in `ty`.
    debug_assert!(gates.iter().all(|g| !g.complement || g.ty == GateType::Not));
    let _ = &wires;

    let mut circuit = Circuit::new(module_name);
    let mut net_of: HashMap<String, NetId> = HashMap::new();
    for (line, input) in &inputs {
        let id = circuit.add_input(input.clone()).map_err(|e| match e {
            NetlistError::DuplicateNet(n) => {
                parse_error(*line, format!("input `{n}` declared twice"))
            }
            other => other,
        })?;
        net_of.insert(input.clone(), id);
    }
    for (line, name, value) in &constants {
        let ty = if *value {
            GateType::Const1
        } else {
            GateType::Const0
        };
        let id = circuit
            .add_gate(ty, name.clone(), &[])
            .map_err(|e| parse_error(*line, e.to_string()))?;
        net_of.insert(name.clone(), id);
    }

    // Resolve gates in dependency order, as the `.bench` parser does.
    let mut remaining = gates;
    while !remaining.is_empty() {
        let mut progressed = false;
        let mut next_round = Vec::new();
        for gate in remaining {
            if gate.inputs.iter().all(|i| net_of.contains_key(i)) {
                let input_ids: Vec<NetId> = gate.inputs.iter().map(|i| net_of[i]).collect();
                let out = circuit
                    .add_gate(gate.ty, gate.output.clone(), &input_ids)
                    .map_err(|e| parse_error(gate.line, e.to_string()))?;
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
            return Err(parse_error(
                gate.line,
                format!(
                    "net `{missing}` driving `{}` is never defined (or the netlist is cyclic)",
                    gate.output
                ),
            ));
        }
        remaining = next_round;
    }

    for (line, output) in &outputs {
        let id = net_of
            .get(output)
            .copied()
            .ok_or_else(|| parse_error(*line, format!("output `{output}` is never driven")))?;
        circuit.mark_output(id);
    }
    Ok(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;
    use crate::sim::exhaustively_equivalent;

    const HALF_ADDER: &str = "
// a half adder
module half_adder (a, b, sum, carry);
  input a, b;
  output sum, carry;

  xor g0 (sum, a, b);
  and g1 (carry, a, b);
endmodule
";

    #[test]
    fn parses_a_simple_module() {
        let c = parse(HALF_ADDER).unwrap();
        assert_eq!(c.name(), "half_adder");
        assert_eq!(c.num_inputs(), 2);
        assert_eq!(c.num_outputs(), 2);
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.simulate(&[true, false]).unwrap(), vec![true, false]);
        assert_eq!(c.simulate(&[true, true]).unwrap(), vec![false, true]);
    }

    #[test]
    fn write_then_parse_round_trips_function() {
        let c = parse(HALF_ADDER).unwrap();
        let text = write(&c).unwrap();
        let d = parse(&text).unwrap();
        assert_eq!(c.num_inputs(), d.num_inputs());
        assert_eq!(c.num_outputs(), d.num_outputs());
        assert!(exhaustively_equivalent(&c, &d).unwrap());
    }

    #[test]
    fn bench_to_verilog_round_trip() {
        let bench_text = "
INPUT(G1)
INPUT(G2)
INPUT(keyinput0)
OUTPUT(G17)
n$1 = NAND(G1, keyinput0)
one = CONST1()
G17 = AND(n$1, G2, one)
";
        let from_bench = bench::parse("locked", bench_text).unwrap();
        let verilog_text = write(&from_bench).unwrap();
        let from_verilog = parse(&verilog_text).unwrap();
        assert_eq!(from_verilog.key_inputs().len(), 1);
        assert!(exhaustively_equivalent(&from_bench, &from_verilog).unwrap());
    }

    #[test]
    fn escaped_identifiers_round_trip() {
        let mut c = Circuit::new("esc");
        let a = c.add_input("3weird").unwrap();
        let b = c.add_input("ok_name").unwrap();
        let o = c.add_gate(GateType::Or, "out[0]", &[a, b]).unwrap();
        c.mark_output(o);
        let text = write(&c).unwrap();
        assert!(text.contains("\\3weird "));
        let d = parse(&text).unwrap();
        assert_eq!(d.num_inputs(), 2);
        assert!(exhaustively_equivalent(&c, &d).unwrap());
    }

    #[test]
    fn assign_constants_and_inverters_parse() {
        let text = "
module tiny (a, y, z);
  input a;
  output y, z;
  wire c1, na;
  assign c1 = 1'b1;
  assign na = ~a;
  and g0 (y, na, c1);
  assign z = a;
endmodule
";
        let c = parse(text).unwrap();
        assert_eq!(c.simulate(&[false]).unwrap(), vec![true, false]);
        assert_eq!(c.simulate(&[true]).unwrap(), vec![false, true]);
    }

    #[test]
    fn block_comments_and_instance_names_are_optional() {
        let text = "
module m (a, y);
  input a; output y;
  /* a block
     comment */
  not (y, a);
endmodule
";
        let c = parse(text).unwrap();
        assert_eq!(c.simulate(&[true]).unwrap(), vec![false]);
    }

    #[test]
    fn forward_references_are_resolved() {
        let text = "
module fwd (a, y);
  input a;
  output y;
  wire t;
  not g1 (y, t);
  buf g0 (t, a);
endmodule
";
        let c = parse(text).unwrap();
        assert_eq!(c.simulate(&[true]).unwrap(), vec![false]);
    }

    #[test]
    fn errors_carry_line_numbers_and_name_the_construct() {
        let vector = "module m (a, y);\n  input [3:0] a;\n  output y;\nendmodule\n";
        match parse(vector) {
            Err(NetlistError::Parse { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("vector"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }

        let behavioural = "module m (a, y);\n  input a;\n  output y;\n  reg state;\nendmodule\n";
        match parse(behavioural) {
            Err(NetlistError::Parse { line, message }) => {
                assert_eq!(line, 4);
                assert!(message.contains("reg"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }

        let behavioural_block =
            "module m (a, y);\n  input a;\n  output y;\n  always @(a) y = a;\nendmodule\n";
        assert!(matches!(
            parse(behavioural_block),
            Err(NetlistError::Parse { line: 4, .. })
        ));

        let undriven =
            "module m (a, y);\n  input a;\n  output y;\n  and g0 (y, a, ghost);\nendmodule\n";
        match parse(undriven) {
            Err(NetlistError::Parse { line, message }) => {
                assert_eq!(line, 4);
                assert!(message.contains("ghost"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_endmodule_is_an_error() {
        let text = "module m (a, y);\n  input a;\n  output y;\n  buf g0 (y, a);\n";
        assert!(matches!(parse(text), Err(NetlistError::Parse { .. })));
    }

    #[test]
    fn two_modules_are_rejected() {
        let text = "module a (); endmodule\nmodule b (); endmodule\n";
        match parse(text) {
            Err(NetlistError::Parse { message, .. }) => assert!(message.contains("single module")),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_and_input_outputs_get_fresh_ports() {
        let mut c = Circuit::new("dup");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let o = c.add_gate(GateType::And, "o", &[a, b]).unwrap();
        c.mark_output(o);
        c.mark_output(o); // duplicate
        c.mark_output(a); // input doubles as an output
        let text = write(&c).unwrap();
        let d = parse(&text).unwrap();
        assert_eq!(d.num_outputs(), 3);
        // Functional check on all four patterns.
        for pattern in 0u32..4 {
            let bits = vec![pattern & 1 != 0, pattern & 2 != 0];
            let original = [bits[0] && bits[1], bits[0] && bits[1], bits[0]];
            assert_eq!(d.simulate(&bits).unwrap(), original);
        }
    }

    #[test]
    fn unterminated_block_comment_is_an_error() {
        let text = "module m (a, y);\n  /* never closed\n  input a;\n";
        assert!(matches!(
            parse(text),
            Err(NetlistError::Parse { line: 2, .. })
        ));
    }

    proptest::proptest! {
        /// Random circuits (with awkward net names included) survive the
        /// Verilog write → parse round trip functionally intact.
        #[test]
        fn prop_verilog_round_trip_preserves_function(seed in 0u64..40) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(13));
            let mut c = Circuit::new(format!("rand{seed}"));
            let mut nets: Vec<NetId> = (0..5)
                .map(|i| {
                    let name = if i % 2 == 0 { format!("in{i}") } else { format!("{i}w$eird") };
                    c.add_input(name).unwrap()
                })
                .collect();
            let kinds = [
                GateType::And, GateType::Nand, GateType::Or, GateType::Nor,
                GateType::Xor, GateType::Xnor, GateType::Not, GateType::Buf,
                GateType::Const0, GateType::Const1,
            ];
            for g in 0..12 {
                let ty = kinds[rng.gen_range(0..kinds.len())];
                let arity = match ty {
                    GateType::Const0 | GateType::Const1 => 0,
                    GateType::Not | GateType::Buf => 1,
                    _ => rng.gen_range(2..4usize),
                };
                let ins: Vec<NetId> =
                    (0..arity).map(|_| nets[rng.gen_range(0..nets.len())]).collect();
                nets.push(c.add_gate(ty, format!("g{g}"), &ins).unwrap());
            }
            c.mark_output(*nets.last().unwrap());
            c.mark_output(nets[6]);

            let text = write(&c).unwrap();
            let parsed = parse(&text).unwrap();
            proptest::prop_assert_eq!(c.num_inputs(), parsed.num_inputs());
            proptest::prop_assert_eq!(c.num_outputs(), parsed.num_outputs());
            proptest::prop_assert!(exhaustively_equivalent(&c, &parsed).unwrap());
        }
    }
}
