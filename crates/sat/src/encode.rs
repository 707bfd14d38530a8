//! Tseitin encoding of and-inverter graphs into solver clauses.
//!
//! Every SAT query of the suite is posed on an [`Aig`]: the caller lowers
//! its circuits with [`Aig::lower_circuit`] or [`Aig::add_circuit`]
//! (inputs shared by name, so miters and cofactor pairs hash their common
//! logic together), registers the edges it wants to constrain as outputs,
//! and [`encode_aig`] emits the CNF image into a live [`Solver`] or a
//! [`Cnf`](crate::cnf::Cnf) headed for DIMACS export. Input variables can be
//! *shared* with earlier encodings by name, which is how the CEGAR loops add
//! counterexample copies over one set of key variables.
//!
//! [`Solver`]: crate::Solver

use crate::cnf::ClauseSink;
use crate::lit::{Lit, Var};
use kratt_netlist::{Aig, AigLit};
use std::collections::HashMap;

/// The result of encoding an [`Aig`] into a solver: input variables by name
/// and position, plus one *literal* per output (an AIG output is an edge, so
/// its CNF image carries a phase).
#[derive(Debug, Clone)]
pub struct AigEncoding {
    /// `(name, var)` for each AIG input, in declaration order.
    inputs: Vec<(String, Var)>,
    input_by_name: HashMap<String, Var>,
    /// Variable of each node, where one was allocated (internal nodes of
    /// collapsed AND cones and absorbed XOR children have none).
    node_vars: Vec<Option<Var>>,
    /// Output literals, in AIG output order.
    outputs: Vec<Lit>,
}

impl AigEncoding {
    /// `(name, variable)` pairs for the inputs, in AIG input order.
    pub fn inputs(&self) -> &[(String, Var)] {
        &self.inputs
    }

    /// The variable of the input with the given name.
    pub fn input_var(&self, name: &str) -> Option<Var> {
        self.input_by_name.get(name).copied()
    }

    /// The CNF literal of an AIG edge, if its node was materialised.
    /// Internal nodes of collapsed AND cones / absorbed XOR children have no
    /// variable; constants only have one when some registered output is
    /// constant.
    pub fn lit_of(&self, lit: AigLit) -> Option<Lit> {
        self.node_vars[lit.node() as usize]
            .map(|var| Lit::with_polarity(var, !lit.is_complemented()))
    }

    /// Output literals, in AIG output order.
    pub fn outputs(&self) -> &[Lit] {
        &self.outputs
    }
}

/// Encodes an [`Aig`] into `solver` (any [`ClauseSink`]). The image is
/// compact:
///
/// * only nodes in the cone of the registered outputs are encoded
///   (dangling logic costs nothing);
/// * inverters and buffers are complement edges — no variable, no
///   clauses;
/// * single-fanout AND trees collapse into one k-ary conjunction
///   (`k + 1` clauses, one variable);
/// * the three-node XOR/XNOR shape is recognised and emitted as the
///   four-clause XOR constraint, absorbing its two single-fanout
///   children.
///
/// A registered output node always keeps its own variable, so every output
/// edge has a literal to assume or assert.
///
/// `shared_inputs` maps AIG input *names* to existing solver variables;
/// inputs found in the map reuse that variable instead of getting a fresh
/// one. Every AIG input receives a variable (shared or fresh) whether or
/// not it feeds an output cone, so counterexamples can always be read back
/// over the full interface, by name or by input position.
pub fn encode_aig<S: ClauseSink>(
    solver: &mut S,
    aig: &Aig,
    shared_inputs: &HashMap<String, Var>,
) -> AigEncoding {
    let n = aig.num_nodes();
    let cone = aig.cone(aig.outputs());
    let refs = aig.reference_counts(&cone);
    let is_output_node = {
        let mut mark = vec![false; n];
        for lit in aig.outputs() {
            mark[lit.node() as usize] = true;
        }
        mark
    };

    // --- Pattern detection pass (ascending = topological order). -------
    // `xor_def[n] = (a, b)` means node n is encoded as `n ↔ a ⊕ b`;
    // `absorbed[m]` marks nodes folded into a parent's constraint.
    let mut xor_def: Vec<Option<(AigLit, AigLit)>> = vec![None; n];
    let mut absorbed = vec![false; n];
    for node in 1..n as u32 {
        if !cone[node as usize] || !aig.is_and(node) {
            continue;
        }
        let (f0, f1) = aig.fanins(node);
        if !(f0.is_complemented() && f1.is_complemented()) {
            continue;
        }
        let (c0, c1) = (f0.node(), f1.node());
        let absorbable = |c: u32| {
            aig.is_and(c)
                && refs[c as usize] == 1
                && !is_output_node[c as usize]
                && !absorbed[c as usize]
        };
        if !absorbable(c0) || !absorbable(c1) {
            continue;
        }
        let (a0, b0) = aig.fanins(c0);
        let (a1, b1) = aig.fanins(c1);
        // XOR shape: the two children conjoin complementary literal
        // pairs. Grandchildren must themselves carry variables.
        let complementary = (a1 == a0.complement() && b1 == b0.complement())
            || (a1 == b0.complement() && b1 == a0.complement());
        let materialised = |l: AigLit| !absorbed[l.node() as usize];
        if complementary && materialised(a0) && materialised(b0) {
            xor_def[node as usize] = Some((a0, b0));
            absorbed[c0 as usize] = true;
            absorbed[c1 as usize] = true;
        }
    }
    // AND-cone collapse: a plain, single-fanout AND feeding another
    // encoded AND disappears into its parent's k-ary conjunction.
    let mut internal = vec![false; n];
    for node in 1..n as u32 {
        if !cone[node as usize]
            || !aig.is_and(node)
            || absorbed[node as usize]
            || xor_def[node as usize].is_some()
        {
            continue;
        }
        let (f0, f1) = aig.fanins(node);
        for f in [f0, f1] {
            let m = f.node() as usize;
            if !f.is_complemented()
                && aig.is_and(f.node())
                && refs[m] == 1
                && !is_output_node[m]
                && !absorbed[m]
                && xor_def[m].is_none()
            {
                internal[m] = true;
            }
        }
    }

    // --- Variable allocation. ------------------------------------------
    let mut node_vars: Vec<Option<Var>> = vec![None; n];
    let mut inputs = Vec::with_capacity(aig.num_inputs());
    for (&node, name) in aig.input_nodes().iter().zip(aig.input_names()) {
        let var = shared_inputs
            .get(name)
            .copied()
            .unwrap_or_else(|| solver.new_var());
        node_vars[node as usize] = Some(var);
        inputs.push((name.clone(), var));
    }
    if aig.outputs().iter().any(|lit| lit.is_constant()) {
        // A pinned variable standing in for the constant node (whose
        // plain value is false), so constant outputs still have a CNF
        // literal.
        let constant = solver.new_var();
        solver.add_clause([Lit::negative(constant)]);
        node_vars[0] = Some(constant);
    }
    for node in 1..n as u32 {
        let i = node as usize;
        if cone[i] && aig.is_and(node) && !absorbed[i] && !internal[i] {
            node_vars[i] = Some(solver.new_var());
        }
    }
    let lit_of = |node_vars: &[Option<Var>], l: AigLit| -> Lit {
        let var = node_vars[l.node() as usize].expect("referenced node materialised");
        Lit::with_polarity(var, !l.is_complemented())
    };

    // --- Clause emission. ----------------------------------------------
    for node in 1..n as u32 {
        let i = node as usize;
        if !cone[i] || !aig.is_and(node) || absorbed[i] || internal[i] {
            continue;
        }
        let out = node_vars[i].expect("allocated above");
        if let Some((a, b)) = xor_def[i] {
            let (la, lb) = (lit_of(&node_vars, a), lit_of(&node_vars, b));
            solver.add_clause([Lit::negative(out), la, lb]);
            solver.add_clause([Lit::negative(out), !la, !lb]);
            solver.add_clause([Lit::positive(out), !la, lb]);
            solver.add_clause([Lit::positive(out), la, !lb]);
            continue;
        }
        // Gather the conjunction's leaves through internal children.
        let mut leaves: Vec<Lit> = Vec::new();
        let mut stack = vec![node];
        while let Some(m) = stack.pop() {
            let (f0, f1) = aig.fanins(m);
            for f in [f0, f1] {
                if !f.is_complemented() && internal[f.node() as usize] {
                    stack.push(f.node());
                } else {
                    leaves.push(lit_of(&node_vars, f));
                }
            }
        }
        for &leaf in &leaves {
            solver.add_clause([Lit::negative(out), leaf]);
        }
        let mut clause: Vec<Lit> = leaves.iter().map(|&l| !l).collect();
        clause.push(Lit::positive(out));
        solver.add_clause(clause);
    }

    let outputs = aig
        .outputs()
        .iter()
        .map(|&l| lit_of(&node_vars, l))
        .collect();
    let input_by_name = inputs.iter().cloned().collect();
    AigEncoding {
        inputs,
        input_by_name,
        node_vars,
        outputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Cnf;
    use crate::solver::{SatResult, Solver};
    use kratt_netlist::sim::Simulator;
    use kratt_netlist::{Circuit, GateType, NetId};

    fn full_adder() -> Circuit {
        let mut c = Circuit::new("fa");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let cin = c.add_input("cin").unwrap();
        let s1 = c.add_gate(GateType::Xor, "s1", &[a, b]).unwrap();
        let sum = c.add_gate(GateType::Xor, "sum", &[s1, cin]).unwrap();
        let c1 = c.add_gate(GateType::And, "c1", &[a, b]).unwrap();
        let c2 = c.add_gate(GateType::And, "c2", &[s1, cin]).unwrap();
        let cout = c.add_gate(GateType::Or, "cout", &[c1, c2]).unwrap();
        c.mark_output(sum);
        c.mark_output(cout);
        c
    }

    /// For every input pattern, constrain the AIG encoding's inputs and
    /// check the solver agrees with the circuit simulator on the outputs.
    fn check_aig_encoding_matches_simulation(circuit: &Circuit) {
        let sim = Simulator::new(circuit).unwrap();
        let aig = Aig::from_circuit(circuit).unwrap();
        let n = circuit.num_inputs();
        let mut solver = Solver::new();
        let encoding = encode_aig(&mut solver, &aig, &HashMap::new());
        for pattern in 0u64..(1u64 << n) {
            let bits: Vec<bool> = (0..n).map(|i| pattern >> i & 1 != 0).collect();
            let expected = sim.run(&bits).unwrap();
            let assumptions: Vec<Lit> = encoding
                .inputs()
                .iter()
                .zip(&bits)
                .map(|(&(_, var), &value)| Lit::with_polarity(var, value))
                .collect();
            match solver.solve_with_assumptions(&assumptions) {
                SatResult::Sat(model) => {
                    for (i, &out_lit) in encoding.outputs().iter().enumerate() {
                        assert_eq!(
                            model.lit_is_true(out_lit),
                            expected[i],
                            "pattern {pattern:b}"
                        );
                    }
                }
                other => panic!("AIG encoding should be satisfiable, got {other:?}"),
            }
        }
    }

    #[test]
    fn aig_encoding_matches_simulation_on_the_gate_zoo() {
        check_aig_encoding_matches_simulation(&full_adder());
        let mut c = Circuit::new("zoo");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let d = c.add_input("d").unwrap();
        let g1 = c.add_gate(GateType::Nand, "g1", &[a, b, d]).unwrap();
        let g2 = c.add_gate(GateType::Nor, "g2", &[a, b]).unwrap();
        let g3 = c.add_gate(GateType::Xnor, "g3", &[g1, g2, d]).unwrap();
        let g4 = c.add_gate(GateType::Not, "g4", &[g3]).unwrap();
        let buf = c.add_gate(GateType::Buf, "buf", &[g4]).unwrap();
        let one = c.add_gate(GateType::Const1, "one", &[]).unwrap();
        let g5 = c.add_gate(GateType::Xor, "g5", &[buf, one]).unwrap();
        let zero = c.add_gate(GateType::Const0, "zero", &[]).unwrap();
        let g6 = c.add_gate(GateType::Or, "g6", &[g5, zero, g2, a]).unwrap();
        c.mark_output(g6);
        c.mark_output(g3);
        c.mark_output(one);
        c.mark_output(zero);
        check_aig_encoding_matches_simulation(&c);
    }

    #[test]
    fn aig_encoding_collapses_and_trees_and_xor_shapes() {
        // A netlist with inverters, buffers, a multi-input AND and dangling
        // logic — everything the AIG image elides.
        let mut c = Circuit::new("shrink");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let d = c.add_input("d").unwrap();
        let na = c.add_gate(GateType::Not, "na", &[a]).unwrap();
        let buf = c.add_gate(GateType::Buf, "buf", &[na]).unwrap();
        let wide = c.add_gate(GateType::And, "wide", &[buf, b, d]).unwrap();
        let x = c.add_gate(GateType::Xor, "x", &[wide, a]).unwrap();
        let _dangling = c.add_gate(GateType::Or, "dang", &[b, d]).unwrap();
        c.mark_output(x);

        let aig = Aig::from_circuit(&c).unwrap();
        let mut cnf = Cnf::new();
        encode_aig(&mut cnf, &aig, &HashMap::new());
        // The k-ary AND collapse keeps the wide conjunction at one variable
        // (three binary clauses and one long one) and the XOR shape is
        // recognised (four clauses): inputs + AND root + XOR root.
        assert_eq!(cnf.num_vars(), 3 + 2);
        assert_eq!(cnf.num_clauses(), 4 + 4);
    }

    #[test]
    fn aig_miter_shares_logic_between_the_halves() {
        let mut x = Circuit::new("xor_direct");
        let a = x.add_input("a").unwrap();
        let b = x.add_input("b").unwrap();
        let o = x.add_gate(GateType::Xor, "o", &[a, b]).unwrap();
        x.mark_output(o);

        let mut y = Circuit::new("xor_sop");
        let a = y.add_input("a").unwrap();
        let b = y.add_input("b").unwrap();
        let na = y.add_gate(GateType::Not, "na", &[a]).unwrap();
        let nb = y.add_gate(GateType::Not, "nb", &[b]).unwrap();
        let t1 = y.add_gate(GateType::And, "t1", &[a, nb]).unwrap();
        let t2 = y.add_gate(GateType::And, "t2", &[na, b]).unwrap();
        let o = y.add_gate(GateType::Or, "o2", &[t1, t2]).unwrap();
        y.mark_output(o);

        // Equivalent halves: the AIG miter is UNSAT.
        let mut aig = Aig::new("miter");
        let outs_x = aig.add_circuit(&x).unwrap();
        let outs_y = aig.add_circuit(&y).unwrap();
        let miter = aig.miter(&outs_x, &outs_y);
        let mut miter_aig = aig.clone();
        miter_aig.add_output("diff", miter);
        let mut solver = Solver::new();
        let enc = encode_aig(&mut solver, &miter_aig, &HashMap::new());
        let diff = *enc.outputs().last().unwrap();
        solver.add_clause([diff]);
        assert!(solver.solve().is_unsat());

        // A non-equivalent half makes it SAT.
        let mut z = Circuit::new("and2");
        let a = z.add_input("a").unwrap();
        let b = z.add_input("b").unwrap();
        let o = z.add_gate(GateType::And, "o3", &[a, b]).unwrap();
        z.mark_output(o);
        let mut aig = Aig::new("miter2");
        let outs_x = aig.add_circuit(&x).unwrap();
        let outs_z = aig.add_circuit(&z).unwrap();
        let miter = aig.miter(&outs_x, &outs_z);
        aig.add_output("diff", miter);
        let mut solver = Solver::new();
        let enc = encode_aig(&mut solver, &aig, &HashMap::new());
        let diff = *enc.outputs().last().unwrap();
        solver.add_clause([diff]);
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn aig_encoding_handles_constant_outputs() {
        let mut aig = Aig::new("consts");
        let a = aig.add_input("a");
        aig.add_output("t", kratt_netlist::AigLit::TRUE);
        aig.add_output("f", kratt_netlist::AigLit::FALSE);
        aig.add_output("pass", a.complement());
        let mut solver = Solver::new();
        let enc = encode_aig(&mut solver, &aig, &HashMap::new());
        match solver.solve() {
            SatResult::Sat(model) => {
                assert!(model.lit_is_true(enc.outputs()[0]));
                assert!(!model.lit_is_true(enc.outputs()[1]));
                let a_var = enc.input_var("a").unwrap();
                assert_eq!(model.lit_is_true(enc.outputs()[2]), !model.value(a_var));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    proptest::proptest! {
        /// Random circuits: the AIG encoding agrees bit-for-bit with the
        /// packed AIG simulation (and hence with the circuit simulator, per
        /// the netlist crate's own round-trip property).
        #[test]
        fn prop_aig_encoding_agrees_with_simulation(seed in 0u64..100) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(77));
            let mut c = Circuit::new(format!("rand{seed}"));
            let n_inputs = 5usize;
            let mut nets: Vec<NetId> =
                (0..n_inputs).map(|i| c.add_input(format!("i{i}")).unwrap()).collect();
            let kinds = [
                GateType::And, GateType::Nand, GateType::Or, GateType::Nor,
                GateType::Xor, GateType::Xnor, GateType::Not, GateType::Buf,
            ];
            for g in 0..15 {
                let ty = kinds[rng.gen_range(0..kinds.len())];
                let arity = if matches!(ty, GateType::Not | GateType::Buf) {
                    1
                } else {
                    rng.gen_range(2..4usize)
                };
                let ins: Vec<NetId> =
                    (0..arity).map(|_| nets[rng.gen_range(0..nets.len())]).collect();
                nets.push(c.add_gate(ty, format!("g{g}"), &ins).unwrap());
            }
            c.mark_output(*nets.last().unwrap());
            c.mark_output(nets[n_inputs + 3]);

            let sim = Simulator::new(&c).unwrap();
            let aig = Aig::from_circuit(&c).unwrap();
            let mut solver = Solver::new();
            let encoding = encode_aig(&mut solver, &aig, &HashMap::new());
            for _ in 0..8 {
                let bits: Vec<bool> = (0..n_inputs).map(|_| rng.gen_bool(0.5)).collect();
                let expected = sim.run(&bits).unwrap();
                let assumptions: Vec<Lit> = encoding
                    .inputs()
                    .iter()
                    .zip(&bits)
                    .map(|(&(_, var), &value)| Lit::with_polarity(var, value))
                    .collect();
                match solver.solve_with_assumptions(&assumptions) {
                    SatResult::Sat(model) => {
                        for (i, &out_lit) in encoding.outputs().iter().enumerate() {
                            proptest::prop_assert_eq!(model.lit_is_true(out_lit), expected[i]);
                        }
                    }
                    other => {
                        return Err(proptest::test_runner::TestCaseError::fail(
                            format!("expected SAT, got {other:?}"),
                        ));
                    }
                }
            }
        }
    }
}
