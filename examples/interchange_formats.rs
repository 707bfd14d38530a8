//! Interchange formats: `.bench`, structural Verilog, DIMACS and QDIMACS.
//!
//! The original KRATT tool lives in an ecosystem of external tools — locked
//! benchmarks arrive as `.bench` files, synthesis tools speak Verilog, and
//! the SAT/QBF instances are handed to CryptoMiniSat/DepQBF as DIMACS and
//! QDIMACS. This example locks a small circuit and round-trips it through all
//! four formats, showing how a user would plug real benchmark files or
//! external solvers into the reproduction.
//!
//! Run with `cargo run --example interchange_formats`.

use kratt::removal::remove_locking_unit;
use kratt_benchmarks::small::majority;
use kratt_locking::{LockingTechnique, SarLock, SecretKey};
use kratt_netlist::sim::exhaustively_equivalent;
use kratt_netlist::{bench, verilog, Aig};
use kratt_qbf::ExistsForallSolver;
use kratt_sat::cnf::{ClauseSink, Cnf};
use kratt_sat::encode_aig;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Lock the running example with SARLock.
    let original = majority();
    let secret = SecretKey::from_u64(0b100, 3);
    let locked = SarLock::new(3).lock(&original, &secret)?;
    println!("locked circuit: {}", locked.circuit);

    // --- .bench and structural Verilog round trips -------------------------
    let bench_text = bench::write(&locked.circuit)?;
    println!(
        "\n--- locked netlist in .bench ({} lines) ---",
        bench_text.lines().count()
    );
    let reparsed_bench = bench::parse(locked.circuit.name(), &bench_text)?;
    assert!(exhaustively_equivalent(&locked.circuit, &reparsed_bench)?);

    let verilog_text = verilog::write(&locked.circuit)?;
    println!(
        "--- locked netlist in Verilog ({} lines) ---",
        verilog_text.lines().count()
    );
    println!(
        "{}",
        verilog_text.lines().take(8).collect::<Vec<_>>().join("\n")
    );
    println!("  ...");
    let reparsed_verilog = verilog::parse(&verilog_text)?;
    assert!(exhaustively_equivalent(&locked.circuit, &reparsed_verilog)?);
    println!("both round trips preserve the locked function");

    // --- DIMACS export of the AIG's Tseitin encoding -----------------------
    let mut cnf = Cnf::new();
    let aig = Aig::from_circuit(&locked.circuit)?;
    let encoding = encode_aig(&mut cnf, &aig, &HashMap::new());
    // Pin the locked output to 1 just to make the instance non-trivial.
    cnf.add_clause([encoding.outputs()[0]]);
    let dimacs = cnf.to_dimacs_with_comments(&["locked majority, output forced to 1"]);
    println!(
        "\n--- DIMACS CNF: {} variables, {} clauses (feed to any SAT solver) ---",
        cnf.num_vars(),
        cnf.num_clauses()
    );
    println!("{}", dimacs.lines().take(4).collect::<Vec<_>>().join("\n"));
    println!("  ...");
    assert!(Cnf::from_dimacs(&dimacs)?.solve().is_sat());

    // --- QDIMACS export of KRATT's ∃K ∀PPI instance -------------------------
    let artifacts = remove_locking_unit(&locked.circuit)?;
    let unit = &artifacts.unit;
    let solver = ExistsForallSolver::new(
        unit,
        &unit.key_inputs(),
        &unit.data_inputs(),
        unit.outputs()[0],
        false,
    );
    let qdimacs = solver.to_qdimacs();
    println!(
        "\n--- QDIMACS (the instance the paper hands to DepQBF), {} lines ---",
        qdimacs.lines().count()
    );
    println!(
        "{}",
        qdimacs.lines().take(10).collect::<Vec<_>>().join("\n")
    );
    println!("  ...");

    // The in-tree 2QBF engine solves the same instance and finds the secret.
    let result = solver.solve();
    let witness = result.witness().expect("SARLock unit is breakable");
    let recovered: u64 = (0..3)
        .map(|i| u64::from(witness[&format!("keyinput{i}")]) << i)
        .sum();
    println!(
        "in-tree 2QBF solver recovers key {recovered:03b} (secret {})",
        secret
    );
    assert_eq!(recovered, secret.to_u64());
    Ok(())
}
