//! Optimisation and mapping passes that complement the randomized
//! resynthesis: SAT sweeping and technology mapping onto a small cell
//! library.
//!
//! Commercial synthesis (the Cadence Genus runs the paper uses to harden its
//! locked netlists) does more than local restructuring: it merges
//! functionally equivalent logic and maps the result onto a standard-cell
//! library. These passes reproduce those two effects so that the attack
//! evaluation can also be run on netlists that look like mapped silicon
//! rather than like the textbook locking constructions:
//!
//! * [`sat_sweep`] — proves pairs of internal nets equivalent with the CDCL
//!   solver (candidate pairs come from random-simulation signatures) and
//!   merges them.
//! * [`map_to_cell_library`] — rewrites every gate into a chosen two-level
//!   cell library (NAND2+INV or NOR2+INV), the classical technology-mapping
//!   target.
//!
//! Both passes preserve the primary interface and the circuit function, and
//! compose with [`resynthesize`](crate::resynthesize):
//!
//! ```
//! use kratt_netlist::{Circuit, GateType};
//! use kratt_synth::passes::{map_to_cell_library, sat_sweep, CellLibrary, SatSweepOptions};
//! use kratt_synth::{resynthesize, ResynthesisOptions};
//!
//! # fn main() -> Result<(), kratt_synth::SynthError> {
//! let mut c = Circuit::new("toy");
//! let a = c.add_input("a")?;
//! let b = c.add_input("b")?;
//! let x = c.add_gate(GateType::Xor, "x", &[a, b])?;
//! c.mark_output(x);
//! let variant = resynthesize(&c, &ResynthesisOptions::with_seed(7))?;
//! let swept = sat_sweep(&variant, &SatSweepOptions::default())?;
//! let mapped = map_to_cell_library(&swept, CellLibrary::Nand2Inv)?;
//! assert!(kratt_netlist::sim::exhaustively_equivalent(&c, &mapped)?);
//! # Ok(())
//! # }
//! ```

use crate::resynth::{add_preferring_name, rebuild};
use crate::SynthError;
use kratt_netlist::analysis::topological_order;
use kratt_netlist::sim::Simulator;
use kratt_netlist::transform::{propagate_constants, prune_dangling};
use kratt_netlist::{Aig, Circuit, GateType, NetId};
use kratt_sat::{encode_aig, Solver, SolverConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Budget and seeding of one [`sat_sweep`] run.
#[derive(Debug, Clone)]
pub struct SatSweepOptions {
    /// Rounds of 64-pattern random simulation used to build candidate
    /// signatures (more rounds ⇒ fewer false candidates ⇒ fewer SAT calls).
    pub simulation_rounds: usize,
    /// Maximum number of equivalence SAT queries.
    pub max_sat_checks: usize,
    /// Conflict budget per SAT query; an inconclusive query leaves the pair
    /// unmerged (sound but incomplete).
    pub sat_conflict_limit: Option<u64>,
    /// Seed of the signature simulation.
    pub seed: u64,
}

impl Default for SatSweepOptions {
    fn default() -> Self {
        SatSweepOptions {
            simulation_rounds: 4,
            max_sat_checks: 20_000,
            sat_conflict_limit: Some(50_000),
            seed: 0x5eed,
        }
    }
}

/// Statistics of one [`sat_sweep`] run, returned alongside the swept circuit
/// by [`sat_sweep_with_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatSweepStats {
    /// Candidate pairs handed to the SAT solver.
    pub sat_checks: usize,
    /// Nets proved equivalent and merged.
    pub merged_nets: usize,
}

/// Merges functionally equivalent internal nets, proven by the CDCL solver.
///
/// Candidate pairs are nets with identical random-simulation signatures; each
/// candidate is confirmed with an equivalence SAT query before its consumers
/// are rewired. Primary inputs are never merged away and the primary
/// interface is preserved.
///
/// # Errors
///
/// Returns an error if the circuit is cyclic.
pub fn sat_sweep(circuit: &Circuit, options: &SatSweepOptions) -> Result<Circuit, SynthError> {
    sat_sweep_with_stats(circuit, options).map(|(c, _)| c)
}

/// [`sat_sweep`], additionally reporting how much work was done.
///
/// # Errors
///
/// Returns an error if the circuit is cyclic.
pub fn sat_sweep_with_stats(
    circuit: &Circuit,
    options: &SatSweepOptions,
) -> Result<(Circuit, SatSweepStats), SynthError> {
    let mut stats = SatSweepStats::default();
    let order = topological_order(circuit)?;

    // --- Signatures from bit-parallel random simulation. -------------------
    let simulator = Simulator::new(circuit)?;
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut signatures: Vec<Vec<u64>> = vec![Vec::new(); circuit.num_nets()];
    for _ in 0..options.simulation_rounds.max(1) {
        let inputs: Vec<u64> = (0..circuit.num_inputs()).map(|_| rng.gen()).collect();
        let values = simulator.run_words_full(&inputs)?;
        for net in circuit.nets() {
            signatures[net.index()].push(values[net.index()]);
        }
    }

    // --- Candidate classes: gate outputs grouped by signature. -------------
    // Classes are numbered as they first appear along `order`, so they come
    // in topological order of their representatives (the earliest member)
    // and each class lists its members topologically. A binding
    // `max_sat_checks` therefore spends its budget on the same pairs on
    // every call.
    let mut class_index: HashMap<&[u64], usize> = HashMap::new();
    let mut classes: Vec<Vec<NetId>> = Vec::new();
    for &gid in order.iter() {
        let out = circuit.gate(gid).output;
        let class = *class_index
            .entry(&signatures[out.index()])
            .or_insert_with(|| {
                classes.push(Vec::new());
                classes.len() - 1
            });
        classes[class].push(out);
    }

    // --- Candidate pairs: each class member against its representative. ---
    let mut pairs: Vec<(NetId, NetId)> = Vec::new();
    for members in &classes {
        let representative = members[0];
        for &candidate in &members[1..] {
            if pairs.len() >= options.max_sat_checks {
                break;
            }
            pairs.push((representative, candidate));
        }
    }

    // --- Confirm candidates with SAT and record representatives. ----------
    // One AIG image of the circuit with one XOR output per pair; a pair is
    // equivalent when its XOR cannot be 1. Pairs whose nets hash to one edge
    // still count as a query (their XOR is constant 0).
    let mut aig = Aig::new(circuit.name());
    let lits = aig.lower_circuit(circuit, &HashMap::new())?;
    for &(representative, candidate) in &pairs {
        let diff = aig.xor(lits[representative.index()], lits[candidate.index()]);
        aig.add_output(circuit.net_name(candidate), diff);
    }
    let mut solver = Solver::with_config(SolverConfig {
        conflict_limit: options.sat_conflict_limit,
        ..Default::default()
    });
    let encoding = encode_aig(&mut solver, &aig, &HashMap::new());
    let mut replace: HashMap<NetId, NetId> = HashMap::new();
    for (&(representative, candidate), &diff) in pairs.iter().zip(encoding.outputs()) {
        stats.sat_checks += 1;
        if solver.solve_with_assumptions(&[diff]).is_unsat() {
            replace.insert(candidate, representative);
            stats.merged_nets += 1;
        }
    }

    // --- Rebuild with merged nets forwarded. -------------------------------
    let mut result = Circuit::new(circuit.name().to_string());
    let mut map: HashMap<NetId, NetId> = HashMap::new();
    for &pi in circuit.inputs() {
        let new = result.add_input(circuit.net_name(pi))?;
        map.insert(pi, new);
    }
    for &gid in order.iter() {
        let gate = circuit.gate(gid);
        if let Some(&representative) = replace.get(&gate.output) {
            // Forward to the representative (already materialised, since it
            // precedes this gate topologically).
            let mapped = map[&representative];
            map.insert(gate.output, mapped);
            continue;
        }
        let inputs: Vec<NetId> = gate.inputs.iter().map(|n| map[n]).collect();
        let out =
            add_preferring_name(&mut result, gate.ty, circuit.net_name(gate.output), &inputs)?;
        map.insert(gate.output, out);
    }
    for &o in circuit.outputs() {
        result.mark_output(map[&o]);
    }
    let cleaned = prune_dangling(&propagate_constants(&result)?)?;
    Ok((cleaned, stats))
}

/// A two-cell standard-cell library to map onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellLibrary {
    /// Two-input NAND gates plus inverters.
    Nand2Inv,
    /// Two-input NOR gates plus inverters.
    Nor2Inv,
}

impl CellLibrary {
    /// Whether a gate of the given type and arity is a cell of this library
    /// (constants are always allowed as tie cells).
    pub fn contains(self, ty: GateType, arity: usize) -> bool {
        match ty {
            GateType::Const0 | GateType::Const1 => true,
            GateType::Not => arity == 1,
            GateType::Nand => self == CellLibrary::Nand2Inv && arity == 2,
            GateType::Nor => self == CellLibrary::Nor2Inv && arity == 2,
            _ => false,
        }
    }
}

/// Maps every gate onto the chosen cell library (technology mapping).
///
/// Multi-input gates are first decomposed into two-input chains, then each
/// two-input function is expressed with the library's universal cell and
/// inverters. The primary interface and the function are preserved.
///
/// # Errors
///
/// Returns an error if the circuit is cyclic.
pub fn map_to_cell_library(circuit: &Circuit, library: CellLibrary) -> Result<Circuit, SynthError> {
    let mapped = rebuild(circuit, |dest, ty, inputs, name| {
        match ty {
            GateType::Const0 | GateType::Const1 => add_preferring_name(dest, ty, name, inputs),
            // Buffers carry no logic; their value is forwarded.
            GateType::Buf => Ok(inputs[0]),
            GateType::Not => add_preferring_name(dest, GateType::Not, name, inputs),
            GateType::And | GateType::Nand | GateType::Or | GateType::Nor => {
                let invert = matches!(ty, GateType::Nand | GateType::Nor);
                let base = match ty {
                    GateType::And | GateType::Nand => Binary::And,
                    _ => Binary::Or,
                };
                let mut acc = inputs[0];
                for &next in &inputs[1..] {
                    acc = binary(dest, library, base, acc, next)?;
                }
                if invert {
                    inv_raw(dest, acc)
                } else {
                    Ok(acc)
                }
            }
            GateType::Xor | GateType::Xnor => {
                let mut acc = inputs[0];
                for &next in &inputs[1..] {
                    acc = binary(dest, library, Binary::Xor, acc, next)?;
                }
                if ty == GateType::Xnor {
                    inv_raw(dest, acc)
                } else {
                    Ok(acc)
                }
            }
        }
    })?;
    Ok(propagate_constants(&mapped)?)
}

/// The two-input functions the mapper builds from library cells.
#[derive(Debug, Clone, Copy)]
enum Binary {
    And,
    Or,
    Xor,
}

/// An inverter cell.
fn inv_raw(dest: &mut Circuit, a: NetId) -> Result<NetId, kratt_netlist::NetlistError> {
    dest.add_gate_auto(GateType::Not, "map_inv", &[a])
}

fn nand2(dest: &mut Circuit, a: NetId, b: NetId) -> Result<NetId, kratt_netlist::NetlistError> {
    dest.add_gate_auto(GateType::Nand, "map_nand", &[a, b])
}

fn nor2(dest: &mut Circuit, a: NetId, b: NetId) -> Result<NetId, kratt_netlist::NetlistError> {
    dest.add_gate_auto(GateType::Nor, "map_nor", &[a, b])
}

/// Builds a two-input AND/OR/XOR from the library's cells.
fn binary(
    dest: &mut Circuit,
    library: CellLibrary,
    function: Binary,
    a: NetId,
    b: NetId,
) -> Result<NetId, kratt_netlist::NetlistError> {
    match (library, function) {
        (CellLibrary::Nand2Inv, Binary::And) => {
            let n = nand2(dest, a, b)?;
            inv_raw(dest, n)
        }
        (CellLibrary::Nand2Inv, Binary::Or) => {
            let na = inv_raw(dest, a)?;
            let nb = inv_raw(dest, b)?;
            nand2(dest, na, nb)
        }
        (CellLibrary::Nand2Inv, Binary::Xor) => {
            // XOR(a, b) = NAND(NAND(a, n), NAND(b, n)) with n = NAND(a, b).
            let n = nand2(dest, a, b)?;
            let left = nand2(dest, a, n)?;
            let right = nand2(dest, b, n)?;
            nand2(dest, left, right)
        }
        (CellLibrary::Nor2Inv, Binary::Or) => {
            let n = nor2(dest, a, b)?;
            inv_raw(dest, n)
        }
        (CellLibrary::Nor2Inv, Binary::And) => {
            let na = inv_raw(dest, a)?;
            let nb = inv_raw(dest, b)?;
            nor2(dest, na, nb)
        }
        (CellLibrary::Nor2Inv, Binary::Xor) => {
            // XNOR(a, b) = NOR(NOR(a, n), NOR(b, n)) with n = NOR(a, b);
            // XOR is its inversion.
            let n = nor2(dest, a, b)?;
            let left = nor2(dest, a, n)?;
            let right = nor2(dest, b, n)?;
            let xnor = nor2(dest, left, right)?;
            inv_raw(dest, xnor)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_netlist::sim::exhaustively_equivalent;

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new("sample");
        let ins: Vec<NetId> = (0..5)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        let g1 = c
            .add_gate(GateType::And, "g1", &[ins[0], ins[1], ins[2]])
            .unwrap();
        let g2 = c
            .add_gate(GateType::Nor, "g2", &[ins[2], ins[3], ins[4]])
            .unwrap();
        let g3 = c.add_gate(GateType::Xor, "g3", &[g1, g2]).unwrap();
        let g4 = c.add_gate(GateType::Nand, "g4", &[g3, ins[0]]).unwrap();
        let g5 = c.add_gate(GateType::Xnor, "g5", &[g4, g2, ins[4]]).unwrap();
        c.mark_output(g3);
        c.mark_output(g5);
        c
    }

    #[test]
    fn sat_sweep_merges_duplicated_logic() {
        // Build the same AND-OR cone twice with different structure; the
        // sweep must merge the duplicates and shrink the netlist.
        let mut c = Circuit::new("dup");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let d = c.add_input("d").unwrap();
        let and1 = c.add_gate(GateType::And, "and1", &[a, b]).unwrap();
        let or1 = c.add_gate(GateType::Or, "or1", &[and1, d]).unwrap();
        // Same function, built through De Morgan.
        let na = c.add_gate(GateType::Not, "na", &[a]).unwrap();
        let nb = c.add_gate(GateType::Not, "nb", &[b]).unwrap();
        let nor1 = c.add_gate(GateType::Nor, "nor1", &[na, nb]).unwrap();
        let or2 = c.add_gate(GateType::Or, "or2", &[nor1, d]).unwrap();
        let out = c.add_gate(GateType::And, "out", &[or1, or2]).unwrap();
        c.mark_output(out);

        let (swept, stats) = sat_sweep_with_stats(&c, &SatSweepOptions::default()).unwrap();
        assert!(exhaustively_equivalent(&c, &swept).unwrap());
        assert!(stats.merged_nets >= 1, "the duplicated OR cone must merge");
        assert!(swept.num_gates() < c.num_gates());
    }

    #[test]
    fn a_binding_sat_budget_merges_the_same_pair_on_every_sweep() {
        // Four duplicated AND pairs; one SAT check can merge only one.
        let mut c = Circuit::new("pairs");
        let ins: Vec<NetId> = (0..8)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        for p in 0..4 {
            let (a, b) = (ins[2 * p], ins[2 * p + 1]);
            let x = c.add_gate(GateType::And, format!("x{p}"), &[a, b]).unwrap();
            let y = c.add_gate(GateType::And, format!("y{p}"), &[b, a]).unwrap();
            c.mark_output(x);
            c.mark_output(y);
        }
        let options = SatSweepOptions {
            max_sat_checks: 1,
            ..Default::default()
        };
        let (first, stats) = sat_sweep_with_stats(&c, &options).unwrap();
        assert_eq!((stats.sat_checks, stats.merged_nets), (1, 1));
        assert!(exhaustively_equivalent(&c, &first).unwrap());
        assert!(
            first.find_net("y0").is_none(),
            "the topologically first pair takes the budget"
        );
        for p in 1..4 {
            assert!(first.find_net(&format!("y{p}")).is_some());
        }
        let reference = kratt_netlist::bench::write(&first).unwrap();
        for sweep in 1..20 {
            let (again, _) = sat_sweep_with_stats(&c, &options).unwrap();
            assert_eq!(
                kratt_netlist::bench::write(&again).unwrap(),
                reference,
                "sweep {sweep} differs from the first"
            );
        }
    }

    #[test]
    fn sat_sweep_respects_its_sat_budget() {
        let c = sample_circuit();
        let options = SatSweepOptions {
            max_sat_checks: 0,
            ..Default::default()
        };
        let (swept, stats) = sat_sweep_with_stats(&c, &options).unwrap();
        assert_eq!(stats.sat_checks, 0);
        assert_eq!(stats.merged_nets, 0);
        assert!(exhaustively_equivalent(&c, &swept).unwrap());
    }

    #[test]
    fn sat_sweep_preserves_the_interface() {
        let c = sample_circuit();
        let swept = sat_sweep(&c, &SatSweepOptions::default()).unwrap();
        assert_eq!(c.num_inputs(), swept.num_inputs());
        assert_eq!(c.num_outputs(), swept.num_outputs());
        for (&a, &b) in c.inputs().iter().zip(swept.inputs()) {
            assert_eq!(c.net_name(a), swept.net_name(b));
        }
    }

    #[test]
    fn mapping_uses_only_library_cells() {
        let c = sample_circuit();
        for library in [CellLibrary::Nand2Inv, CellLibrary::Nor2Inv] {
            let mapped = map_to_cell_library(&c, library).unwrap();
            assert!(exhaustively_equivalent(&c, &mapped).unwrap(), "{library:?}");
            for (_, gate) in mapped.gates() {
                assert!(
                    library.contains(gate.ty, gate.inputs.len()),
                    "{library:?} netlist contains a foreign cell {:?}/{}",
                    gate.ty,
                    gate.inputs.len()
                );
            }
        }
    }

    #[test]
    fn mapping_preserves_key_inputs_of_a_locked_netlist() {
        let mut c = Circuit::new("locked");
        let a = c.add_input("a").unwrap();
        let k0 = c.add_input("keyinput0").unwrap();
        let k1 = c.add_input("keyinput1").unwrap();
        let x = c.add_gate(GateType::Xor, "x", &[a, k0]).unwrap();
        let y = c.add_gate(GateType::Xnor, "y", &[x, k1]).unwrap();
        c.mark_output(y);
        let mapped = map_to_cell_library(&c, CellLibrary::Nand2Inv).unwrap();
        assert_eq!(mapped.key_inputs().len(), 2);
        assert!(exhaustively_equivalent(&c, &mapped).unwrap());
    }

    #[test]
    fn library_membership_rules() {
        assert!(CellLibrary::Nand2Inv.contains(GateType::Nand, 2));
        assert!(!CellLibrary::Nand2Inv.contains(GateType::Nand, 3));
        assert!(!CellLibrary::Nand2Inv.contains(GateType::Nor, 2));
        assert!(CellLibrary::Nor2Inv.contains(GateType::Nor, 2));
        assert!(CellLibrary::Nand2Inv.contains(GateType::Not, 1));
        assert!(CellLibrary::Nor2Inv.contains(GateType::Const1, 0));
        assert!(!CellLibrary::Nor2Inv.contains(GateType::Xor, 2));
    }

    proptest::proptest! {
        /// Sweeping and mapping random circuits (in either order) preserves
        /// the function.
        #[test]
        fn prop_passes_preserve_function(seed in 0u64..30) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(97));
            let mut c = Circuit::new(format!("rand{seed}"));
            let mut nets: Vec<NetId> =
                (0..5).map(|i| c.add_input(format!("i{i}")).unwrap()).collect();
            let kinds = [
                GateType::And, GateType::Nand, GateType::Or, GateType::Nor,
                GateType::Xor, GateType::Xnor, GateType::Not, GateType::Buf,
            ];
            for g in 0..14 {
                let ty = kinds[rng.gen_range(0..kinds.len())];
                let arity = match ty {
                    GateType::Not | GateType::Buf => 1,
                    _ => rng.gen_range(2..4usize),
                };
                let ins: Vec<NetId> =
                    (0..arity).map(|_| nets[rng.gen_range(0..nets.len())]).collect();
                nets.push(c.add_gate(ty, format!("g{g}"), &ins).unwrap());
            }
            c.mark_output(*nets.last().unwrap());
            c.mark_output(nets[7]);

            let swept = sat_sweep(&c, &SatSweepOptions { seed, ..Default::default() }).unwrap();
            proptest::prop_assert!(exhaustively_equivalent(&c, &swept).unwrap());
            let library = if seed % 2 == 0 { CellLibrary::Nand2Inv } else { CellLibrary::Nor2Inv };
            let mapped = map_to_cell_library(&swept, library).unwrap();
            proptest::prop_assert!(exhaustively_equivalent(&c, &mapped).unwrap());
        }
    }
}
