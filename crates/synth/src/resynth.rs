//! Functionality-preserving randomized resynthesis over the AIG core IR.
//!
//! The pipeline keeps the circuit function intact while changing its
//! structure, mimicking what a commercial synthesis tool does to a locked
//! netlist: the regular, textbook shape of the locking unit disappears and
//! repeated runs with different seeds/efforts produce the structurally
//! different variants needed for the paper's Fig. 6 study.
//!
//! Passes (all routed through [`kratt_netlist::aig::Aig`]):
//!
//! 1. **Lowering** — the netlist becomes a structurally hashed AIG; constant
//!    folding and hashing canonicalise it, and only the output cone survives
//!    (the dangling-node sweep).
//! 2. **Scrambling** — at low/medium effort, shuffle-balance
//!    ([`crate::aig::shuffle_balance`]) re-associates every AND tree with
//!    seeded operand order and seeded shape (balanced vs chain, steered by
//!    the delay-constraint knob); at high effort, cut rewriting
//!    ([`kratt_netlist::Aig::rewrite`]) replaces whole 4-input cones with
//!    NPN-canonical optimal subgraphs, shrinking the netlist while erasing
//!    its original structure.
//! 3. **Styled raising** ([`crate::aig::raise_styled`]) — the AIG returns to
//!    gates with a seeded fraction of nodes expressed through two-level De
//!    Morgan duals instead of plain ANDs.
//! 4. **Buffer-pair insertion** — double inverters are sprinkled on random
//!    nets.
//! 5. **Cleanup** — constant propagation.

use crate::aig::{raise_styled, shuffle_balance, Aig};
use crate::SynthError;
use kratt_netlist::analysis::topological_order;
use kratt_netlist::transform::propagate_constants;
use kratt_netlist::{Circuit, GateType, NetId, NetlistError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Synthesis effort, mirroring the "design effort" knob of a commercial tool.
/// Higher effort raises the two-level rewrite and buffer-insertion
/// probabilities of the styled raising, producing variants that are
/// structurally further from the input netlist. High effort additionally
/// swaps the shuffle-balance scrambler for NPN cut rewriting
/// ([`kratt_netlist::Aig::rewrite`]), which optimises whole 4-input cones
/// instead of merely re-associating the existing trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Effort {
    /// Light rewriting.
    Low,
    /// Moderate rewrite probability.
    #[default]
    Medium,
    /// Aggressive rewriting.
    High,
}

impl Effort {
    fn rewrite_probability(self) -> f64 {
        match self {
            Effort::Low => 0.10,
            Effort::Medium => 0.40,
            Effort::High => 0.80,
        }
    }

    fn buffer_probability(self) -> f64 {
        match self {
            Effort::Low => 0.02,
            Effort::Medium => 0.05,
            Effort::High => 0.10,
        }
    }
}

/// Options controlling one resynthesis run.
#[derive(Debug, Clone)]
pub struct ResynthesisOptions {
    /// RNG seed: different seeds give structurally different variants.
    pub seed: u64,
    /// Synthesis effort.
    pub effort: Effort,
    /// Emulates a delay constraint: `true` prefers balanced (fast) trees,
    /// `false` prefers chains (area-biased), mirroring the delay-constraint
    /// sweep used to generate the paper's 50 c6288 variants.
    pub balanced_trees: bool,
}

impl ResynthesisOptions {
    /// Medium-effort options with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        ResynthesisOptions {
            seed,
            effort: Effort::Medium,
            balanced_trees: true,
        }
    }

    /// Sets the effort level.
    pub fn effort(mut self, effort: Effort) -> Self {
        self.effort = effort;
        self
    }

    /// Sets the tree-shaping preference (see [`ResynthesisOptions::balanced_trees`]).
    pub fn balanced(mut self, balanced: bool) -> Self {
        self.balanced_trees = balanced;
        self
    }
}

impl Default for ResynthesisOptions {
    fn default() -> Self {
        ResynthesisOptions::with_seed(0)
    }
}

/// Produces a functionally equivalent, structurally different variant of
/// `circuit`. The primary interface (input/output names and order) is
/// preserved, so locked circuits stay locked with the same key.
///
/// # Errors
///
/// Returns an error if the circuit is cyclic.
pub fn resynthesize(
    circuit: &Circuit,
    options: &ResynthesisOptions,
) -> Result<Circuit, SynthError> {
    let mut rng = StdRng::seed_from_u64(options.seed);
    let aig = Aig::from_circuit(circuit)?;
    // High effort swaps the shuffle-balance scrambler for cut rewriting:
    // NPN-canonical replacement of whole 4-input cones both shrinks the
    // netlist and erases the textbook shape of a locking unit far more
    // thoroughly than re-associating the existing AND trees.
    let aig = match options.effort {
        Effort::High => aig.rewrite(),
        Effort::Low | Effort::Medium => shuffle_balance(&aig, &mut rng, options.balanced_trees),
    };
    // Debug builds verify the restructured AIG still honours the core IR's
    // structural invariants (fanin order, strash consistency) before it is
    // raised — the same contract the `kratt-lint` AIG rules check statically.
    debug_assert!(
        aig.check_invariants().is_empty(),
        "resynthesis produced a corrupt AIG for `{}`: {:?}",
        circuit.name(),
        aig.check_invariants()
    );
    let styled = raise_styled(&aig, &mut rng, options.effort.rewrite_probability())?;
    let buffered = insert_buffer_pairs(&styled, &mut rng, options.effort.buffer_probability())?;
    let cleaned = propagate_constants(&buffered)?;
    Ok(cleaned)
}

/// Rebuilds `circuit` by passing every gate through `rewrite`, which receives
/// the destination circuit, the gate type, the (already remapped) inputs and
/// the original output-net name, and returns the net now carrying that value.
pub(crate) fn rebuild<F>(circuit: &Circuit, mut rewrite: F) -> Result<Circuit, NetlistError>
where
    F: FnMut(&mut Circuit, GateType, &[NetId], &str) -> Result<NetId, NetlistError>,
{
    let mut result = Circuit::new(circuit.name().to_string());
    let mut map: HashMap<NetId, NetId> = HashMap::new();
    for &pi in circuit.inputs() {
        let new = result.add_input(circuit.net_name(pi))?;
        map.insert(pi, new);
    }
    for gid in topological_order(circuit)? {
        let gate = circuit.gate(gid);
        let inputs: Vec<NetId> = gate.inputs.iter().map(|n| map[n]).collect();
        let out = rewrite(&mut result, gate.ty, &inputs, circuit.net_name(gate.output))?;
        map.insert(gate.output, out);
    }
    for &o in circuit.outputs() {
        result.mark_output(map[&o]);
    }
    Ok(result)
}

/// Adds a gate reusing `name` when still free (to keep net names stable for
/// debugging), falling back to a derived fresh name.
pub(crate) fn add_preferring_name(
    circuit: &mut Circuit,
    ty: GateType,
    name: &str,
    inputs: &[NetId],
) -> Result<NetId, NetlistError> {
    if circuit.find_net(name).is_none() {
        circuit.add_gate(ty, name, inputs)
    } else {
        circuit.add_gate_auto(ty, name, inputs)
    }
}

/// Inserts double-inverter pairs on randomly chosen gate outputs.
fn insert_buffer_pairs(
    circuit: &Circuit,
    rng: &mut StdRng,
    probability: f64,
) -> Result<Circuit, SynthError> {
    let result = rebuild(circuit, |dest, ty, inputs, name| {
        if rng.gen_bool(probability) {
            // The final inverter keeps the original net name so the pair is
            // transparent to the interface (primary outputs stay named).
            let out = dest.add_gate_auto(ty, "buf_s", inputs)?;
            let n1 = dest.add_gate_auto(GateType::Not, "buf_p", &[out])?;
            add_preferring_name(dest, GateType::Not, name, &[n1])
        } else {
            add_preferring_name(dest, ty, name, inputs)
        }
    })?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::check_equivalence;
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
    fn resynthesis_preserves_function() {
        let original = sample_circuit();
        for seed in 0..10 {
            let variant = resynthesize(&original, &ResynthesisOptions::with_seed(seed)).unwrap();
            assert!(
                exhaustively_equivalent(&original, &variant).unwrap(),
                "seed {seed} changed the function"
            );
        }
    }

    #[test]
    fn different_seeds_give_structurally_different_netlists() {
        let original = sample_circuit();
        let sizes: Vec<usize> = (0..8)
            .map(|seed| {
                resynthesize(
                    &original,
                    &ResynthesisOptions::with_seed(seed).effort(Effort::High),
                )
                .unwrap()
                .num_gates()
            })
            .collect();
        let distinct: std::collections::BTreeSet<usize> = sizes.iter().copied().collect();
        assert!(distinct.len() > 1, "expected size diversity, got {sizes:?}");
    }

    #[test]
    fn high_effort_runs_cut_rewriting_and_shrinks_redundant_logic() {
        // A netlist with genuine redundancy: a mux whose branches agree
        // (m = a) feeding an XOR. Shuffle-balance keeps the redundant cone;
        // cut rewriting collapses it, so the relowered high-effort variant
        // must be strictly smaller AIG-side than the low-effort one.
        let mut c = Circuit::new("redundant");
        let s = c.add_input("s").unwrap();
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let ns = c.add_gate(GateType::Not, "ns", &[s]).unwrap();
        let t1 = c.add_gate(GateType::And, "t1", &[s, a]).unwrap();
        let t2 = c.add_gate(GateType::And, "t2", &[ns, a]).unwrap();
        let m = c.add_gate(GateType::Or, "m", &[t1, t2]).unwrap();
        let o = c.add_gate(GateType::Xor, "o", &[m, b]).unwrap();
        c.mark_output(o);

        let low = resynthesize(&c, &ResynthesisOptions::with_seed(3).effort(Effort::Low)).unwrap();
        let high =
            resynthesize(&c, &ResynthesisOptions::with_seed(3).effort(Effort::High)).unwrap();
        assert!(exhaustively_equivalent(&c, &low).unwrap());
        assert!(exhaustively_equivalent(&c, &high).unwrap());
        let low_ands = Aig::from_circuit(&low).unwrap().stats().ands;
        let high_ands = Aig::from_circuit(&high).unwrap().stats().ands;
        assert!(
            high_ands < low_ands,
            "cut rewriting should shrink the redundant cone ({high_ands} vs {low_ands} ands)"
        );
    }

    #[test]
    fn interface_is_preserved() {
        let original = sample_circuit();
        let variant = resynthesize(&original, &ResynthesisOptions::with_seed(1)).unwrap();
        assert_eq!(original.num_inputs(), variant.num_inputs());
        assert_eq!(original.num_outputs(), variant.num_outputs());
        for (&a, &b) in original.inputs().iter().zip(variant.inputs()) {
            assert_eq!(original.net_name(a), variant.net_name(b));
        }
    }

    #[test]
    fn lowering_merges_duplicates_and_buffers() {
        // Structural hashing now happens inside the AIG: duplicated gates
        // (in either operand order) and buffers cost no nodes.
        let mut c = Circuit::new("dups");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let x1 = c.add_gate(GateType::And, "x1", &[a, b]).unwrap();
        let x2 = c.add_gate(GateType::And, "x2", &[b, a]).unwrap();
        let buf = c.add_gate(GateType::Buf, "buf", &[x2]).unwrap();
        let y = c.add_gate(GateType::Or, "y", &[x1, buf]).unwrap();
        c.mark_output(y);
        let aig = Aig::from_circuit(&c).unwrap();
        // The two ANDs hash to one node, the buffer is a free edge, and the
        // OR of a node with itself folds away: one AND node remains.
        assert_eq!(aig.num_ands(), 1);
        assert!(exhaustively_equivalent(&c, &aig.to_circuit().unwrap()).unwrap());
    }

    #[test]
    fn resynthesis_is_deterministic_per_seed() {
        let original = sample_circuit();
        let options = ResynthesisOptions::with_seed(11).effort(Effort::High);
        let first = resynthesize(&original, &options).unwrap();
        let second = resynthesize(&original, &options).unwrap();
        assert_eq!(
            kratt_netlist::bench::write(&first).unwrap(),
            kratt_netlist::bench::write(&second).unwrap(),
            "same seed must reproduce the identical netlist"
        );
    }

    #[test]
    fn resynthesis_of_a_locked_circuit_keeps_key_inputs() {
        let mut c = Circuit::new("locked");
        let a = c.add_input("a").unwrap();
        let k0 = c.add_input("keyinput0").unwrap();
        let k1 = c.add_input("keyinput1").unwrap();
        let x = c.add_gate(GateType::Xor, "x", &[a, k0]).unwrap();
        let y = c.add_gate(GateType::Xnor, "y", &[x, k1]).unwrap();
        c.mark_output(y);
        let variant =
            resynthesize(&c, &ResynthesisOptions::with_seed(9).effort(Effort::High)).unwrap();
        assert_eq!(variant.key_inputs().len(), 2);
        assert!(check_equivalence(&c, &variant).unwrap().is_equivalent());
    }

    proptest::proptest! {
        /// Every seed/effort/shape combination preserves the function of a
        /// random circuit (checked exhaustively over its 6 inputs).
        #[test]
        fn prop_resynthesis_is_equivalence_preserving(
            seed in 0u64..40,
            effort_index in 0usize..3,
            balanced: bool,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31));
            let mut c = Circuit::new(format!("rand{seed}"));
            let mut nets: Vec<NetId> =
                (0..6).map(|i| c.add_input(format!("i{i}")).unwrap()).collect();
            let kinds = [
                GateType::And, GateType::Nand, GateType::Or, GateType::Nor,
                GateType::Xor, GateType::Xnor, GateType::Not,
            ];
            for g in 0..12 {
                let ty = kinds[rng.gen_range(0..kinds.len())];
                let arity = match ty {
                    GateType::Not => 1,
                    _ => rng.gen_range(2..5usize),
                };
                let ins: Vec<NetId> =
                    (0..arity).map(|_| nets[rng.gen_range(0..nets.len())]).collect();
                nets.push(c.add_gate(ty, format!("g{g}"), &ins).unwrap());
            }
            c.mark_output(*nets.last().unwrap());
            c.mark_output(nets[8]);
            let effort = [Effort::Low, Effort::Medium, Effort::High][effort_index];
            let options = ResynthesisOptions { seed, effort, balanced_trees: balanced };
            let variant = resynthesize(&c, &options).unwrap();
            proptest::prop_assert!(exhaustively_equivalent(&c, &variant).unwrap());
        }
    }
}
