//! Seeded random control-logic generator.
//!
//! Used to synthesise circuits that match the interface widths and gate
//! counts of ISCAS'85 / ITC'99 benchmarks whose bench files we do not ship.
//! The generator produces connected, acyclic, reconvergent logic: every
//! primary input feeds the logic, gates draw operands with a locality bias
//! (mimicking the clustered structure of real control logic), and every
//! primary output is the root of a non-trivial cone.

use kratt_netlist::{Circuit, GateType, NetId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of one random circuit.
#[derive(Debug, Clone)]
pub struct RandomLogicSpec {
    /// Circuit name.
    pub name: String,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Approximate number of gates (the generator emits exactly this many).
    pub gates: usize,
    /// RNG seed.
    pub seed: u64,
}

impl RandomLogicSpec {
    /// Creates a spec with the given interface and size.
    pub fn new(
        name: impl Into<String>,
        inputs: usize,
        outputs: usize,
        gates: usize,
        seed: u64,
    ) -> Self {
        RandomLogicSpec {
            name: name.into(),
            inputs,
            outputs,
            gates,
            seed,
        }
    }

    /// Generates the circuit.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is zero, `outputs` is zero, or `gates < outputs`
    /// (each output needs at least one gate to drive it).
    pub fn generate(&self) -> Circuit {
        assert!(self.inputs > 0, "need at least one input");
        assert!(self.outputs > 0, "need at least one output");
        assert!(
            self.gates >= self.outputs,
            "need at least one gate per output"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut c = Circuit::new(self.name.clone());
        let inputs: Vec<NetId> = (0..self.inputs)
            .map(|i| c.add_input(format!("G{i}")).expect("fresh circuit"))
            .collect();

        // Gate-type distribution biased towards the NAND/NOR/AND/OR mix seen
        // in synthesised control logic, with some XOR for reconvergence.
        let kinds = [
            GateType::Nand,
            GateType::Nand,
            GateType::Nor,
            GateType::And,
            GateType::Or,
            GateType::Not,
            GateType::Xor,
            GateType::Xnor,
        ];

        let mut nets: Vec<NetId> = inputs.clone();
        // `g` is both the gate counter and, for the first `self.inputs`
        // gates, the index of the primary input that gate must consume.
        #[allow(clippy::needless_range_loop)]
        for g in 0..self.gates {
            let ty = kinds[rng.gen_range(0..kinds.len())];
            let arity = match ty {
                GateType::Not => 1,
                _ => {
                    if rng.gen_bool(0.25) {
                        3
                    } else {
                        2
                    }
                }
            };
            let mut operands: Vec<NetId> = Vec::with_capacity(arity);
            for slot in 0..arity {
                let pick = if slot == 0 && g < self.inputs {
                    // Guarantee every primary input is consumed at least once.
                    inputs[g]
                } else if rng.gen_bool(0.7) && nets.len() > self.inputs {
                    // Locality bias: prefer recently created nets.
                    let window = (nets.len() / 4).max(8).min(nets.len());
                    nets[nets.len() - 1 - rng.gen_range(0..window)]
                } else {
                    nets[rng.gen_range(0..nets.len())]
                };
                operands.push(pick);
            }
            operands.dedup();
            if operands.is_empty() {
                operands.push(nets[rng.gen_range(0..nets.len())]);
            }
            let ty = if operands.len() == 1 {
                GateType::Not
            } else {
                ty
            };
            let out = c
                .add_gate(ty, format!("n{g}"), &operands)
                .expect("fresh net");
            nets.push(out);
        }

        // Outputs: the last `outputs` gate nets, which have the deepest cones.
        let gate_nets = &nets[self.inputs..];
        let start = gate_nets.len() - self.outputs;
        for &net in &gate_nets[start..] {
            c.mark_output(net);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_netlist::analysis;

    #[test]
    fn generated_circuit_matches_the_spec() {
        let spec = RandomLogicSpec::new("rand_a", 40, 16, 300, 1);
        let c = spec.generate();
        assert_eq!(c.num_inputs(), 40);
        assert_eq!(c.num_outputs(), 16);
        assert_eq!(c.num_gates(), 300);
        // Must be acyclic and simulable.
        assert!(analysis::topological_order(&c).is_ok());
        let pattern = vec![false; 40];
        assert_eq!(c.simulate(&pattern).unwrap().len(), 16);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = RandomLogicSpec::new("r", 20, 5, 100, 7).generate();
        let b = RandomLogicSpec::new("r", 20, 5, 100, 7).generate();
        let c = RandomLogicSpec::new("r", 20, 5, 100, 8).generate();
        assert_eq!(
            kratt_netlist::bench::write(&a).unwrap(),
            kratt_netlist::bench::write(&b).unwrap()
        );
        assert_ne!(
            kratt_netlist::bench::write(&a).unwrap(),
            kratt_netlist::bench::write(&c).unwrap()
        );
    }

    #[test]
    fn every_input_is_in_the_support_of_the_logic() {
        let c = RandomLogicSpec::new("cover", 30, 8, 200, 3).generate();
        for &pi in c.inputs() {
            assert!(
                c.gates().any(|(_, gate)| gate.inputs.contains(&pi)),
                "input {} is unused",
                c.net_name(pi)
            );
        }
    }

    #[test]
    fn outputs_have_nontrivial_cones() {
        let c = RandomLogicSpec::new("cones", 30, 8, 400, 5).generate();
        for &o in c.outputs() {
            let cone = analysis::fanin_cone_gates(&c, &[o]);
            assert!(
                cone.len() >= 2,
                "output {} has a trivial cone",
                c.net_name(o)
            );
        }
    }

    #[test]
    fn outputs_are_not_constant_on_random_patterns() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let c = RandomLogicSpec::new("nonconst", 24, 6, 250, 11).generate();
        let sim = kratt_netlist::sim::Simulator::new(&c).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen_true = [false; 6];
        let mut seen_false = [false; 6];
        for _ in 0..256 {
            let bits: Vec<bool> = (0..24).map(|_| rng.gen_bool(0.5)).collect();
            for (i, &v) in sim.run(&bits).unwrap().iter().enumerate() {
                if v {
                    seen_true[i] = true;
                } else {
                    seen_false[i] = true;
                }
            }
        }
        let toggling = seen_true
            .iter()
            .zip(&seen_false)
            .filter(|(a, b)| **a && **b)
            .count();
        assert!(
            toggling >= 4,
            "expected most outputs to toggle, got {toggling}/6"
        );
    }
}
