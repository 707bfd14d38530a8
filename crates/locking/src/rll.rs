//! Random XOR/XNOR key-gate insertion (RLL) — the classic pre-SAT-attack
//! locking baseline.
//!
//! RLL is *not* SAT-resilient: the SAT-based attack breaks it in a handful of
//! DIPs. It is included because the oracle-guided baseline attacks need a
//! technique they can actually break (for testing and for calibrating the
//! "who wins" shape of Table III), and because the paper's related-work
//! discussion starts from it.

use crate::common::{LockedCircuit, LockingTechnique, SecretKey, TechniqueKind};
use crate::LockError;
use kratt_netlist::{Circuit, GateType, NetId, KEY_INPUT_PREFIX};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// Random XOR/XNOR locking with a configurable number of key gates.
///
/// Key gate `i` is inserted on a randomly chosen internal net; an XOR gate is
/// used when secret bit `i` is 0 and an XNOR gate when it is 1, so the
/// circuit computes the original function exactly for the secret key.
#[derive(Debug, Clone)]
pub struct RandomXorLocking {
    key_bits: usize,
    seed: u64,
}

impl RandomXorLocking {
    /// RLL with `key_bits` key gates, placed using the given RNG seed.
    pub fn new(key_bits: usize, seed: u64) -> Self {
        RandomXorLocking { key_bits, seed }
    }
}

impl LockingTechnique for RandomXorLocking {
    fn key_bits(&self) -> usize {
        self.key_bits
    }

    fn kind(&self) -> TechniqueKind {
        TechniqueKind::RandomXor
    }

    fn lock(&self, original: &Circuit, secret: &SecretKey) -> Result<LockedCircuit, LockError> {
        if secret.len() != self.key_bits {
            return Err(LockError::KeyWidthMismatch {
                expected: self.key_bits,
                got: secret.len(),
            });
        }
        if original.num_gates() < self.key_bits {
            return Err(LockError::NotEnoughInputs {
                available: original.num_gates(),
                needed: self.key_bits,
            });
        }
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Choose distinct gate-output nets to break with key gates.
        let mut candidates: Vec<NetId> = original.gates().map(|(_, g)| g.output).collect();
        candidates.shuffle(&mut rng);
        let chosen: Vec<NetId> = candidates.into_iter().take(self.key_bits).collect();
        let chosen_index: HashMap<NetId, usize> =
            chosen.iter().enumerate().map(|(i, &n)| (n, i)).collect();

        // Rebuild the circuit, splicing a key gate after each chosen net.
        let mut locked = Circuit::new(format!("{}_rll", original.name()));
        let mut map: HashMap<NetId, NetId> = HashMap::new();
        for &pi in original.inputs() {
            let new = locked.add_input(original.net_name(pi))?;
            map.insert(pi, new);
        }
        let keys: Vec<NetId> = (0..self.key_bits)
            .map(|i| locked.add_input(format!("{KEY_INPUT_PREFIX}{i}")))
            .collect::<Result<_, _>>()?;

        for &gid in kratt_netlist::analysis::topological_order(original)?.iter() {
            let gate = original.gate(gid);
            let inputs: Vec<NetId> = gate.inputs.iter().map(|n| map[n]).collect();
            let out_name = original.net_name(gate.output).to_string();
            if let Some(&key_index) = chosen_index.get(&gate.output) {
                // The original gate keeps a derived name; the key gate takes
                // the original name so downstream consumers and outputs see
                // the key-gated signal.
                let inner = locked.add_gate(gate.ty, format!("{out_name}$pre"), &inputs)?;
                let ty = if secret.bits()[key_index] {
                    GateType::Xnor
                } else {
                    GateType::Xor
                };
                let gated = locked.add_gate(ty, out_name, &[inner, keys[key_index]])?;
                map.insert(gate.output, gated);
            } else {
                let out = locked.add_gate(gate.ty, out_name, &inputs)?;
                map.insert(gate.output, out);
            }
        }
        for &o in original.outputs() {
            locked.mark_output(map[&o]);
        }

        let protected_inputs = original.net_names(&chosen);
        Ok(LockedCircuit {
            circuit: locked,
            technique: TechniqueKind::RandomXor,
            secret: secret.clone(),
            protected_inputs,
            target_output: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_netlist::sim::exhaustively_equivalent;
    use rand::Rng;

    fn adder4() -> Circuit {
        let mut c = Circuit::new("adder4");
        let a: Vec<NetId> = (0..4)
            .map(|i| c.add_input(format!("a{i}")).unwrap())
            .collect();
        let b: Vec<NetId> = (0..4)
            .map(|i| c.add_input(format!("b{i}")).unwrap())
            .collect();
        let mut carry = c.add_input("cin").unwrap();
        for i in 0..4 {
            let s1 = c
                .add_gate(GateType::Xor, format!("s1_{i}"), &[a[i], b[i]])
                .unwrap();
            let sum = c
                .add_gate(GateType::Xor, format!("sum{i}"), &[s1, carry])
                .unwrap();
            let c1 = c
                .add_gate(GateType::And, format!("c1_{i}"), &[a[i], b[i]])
                .unwrap();
            let c2 = c
                .add_gate(GateType::And, format!("c2_{i}"), &[s1, carry])
                .unwrap();
            carry = c
                .add_gate(GateType::Or, format!("cout{i}"), &[c1, c2])
                .unwrap();
            c.mark_output(sum);
        }
        c.mark_output(carry);
        c
    }

    #[test]
    fn correct_key_restores_function() {
        let original = adder4();
        let secret = SecretKey::from_u64(0b101101, 6);
        let locked = RandomXorLocking::new(6, 42)
            .lock(&original, &secret)
            .unwrap();
        assert_eq!(locked.circuit.key_inputs().len(), 6);
        let unlocked = locked.apply_key(&secret).unwrap();
        assert!(exhaustively_equivalent(&original, &unlocked).unwrap());
    }

    #[test]
    fn most_wrong_keys_corrupt_the_function() {
        let original = adder4();
        let secret = SecretKey::from_u64(0b0110, 4);
        let locked = RandomXorLocking::new(4, 7)
            .lock(&original, &secret)
            .unwrap();
        let mut corrupting = 0;
        for wrong in 0u64..16 {
            if wrong == secret.to_u64() {
                continue;
            }
            let unlocked = locked.apply_key(&SecretKey::from_u64(wrong, 4)).unwrap();
            if !exhaustively_equivalent(&original, &unlocked).unwrap() {
                corrupting += 1;
            }
        }
        assert!(
            corrupting >= 12,
            "expected most wrong keys to corrupt, got {corrupting}/15"
        );
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let original = adder4();
        let secret = SecretKey::from_u64(0b1001, 4);
        let a = RandomXorLocking::new(4, 3)
            .lock(&original, &secret)
            .unwrap();
        let b = RandomXorLocking::new(4, 3)
            .lock(&original, &secret)
            .unwrap();
        let c = RandomXorLocking::new(4, 4)
            .lock(&original, &secret)
            .unwrap();
        assert_eq!(a.protected_inputs, b.protected_inputs);
        assert_ne!(
            a.protected_inputs, c.protected_inputs,
            "different seeds should usually pick different nets"
        );
    }

    #[test]
    fn too_many_key_gates_is_an_error() {
        let original = adder4();
        let secret = SecretKey::from_u64(0, 64);
        assert!(matches!(
            RandomXorLocking::new(64, 0).lock(&original, &secret),
            Err(LockError::NotEnoughInputs { .. })
        ));
    }

    proptest::proptest! {
        /// The secret key always restores functionality regardless of seed.
        #[test]
        fn prop_correct_key_functional(seed in 0u64..30) {
            let original = adder4();
            let mut rng = StdRng::seed_from_u64(seed);
            let width = rng.gen_range(1..8usize);
            let secret = SecretKey::random(&mut rng, width);
            let locked = RandomXorLocking::new(width, seed).lock(&original, &secret).unwrap();
            let unlocked = locked.apply_key(&secret).unwrap();
            proptest::prop_assert!(exhaustively_equivalent(&original, &unlocked).unwrap());
        }
    }
}
