//! Double flip locking techniques (DFLTs): TTLock, CAC and SFLL-HD.
//!
//! All three follow the paper's Fig. 1(b): a *perturb unit* with the secret
//! pattern hard-wired corrupts one primary output of the original circuit
//! (yielding the functionality-stripped circuit, FSC), and a *restore unit*
//! driven by the key inputs flips the output back. With the secret key the
//! two flips cancel on exactly the protected pattern(s); with a wrong key the
//! output is corrupted on the protected pattern and possibly on the pattern
//! matching the wrong key. Because the perturbation is merged into the
//! original logic, removal attacks that strip the restore unit recover the
//! FSC — not the original circuit — which is why KRATT needs its
//! oracle-guided structural analysis for this family.

use crate::common::{
    choose_protected_inputs, choose_target_output, clone_with_key_inputs, comparator,
    corrupt_output, hardwired_comparator, LockedCircuit, LockingTechnique, SecretKey,
    TechniqueKind,
};
use crate::LockError;
use kratt_netlist::{Circuit, GateType, NetId};

/// TTLock: perturb on the single protected input pattern equal to the secret,
/// restore with a comparator between the protected inputs and the key.
/// Equivalent to SFLL-HD with Hamming distance 0.
#[derive(Debug, Clone)]
pub struct TtLock {
    key_bits: usize,
}

impl TtLock {
    /// TTLock protecting `key_bits` inputs with `key_bits` key bits.
    pub fn new(key_bits: usize) -> Self {
        TtLock { key_bits }
    }
}

impl LockingTechnique for TtLock {
    fn key_bits(&self) -> usize {
        self.key_bits
    }

    fn kind(&self) -> TechniqueKind {
        TechniqueKind::TtLock
    }

    fn lock(&self, original: &Circuit, secret: &SecretKey) -> Result<LockedCircuit, LockError> {
        if secret.len() != self.key_bits {
            return Err(LockError::KeyWidthMismatch {
                expected: self.key_bits,
                got: secret.len(),
            });
        }
        let target_output = choose_target_output(original)?;
        let ppis = choose_protected_inputs(original, self.key_bits)?;
        let ppi_names = original.net_names(&ppis);
        let (mut locked, keys) = clone_with_key_inputs(original, self.key_bits, "ttlock")?;
        let ppis: Vec<NetId> = ppi_names
            .iter()
            .map(|nm| locked.find_net(nm).expect("cloned input"))
            .collect();

        // Perturb unit (hard-wired secret) builds the FSC.
        let perturb = hardwired_comparator(&mut locked, &ppis, secret.bits(), "tt_pert")?;
        corrupt_output(&mut locked, target_output, perturb)?;
        // Restore unit (key comparator) flips it back for the correct key.
        let restore = comparator(&mut locked, &ppis, &keys, "tt_rest")?;
        corrupt_output(&mut locked, target_output, restore)?;

        Ok(LockedCircuit {
            circuit: locked,
            technique: TechniqueKind::TtLock,
            secret: secret.clone(),
            protected_inputs: ppi_names,
            target_output,
        })
    }
}

/// Corrupt-and-correct (CAC): the same perturb unit as TTLock, but the
/// restore unit drives a MUX-style correction (`sel ? NOT fsc : fsc`) instead
/// of an XOR, giving the restore logic a different structural signature.
#[derive(Debug, Clone)]
pub struct Cac {
    key_bits: usize,
}

impl Cac {
    /// CAC protecting `key_bits` inputs with `key_bits` key bits.
    pub fn new(key_bits: usize) -> Self {
        Cac { key_bits }
    }
}

impl LockingTechnique for Cac {
    fn key_bits(&self) -> usize {
        self.key_bits
    }

    fn kind(&self) -> TechniqueKind {
        TechniqueKind::Cac
    }

    fn lock(&self, original: &Circuit, secret: &SecretKey) -> Result<LockedCircuit, LockError> {
        if secret.len() != self.key_bits {
            return Err(LockError::KeyWidthMismatch {
                expected: self.key_bits,
                got: secret.len(),
            });
        }
        let target_output = choose_target_output(original)?;
        let ppis = choose_protected_inputs(original, self.key_bits)?;
        let ppi_names = original.net_names(&ppis);
        let (mut locked, keys) = clone_with_key_inputs(original, self.key_bits, "cac")?;
        let ppis: Vec<NetId> = ppi_names
            .iter()
            .map(|nm| locked.find_net(nm).expect("cloned input"))
            .collect();

        // Perturb unit builds the FSC.
        let perturb = hardwired_comparator(&mut locked, &ppis, secret.bits(), "cac_pert")?;
        corrupt_output(&mut locked, target_output, perturb)?;

        // Restore unit: out = restore ? NOT fsc : fsc, built from AND/OR/NOT
        // gates so its structure differs from TTLock's XOR restore.
        let fsc = locked.outputs()[target_output];
        let fsc_name = locked.net_name(fsc).to_string();
        let renamed = locked.fresh_net_name(&format!("{fsc_name}$fsc"));
        locked.rename_net(fsc, renamed)?;
        let restore = comparator(&mut locked, &ppis, &keys, "cac_rest")?;
        let not_fsc = locked.add_gate_auto(GateType::Not, "cac_nfsc", &[fsc])?;
        let not_restore = locked.add_gate_auto(GateType::Not, "cac_nrest", &[restore])?;
        let flipped = locked.add_gate_auto(GateType::And, "cac_flip", &[restore, not_fsc])?;
        let kept = locked.add_gate_auto(GateType::And, "cac_keep", &[not_restore, fsc])?;
        let corrected = locked.add_gate(GateType::Or, fsc_name, &[flipped, kept])?;
        locked.replace_output_at(target_output, corrected);

        Ok(LockedCircuit {
            circuit: locked,
            technique: TechniqueKind::Cac,
            secret: secret.clone(),
            protected_inputs: ppi_names,
            target_output,
        })
    }
}

/// SFLL-HD: stripped-functionality logic locking with Hamming distance `h`.
/// The perturb unit flips the output for every protected input pattern at
/// Hamming distance exactly `h` from the hard-wired secret; the restore unit
/// flips it back for patterns at distance `h` from the key. TTLock is the
/// special case `h = 0`.
#[derive(Debug, Clone)]
pub struct SfllHd {
    key_bits: usize,
    distance: u32,
}

impl SfllHd {
    /// SFLL-HD with `key_bits` protected inputs/key bits and Hamming
    /// distance `distance`.
    pub fn new(key_bits: usize, distance: u32) -> Self {
        SfllHd { key_bits, distance }
    }

    /// The configured Hamming distance.
    pub fn distance(&self) -> u32 {
        self.distance
    }

    /// Builds `popcount(bits) == constant` and returns the output net.
    fn popcount_equals(
        circuit: &mut Circuit,
        bits: &[NetId],
        constant: u32,
        prefix: &str,
    ) -> Result<NetId, LockError> {
        // Ripple popcount: add the bits one at a time into a binary counter.
        let mut counter: Vec<NetId> = Vec::new();
        for (index, &bit) in bits.iter().enumerate() {
            let mut carry = bit;
            for slot in counter.iter_mut() {
                let sum = circuit.add_gate_auto(
                    GateType::Xor,
                    &format!("{prefix}_s"),
                    &[*slot, carry],
                )?;
                let new_carry = circuit.add_gate_auto(
                    GateType::And,
                    &format!("{prefix}_c"),
                    &[*slot, carry],
                )?;
                *slot = sum;
                carry = new_carry;
            }
            // The counter only needs enough bits to represent `index + 1`;
            // beyond that the carry out of the ripple is always 0.
            let needed_bits = usize::BITS as usize - (index + 1).leading_zeros() as usize;
            if counter.len() < needed_bits {
                counter.push(carry);
            }
        }
        // Equality against the constant.
        let terms: Vec<NetId> = counter
            .iter()
            .enumerate()
            .map(|(i, &net)| {
                if constant >> i & 1 != 0 {
                    Ok(net)
                } else {
                    circuit.add_gate_auto(GateType::Not, &format!("{prefix}_n"), &[net])
                }
            })
            .collect::<Result<Vec<_>, kratt_netlist::NetlistError>>()?;
        Ok(crate::common::reduction_tree(
            circuit,
            GateType::And,
            &terms,
            &format!("{prefix}_eq"),
        )?)
    }

    fn hd_unit(
        circuit: &mut Circuit,
        ppis: &[NetId],
        reference: HdReference<'_>,
        distance: u32,
        prefix: &str,
    ) -> Result<NetId, LockError> {
        let diffs: Vec<NetId> = match reference {
            HdReference::Constant(bits) => ppis
                .iter()
                .zip(bits)
                .map(|(&p, &bit)| {
                    if bit {
                        circuit.add_gate_auto(GateType::Not, &format!("{prefix}_d"), &[p])
                    } else {
                        circuit.add_gate_auto(GateType::Buf, &format!("{prefix}_d"), &[p])
                    }
                })
                .collect::<Result<_, _>>()?,
            HdReference::Nets(keys) => ppis
                .iter()
                .zip(keys)
                .map(|(&p, &k)| {
                    circuit.add_gate_auto(GateType::Xor, &format!("{prefix}_d"), &[p, k])
                })
                .collect::<Result<_, _>>()?,
        };
        Self::popcount_equals(circuit, &diffs, distance, prefix)
    }
}

enum HdReference<'a> {
    Constant(&'a [bool]),
    Nets(&'a [NetId]),
}

impl LockingTechnique for SfllHd {
    fn key_bits(&self) -> usize {
        self.key_bits
    }

    fn kind(&self) -> TechniqueKind {
        TechniqueKind::SfllHd(self.distance)
    }

    fn lock(&self, original: &Circuit, secret: &SecretKey) -> Result<LockedCircuit, LockError> {
        if secret.len() != self.key_bits {
            return Err(LockError::KeyWidthMismatch {
                expected: self.key_bits,
                got: secret.len(),
            });
        }
        let target_output = choose_target_output(original)?;
        let ppis = choose_protected_inputs(original, self.key_bits)?;
        let ppi_names = original.net_names(&ppis);
        let (mut locked, keys) = clone_with_key_inputs(original, self.key_bits, "sfll_hd")?;
        let ppis: Vec<NetId> = ppi_names
            .iter()
            .map(|nm| locked.find_net(nm).expect("cloned input"))
            .collect();

        let perturb = Self::hd_unit(
            &mut locked,
            &ppis,
            HdReference::Constant(secret.bits()),
            self.distance,
            "sfll_pert",
        )?;
        corrupt_output(&mut locked, target_output, perturb)?;
        let restore = Self::hd_unit(
            &mut locked,
            &ppis,
            HdReference::Nets(&keys),
            self.distance,
            "sfll_rest",
        )?;
        corrupt_output(&mut locked, target_output, restore)?;

        Ok(LockedCircuit {
            circuit: locked,
            technique: TechniqueKind::SfllHd(self.distance),
            secret: secret.clone(),
            protected_inputs: ppi_names,
            target_output,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_netlist::sim::{exhaustively_equivalent, Simulator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn majority() -> Circuit {
        let mut c = Circuit::new("majority");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let x = c.add_input("x").unwrap();
        let ab = c.add_gate(GateType::And, "ab", &[a, b]).unwrap();
        let ax = c.add_gate(GateType::And, "ax", &[a, x]).unwrap();
        let bx = c.add_gate(GateType::And, "bx", &[b, x]).unwrap();
        let maj = c.add_gate(GateType::Or, "maj", &[ab, ax, bx]).unwrap();
        c.mark_output(maj);
        c
    }

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

    /// Count the input patterns on which the locked circuit (with the given
    /// key) differs from the original.
    fn corruption_count(original: &Circuit, locked: &LockedCircuit, key: &SecretKey) -> usize {
        let unlocked = locked.apply_key(key).unwrap();
        let sim_a = Simulator::new(original).unwrap();
        let sim_b = Simulator::new(&unlocked).unwrap();
        let n = original.num_inputs();
        (0u64..(1 << n))
            .filter(|&p| {
                let bits: Vec<bool> = (0..n).map(|i| p >> i & 1 != 0).collect();
                sim_a.run(&bits).unwrap() != sim_b.run(&bits).unwrap()
            })
            .count()
    }

    #[test]
    fn ttlock_correct_key_restores_and_wrong_key_corrupts_two_patterns() {
        let original = majority();
        let secret = SecretKey::from_u64(0b010, 3);
        let locked = TtLock::new(3).lock(&original, &secret).unwrap();
        assert_eq!(corruption_count(&original, &locked, &secret), 0);
        // A wrong key leaves the protected pattern corrupted and corrupts the
        // pattern equal to the wrong key: exactly two differing patterns.
        let wrong = SecretKey::from_u64(0b111, 3);
        assert_eq!(corruption_count(&original, &locked, &wrong), 2);
    }

    #[test]
    fn ttlock_fsc_differs_from_original_exactly_on_the_protected_pattern() {
        // The functionality-stripped circuit is the locked circuit with the
        // restore contribution removed; equivalently, with a key whose
        // comparator never fires... which does not exist for TTLock (every
        // key value restores *some* pattern). Instead check the paper's
        // Fig. 5(d) property: with the correct key the circuit is the
        // original, and with any wrong key the output at the protected
        // pattern is flipped.
        let original = majority();
        let secret = SecretKey::from_u64(0b100, 3);
        let locked = TtLock::new(3).lock(&original, &secret).unwrap();
        let sim_orig = Simulator::new(&original).unwrap();
        for wrong in 0u64..8 {
            if wrong == secret.to_u64() {
                continue;
            }
            let unlocked = locked.apply_key(&SecretKey::from_u64(wrong, 3)).unwrap();
            let sim_bad = Simulator::new(&unlocked).unwrap();
            let protected: Vec<bool> = (0..3).map(|i| secret.to_u64() >> i & 1 != 0).collect();
            assert_ne!(
                sim_orig.run(&protected).unwrap(),
                sim_bad.run(&protected).unwrap(),
                "wrong key {wrong:03b} must corrupt the protected pattern"
            );
        }
    }

    #[test]
    fn cac_correct_key_restores_function() {
        let original = majority();
        let secret = SecretKey::from_u64(0b011, 3);
        let locked = Cac::new(3).lock(&original, &secret).unwrap();
        assert_eq!(corruption_count(&original, &locked, &secret), 0);
        let wrong = SecretKey::from_u64(0b000, 3);
        assert!(corruption_count(&original, &locked, &wrong) > 0);
    }

    #[test]
    fn cac_on_multi_output_circuit() {
        let original = adder4();
        let mut rng = StdRng::seed_from_u64(3);
        let secret = SecretKey::random(&mut rng, 6);
        let locked = Cac::new(6).lock(&original, &secret).unwrap();
        assert_eq!(locked.circuit.num_outputs(), original.num_outputs());
        assert!(crate::common::verify_key_by_simulation(
            &original,
            &locked.circuit,
            &secret,
            128,
            &mut rng
        )
        .unwrap());
    }

    #[test]
    fn sfll_hd_zero_matches_ttlock_semantics() {
        let original = majority();
        let secret = SecretKey::from_u64(0b101, 3);
        let sfll = SfllHd::new(3, 0).lock(&original, &secret).unwrap();
        assert_eq!(corruption_count(&original, &sfll, &secret), 0);
        let wrong = SecretKey::from_u64(0b110, 3);
        assert_eq!(corruption_count(&original, &sfll, &wrong), 2);
    }

    #[test]
    fn sfll_hd_one_protects_a_distance_one_sphere() {
        let original = adder4();
        let secret = SecretKey::from_u64(0b1010, 4);
        let locked = SfllHd::new(4, 1).lock(&original, &secret).unwrap();
        // Correct key: fully restored.
        assert_eq!(corruption_count(&original, &locked, &secret), 0);
        // Wrong key at Hamming distance 2 from the secret: the perturbed and
        // restored spheres intersect only partially, so some patterns stay
        // corrupted.
        let wrong = SecretKey::from_u64(0b1001, 4);
        assert!(corruption_count(&original, &locked, &wrong) > 0);
    }

    #[test]
    fn sfll_popcount_equality_is_correct() {
        let mut c = Circuit::new("popcnt");
        let bits: Vec<NetId> = (0..5)
            .map(|i| c.add_input(format!("b{i}")).unwrap())
            .collect();
        let eq2 = SfllHd::popcount_equals(&mut c, &bits, 2, "pc").unwrap();
        let eq0 = SfllHd::popcount_equals(&mut c, &bits, 0, "pc0").unwrap();
        let eq5 = SfllHd::popcount_equals(&mut c, &bits, 5, "pc5").unwrap();
        c.mark_output(eq2);
        c.mark_output(eq0);
        c.mark_output(eq5);
        let sim = Simulator::new(&c).unwrap();
        for pattern in 0u64..32 {
            let bits: Vec<bool> = (0..5).map(|i| pattern >> i & 1 != 0).collect();
            let ones = bits.iter().filter(|&&b| b).count();
            let out = sim.run(&bits).unwrap();
            assert_eq!(out[0], ones == 2);
            assert_eq!(out[1], ones == 0);
            assert_eq!(out[2], ones == 5);
        }
    }

    #[test]
    fn dflt_key_width_and_input_checks() {
        let original = majority();
        assert!(matches!(
            TtLock::new(4).lock(&original, &SecretKey::from_u64(0, 4)),
            Err(LockError::NotEnoughInputs { .. })
        ));
        assert!(matches!(
            Cac::new(3).lock(&original, &SecretKey::from_u64(0, 2)),
            Err(LockError::KeyWidthMismatch { .. })
        ));
    }

    proptest::proptest! {
        /// Every DFLT restores the original function under its secret key.
        #[test]
        fn prop_dflt_correct_key_is_functional(seed in 0u64..20) {
            let mut rng = StdRng::seed_from_u64(seed);
            let original = adder4();
            let techniques: Vec<Box<dyn LockingTechnique>> = vec![
                Box::new(TtLock::new(5)),
                Box::new(Cac::new(5)),
                Box::new(SfllHd::new(5, 1)),
                Box::new(SfllHd::new(5, 2)),
            ];
            for technique in techniques {
                let secret = SecretKey::random(&mut rng, technique.key_bits());
                let locked = technique.lock(&original, &secret).unwrap();
                let unlocked = locked.apply_key(&secret).unwrap();
                proptest::prop_assert!(
                    exhaustively_equivalent(&original, &unlocked).unwrap(),
                    "{} failed with secret {}", technique.kind(), secret
                );
            }
        }
    }
}
