//! The paper's §V "challenging" techniques: SFLL-Flex and row-activated LUT
//! locking.
//!
//! Both schemes strip the original functionality on a *set* of protected
//! primary input patterns and correct it with a restore unit whose contents
//! (the key) are meant to live in read-proof hardware [Tuyls et al., CHES'06].
//! Because the association between protected inputs and key inputs is hidden
//! from the adversary, no attack — KRATT included — can recover the key bits
//! themselves. What KRATT's structural analysis *can* do (paper §V) is
//! recover every protected pattern and rebuild the original circuit by adding
//! the patterns back into the functionality-stripped circuit with a
//! comparator and XOR logic; see `kratt::reconstruct`.
//!
//! The reproduction still materialises the restore unit in the locked netlist
//! (driven by ordinary `keyinput*` nets) so that [`LockedCircuit::apply_key`]
//! and the equivalence-based tests work; treat the restore cone as the model
//! of the tamper-proof memory.

use crate::common::{
    choose_protected_inputs, choose_target_output, clone_with_key_inputs, comparator,
    corrupt_output, hardwired_comparator, reduction_tree, LockedCircuit, LockingTechnique,
    SecretKey, TechniqueKind,
};
use crate::LockError;
use kratt_netlist::{Circuit, GateType, NetId};

/// SFLL-Flex(k×c): stripped-functionality locking that protects `k` input
/// patterns ("cubes") of `c` protected bits each.
///
/// The perturb unit flips the target output whenever the protected inputs
/// match *any* of the `k` hard-wired patterns; the restore unit flips it back
/// whenever they match any of the `k` patterns stored in the key. The key is
/// the concatenation of the `k` patterns (row 0 in bits `0..c`, row 1 in bits
/// `c..2c`, ...), i.e. `k * c` key bits in total.
#[derive(Debug, Clone)]
pub struct SfllFlex {
    pattern_bits: usize,
    num_patterns: usize,
}

impl SfllFlex {
    /// SFLL-Flex protecting `num_patterns` patterns of `pattern_bits` bits.
    pub fn new(pattern_bits: usize, num_patterns: usize) -> Self {
        SfllFlex {
            pattern_bits,
            num_patterns,
        }
    }

    /// Number of protected bits per pattern.
    pub fn pattern_bits(&self) -> usize {
        self.pattern_bits
    }

    /// Number of protected patterns.
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// Splits a flat key into its `num_patterns` rows.
    fn rows<'a>(&self, bits: &'a [bool]) -> impl Iterator<Item = &'a [bool]> + 'a {
        bits.chunks(self.pattern_bits)
    }
}

impl LockingTechnique for SfllFlex {
    fn key_bits(&self) -> usize {
        self.pattern_bits * self.num_patterns
    }

    fn kind(&self) -> TechniqueKind {
        TechniqueKind::SfllFlex(self.num_patterns as u32)
    }

    fn lock(&self, original: &Circuit, secret: &SecretKey) -> Result<LockedCircuit, LockError> {
        if self.num_patterns == 0 || self.pattern_bits == 0 {
            return Err(LockError::NotEnoughInputs {
                available: 0,
                needed: 1,
            });
        }
        if secret.len() != self.key_bits() {
            return Err(LockError::KeyWidthMismatch {
                expected: self.key_bits(),
                got: secret.len(),
            });
        }
        let target_output = choose_target_output(original)?;
        let ppis = choose_protected_inputs(original, self.pattern_bits)?;
        let ppi_names = original.net_names(&ppis);
        let (mut locked, keys) = clone_with_key_inputs(original, self.key_bits(), "sfll_flex")?;
        let ppis: Vec<NetId> = ppi_names
            .iter()
            .map(|nm| locked.find_net(nm).expect("cloned input"))
            .collect();

        // Perturb unit: OR over the hard-wired pattern comparators (the FSC).
        let perturb_rows: Vec<NetId> = self
            .rows(secret.bits())
            .map(|row| hardwired_comparator(&mut locked, &ppis, row, "flex_pert"))
            .collect::<Result<_, _>>()?;
        let perturb = reduction_tree(&mut locked, GateType::Or, &perturb_rows, "flex_pert_or")?;
        corrupt_output(&mut locked, target_output, perturb)?;

        // Restore unit: OR over the key-row comparators (models the
        // tamper-proof pattern memory).
        let restore_rows: Vec<NetId> = keys
            .chunks(self.pattern_bits)
            .map(|row| comparator(&mut locked, &ppis, row, "flex_rest"))
            .collect::<Result<_, _>>()?;
        let restore = reduction_tree(&mut locked, GateType::Or, &restore_rows, "flex_rest_or")?;
        corrupt_output(&mut locked, target_output, restore)?;

        Ok(LockedCircuit {
            circuit: locked,
            technique: self.kind(),
            secret: secret.clone(),
            protected_inputs: ppi_names,
            target_output,
        })
    }
}

/// Row-activated LUT locking: the correction logic is a look-up table
/// addressed by the protected primary inputs whose contents are the key.
///
/// The perturb unit flips the target output on every protected pattern whose
/// secret LUT entry is 1; the restore unit is the LUT itself (one AND of a
/// hard-wired address comparator with the corresponding key bit per row,
/// OR-reduced). The key therefore has `2^address_bits` bits — the truth table
/// of the correction function — and the correct key is the secret truth
/// table.
#[derive(Debug, Clone)]
pub struct LutLock {
    address_bits: usize,
}

impl LutLock {
    /// LUT locking addressed by `address_bits` protected inputs
    /// (`2^address_bits` key bits).
    ///
    /// # Panics
    ///
    /// Panics if `address_bits` exceeds 16 — the key would have more than
    /// 65 536 bits, which is far beyond any published configuration and would
    /// only exhaust memory.
    pub fn new(address_bits: usize) -> Self {
        assert!(
            address_bits <= 16,
            "LUT locking with more than 16 address bits is not supported"
        );
        LutLock { address_bits }
    }

    /// Number of LUT address bits (protected inputs).
    pub fn address_bits(&self) -> usize {
        self.address_bits
    }

    fn address_pattern(&self, address: usize) -> Vec<bool> {
        (0..self.address_bits)
            .map(|bit| address >> bit & 1 != 0)
            .collect()
    }
}

impl LockingTechnique for LutLock {
    fn key_bits(&self) -> usize {
        1 << self.address_bits
    }

    fn kind(&self) -> TechniqueKind {
        TechniqueKind::LutLock
    }

    fn lock(&self, original: &Circuit, secret: &SecretKey) -> Result<LockedCircuit, LockError> {
        if self.address_bits == 0 {
            return Err(LockError::NotEnoughInputs {
                available: 0,
                needed: 1,
            });
        }
        if secret.len() != self.key_bits() {
            return Err(LockError::KeyWidthMismatch {
                expected: self.key_bits(),
                got: secret.len(),
            });
        }
        let target_output = choose_target_output(original)?;
        let ppis = choose_protected_inputs(original, self.address_bits)?;
        let ppi_names = original.net_names(&ppis);
        let (mut locked, keys) = clone_with_key_inputs(original, self.key_bits(), "lut_lock")?;
        let ppis: Vec<NetId> = ppi_names
            .iter()
            .map(|nm| locked.find_net(nm).expect("cloned input"))
            .collect();

        // Perturb unit: OR of the address comparators whose secret entry is 1.
        let mut perturb_rows: Vec<NetId> = Vec::new();
        for (address, &entry) in secret.bits().iter().enumerate() {
            if entry {
                let pattern = self.address_pattern(address);
                perturb_rows.push(hardwired_comparator(
                    &mut locked,
                    &ppis,
                    &pattern,
                    "lut_pert",
                )?);
            }
        }
        let perturb = reduction_tree(&mut locked, GateType::Or, &perturb_rows, "lut_pert_or")?;
        corrupt_output(&mut locked, target_output, perturb)?;

        // Restore unit: the LUT — row select AND key bit, OR-reduced.
        let mut restore_rows: Vec<NetId> = Vec::with_capacity(self.key_bits());
        for (address, &key) in keys.iter().enumerate() {
            let pattern = self.address_pattern(address);
            let select = hardwired_comparator(&mut locked, &ppis, &pattern, "lut_sel")?;
            restore_rows.push(locked.add_gate_auto(GateType::And, "lut_row", &[select, key])?);
        }
        let restore = reduction_tree(&mut locked, GateType::Or, &restore_rows, "lut_rest_or")?;
        corrupt_output(&mut locked, target_output, restore)?;

        Ok(LockedCircuit {
            circuit: locked,
            technique: TechniqueKind::LutLock,
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

    /// Patterns (over all primary inputs) on which the keyed circuit differs
    /// from the original.
    fn corrupted_patterns(original: &Circuit, locked: &LockedCircuit, key: &SecretKey) -> Vec<u64> {
        let unlocked = locked.apply_key(key).unwrap();
        let sim_a = Simulator::new(original).unwrap();
        let sim_b = Simulator::new(&unlocked).unwrap();
        let n = original.num_inputs();
        (0u64..(1 << n))
            .filter(|&p| {
                let bits: Vec<bool> = (0..n).map(|i| p >> i & 1 != 0).collect();
                sim_a.run(&bits).unwrap() != sim_b.run(&bits).unwrap()
            })
            .collect()
    }

    #[test]
    fn sfll_flex_correct_key_restores_the_function() {
        let original = adder4();
        // Two protected patterns of 3 bits: 0b101 and 0b010.
        let secret = SecretKey::from_bits(vec![true, false, true, false, true, false]);
        let locked = SfllFlex::new(3, 2).lock(&original, &secret).unwrap();
        assert_eq!(locked.key_width(), 6);
        assert!(corrupted_patterns(&original, &locked, &secret).is_empty());
    }

    #[test]
    fn sfll_flex_wrong_key_corrupts_every_unmatched_protected_pattern() {
        let original = adder4();
        let secret = SecretKey::from_bits(vec![true, false, true, false, true, false]);
        let locked = SfllFlex::new(3, 2).lock(&original, &secret).unwrap();
        // A key whose rows match neither protected pattern corrupts all input
        // patterns whose protected bits equal 0b101 or 0b010, plus the ones
        // matching the wrong rows.
        let wrong = SecretKey::from_bits(vec![false, false, false, true, true, true]);
        let corrupted = corrupted_patterns(&original, &locked, &wrong);
        assert!(!corrupted.is_empty());
        // Every input whose low 3 bits are a protected pattern must differ.
        let n = original.num_inputs();
        for input in 0u64..(1 << n) {
            let protected = input & 0b111;
            if protected == 0b101 || protected == 0b010 {
                assert!(
                    corrupted.contains(&input),
                    "pattern {input:b} should stay corrupted"
                );
            }
        }
    }

    #[test]
    fn sfll_flex_key_rows_are_order_insensitive() {
        // Storing the same set of patterns in a different row order is still
        // the correct key: the restore unit only checks set membership.
        let original = adder4();
        let secret = SecretKey::from_bits(vec![true, false, true, false, true, false]);
        let locked = SfllFlex::new(3, 2).lock(&original, &secret).unwrap();
        let swapped = SecretKey::from_bits(vec![false, true, false, true, false, true]);
        assert!(corrupted_patterns(&original, &locked, &swapped).is_empty());
        let unlocked = locked.apply_key(&swapped).unwrap();
        assert!(exhaustively_equivalent(&original, &unlocked).unwrap());
    }

    #[test]
    fn sfll_flex_parameter_validation() {
        let original = adder4();
        assert!(matches!(
            SfllFlex::new(3, 2).lock(&original, &SecretKey::from_u64(0, 5)),
            Err(LockError::KeyWidthMismatch {
                expected: 6,
                got: 5
            })
        ));
        assert!(matches!(
            SfllFlex::new(0, 2).lock(&original, &SecretKey::from_u64(0, 0)),
            Err(LockError::NotEnoughInputs { .. })
        ));
        assert!(matches!(
            SfllFlex::new(12, 1).lock(&original, &SecretKey::from_u64(0, 12)),
            Err(LockError::NotEnoughInputs { .. })
        ));
    }

    #[test]
    fn lut_lock_correct_key_restores_the_function() {
        let original = adder4();
        // 3 address bits -> 8 key bits; protect addresses {1, 6}.
        let secret = SecretKey::from_u64(0b0100_0010, 8);
        let locked = LutLock::new(3).lock(&original, &secret).unwrap();
        assert_eq!(locked.key_width(), 8);
        assert!(corrupted_patterns(&original, &locked, &secret).is_empty());
        let unlocked = locked.apply_key(&secret).unwrap();
        assert!(exhaustively_equivalent(&original, &unlocked).unwrap());
    }

    #[test]
    fn lut_lock_wrong_key_corrupts_exactly_the_mismatched_rows() {
        let original = adder4();
        let secret = SecretKey::from_u64(0b0000_0010, 8); // protect address 1
        let locked = LutLock::new(3).lock(&original, &secret).unwrap();
        // Wrong key that protects address 2 instead: inputs whose protected
        // bits decode to address 1 (still stripped) or address 2 (wrongly
        // flipped) are corrupted, everything else is untouched.
        let wrong = SecretKey::from_u64(0b0000_0100, 8);
        let corrupted = corrupted_patterns(&original, &locked, &wrong);
        assert!(!corrupted.is_empty());
        for input in corrupted {
            let address = input & 0b111;
            assert!(
                address == 1 || address == 2,
                "unexpected corrupted address {address}"
            );
        }
    }

    #[test]
    fn lut_lock_all_zero_secret_locks_nothing() {
        // An all-zero truth table means the perturb unit never fires; the
        // all-zero key is then correct and the circuit is never corrupted.
        let original = adder4();
        let secret = SecretKey::from_u64(0, 8);
        let locked = LutLock::new(3).lock(&original, &secret).unwrap();
        assert!(corrupted_patterns(&original, &locked, &secret).is_empty());
    }

    #[test]
    fn lut_lock_parameter_validation() {
        let original = adder4();
        assert!(matches!(
            LutLock::new(3).lock(&original, &SecretKey::from_u64(0, 4)),
            Err(LockError::KeyWidthMismatch {
                expected: 8,
                got: 4
            })
        ));
        assert!(matches!(
            LutLock::new(0).lock(&original, &SecretKey::from_u64(0, 1)),
            Err(LockError::NotEnoughInputs { .. })
        ));
    }

    #[test]
    fn kinds_are_reported_as_dflts() {
        assert!(TechniqueKind::SfllFlex(4).is_dflt());
        assert!(TechniqueKind::LutLock.is_dflt());
        assert!(!TechniqueKind::SfllFlex(4).is_sflt());
        assert_eq!(SfllFlex::new(3, 2).kind(), TechniqueKind::SfllFlex(2));
        assert_eq!(LutLock::new(4).kind(), TechniqueKind::LutLock);
        assert_eq!(SfllFlex::new(3, 2).key_bits(), 6);
        assert_eq!(LutLock::new(4).key_bits(), 16);
    }

    proptest::proptest! {
        /// Both §V techniques restore the original function under the secret
        /// key for random secrets.
        #[test]
        fn prop_flex_and_lut_correct_key_is_functional(seed in 0u64..12) {
            let mut rng = StdRng::seed_from_u64(seed);
            let original = adder4();
            let flex = SfllFlex::new(4, 2);
            let secret = SecretKey::random(&mut rng, flex.key_bits());
            let locked = flex.lock(&original, &secret).unwrap();
            let unlocked = locked.apply_key(&secret).unwrap();
            proptest::prop_assert!(exhaustively_equivalent(&original, &unlocked).unwrap());

            let lut = LutLock::new(3);
            let secret = SecretKey::random(&mut rng, lut.key_bits());
            let locked = lut.lock(&original, &secret).unwrap();
            let unlocked = locked.apply_key(&secret).unwrap();
            proptest::prop_assert!(exhaustively_equivalent(&original, &unlocked).unwrap());
        }
    }
}
