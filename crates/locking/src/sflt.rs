//! Single flip locking techniques (SFLTs): SARLock, Anti-SAT, CAS-Lock and
//! Gen-Anti-SAT.
//!
//! All four follow the template of the paper's Fig. 1(a): a locking unit
//! computes a critical signal from the protected primary inputs and the key
//! inputs, and that signal is XORed into one primary output. For the secret
//! key the critical signal is constant 0, so the circuit behaves exactly like
//! the original; for a wrong key it flips the output on (at least) one
//! protected input pattern, which is what makes the techniques resilient to
//! the SAT-based attack.

use crate::common::{
    choose_protected_inputs, choose_target_output, clone_with_key_inputs, comparator,
    corrupt_output, hardwired_comparator, mixed_reduction_tree, reduction_tree, LockedCircuit,
    LockingTechnique, SecretKey, TechniqueKind,
};
use crate::LockError;
use kratt_netlist::{Circuit, GateType, NetId};

/// SARLock: a comparator between the protected inputs and the key, masked so
/// the hard-wired secret never flips the output.
///
/// The flip signal is `(PPI == K) AND (K != secret)`: a wrong key corrupts
/// exactly the one input pattern equal to that key, so each DIP of the
/// SAT-based attack eliminates a single wrong key (the paper's Fig. 2).
#[derive(Debug, Clone)]
pub struct SarLock {
    key_bits: usize,
}

impl SarLock {
    /// SARLock with `key_bits` key inputs (and as many protected inputs).
    pub fn new(key_bits: usize) -> Self {
        SarLock { key_bits }
    }
}

impl LockingTechnique for SarLock {
    fn key_bits(&self) -> usize {
        self.key_bits
    }

    fn kind(&self) -> TechniqueKind {
        TechniqueKind::SarLock
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
        let (mut locked, keys) = clone_with_key_inputs(original, self.key_bits, "sarlock")?;
        let ppis: Vec<NetId> = ppi_names
            .iter()
            .map(|n| locked.find_net(n).expect("cloned input"))
            .collect();

        let matches_key = comparator(&mut locked, &ppis, &keys, "sar_cmp")?;
        let is_secret = hardwired_comparator(&mut locked, &keys, secret.bits(), "sar_mask")?;
        let not_secret = locked.add_gate_auto(GateType::Not, "sar_maskn", &[is_secret])?;
        let flip = locked.add_gate_auto(GateType::And, "sar_flip", &[matches_key, not_secret])?;
        corrupt_output(&mut locked, target_output, flip)?;

        Ok(LockedCircuit {
            circuit: locked,
            technique: TechniqueKind::SarLock,
            secret: secret.clone(),
            protected_inputs: ppi_names,
            target_output,
        })
    }
}

/// Anti-SAT: two complementary AND-tree functions over key-XORed protected
/// inputs; their conjunction is constant 0 exactly for the correct keys.
///
/// Each protected input is associated with *two* key inputs (`keyinput{i}`
/// and `keyinput{i + n}`), as in the paper's Fig. 3(b). The polarity of the
/// second block is chosen so that the caller's secret key is a correct key.
#[derive(Debug, Clone)]
pub struct AntiSat {
    key_bits: usize,
}

impl AntiSat {
    /// Anti-SAT with `key_bits` key inputs (`key_bits / 2` protected inputs).
    ///
    /// # Panics
    ///
    /// Panics if `key_bits` is odd: Anti-SAT always uses key pairs.
    pub fn new(key_bits: usize) -> Self {
        assert!(
            key_bits.is_multiple_of(2),
            "Anti-SAT requires an even number of key bits"
        );
        AntiSat { key_bits }
    }

    fn build_blocks(
        &self,
        locked: &mut Circuit,
        ppis: &[NetId],
        keys: &[NetId],
        secret: &SecretKey,
        mixed: bool,
    ) -> Result<NetId, LockError> {
        let n = ppis.len();
        let (left_keys, right_keys) = keys.split_at(n);
        let (left_secret, right_secret) = secret.bits().split_at(n);

        // Left block: a_i = ppi_i XOR kl_i.
        let left_bits: Vec<NetId> = ppis
            .iter()
            .zip(left_keys)
            .map(|(&p, &k)| locked.add_gate_auto(GateType::Xor, "as_l", &[p, k]))
            .collect::<Result<_, _>>()?;
        // Right block: b_i = ppi_i XOR kr_i XOR beta_i where beta = sl XOR sr,
        // so that for the caller's secret the two blocks see identical
        // vectors and the conjunction below is constant 0.
        let right_bits: Vec<NetId> = ppis
            .iter()
            .zip(right_keys)
            .zip(left_secret.iter().zip(right_secret))
            .map(|((&p, &k), (&sl, &sr))| {
                let ty = if sl ^ sr {
                    GateType::Xnor
                } else {
                    GateType::Xor
                };
                locked.add_gate_auto(ty, "as_r", &[p, k])
            })
            .collect::<Result<_, _>>()?;

        let (g, gb) = if mixed {
            (
                mixed_reduction_tree(locked, GateType::And, GateType::Or, &left_bits, "cas_g")?,
                mixed_reduction_tree(locked, GateType::And, GateType::Or, &right_bits, "cas_gb")?,
            )
        } else {
            (
                reduction_tree(locked, GateType::And, &left_bits, "as_g")?,
                reduction_tree(locked, GateType::And, &right_bits, "as_gb")?,
            )
        };
        let not_gb = locked.add_gate_auto(GateType::Not, "as_gbn", &[gb])?;
        Ok(locked.add_gate_auto(GateType::And, "as_flip", &[g, not_gb])?)
    }
}

impl LockingTechnique for AntiSat {
    fn key_bits(&self) -> usize {
        self.key_bits
    }

    fn kind(&self) -> TechniqueKind {
        TechniqueKind::AntiSat
    }

    fn lock(&self, original: &Circuit, secret: &SecretKey) -> Result<LockedCircuit, LockError> {
        lock_anti_sat_family(self, original, secret, false, TechniqueKind::AntiSat)
    }
}

/// CAS-Lock: the Anti-SAT construction with a mixed AND/OR reduction tree,
/// trading corruption for SAT resilience as described in the paper.
#[derive(Debug, Clone)]
pub struct CasLock {
    inner: AntiSat,
}

impl CasLock {
    /// CAS-Lock with `key_bits` key inputs (`key_bits / 2` protected inputs).
    ///
    /// # Panics
    ///
    /// Panics if `key_bits` is odd.
    pub fn new(key_bits: usize) -> Self {
        CasLock {
            inner: AntiSat::new(key_bits),
        }
    }
}

impl LockingTechnique for CasLock {
    fn key_bits(&self) -> usize {
        self.inner.key_bits
    }

    fn kind(&self) -> TechniqueKind {
        TechniqueKind::CasLock
    }

    fn lock(&self, original: &Circuit, secret: &SecretKey) -> Result<LockedCircuit, LockError> {
        lock_anti_sat_family(&self.inner, original, secret, true, TechniqueKind::CasLock)
    }
}

fn lock_anti_sat_family(
    technique: &AntiSat,
    original: &Circuit,
    secret: &SecretKey,
    mixed: bool,
    kind: TechniqueKind,
) -> Result<LockedCircuit, LockError> {
    if secret.len() != technique.key_bits {
        return Err(LockError::KeyWidthMismatch {
            expected: technique.key_bits,
            got: secret.len(),
        });
    }
    let n = technique.key_bits / 2;
    let target_output = choose_target_output(original)?;
    let ppis = choose_protected_inputs(original, n)?;
    let ppi_names = original.net_names(&ppis);
    let (mut locked, keys) = clone_with_key_inputs(
        original,
        technique.key_bits,
        &kind.to_string().to_lowercase(),
    )?;
    let ppis: Vec<NetId> = ppi_names
        .iter()
        .map(|nm| locked.find_net(nm).expect("cloned input"))
        .collect();
    let flip = technique.build_blocks(&mut locked, &ppis, &keys, secret, mixed)?;
    corrupt_output(&mut locked, target_output, flip)?;
    Ok(LockedCircuit {
        circuit: locked,
        technique: kind,
        secret: secret.clone(),
        protected_inputs: ppi_names,
        target_output,
    })
}

/// Gen-Anti-SAT: the generalization of Anti-SAT that replaces the
/// complementary function pair by *non-complementary* functions (here a
/// one-point AND tree and a wide-on-set OR tree), increasing output
/// corruption for wrong keys.
#[derive(Debug, Clone)]
pub struct GenAntiSat {
    key_bits: usize,
}

impl GenAntiSat {
    /// Gen-Anti-SAT with `key_bits` key inputs (`key_bits / 2` protected
    /// inputs).
    ///
    /// # Panics
    ///
    /// Panics if `key_bits` is odd.
    pub fn new(key_bits: usize) -> Self {
        assert!(
            key_bits.is_multiple_of(2),
            "Gen-Anti-SAT requires an even number of key bits"
        );
        GenAntiSat { key_bits }
    }
}

impl LockingTechnique for GenAntiSat {
    fn key_bits(&self) -> usize {
        self.key_bits
    }

    fn kind(&self) -> TechniqueKind {
        TechniqueKind::GenAntiSat
    }

    fn lock(&self, original: &Circuit, secret: &SecretKey) -> Result<LockedCircuit, LockError> {
        if secret.len() != self.key_bits {
            return Err(LockError::KeyWidthMismatch {
                expected: self.key_bits,
                got: secret.len(),
            });
        }
        let n = self.key_bits / 2;
        let target_output = choose_target_output(original)?;
        let ppis = choose_protected_inputs(original, n)?;
        let ppi_names = original.net_names(&ppis);
        let (mut locked, keys) = clone_with_key_inputs(original, self.key_bits, "genantisat")?;
        let ppis: Vec<NetId> = ppi_names
            .iter()
            .map(|nm| locked.find_net(nm).expect("cloned input"))
            .collect();

        let (left_keys, right_keys) = keys.split_at(n);
        let (left_secret, right_secret) = secret.bits().split_at(n);

        // g1: one-point AND tree over ppi XOR kl — true only when the
        // protected inputs equal the bitwise complement of the left key.
        let left_bits: Vec<NetId> = ppis
            .iter()
            .zip(left_keys)
            .map(|(&p, &k)| locked.add_gate_auto(GateType::Xor, "gas_l", &[p, k]))
            .collect::<Result<_, _>>()?;
        let g1 = reduction_tree(&mut locked, GateType::And, &left_bits, "gas_g1")?;

        // g2: wide OR tree over ppi XOR kr XOR beta with beta chosen so the
        // caller's secret is a correct key: the two on-sets must be disjoint,
        // i.e. beta_i = NOT (sl_i XOR sr_i).
        let right_bits: Vec<NetId> = ppis
            .iter()
            .zip(right_keys)
            .zip(left_secret.iter().zip(right_secret))
            .map(|((&p, &k), (&sl, &sr))| {
                let beta = !(sl ^ sr);
                let ty = if beta { GateType::Xnor } else { GateType::Xor };
                locked.add_gate_auto(ty, "gas_r", &[p, k])
            })
            .collect::<Result<_, _>>()?;
        let g2 = reduction_tree(&mut locked, GateType::Or, &right_bits, "gas_g2")?;

        let flip = locked.add_gate_auto(GateType::And, "gas_flip", &[g1, g2])?;
        corrupt_output(&mut locked, target_output, flip)?;
        Ok(LockedCircuit {
            circuit: locked,
            technique: TechniqueKind::GenAntiSat,
            secret: secret.clone(),
            protected_inputs: ppi_names,
            target_output,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::verify_key_by_simulation;
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
        // 4-bit ripple-carry adder: 9 inputs (a0..3, b0..3, cin), 5 outputs.
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

    fn exhaustive_wrong_key_corrupts(
        original: &Circuit,
        locked: &LockedCircuit,
        wrong: &SecretKey,
    ) -> bool {
        // Returns true if the wrong key corrupts at least one input pattern.
        let unlocked = locked.apply_key(wrong).unwrap();
        !exhaustively_equivalent(original, &unlocked).unwrap()
    }

    #[test]
    fn sarlock_correct_key_restores_function() {
        let original = majority();
        let secret = SecretKey::from_u64(0b100, 3);
        let locked = SarLock::new(3).lock(&original, &secret).unwrap();
        assert_eq!(locked.circuit.key_inputs().len(), 3);
        assert_eq!(locked.protected_inputs, vec!["a", "b", "x"]);
        let unlocked = locked.apply_key(&secret).unwrap();
        assert!(exhaustively_equivalent(&original, &unlocked).unwrap());
    }

    #[test]
    fn sarlock_wrong_keys_corrupt_exactly_one_pattern() {
        let original = majority();
        let secret = SecretKey::from_u64(0b100, 3);
        let locked = SarLock::new(3).lock(&original, &secret).unwrap();
        let sim_orig = Simulator::new(&original).unwrap();
        for wrong in 0u64..8 {
            if wrong == secret.to_u64() {
                continue;
            }
            let unlocked = locked.apply_key(&SecretKey::from_u64(wrong, 3)).unwrap();
            let sim_bad = Simulator::new(&unlocked).unwrap();
            let mut differing = 0;
            for pattern in 0u64..8 {
                let bits: Vec<bool> = (0..3).map(|i| pattern >> i & 1 != 0).collect();
                if sim_orig.run(&bits).unwrap() != sim_bad.run(&bits).unwrap() {
                    differing += 1;
                }
            }
            assert_eq!(
                differing, 1,
                "wrong key {wrong:03b} must corrupt exactly one pattern"
            );
        }
    }

    #[test]
    fn anti_sat_correct_key_restores_function() {
        let original = adder4();
        let mut rng = StdRng::seed_from_u64(7);
        let secret = SecretKey::random(&mut rng, 8);
        let locked = AntiSat::new(8).lock(&original, &secret).unwrap();
        assert_eq!(locked.circuit.key_inputs().len(), 8);
        assert_eq!(locked.protected_inputs.len(), 4);
        assert!(
            verify_key_by_simulation(&original, &locked.circuit, &secret, 64, &mut rng).unwrap()
        );
        // Exhaustive check on the small majority circuit too.
        let original = majority();
        let secret = SecretKey::from_u64(0b10_11, 4);
        let locked = AntiSat::new(4).lock(&original, &secret).unwrap();
        let unlocked = locked.apply_key(&secret).unwrap();
        assert!(exhaustively_equivalent(&original, &unlocked).unwrap());
    }

    #[test]
    fn anti_sat_some_wrong_key_corrupts() {
        let original = majority();
        let secret = SecretKey::from_u64(0b01_10, 4);
        let locked = AntiSat::new(4).lock(&original, &secret).unwrap();
        // A key whose left/right difference differs from the secret's must
        // corrupt at least one pattern.
        let wrong = SecretKey::from_u64(0b00_11 ^ 0b00_01, 4);
        assert!(exhaustive_wrong_key_corrupts(&original, &locked, &wrong));
    }

    #[test]
    fn cas_lock_correct_key_restores_function() {
        let original = adder4();
        let mut rng = StdRng::seed_from_u64(11);
        let secret = SecretKey::random(&mut rng, 8);
        let locked = CasLock::new(8).lock(&original, &secret).unwrap();
        assert_eq!(locked.technique, TechniqueKind::CasLock);
        assert!(
            verify_key_by_simulation(&original, &locked.circuit, &secret, 64, &mut rng).unwrap()
        );
        let original = majority();
        let secret = SecretKey::from_u64(0b11_01, 4);
        let locked = CasLock::new(4).lock(&original, &secret).unwrap();
        let unlocked = locked.apply_key(&secret).unwrap();
        assert!(exhaustively_equivalent(&original, &unlocked).unwrap());
    }

    #[test]
    fn gen_anti_sat_correct_key_restores_and_wrong_key_corrupts() {
        let original = majority();
        let secret = SecretKey::from_u64(0b01_11, 4);
        let locked = GenAntiSat::new(4).lock(&original, &secret).unwrap();
        let unlocked = locked.apply_key(&secret).unwrap();
        assert!(exhaustively_equivalent(&original, &unlocked).unwrap());
        // Flip one bit of the right half: the on-sets now intersect.
        let wrong = SecretKey::from_u64(secret.to_u64() ^ 0b10_00, 4);
        assert!(exhaustive_wrong_key_corrupts(&original, &locked, &wrong));
    }

    #[test]
    fn wrong_key_width_is_rejected() {
        let original = majority();
        let secret = SecretKey::from_u64(0, 2);
        assert!(matches!(
            SarLock::new(3).lock(&original, &secret),
            Err(LockError::KeyWidthMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert!(matches!(
            AntiSat::new(8).lock(&original, &SecretKey::from_u64(0, 8)),
            Err(LockError::NotEnoughInputs {
                available: 3,
                needed: 4
            })
        ));
    }

    #[test]
    fn locked_netlists_keep_the_original_interface_plus_keys() {
        let original = adder4();
        let secret = SecretKey::from_u64(0x1ff & 0xab, 9);
        let locked = SarLock::new(9).lock(&original, &secret).unwrap();
        assert_eq!(locked.circuit.num_outputs(), original.num_outputs());
        assert_eq!(
            locked.circuit.num_inputs(),
            original.num_inputs() + 9,
            "inputs = original + key bits"
        );
        // The corrupted output keeps its name.
        let target = locked.target_output;
        assert_eq!(
            locked.circuit.net_name(locked.circuit.outputs()[target]),
            original.net_name(original.outputs()[target])
        );
    }

    proptest::proptest! {
        /// For every SFLT, the configured secret key always restores the
        /// original function (checked exhaustively on an 8-input adder).
        #[test]
        fn prop_sflt_correct_key_is_functional(seed in 0u64..20) {
            let mut rng = StdRng::seed_from_u64(seed);
            let original = adder4();
            let techniques: Vec<Box<dyn LockingTechnique>> = vec![
                Box::new(SarLock::new(6)),
                Box::new(AntiSat::new(6)),
                Box::new(CasLock::new(6)),
                Box::new(GenAntiSat::new(6)),
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
