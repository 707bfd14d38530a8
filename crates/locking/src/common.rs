//! Shared types and circuit gadgets used by every locking technique.

use crate::LockError;
use kratt_netlist::analysis::fanin_cone_gates;
use kratt_netlist::transform::set_inputs_constant;
use kratt_netlist::{Circuit, GateType, NetId, KEY_INPUT_PREFIX};
use rand::Rng;
use std::fmt;

/// A secret key: the bit vector the locking technique hard-wires into its
/// corruption logic and that the attacks try to recover.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SecretKey {
    bits: Vec<bool>,
}

impl SecretKey {
    /// Builds a key from explicit bits (index 0 = `keyinput0`).
    pub fn from_bits(bits: Vec<bool>) -> Self {
        SecretKey { bits }
    }

    /// Builds a key from the low `width` bits of `value`.
    pub fn from_u64(value: u64, width: usize) -> Self {
        SecretKey {
            bits: (0..width).map(|i| value >> i & 1 != 0).collect(),
        }
    }

    /// Samples a uniformly random key of the given width.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, width: usize) -> Self {
        SecretKey {
            bits: (0..width).map(|_| rng.gen_bool(0.5)).collect(),
        }
    }

    /// The key bits (index 0 = `keyinput0`).
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Number of key bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the key has zero bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The key packed into a `u64` (low bit = bit 0).
    ///
    /// # Panics
    ///
    /// Panics if the key is wider than 64 bits.
    pub fn to_u64(&self) -> u64 {
        assert!(self.bits.len() <= 64, "key too wide for u64");
        self.bits
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
    }

    /// Renders the key as a width-preserving Verilog-style hex literal,
    /// e.g. `5'h17` for the 5-bit key `10111`. Unlike the binary
    /// [`Display`](fmt::Display) form this stays readable for the 128-bit
    /// keys of the paper's larger benchmarks, so it is what the JSON reports
    /// carry.
    pub fn to_hex(&self) -> String {
        let mut digits = String::with_capacity(self.bits.len().div_ceil(4));
        for nibble_index in (0..self.bits.len().div_ceil(4)).rev() {
            let mut nibble = 0u8;
            for offset in 0..4 {
                let bit = nibble_index * 4 + offset;
                if self.bits.get(bit).copied().unwrap_or(false) {
                    nibble |= 1 << offset;
                }
            }
            digits.push(char::from_digit(u32::from(nibble), 16).expect("nibble < 16"));
        }
        if digits.is_empty() {
            digits.push('0');
        }
        format!("{}'h{}", self.bits.len(), digits)
    }

    /// Parses the width-preserving hex form produced by [`SecretKey::to_hex`]
    /// (`<width>'h<digits>`, most significant digit first).
    ///
    /// # Errors
    ///
    /// Returns [`LockError::BadSpec`] if the string is not of that form, a
    /// digit is not hexadecimal, or the digits set a bit at or above `width`.
    pub fn from_hex(text: &str) -> Result<Self, LockError> {
        let bad = |message: String| LockError::BadSpec(message);
        let (width_text, digits) = text
            .split_once("'h")
            .ok_or_else(|| bad(format!("`{text}` is not of the form <width>'h<digits>")))?;
        let width: usize = width_text
            .parse()
            .map_err(|_| bad(format!("`{width_text}` is not a key width")))?;
        if digits.is_empty() {
            return Err(bad(format!("`{text}` has no hex digits")));
        }
        let mut bits = vec![false; width];
        for (nibble_index, c) in digits.chars().rev().enumerate() {
            let nibble = c
                .to_digit(16)
                .ok_or_else(|| bad(format!("`{c}` is not a hex digit")))?;
            for offset in 0..4 {
                if nibble >> offset & 1 != 0 {
                    let bit = nibble_index * 4 + offset;
                    if bit >= width {
                        return Err(bad(format!(
                            "hex digits of `{text}` overflow the {width}-bit width"
                        )));
                    }
                    bits[bit] = true;
                }
            }
        }
        Ok(SecretKey { bits })
    }

    /// Number of bit positions on which `self` and `other` agree (compared up
    /// to the shorter length).
    pub fn matching_bits(&self, other: &SecretKey) -> usize {
        self.bits
            .iter()
            .zip(&other.bits)
            .filter(|(a, b)| a == b)
            .count()
    }
}

impl fmt::Display for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Most-significant bit first, as the paper writes k3k2k1.
        for &bit in self.bits.iter().rev() {
            write!(f, "{}", u8::from(bit))?;
        }
        Ok(())
    }
}

/// The family / name of a locking technique, used for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TechniqueKind {
    /// SARLock (SFLT).
    SarLock,
    /// Anti-SAT (SFLT).
    AntiSat,
    /// CAS-Lock (SFLT).
    CasLock,
    /// Generalized Anti-SAT (SFLT, non-complementary functions).
    GenAntiSat,
    /// TTLock (DFLT).
    TtLock,
    /// Corrupt-and-correct (DFLT).
    Cac,
    /// Stripped-functionality logic locking with Hamming distance `h` (DFLT).
    SfllHd(u32),
    /// SFLL-Flex protecting `k` input patterns whose restore table is meant to
    /// live in read-proof hardware (paper §V).
    SfllFlex(u32),
    /// Row-activated LUT locking: the correction LUT contents are the key
    /// (paper §V).
    LutLock,
    /// Random XOR/XNOR key-gate insertion (pre-SAT-attack baseline).
    RandomXor,
}

impl TechniqueKind {
    /// Whether the technique is a single flip locking technique.
    pub fn is_sflt(self) -> bool {
        matches!(
            self,
            TechniqueKind::SarLock
                | TechniqueKind::AntiSat
                | TechniqueKind::CasLock
                | TechniqueKind::GenAntiSat
        )
    }

    /// Whether the technique is a double flip locking technique.
    pub fn is_dflt(self) -> bool {
        matches!(
            self,
            TechniqueKind::TtLock
                | TechniqueKind::Cac
                | TechniqueKind::SfllHd(_)
                | TechniqueKind::SfllFlex(_)
                | TechniqueKind::LutLock
        )
    }
}

impl fmt::Display for TechniqueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TechniqueKind::SarLock => write!(f, "SARLock"),
            TechniqueKind::AntiSat => write!(f, "Anti-SAT"),
            TechniqueKind::CasLock => write!(f, "CAS-Lock"),
            TechniqueKind::GenAntiSat => write!(f, "Gen-Anti-SAT"),
            TechniqueKind::TtLock => write!(f, "TTLock"),
            TechniqueKind::Cac => write!(f, "CAC"),
            TechniqueKind::SfllHd(h) => write!(f, "SFLL-HD({h})"),
            TechniqueKind::SfllFlex(k) => write!(f, "SFLL-Flex({k})"),
            TechniqueKind::LutLock => write!(f, "LUT-Lock"),
            TechniqueKind::RandomXor => write!(f, "RLL"),
        }
    }
}

/// The result of locking a circuit: the locked netlist plus the metadata an
/// evaluation needs to score attacks against it.
#[derive(Debug, Clone)]
pub struct LockedCircuit {
    /// The locked netlist (key inputs named `keyinput*`).
    pub circuit: Circuit,
    /// The technique that produced it.
    pub technique: TechniqueKind,
    /// The secret key.
    pub secret: SecretKey,
    /// Names of the protected primary inputs, in key-association order (for
    /// Anti-SAT style techniques, protected input `i` is associated with key
    /// inputs `i` and `i + n`).
    pub protected_inputs: Vec<String>,
    /// Index of the corrupted primary output.
    pub target_output: usize,
}

impl LockedCircuit {
    /// Applies a key by tying the key inputs to constants and simplifying,
    /// producing an ordinary unlocked netlist with the original interface.
    ///
    /// # Errors
    ///
    /// Returns an error if the key width does not match the circuit's key
    /// inputs.
    pub fn apply_key(&self, key: &SecretKey) -> Result<Circuit, LockError> {
        apply_key(&self.circuit, key)
    }

    /// Number of key inputs in the locked netlist.
    pub fn key_width(&self) -> usize {
        self.circuit.key_inputs().len()
    }
}

/// Ties the key inputs of a locked netlist to the given key bits and
/// simplifies the result.
///
/// # Errors
///
/// Returns [`LockError::KeyWidthMismatch`] if the key width differs from the
/// number of key inputs.
pub fn apply_key(locked: &Circuit, key: &SecretKey) -> Result<Circuit, LockError> {
    let key_inputs = locked.key_inputs();
    if key_inputs.len() != key.len() {
        return Err(LockError::KeyWidthMismatch {
            expected: key_inputs.len(),
            got: key.len(),
        });
    }
    let assignment: Vec<(NetId, bool)> = key_inputs
        .iter()
        .copied()
        .zip(key.bits().iter().copied())
        .collect();
    Ok(set_inputs_constant(locked, &assignment)?)
}

/// Interface implemented by every locking technique.
pub trait LockingTechnique {
    /// The number of key bits the technique will insert for its configured
    /// parameters.
    fn key_bits(&self) -> usize;

    /// The technique's kind (for reporting).
    fn kind(&self) -> TechniqueKind;

    /// Locks `original` with `secret`, producing the locked netlist and its
    /// metadata.
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit is too small for the configured
    /// parameters or the key width is wrong.
    fn lock(&self, original: &Circuit, secret: &SecretKey) -> Result<LockedCircuit, LockError>;
}

/// Chooses the primary output to corrupt: the one with the largest fan-in
/// cone (a proxy for "the most functionally significant output").
pub(crate) fn choose_target_output(circuit: &Circuit) -> Result<usize, LockError> {
    if circuit.num_outputs() == 0 {
        return Err(LockError::NoOutputs);
    }
    let mut best = 0;
    let mut best_size = 0;
    for (i, &o) in circuit.outputs().iter().enumerate() {
        let size = fanin_cone_gates(circuit, &[o]).len();
        if size > best_size {
            best_size = size;
            best = i;
        }
    }
    Ok(best)
}

/// Chooses the protected primary inputs: the first `n` data (non-key) inputs.
pub(crate) fn choose_protected_inputs(
    circuit: &Circuit,
    n: usize,
) -> Result<Vec<NetId>, LockError> {
    let data = circuit.data_inputs();
    if data.len() < n {
        return Err(LockError::NotEnoughInputs {
            available: data.len(),
            needed: n,
        });
    }
    Ok(data[..n].to_vec())
}

/// Starts a locked copy of `original`: clones the netlist, appends `key_bits`
/// fresh key inputs named `keyinput0..` and returns them.
pub(crate) fn clone_with_key_inputs(
    original: &Circuit,
    key_bits: usize,
    technique: &str,
) -> Result<(Circuit, Vec<NetId>), LockError> {
    let mut locked = original.clone();
    locked.set_name(format!("{}_{}", original.name(), technique));
    let mut keys = Vec::with_capacity(key_bits);
    for i in 0..key_bits {
        keys.push(locked.add_input(format!("{KEY_INPUT_PREFIX}{i}"))?);
    }
    Ok((locked, keys))
}

/// Builds a bit-wise equality comparator `AND_i (a_i XNOR b_i)` and returns
/// its output net.
pub(crate) fn comparator(
    circuit: &mut Circuit,
    a: &[NetId],
    b: &[NetId],
    prefix: &str,
) -> Result<NetId, LockError> {
    debug_assert_eq!(a.len(), b.len());
    let eqs: Vec<NetId> = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| circuit.add_gate_auto(GateType::Xnor, &format!("{prefix}_eq"), &[x, y]))
        .collect::<Result<_, _>>()?;
    Ok(reduction_tree(
        circuit,
        GateType::And,
        &eqs,
        &format!("{prefix}_and"),
    )?)
}

/// Builds a comparator between nets and a hard-wired constant pattern:
/// `AND_i (a_i == pattern_i)` (inverters on the zero bits).
pub(crate) fn hardwired_comparator(
    circuit: &mut Circuit,
    a: &[NetId],
    pattern: &[bool],
    prefix: &str,
) -> Result<NetId, LockError> {
    debug_assert_eq!(a.len(), pattern.len());
    let terms: Vec<NetId> = a
        .iter()
        .zip(pattern)
        .map(|(&net, &bit)| {
            if bit {
                Ok(net)
            } else {
                circuit.add_gate_auto(GateType::Not, &format!("{prefix}_inv"), &[net])
            }
        })
        .collect::<Result<Vec<_>, kratt_netlist::NetlistError>>()?;
    Ok(reduction_tree(
        circuit,
        GateType::And,
        &terms,
        &format!("{prefix}_and"),
    )?)
}

/// Builds a balanced binary reduction tree of two-input gates of type `ty`
/// over `nets` and returns the root. A single net is passed through a buffer
/// so the result is always a gate output (which keeps unit-extraction logic
/// simple).
pub(crate) fn reduction_tree(
    circuit: &mut Circuit,
    ty: GateType,
    nets: &[NetId],
    prefix: &str,
) -> Result<NetId, kratt_netlist::NetlistError> {
    match nets.len() {
        0 => circuit.add_gate_auto(
            if ty == GateType::And {
                GateType::Const1
            } else {
                GateType::Const0
            },
            prefix,
            &[],
        ),
        1 => circuit.add_gate_auto(GateType::Buf, prefix, &[nets[0]]),
        _ => {
            let mut level: Vec<NetId> = nets.to_vec();
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len().div_ceil(2));
                for pair in level.chunks(2) {
                    if pair.len() == 2 {
                        next.push(circuit.add_gate_auto(ty, prefix, pair)?);
                    } else {
                        next.push(pair[0]);
                    }
                }
                level = next;
            }
            Ok(level[0])
        }
    }
}

/// Like [`reduction_tree`] but alternates between two gate types level by
/// level (the CAS-Lock construction mixes AND and OR gates in its tree).
pub(crate) fn mixed_reduction_tree(
    circuit: &mut Circuit,
    first: GateType,
    second: GateType,
    nets: &[NetId],
    prefix: &str,
) -> Result<NetId, kratt_netlist::NetlistError> {
    if nets.len() <= 1 {
        return reduction_tree(circuit, first, nets, prefix);
    }
    let mut level: Vec<NetId> = nets.to_vec();
    let mut use_first = true;
    while level.len() > 1 {
        let ty = if use_first { first } else { second };
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(circuit.add_gate_auto(ty, prefix, pair)?);
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
        use_first = !use_first;
    }
    Ok(level[0])
}

/// XORs `flip` into the primary output at `target_output`, preserving the
/// output's original name on the new locked output net (the original net is
/// renamed with an `$enc` suffix). Returns the net that now carries the
/// locked output.
pub(crate) fn corrupt_output(
    circuit: &mut Circuit,
    target_output: usize,
    flip: NetId,
) -> Result<NetId, LockError> {
    let original = circuit.outputs()[target_output];
    let name = circuit.net_name(original).to_string();
    let renamed = circuit.fresh_net_name(&format!("{name}$enc"));
    circuit.rename_net(original, renamed)?;
    let locked = circuit.add_gate(GateType::Xor, name, &[original, flip])?;
    circuit.replace_output_at(target_output, locked);
    Ok(locked)
}

/// Checks a candidate key against the original circuit by simulating
/// `patterns` random input vectors (and the all-zero / all-one vectors).
/// Returns `true` when every simulated pattern agrees. This is a cheap,
/// probabilistic check; the `kratt-synth` crate provides the exact SAT-based
/// equivalence check.
pub fn verify_key_by_simulation<R: Rng + ?Sized>(
    original: &Circuit,
    locked: &Circuit,
    key: &SecretKey,
    patterns: usize,
    rng: &mut R,
) -> Result<bool, LockError> {
    let unlocked = apply_key(locked, key)?;
    let sim_orig = kratt_netlist::sim::Simulator::new(original).map_err(LockError::Netlist)?;
    let sim_unlocked = kratt_netlist::sim::Simulator::new(&unlocked).map_err(LockError::Netlist)?;
    let width = original.num_inputs();
    let mut vectors: Vec<Vec<bool>> = vec![vec![false; width], vec![true; width]];
    for _ in 0..patterns {
        vectors.push((0..width).map(|_| rng.gen_bool(0.5)).collect());
    }
    for vector in vectors {
        let a = sim_orig.run(&vector).map_err(LockError::Netlist)?;
        let b = sim_unlocked.run(&vector).map_err(LockError::Netlist)?;
        if a != b {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn secret_key_round_trips() {
        let key = SecretKey::from_u64(0b1011, 4);
        assert_eq!(key.bits(), &[true, true, false, true]);
        assert_eq!(key.to_u64(), 0b1011);
        assert_eq!(key.len(), 4);
        assert_eq!(key.to_string(), "1011");
        let other = SecretKey::from_u64(0b1001, 4);
        assert_eq!(key.matching_bits(&other), 3);
    }

    #[test]
    fn secret_key_hex_round_trips_and_preserves_width() {
        // 5 bits: the top nibble is partial, which is exactly where a naive
        // encoding would lose the width.
        let key = SecretKey::from_u64(0b10111, 5);
        assert_eq!(key.to_hex(), "5'h17");
        assert_eq!(SecretKey::from_hex("5'h17").unwrap(), key);

        // Wide keys (beyond u64) round-trip too.
        let mut rng = StdRng::seed_from_u64(9);
        for width in [0usize, 1, 4, 7, 64, 128, 131] {
            let key = SecretKey::random(&mut rng, width);
            let hex = key.to_hex();
            let back = SecretKey::from_hex(&hex).unwrap();
            assert_eq!(back, key, "width {width} via {hex}");
            assert_eq!(back.len(), width);
        }
        assert_eq!(SecretKey::from_u64(0, 0).to_hex(), "0'h0");

        // Malformed forms are structured errors, not panics.
        for bad in ["", "17", "5h17", "x'h17", "5'h", "5'hg", "3'hf"] {
            assert!(
                matches!(SecretKey::from_hex(bad), Err(LockError::BadSpec(_))),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn random_keys_have_requested_width() {
        let mut rng = StdRng::seed_from_u64(1);
        let key = SecretKey::random(&mut rng, 128);
        assert_eq!(key.len(), 128);
        assert!(!key.is_empty());
    }

    #[test]
    fn technique_kind_families() {
        assert!(TechniqueKind::SarLock.is_sflt());
        assert!(TechniqueKind::GenAntiSat.is_sflt());
        assert!(!TechniqueKind::SarLock.is_dflt());
        assert!(TechniqueKind::TtLock.is_dflt());
        assert!(TechniqueKind::SfllHd(2).is_dflt());
        assert!(!TechniqueKind::RandomXor.is_sflt());
        assert_eq!(TechniqueKind::SfllHd(2).to_string(), "SFLL-HD(2)");
    }

    #[test]
    fn reduction_trees_compute_expected_functions() {
        let mut c = Circuit::new("tree");
        let ins: Vec<NetId> = (0..5)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        let and_root = reduction_tree(&mut c, GateType::And, &ins, "and").unwrap();
        let or_root = reduction_tree(&mut c, GateType::Or, &ins, "or").unwrap();
        c.mark_output(and_root);
        c.mark_output(or_root);
        let sim = kratt_netlist::sim::Simulator::new(&c).unwrap();
        for pattern in 0u64..32 {
            let bits: Vec<bool> = (0..5).map(|i| pattern >> i & 1 != 0).collect();
            let out = sim.run(&bits).unwrap();
            assert_eq!(out[0], bits.iter().all(|&b| b));
            assert_eq!(out[1], bits.iter().any(|&b| b));
        }
    }

    #[test]
    fn comparators_detect_equality() {
        let mut c = Circuit::new("cmp");
        let xs: Vec<NetId> = (0..3)
            .map(|i| c.add_input(format!("x{i}")).unwrap())
            .collect();
        let ys: Vec<NetId> = (0..3)
            .map(|i| c.add_input(format!("y{i}")).unwrap())
            .collect();
        let eq = comparator(&mut c, &xs, &ys, "cmp").unwrap();
        let fixed = hardwired_comparator(&mut c, &xs, &[true, false, true], "hw").unwrap();
        c.mark_output(eq);
        c.mark_output(fixed);
        let sim = kratt_netlist::sim::Simulator::new(&c).unwrap();
        for x in 0u64..8 {
            for y in 0u64..8 {
                let mut bits: Vec<bool> = (0..3).map(|i| x >> i & 1 != 0).collect();
                bits.extend((0..3).map(|i| y >> i & 1 != 0));
                let out = sim.run(&bits).unwrap();
                assert_eq!(out[0], x == y, "x={x} y={y}");
                assert_eq!(out[1], x == 0b101, "x={x}");
            }
        }
    }

    #[test]
    fn corrupt_output_preserves_name_and_interface() {
        let mut c = Circuit::new("toy");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let o = c.add_gate(GateType::And, "o", &[a, b]).unwrap();
        c.mark_output(o);
        let flip = c.add_gate(GateType::Xor, "flip", &[a, b]).unwrap();
        corrupt_output(&mut c, 0, flip).unwrap();
        assert_eq!(c.num_outputs(), 1);
        let out = c.outputs()[0];
        assert_eq!(c.net_name(out), "o");
        assert!(c.nets().any(|n| c.net_name(n).starts_with("o$enc")));
    }

    #[test]
    fn apply_key_rejects_wrong_width() {
        let mut c = Circuit::new("locked");
        let a = c.add_input("a").unwrap();
        let k = c.add_input("keyinput0").unwrap();
        let o = c.add_gate(GateType::Xor, "o", &[a, k]).unwrap();
        c.mark_output(o);
        let bad = SecretKey::from_u64(0, 2);
        assert!(matches!(
            apply_key(&c, &bad),
            Err(LockError::KeyWidthMismatch {
                expected: 1,
                got: 2
            })
        ));
        let good = SecretKey::from_u64(0, 1);
        let unlocked = apply_key(&c, &good).unwrap();
        assert_eq!(unlocked.key_inputs().len(), 0);
    }

    #[test]
    fn choose_target_output_prefers_largest_cone() {
        let mut c = Circuit::new("outs");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let small = c.add_gate(GateType::Buf, "small", &[a]).unwrap();
        let t1 = c.add_gate(GateType::And, "t1", &[a, b]).unwrap();
        let t2 = c.add_gate(GateType::Or, "t2", &[t1, a]).unwrap();
        c.mark_output(small);
        c.mark_output(t2);
        assert_eq!(choose_target_output(&c).unwrap(), 1);
    }
}
