//! Circuit simulation: single-pattern and 64-way bit-parallel evaluation.
//!
//! The evaluation engine is the [`GateSchedule`]: a topologically ordered,
//! arena-indexed program compiled from a [`Circuit`] once and cached on the
//! circuit itself ([`Circuit::schedule`]). Every gate becomes one compact op
//! (`type, output slot, operand slice`) over a flat operand arena, so the
//! hot loop touches two contiguous arrays instead of chasing per-gate
//! `Vec`s. The same schedule evaluates either one pattern (`bool` lanes) or
//! 64 patterns at once (`u64` lanes, one bit per pattern), which is the
//! kernel behind the oracle's batched DIP queries and the Monte-Carlo
//! corruption metrics.

use crate::circuit::{Circuit, NetId};
use crate::{GateType, NetlistError};
use std::sync::Arc;

/// A value type the schedule can evaluate over: one pattern (`bool`) or 64
/// packed patterns (`u64`, bit *i* = pattern *i*).
pub trait Lane: Copy {
    /// All-zero lanes.
    const ZERO: Self;
    /// All-one lanes.
    const ONES: Self;
    /// Lane-wise conjunction.
    fn and(self, other: Self) -> Self;
    /// Lane-wise disjunction.
    fn or(self, other: Self) -> Self;
    /// Lane-wise parity.
    fn xor(self, other: Self) -> Self;
    /// Lane-wise complement.
    fn not(self) -> Self;
}

impl Lane for bool {
    const ZERO: Self = false;
    const ONES: Self = true;
    fn and(self, other: Self) -> Self {
        self & other
    }
    fn or(self, other: Self) -> Self {
        self | other
    }
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    fn not(self) -> Self {
        !self
    }
}

impl Lane for u64 {
    const ZERO: Self = 0;
    const ONES: Self = !0;
    fn and(self, other: Self) -> Self {
        self & other
    }
    fn or(self, other: Self) -> Self {
        self | other
    }
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    fn not(self) -> Self {
        !self
    }
}

/// One gate of the compiled schedule: the operand slice lives in the shared
/// arena, so the struct is `Copy` and the op stream is cache-friendly.
#[derive(Debug, Clone, Copy)]
struct ScheduledOp {
    ty: GateType,
    output: u32,
    first: u32,
    count: u32,
}

/// The compiled, topologically ordered evaluation program of a circuit.
///
/// Built once per circuit (and cached there by [`Circuit::schedule`]); the
/// [`GateSchedule::eval`] loop then runs over dense arrays only.
#[derive(Debug)]
pub struct GateSchedule {
    ops: Vec<ScheduledOp>,
    operands: Vec<u32>,
    num_nets: usize,
    num_inputs: usize,
}

impl GateSchedule {
    /// Compiles the schedule for a circuit.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the circuit is cyclic.
    pub fn build(circuit: &Circuit) -> Result<Self, NetlistError> {
        let order = crate::analysis::topological_order(circuit)?;
        let mut ops = Vec::with_capacity(order.len());
        let mut operands = Vec::with_capacity(circuit.num_literals());
        for &gid in order.iter() {
            let gate = circuit.gate(gid);
            let first = operands.len() as u32;
            operands.extend(gate.inputs.iter().map(|n| n.index() as u32));
            ops.push(ScheduledOp {
                ty: gate.ty,
                output: gate.output.index() as u32,
                first,
                count: gate.inputs.len() as u32,
            });
        }
        Ok(GateSchedule {
            ops,
            operands,
            num_nets: circuit.num_nets(),
            num_inputs: circuit.num_inputs(),
        })
    }

    /// Number of nets the evaluation buffer must hold.
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// Number of primary inputs the compiled circuit had.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of scheduled gate ops.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Evaluates every gate in topological order, reading primary-input
    /// lanes from `values` (indexed by [`NetId::index`]) and writing every
    /// gate output back into it.
    ///
    /// # Panics
    ///
    /// Panics if `values` is shorter than [`GateSchedule::num_nets`].
    pub fn eval<L: Lane>(&self, values: &mut [L]) {
        #[inline]
        fn fold<L: Lane>(values: &[L], ins: &[u32], init: L, f: impl Fn(L, L) -> L) -> L {
            match *ins {
                [a] => values[a as usize],
                [a, b] => f(values[a as usize], values[b as usize]),
                _ => ins.iter().fold(init, |acc, &i| f(acc, values[i as usize])),
            }
        }
        for op in &self.ops {
            let ins = &self.operands[op.first as usize..(op.first + op.count) as usize];
            let value = match op.ty {
                GateType::And => fold(values, ins, L::ONES, L::and),
                GateType::Nand => fold(values, ins, L::ONES, L::and).not(),
                GateType::Or => fold(values, ins, L::ZERO, L::or),
                GateType::Nor => fold(values, ins, L::ZERO, L::or).not(),
                GateType::Xor => fold(values, ins, L::ZERO, L::xor),
                GateType::Xnor => fold(values, ins, L::ZERO, L::xor).not(),
                GateType::Not => values[ins[0] as usize].not(),
                GateType::Buf => values[ins[0] as usize],
                GateType::Const0 => L::ZERO,
                GateType::Const1 => L::ONES,
            };
            values[op.output as usize] = value;
        }
    }
}

/// A reusable simulator for one circuit.
///
/// Construction fetches the circuit's cached [`GateSchedule`] (compiling it
/// on first use), so building a `Simulator` is cheap and the `run*` methods
/// can be called for many patterns — which matters for the oracle queries of
/// the oracle-guided attacks and for the SCOPE feature analysis.
///
/// ```
/// use kratt_netlist::{Circuit, GateType};
/// use kratt_netlist::sim::Simulator;
///
/// # fn main() -> Result<(), kratt_netlist::NetlistError> {
/// let mut c = Circuit::new("and2");
/// let a = c.add_input("a")?;
/// let b = c.add_input("b")?;
/// let o = c.add_gate(GateType::And, "o", &[a, b])?;
/// c.mark_output(o);
/// let sim = Simulator::new(&c)?;
/// assert_eq!(sim.run(&[true, true])?, vec![true]);
/// assert_eq!(sim.run(&[true, false])?, vec![false]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator<'a> {
    circuit: &'a Circuit,
    schedule: Arc<GateSchedule>,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator from the circuit's cached gate schedule.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the circuit is cyclic.
    pub fn new(circuit: &'a Circuit) -> Result<Self, NetlistError> {
        let schedule = circuit.schedule()?;
        Ok(Simulator { circuit, schedule })
    }

    /// The circuit this simulator evaluates.
    pub fn circuit(&self) -> &Circuit {
        self.circuit
    }

    /// The compiled schedule driving the evaluation.
    pub fn schedule(&self) -> &GateSchedule {
        &self.schedule
    }

    fn check_width(&self, got: usize) -> Result<(), NetlistError> {
        let expected = self.circuit.num_inputs();
        if got != expected {
            return Err(NetlistError::InputWidthMismatch { expected, got });
        }
        Ok(())
    }

    fn eval_full<L: Lane>(&self, inputs: &[L]) -> Result<Vec<L>, NetlistError> {
        self.check_width(inputs.len())?;
        let mut values = vec![L::ZERO; self.circuit.num_nets()];
        for (pos, &net) in self.circuit.inputs().iter().enumerate() {
            values[net.index()] = inputs[pos];
        }
        self.schedule.eval(&mut values);
        Ok(values)
    }

    fn outputs_of<L: Lane>(&self, values: &[L]) -> Vec<L> {
        self.circuit
            .outputs()
            .iter()
            .map(|&o| values[o.index()])
            .collect()
    }

    /// Evaluates one input pattern (ordered as [`Circuit::inputs`]) and
    /// returns the primary-output values (ordered as [`Circuit::outputs`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if the pattern width does
    /// not match the number of primary inputs.
    pub fn run(&self, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
        let values = self.eval_full(inputs)?;
        Ok(self.outputs_of(&values))
    }

    /// Evaluates one input pattern and returns the value of *every* net,
    /// indexed by [`NetId::index`]. Floating nets evaluate to `false`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] on a wrong pattern width.
    pub fn run_full(&self, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
        self.eval_full(inputs)
    }

    /// Evaluates 64 input patterns at once. Each entry of `inputs` packs the
    /// value of that primary input across the 64 patterns (bit *i* of the
    /// word is pattern *i*). Returns the packed primary-output words.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] on a wrong pattern width.
    pub fn run_words(&self, inputs: &[u64]) -> Result<Vec<u64>, NetlistError> {
        let values = self.eval_full(inputs)?;
        Ok(self.outputs_of(&values))
    }

    /// 64-way parallel version of [`Simulator::run_full`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] on a wrong pattern width.
    pub fn run_words_full(&self, inputs: &[u64]) -> Result<Vec<u64>, NetlistError> {
        self.eval_full(inputs)
    }

    /// Evaluates an arbitrary number of patterns, packing them into 64-wide
    /// sweeps internally. Row `i` of the result is the output row of
    /// `patterns[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if any pattern has the
    /// wrong width.
    pub fn run_batch(&self, patterns: &[Vec<bool>]) -> Result<Vec<Vec<bool>>, NetlistError> {
        let mut rows = Vec::with_capacity(patterns.len());
        for chunk in patterns.chunks(64) {
            for pattern in chunk {
                self.check_width(pattern.len())?;
            }
            let words = pack_patterns(chunk);
            let out_words = self.run_words(&words)?;
            rows.extend(unpack_words(&out_words, chunk.len()));
        }
        Ok(rows)
    }

    /// Evaluates the circuit on the pattern described by `(net, value)`
    /// assignments for the primary inputs; unassigned inputs default to
    /// `false`. Convenient when only a subset of inputs (e.g. only key
    /// inputs) is of interest.
    ///
    /// # Errors
    ///
    /// Propagates width errors from [`Simulator::run`]; assignments to nets
    /// that are not primary inputs are ignored.
    pub fn run_assignment(&self, assignment: &[(NetId, bool)]) -> Result<Vec<bool>, NetlistError> {
        let mut pattern = vec![false; self.circuit.num_inputs()];
        for &(net, value) in assignment {
            if let Some(pos) = self.circuit.input_position(net) {
                pattern[pos] = value;
            }
        }
        self.run(&pattern)
    }
}

/// Packs up to 64 input patterns (rows) into one word per input column: bit
/// `i` of word `w` is `patterns[i][w]`. All rows must share one width.
///
/// # Panics
///
/// Panics if more than 64 patterns are given or the rows have differing
/// widths.
pub fn pack_patterns(patterns: &[Vec<bool>]) -> Vec<u64> {
    assert!(patterns.len() <= 64, "at most 64 patterns fit one sweep");
    let width = patterns.first().map(Vec::len).unwrap_or(0);
    let mut words = vec![0u64; width];
    for (row, pattern) in patterns.iter().enumerate() {
        assert_eq!(pattern.len(), width, "pattern rows must share one width");
        for (word, &bit) in words.iter_mut().zip(pattern) {
            *word |= u64::from(bit) << row;
        }
    }
    words
}

/// Unpacks `rows` rows out of packed output words: row `i` is bit `i` of
/// every word, in word order. Inverse of [`pack_patterns`] on the output
/// side of a sweep.
pub fn unpack_words(words: &[u64], rows: usize) -> Vec<Vec<bool>> {
    assert!(rows <= 64, "a sweep holds at most 64 rows");
    (0..rows)
        .map(|row| words.iter().map(|&w| w >> row & 1 != 0).collect())
        .collect()
}

/// The canonical lane masks of an exhaustive sweep: bit `j` of
/// `EXHAUSTIVE_LANE_MASKS[i]` is bit `i` of the pattern index `j`.
const EXHAUSTIVE_LANE_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Input words covering the 64 consecutive patterns `base..base + 64` of an
/// exhaustive enumeration over `width` inputs, where pattern `p` assigns bit
/// `i` of `p` to input `i`. `base` must be a multiple of 64 (input bits ≥ 6
/// are then constant across the sweep).
pub fn exhaustive_input_words(base: u64, width: usize) -> Vec<u64> {
    debug_assert_eq!(base % 64, 0, "sweeps start at 64-aligned pattern indices");
    (0..width)
        .map(|i| {
            if i < 6 {
                EXHAUSTIVE_LANE_MASKS[i]
            } else if base >> i & 1 != 0 {
                !0u64
            } else {
                0u64
            }
        })
        .collect()
}

/// Exhaustively compares two circuits with identical input/output widths on
/// all `2^n` patterns using 64-wide sweeps (intended for small `n` in
/// tests). Returns `true` when every output of `a` matches the
/// corresponding output of `b` on every pattern.
///
/// # Errors
///
/// Returns an error if either circuit cannot be simulated or the interface
/// widths differ.
///
/// # Panics
///
/// Panics if the circuits have more than 24 inputs (exhaustive comparison
/// would be intractable; use the SAT-based equivalence check instead).
pub fn exhaustively_equivalent(a: &Circuit, b: &Circuit) -> Result<bool, NetlistError> {
    assert!(
        a.num_inputs() <= 24,
        "exhaustive comparison limited to 24 inputs"
    );
    if a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs() {
        return Err(NetlistError::Transform(
            "interface widths differ between compared circuits".into(),
        ));
    }
    let sim_a = Simulator::new(a)?;
    let sim_b = Simulator::new(b)?;
    let n = a.num_inputs();
    let total = 1u64 << n;
    let mut base = 0u64;
    while base < total {
        let lanes = (total - base).min(64);
        let valid = if lanes == 64 {
            !0u64
        } else {
            (1u64 << lanes) - 1
        };
        let words = exhaustive_input_words(base, n);
        let out_a = sim_a.run_words(&words)?;
        let out_b = sim_b.run_words(&words)?;
        if out_a
            .iter()
            .zip(&out_b)
            .any(|(&wa, &wb)| (wa ^ wb) & valid != 0)
        {
            return Ok(false);
        }
        base += 64;
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateType;

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

    #[test]
    fn full_adder_truth_table() {
        let c = full_adder();
        let sim = Simulator::new(&c).unwrap();
        for pattern in 0u32..8 {
            let a = pattern & 1 != 0;
            let b = pattern & 2 != 0;
            let cin = pattern & 4 != 0;
            let expected_sum = (a as u32 + b as u32 + cin as u32) & 1 != 0;
            let expected_cout = (a as u32 + b as u32 + cin as u32) >= 2;
            let out = sim.run(&[a, b, cin]).unwrap();
            assert_eq!(out, vec![expected_sum, expected_cout], "pattern {pattern}");
        }
    }

    #[test]
    fn word_simulation_matches_scalar() {
        let c = full_adder();
        let sim = Simulator::new(&c).unwrap();
        // Pack the 8 possible patterns into the low bits of the words.
        let mut words = vec![0u64; 3];
        for pattern in 0u64..8 {
            for (i, word) in words.iter_mut().enumerate() {
                if pattern >> i & 1 != 0 {
                    *word |= 1 << pattern;
                }
            }
        }
        let out_words = sim.run_words(&words).unwrap();
        for pattern in 0u64..8 {
            let bits: Vec<bool> = (0..3).map(|i| pattern >> i & 1 != 0).collect();
            let scalar = sim.run(&bits).unwrap();
            for (o, &word) in out_words.iter().enumerate() {
                assert_eq!(word >> pattern & 1 != 0, scalar[o]);
            }
        }
    }

    #[test]
    fn schedule_is_cached_and_invalidated_by_mutation() {
        let mut c = full_adder();
        let first = c.schedule().unwrap();
        let second = c.schedule().unwrap();
        assert!(Arc::ptr_eq(&first, &second), "second fetch hits the cache");
        assert_eq!(first.num_ops(), c.num_gates());
        assert_eq!(first.num_inputs(), 3);

        // Mutating the circuit must drop the cached schedule.
        let s1 = c.find_net("s1").unwrap();
        let extra = c.add_gate(GateType::Not, "extra", &[s1]).unwrap();
        c.mark_output(extra);
        let third = c.schedule().unwrap();
        assert!(!Arc::ptr_eq(&first, &third), "mutation invalidates");
        assert_eq!(third.num_ops(), c.num_gates());
        assert_eq!(third.num_nets(), c.num_nets());
        let sim = Simulator::new(&c).unwrap();
        assert_eq!(
            sim.run(&[true, false, false]).unwrap(),
            vec![true, false, false]
        );
    }

    #[test]
    fn batch_matches_scalar_rows() {
        let c = full_adder();
        let sim = Simulator::new(&c).unwrap();
        let patterns: Vec<Vec<bool>> = (0u64..8)
            .map(|p| (0..3).map(|i| p >> i & 1 != 0).collect())
            .collect();
        let rows = sim.run_batch(&patterns).unwrap();
        assert_eq!(rows.len(), 8);
        for (pattern, row) in patterns.iter().zip(&rows) {
            assert_eq!(row, &sim.run(pattern).unwrap());
        }
        assert!(sim.run_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn pack_unpack_round_trip() {
        let patterns: Vec<Vec<bool>> = vec![
            vec![true, false, true],
            vec![false, false, true],
            vec![true, true, false],
        ];
        let words = pack_patterns(&patterns);
        assert_eq!(words.len(), 3);
        assert_eq!(unpack_words(&words, patterns.len()), patterns);
    }

    #[test]
    fn exhaustive_input_words_cover_all_patterns() {
        for width in [3usize, 7] {
            let total = 1u64 << width;
            let mut seen = std::collections::HashSet::new();
            let mut base = 0;
            while base < total {
                let words = exhaustive_input_words(base, width);
                let lanes = (total - base).min(64);
                for row in unpack_words(&words, lanes as usize) {
                    let index: u64 = row
                        .iter()
                        .enumerate()
                        .map(|(i, &b)| u64::from(b) << i)
                        .sum();
                    seen.insert(index);
                }
                base += 64;
            }
            assert_eq!(seen.len() as u64, total, "width {width}");
        }
    }

    #[test]
    fn width_mismatch_is_reported() {
        let c = full_adder();
        let sim = Simulator::new(&c).unwrap();
        assert!(matches!(
            sim.run(&[true, false]),
            Err(NetlistError::InputWidthMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert!(matches!(
            sim.run_words(&[0, 0, 0, 0]),
            Err(NetlistError::InputWidthMismatch {
                expected: 3,
                got: 4
            })
        ));
        assert!(sim.run_batch(&[vec![true]]).is_err());
    }

    #[test]
    fn run_assignment_defaults_unset_inputs_to_zero() {
        let c = full_adder();
        let sim = Simulator::new(&c).unwrap();
        let a = c.find_net("a").unwrap();
        let out = sim.run_assignment(&[(a, true)]).unwrap();
        assert_eq!(out, vec![true, false]); // 1 + 0 + 0 = sum 1, carry 0
    }

    proptest::proptest! {
        /// On random circuits, one 64-lane packed sweep is bit-for-bit equal
        /// to 64 scalar evaluations of the same patterns — for every output
        /// *and* every internal net.
        #[test]
        fn prop_packed_evaluation_matches_scalar(seed in 0u64..200) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let mut c = Circuit::new(format!("rand{seed}"));
            let n_inputs = rng.gen_range(2..8usize);
            let mut nets: Vec<crate::circuit::NetId> = (0..n_inputs)
                .map(|i| c.add_input(format!("i{i}")).unwrap())
                .collect();
            let n_gates = rng.gen_range(1..40usize);
            for g in 0..n_gates {
                let ty = GateType::ALL[rng.gen_range(0..GateType::ALL.len())];
                let arity = match ty {
                    GateType::Const0 | GateType::Const1 => 0,
                    GateType::Not | GateType::Buf => 1,
                    _ => rng.gen_range(1..5usize),
                };
                let ins: Vec<crate::circuit::NetId> = (0..arity)
                    .map(|_| nets[rng.gen_range(0..nets.len())])
                    .collect();
                let out = c.add_gate(ty, format!("g{g}"), &ins).unwrap();
                nets.push(out);
            }
            c.mark_output(*nets.last().unwrap());
            let sim = Simulator::new(&c).unwrap();

            // 64 random patterns, packed column-wise.
            let patterns: Vec<Vec<bool>> = (0..64)
                .map(|_| (0..n_inputs).map(|_| rng.gen_bool(0.5)).collect())
                .collect();
            let words = pack_patterns(&patterns);
            let packed_nets = sim.run_words_full(&words).unwrap();
            for (lane, pattern) in patterns.iter().enumerate() {
                let scalar_nets = sim.run_full(pattern).unwrap();
                for (&word, &scalar) in packed_nets.iter().zip(&scalar_nets) {
                    proptest::prop_assert_eq!(word >> lane & 1 != 0, scalar);
                }
            }
        }
    }

    #[test]
    fn exhaustive_equivalence_detects_difference() {
        let c = full_adder();
        let mut d = full_adder();
        assert!(exhaustively_equivalent(&c, &d).unwrap());
        // Turn the carry OR into XOR: differs when both AND terms are 1,
        // which never happens for a full adder, so still equivalent.
        // Instead, break the sum: swap XOR for XNOR.
        let s1 = d.find_net("s1").unwrap();
        let cin = d.find_net("cin").unwrap();
        let bad = d.add_gate(GateType::Xnor, "bad_sum", &[s1, cin]).unwrap();
        d.replace_output_at(0, bad);
        assert!(!exhaustively_equivalent(&c, &d).unwrap());
    }
}
