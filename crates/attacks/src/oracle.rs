//! The oracle: a functional (activated) IC the oracle-guided adversary can
//! query with inputs and observe outputs, as in the paper's OG threat model.

use kratt_netlist::sim::Simulator;
use kratt_netlist::{Circuit, NetlistError};
use std::cell::Cell;

/// A simulated functional IC.
///
/// The oracle owns the *original* (unlocked) circuit and answers input/output
/// queries — one pattern at a time or in 64-wide bit-parallel sweeps
/// ([`Oracle::query_words`], [`Oracle::query_batch`]). It also counts
/// queries, since query count is a standard cost metric for oracle-guided
/// attacks; a batched sweep of `n` patterns counts as `n` queries, exactly
/// as if each pattern had been applied individually.
#[derive(Debug)]
pub struct Oracle {
    circuit: Circuit,
    queries: Cell<u64>,
}

impl Oracle {
    /// Creates an oracle for the given original circuit.
    ///
    /// # Errors
    ///
    /// Returns an error if the circuit contains a combinational cycle.
    pub fn new(circuit: Circuit) -> Result<Self, NetlistError> {
        // Compile (and cache) the evaluation schedule up front so cycles
        // surface here, not on the first query.
        circuit.schedule()?;
        Ok(Oracle {
            circuit,
            queries: Cell::new(0),
        })
    }

    /// A simulator over the oracle's circuit. Cheap: the compiled schedule
    /// is cached on the circuit, so this is an `Arc` clone.
    fn simulator(&self) -> Simulator<'_> {
        Simulator::new(&self.circuit).expect("schedule compiled in Oracle::new")
    }

    /// The original circuit behind the oracle (its interface defines the
    /// query format). Attacks may inspect the interface but, by the threat
    /// model, must not look at the gates — they only exist here because the
    /// oracle is simulated.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of primary inputs the oracle expects per query.
    pub fn num_inputs(&self) -> usize {
        self.circuit.num_inputs()
    }

    /// Number of primary outputs per response.
    pub fn num_outputs(&self) -> usize {
        self.circuit.num_outputs()
    }

    /// Number of queries served so far.
    pub fn queries(&self) -> u64 {
        self.queries.get()
    }

    /// Applies one input pattern (ordered as the original circuit's inputs)
    /// and returns the outputs.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] on a wrong pattern width.
    pub fn query(&self, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
        let outputs = self.simulator().run(inputs)?;
        self.queries.set(self.queries.get() + 1);
        Ok(outputs)
    }

    /// Applies up to 64 packed input patterns in one bit-parallel sweep.
    /// `words[i]` carries primary input `i` across the patterns (bit *p* of
    /// the word is pattern *p*); only the low `patterns` lanes are live and
    /// exactly `patterns` queries are counted.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] on a wrong word count.
    ///
    /// # Panics
    ///
    /// Panics if `patterns > 64`.
    pub fn query_words(&self, words: &[u64], patterns: usize) -> Result<Vec<u64>, NetlistError> {
        assert!(patterns <= 64, "a sweep holds at most 64 patterns");
        let outputs = self.simulator().run_words(words)?;
        self.queries.set(self.queries.get() + patterns as u64);
        Ok(outputs)
    }

    /// Queries an arbitrary number of patterns, packed into 64-wide sweeps
    /// internally. Row `i` of the result answers `patterns[i]`; the query
    /// counter advances by `patterns.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputWidthMismatch`] if any row has the wrong
    /// width.
    pub fn query_batch(&self, patterns: &[Vec<bool>]) -> Result<Vec<Vec<bool>>, NetlistError> {
        let rows = self.simulator().run_batch(patterns)?;
        self.queries.set(self.queries.get() + patterns.len() as u64);
        Ok(rows)
    }

    fn position_of(&self, name: &str) -> Result<usize, NetlistError> {
        self.circuit
            .find_net(name)
            .and_then(|net| self.circuit.input_position(net))
            .ok_or_else(|| NetlistError::UnknownNet(name.to_string()))
    }

    /// Queries with an assignment given by input *name*; unnamed inputs
    /// default to `false`. Convenient for attacks that only care about a
    /// subset of inputs (e.g. the protected primary inputs).
    ///
    /// # Errors
    ///
    /// Returns an error if an assignment names a net that is not a primary
    /// input of the oracle circuit.
    pub fn query_by_name(&self, assignment: &[(&str, bool)]) -> Result<Vec<bool>, NetlistError> {
        let mut pattern = vec![false; self.circuit.num_inputs()];
        for &(name, value) in assignment {
            pattern[self.position_of(name)?] = value;
        }
        self.query(&pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_netlist::GateType;

    fn xor_and() -> Circuit {
        let mut c = Circuit::new("toy");
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let x = c.add_gate(GateType::Xor, "x", &[a, b]).unwrap();
        let y = c.add_gate(GateType::And, "y", &[a, b]).unwrap();
        c.mark_output(x);
        c.mark_output(y);
        c
    }

    #[test]
    fn oracle_answers_and_counts_queries() {
        let oracle = Oracle::new(xor_and()).unwrap();
        assert_eq!(oracle.queries(), 0);
        assert_eq!(oracle.query(&[true, false]).unwrap(), vec![true, false]);
        assert_eq!(oracle.query(&[true, true]).unwrap(), vec![false, true]);
        assert_eq!(oracle.queries(), 2);
        assert_eq!(oracle.num_inputs(), 2);
        assert_eq!(oracle.num_outputs(), 2);
    }

    #[test]
    fn width_mismatch_is_an_error() {
        let oracle = Oracle::new(xor_and()).unwrap();
        assert!(oracle.query(&[true]).is_err());
        assert!(oracle.query_words(&[0], 1).is_err());
        assert!(oracle.query_batch(&[vec![true]]).is_err());
    }

    #[test]
    fn batched_queries_match_scalar_and_count_per_pattern() {
        let scalar = Oracle::new(xor_and()).unwrap();
        let batched = Oracle::new(xor_and()).unwrap();
        let patterns: Vec<Vec<bool>> = (0u64..4).map(|p| vec![p & 1 != 0, p & 2 != 0]).collect();
        let expected: Vec<Vec<bool>> = patterns.iter().map(|p| scalar.query(p).unwrap()).collect();
        let rows = batched.query_batch(&patterns).unwrap();
        assert_eq!(rows, expected);
        // Batching is a transport optimisation, not a discount: the counted
        // telemetry matches the scalar path pattern for pattern.
        assert_eq!(batched.queries(), scalar.queries());
        assert_eq!(batched.queries(), 4);
    }

    #[test]
    fn query_words_counts_only_live_lanes() {
        let oracle = Oracle::new(xor_and()).unwrap();
        let out = oracle.query_words(&[0b01, 0b11], 2).unwrap();
        // Lane 0: a=1, b=1 -> x=0, y=1. Lane 1: a=0, b=1 -> x=1, y=0.
        assert_eq!(out[0] & 0b11, 0b10);
        assert_eq!(out[1] & 0b11, 0b01);
        assert_eq!(oracle.queries(), 2);
    }

    #[test]
    fn query_by_name_defaults_missing_inputs_to_zero() {
        let oracle = Oracle::new(xor_and()).unwrap();
        assert_eq!(
            oracle.query_by_name(&[("b", true)]).unwrap(),
            vec![true, false]
        );
        assert!(oracle.query_by_name(&[("ghost", true)]).is_err());
        assert!(
            oracle.query_by_name(&[("x", true)]).is_err(),
            "internal nets are not queryable"
        );
    }
}
