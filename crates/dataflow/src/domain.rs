//! The `Domain` trait family and the forward/backward engines over the AIG.

use kratt_netlist::{Aig, AigLit};

/// The lattice core of an abstract domain: an ordered value space with a
/// least element, a greatest element and a least upper bound.
///
/// `bottom` must be the identity of `join` (the engines use it to seed
/// accumulation); `top` is the "no information" element unpinned inputs
/// default to. Flat domains without a distinct least element (the ternary
/// lattice) may conflate `bottom` with `top` — over-approximation is always
/// sound, and the forward engine never reads `bottom`.
pub trait Domain {
    /// The abstract value attached to every AIG node (plain phase).
    type Value: Clone + PartialEq + std::fmt::Debug;

    /// The least element: the identity of [`Domain::join`].
    fn bottom(&self) -> Self::Value;

    /// The greatest element: no information.
    fn top(&self) -> Self::Value;

    /// Least upper bound of two values.
    fn join(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;
}

/// The transfer functions of a forward analysis. The AIG has exactly two
/// combinational primitives — AND nodes and complemented edges — so two
/// transfer functions (plus the input/constant seeds) define the whole
/// analysis.
pub trait ForwardDomain: Domain {
    /// The abstract value of the constant node (node 0 carries `false`;
    /// the engine asks for `constant(false)` and reads `TRUE` through
    /// [`ForwardDomain::complement`]).
    fn constant(&self, value: bool) -> Self::Value;

    /// The abstract value of primary input `index` (declaration order);
    /// `node` is the input's node id (AIG) or net index (circuit adapter).
    fn input(&self, node: u32, index: usize) -> Self::Value;

    /// Transfer over an AND node given the resolved fanin edge values.
    fn and(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// Transfer over a complemented edge.
    fn complement(&self, value: &Self::Value) -> Self::Value;
}

/// The transfer function of a backward analysis: how much of a node's
/// value flows into one of its fanins, given the sibling edge for context
/// (a fanin of an AND is only relevant where its sibling does not mask
/// it).
pub trait BackwardDomain: Domain {
    /// The contribution an AND node `node` carrying `value` makes to its
    /// fanin edge `fanin`, with `sibling` being the other fanin edge.
    fn to_fanin(
        &self,
        node: u32,
        value: &Self::Value,
        fanin: AigLit,
        sibling: AigLit,
    ) -> Self::Value;
}

/// The abstract value of an edge: the node's value, pushed through
/// [`ForwardDomain::complement`] when the edge is complemented.
pub fn edge_value<D: ForwardDomain>(domain: &D, values: &[D::Value], lit: AigLit) -> D::Value {
    let value = &values[lit.node() as usize];
    if lit.is_complemented() {
        domain.complement(value)
    } else {
        value.clone()
    }
}

/// Runs a forward analysis over the whole AIG in one topological pass and
/// returns the per-node values (plain phase; resolve edges with
/// [`edge_value`]).
pub fn forward<D: ForwardDomain>(aig: &Aig, domain: &D) -> Vec<D::Value> {
    forward_pinned(aig, domain, &[])
}

/// [`forward`] with some nodes pinned to given values before propagation —
/// the restriction mechanism behind cofactor analyses (`key[i] = 0/1`).
pub fn forward_pinned<D: ForwardDomain>(
    aig: &Aig,
    domain: &D,
    pins: &[(u32, D::Value)],
) -> Vec<D::Value> {
    let mut values = vec![domain.top(); aig.num_nodes()];
    values[0] = domain.constant(false);
    for (index, &node) in aig.input_nodes().iter().enumerate() {
        values[node as usize] = domain.input(node, index);
    }
    for (node, value) in pins {
        values[*node as usize] = value.clone();
    }
    for node in 1..aig.num_nodes() as u32 {
        if aig.is_and(node) {
            let (l0, l1) = aig.fanins(node);
            let a = edge_value(domain, &values, l0);
            let b = edge_value(domain, &values, l1);
            values[node as usize] = domain.and(&a, &b);
        }
    }
    values
}

/// Runs a backward analysis: seeds are joined into their root nodes, then
/// every AND node distributes its value to its fanins in one reverse
/// topological pass. Returns the per-node accumulated values.
pub fn backward<D: BackwardDomain>(
    aig: &Aig,
    domain: &D,
    seeds: &[(AigLit, D::Value)],
) -> Vec<D::Value> {
    let mut values = vec![domain.bottom(); aig.num_nodes()];
    for (lit, value) in seeds {
        let node = lit.node() as usize;
        values[node] = domain.join(&values[node], value);
    }
    let bottom = domain.bottom();
    for node in (1..aig.num_nodes() as u32).rev() {
        if !aig.is_and(node) {
            continue;
        }
        let value = values[node as usize].clone();
        if value == bottom {
            continue;
        }
        let (l0, l1) = aig.fanins(node);
        for (fanin, sibling) in [(l0, l1), (l1, l0)] {
            let contribution = domain.to_fanin(node, &value, fanin, sibling);
            let target = fanin.node() as usize;
            values[target] = domain.join(&values[target], &contribution);
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ternary::{Ternary, TernaryDomain};

    #[test]
    fn forward_reaches_every_node_in_one_pass() {
        let mut aig = Aig::new("chain");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let ab = aig.and(a, b);
        let o = aig.and(ab, a.complement());
        aig.add_output("o", o);
        let values = forward(&aig, &TernaryDomain);
        assert_eq!(values[0], Ternary::Zero);
        assert_eq!(values[ab.node() as usize], Ternary::X);
        // Pinning a = 0 kills both ANDs through different mechanisms.
        let values = forward_pinned(&aig, &TernaryDomain, &[(a.node(), Ternary::Zero)]);
        assert_eq!(values[ab.node() as usize], Ternary::Zero);
        // o = and(ab, !a) with a = 0: !a = 1, ab = 0, so o = 0.
        assert_eq!(values[o.node() as usize], Ternary::Zero);
    }

    #[test]
    fn edge_value_resolves_complements() {
        let d = TernaryDomain;
        let values = vec![Ternary::Zero, Ternary::One];
        assert_eq!(edge_value(&d, &values, AigLit::new(1, false)), Ternary::One);
        assert_eq!(edge_value(&d, &values, AigLit::new(1, true)), Ternary::Zero);
        assert_eq!(edge_value(&d, &values, AigLit::TRUE), Ternary::One);
    }
}
