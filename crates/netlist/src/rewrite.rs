//! Cut-based rewriting over the [`Aig`], in the style of ABC's `rewrite`.
//!
//! For every AND node (in topological order) the pass enumerates the
//! 4-feasible cuts, computes each cut's 16-bit truth table, canonises it
//! under NPN equivalence (input permutation, input complementation, output
//! complementation) and looks the canonical class up in a precomputed
//! library of minimum-cost subgraphs (the private `rewrite_table`). A
//! replacement is accepted greedily when the library subgraph is smaller
//! than the node's maximum fanout-free cone over the cut — the nodes that
//! would actually be freed — so a pass never grows the network. The result
//! is rebuilt into a fresh, structurally hashed [`Aig`] with the primary
//! interface (input and output names and order) preserved.
//!
//! Every accepted replacement is re-verified numerically before any node is
//! built: the library subgraph is simulated over the cut's leaf truth
//! tables and must reproduce the cut function bit-for-bit, so a library or
//! transform bug degrades to a skipped cut, never to a miscompiled network.

use crate::aig::{Aig, AigLit};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Cuts kept per node (smallest-leaf-count first; the trivial unit cut is
/// always kept so parents can merge through the node).
const MAX_CUTS: usize = 8;

/// Truth tables of the four projection functions `x0..x3` over a 4-input
/// minterm index.
const VAR_TT: [u16; 4] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

/// One NPN transform: `apply(f)(y) = f(x_i = y[perm[i]] ^ flips[i]) ^ out`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NpnTransform {
    /// Source variable `x_i` reads target variable `y[perm[i]]`.
    pub perm: [u8; 4],
    /// Bit `i` complements source variable `x_i`.
    pub flips: u8,
    /// Complement the output.
    pub out: bool,
}

impl NpnTransform {
    /// The 16-entry minterm index map of the permutation/flip part: output
    /// minterm `m` reads input minterm `table[m]`.
    fn index_table(self) -> [u8; 16] {
        let mut table = [0u8; 16];
        for (m, slot) in table.iter_mut().enumerate() {
            let mut s = 0u16;
            for i in 0..4 {
                let bit = ((m as u16 >> self.perm[i]) & 1) ^ u16::from((self.flips >> i) & 1);
                s |= bit << i;
            }
            *slot = s as u8;
        }
        table
    }

    /// Applies the transform to a truth table.
    #[cfg(test)]
    pub fn apply(self, tt: u16) -> u16 {
        apply_table(&self.index_table(), self.out, tt)
    }
}

fn apply_table(table: &[u8; 16], out: bool, tt: u16) -> u16 {
    let mut r = 0u16;
    for (m, &s) in table.iter().enumerate() {
        if (tt >> s) & 1 != 0 {
            r |= 1 << m;
        }
    }
    if out {
        !r
    } else {
        r
    }
}

const PERMS: [[u8; 4]; 24] = [
    [0, 1, 2, 3],
    [0, 1, 3, 2],
    [0, 2, 1, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
    [0, 3, 2, 1],
    [1, 0, 2, 3],
    [1, 0, 3, 2],
    [1, 2, 0, 3],
    [1, 2, 3, 0],
    [1, 3, 0, 2],
    [1, 3, 2, 0],
    [2, 0, 1, 3],
    [2, 0, 3, 1],
    [2, 1, 0, 3],
    [2, 1, 3, 0],
    [2, 3, 0, 1],
    [2, 3, 1, 0],
    [3, 0, 1, 2],
    [3, 0, 2, 1],
    [3, 1, 0, 2],
    [3, 1, 2, 0],
    [3, 2, 0, 1],
    [3, 2, 1, 0],
];

/// All 768 NPN transforms with their precomputed index tables.
fn transforms() -> &'static [(NpnTransform, [u8; 16])] {
    static TABLE: OnceLock<Vec<(NpnTransform, [u8; 16])>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut all = Vec::with_capacity(768);
        for perm in PERMS {
            for flips in 0..16u8 {
                let t = NpnTransform {
                    perm,
                    flips,
                    out: false,
                };
                let table = t.index_table();
                all.push((t, table));
                all.push((NpnTransform { out: true, ..t }, table));
            }
        }
        all
    })
}

/// The NPN-canonical representative of `tt` (the minimum image over all 768
/// transforms) and a transform `t` with `t.apply(tt) == canonical`.
pub(crate) fn npn_canonical(tt: u16) -> (u16, NpnTransform) {
    let mut best = u16::MAX;
    let mut best_t = NpnTransform {
        perm: [0, 1, 2, 3],
        flips: 0,
        out: false,
    };
    for &(t, ref table) in transforms() {
        let image = apply_table(table, t.out, tt);
        if image < best {
            best = image;
            best_t = t;
        }
    }
    (best, best_t)
}

/// A library entry's payload: the root literal plus the AND-node list.
type LibraryEntry = (u8, &'static [(u8, u8)]);

/// The canonical-class index over the generated library.
fn library_index() -> &'static HashMap<u16, LibraryEntry> {
    static INDEX: OnceLock<HashMap<u16, LibraryEntry>> = OnceLock::new();
    INDEX.get_or_init(|| {
        crate::rewrite_table::LIBRARY
            .iter()
            .map(|&(tt, root, nodes)| (tt, (root, nodes)))
            .collect()
    })
}

/// A cut: sorted leaf nodes plus the root's truth table over them (padded
/// to 4 variables; the table is independent of variables past the leaf
/// count).
#[derive(Clone, Debug)]
struct Cut {
    leaves: Vec<u32>,
    tt: u16,
}

/// Re-expresses `tt` (defined over leaf list `old`) over the superset leaf
/// list `new`. Both lists are sorted; `old ⊆ new`, both of length ≤ 4.
fn expand_tt(tt: u16, old: &[u32], new: &[u32]) -> u16 {
    if old.len() == new.len() {
        return tt;
    }
    let mut pos = [0usize; 4];
    for (i, leaf) in old.iter().enumerate() {
        pos[i] = new
            .iter()
            .position(|l| l == leaf)
            .expect("old cut leaves are a subset of the merged cut");
    }
    let mut r = 0u16;
    for m in 0..16u16 {
        let mut s = 0u16;
        for (i, &p) in pos.iter().enumerate().take(old.len()) {
            s |= ((m >> p) & 1) << i;
        }
        if (tt >> s) & 1 != 0 {
            r |= 1 << m;
        }
    }
    r
}

/// Sorted union of two sorted leaf lists, or `None` when it exceeds 4.
fn merge_leaves(a: &[u32], b: &[u32]) -> Option<Vec<u32>> {
    let mut merged = Vec::with_capacity(4);
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(_), Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        if merged.len() == 4 {
            return None;
        }
        merged.push(next);
    }
    Some(merged)
}

/// What the rebuild does with one original node.
#[derive(Clone, Debug)]
enum Decision {
    /// Re-emit the node as the AND of its mapped fanins.
    Copy,
    /// The node is constant over one of its cuts.
    Const(bool),
    /// The node equals a (possibly complemented) cut leaf.
    Alias { leaf: u32, compl: bool },
    /// Replace with a library subgraph over the cut leaves.
    Replace {
        leaves: Vec<u32>,
        /// `assign[j]` drives library input `y_j`: index into `leaves` plus
        /// an input complement.
        assign: [Option<(usize, bool)>; 4],
        root: u8,
        nodes: &'static [(u8, u8)],
        /// Complement the subgraph root.
        out: bool,
    },
}

/// Size of the node's maximum fanout-free cone above the cut leaves: the
/// AND nodes (including the root) that no path outside the cone references,
/// i.e. exactly the nodes a replacement would free. Decrements `refs` while
/// walking and restores it before returning.
fn mffc_size(aig: &Aig, refs: &mut [u32], node: u32, leaves: &[u32]) -> u32 {
    fn deref(aig: &Aig, refs: &mut [u32], node: u32, leaves: &[u32], freed: &mut Vec<u32>) -> u32 {
        let mut size = 1;
        let (f0, f1) = aig.fanins(node);
        for f in [f0, f1] {
            let child = f.node();
            if child == 0 || !aig.is_and(child) || leaves.contains(&child) {
                continue;
            }
            refs[child as usize] -= 1;
            freed.push(child);
            if refs[child as usize] == 0 {
                size += deref(aig, refs, child, leaves, freed);
            }
        }
        size
    }
    let mut freed = Vec::new();
    let size = deref(aig, refs, node, leaves, &mut freed);
    for child in freed {
        refs[child as usize] += 1;
    }
    size
}

/// Evaluates a cut against the library: the best replacement decision and
/// its gain (nodes freed minus nodes added), or `None` when the cut's class
/// has no library entry or the entry fails re-verification.
fn evaluate_cut(
    cut: &Cut,
    mffc: u32,
    canon_memo: &mut HashMap<u16, (u16, NpnTransform)>,
) -> Option<(i64, Decision)> {
    // Constant and projection cuts are free rewrites.
    if cut.tt == 0x0000 {
        return Some((i64::from(mffc), Decision::Const(false)));
    }
    if cut.tt == 0xFFFF {
        return Some((i64::from(mffc), Decision::Const(true)));
    }
    for (i, &leaf) in cut.leaves.iter().enumerate() {
        if cut.tt == VAR_TT[i] {
            return Some((i64::from(mffc), Decision::Alias { leaf, compl: false }));
        }
        if cut.tt == !VAR_TT[i] {
            return Some((i64::from(mffc), Decision::Alias { leaf, compl: true }));
        }
    }

    let &mut (canonical, t) = canon_memo
        .entry(cut.tt)
        .or_insert_with(|| npn_canonical(cut.tt));
    let &(root, nodes) = library_index().get(&canonical)?;

    // Library input y[perm[i]] is driven by cut leaf i, complemented by
    // flips[i]; the root is complemented by the transform's output flag.
    let mut assign: [Option<(usize, bool)>; 4] = [None; 4];
    for i in 0..4 {
        assign[t.perm[i] as usize] = Some((i, (t.flips >> i) & 1 != 0));
    }

    // Re-verify numerically over the cut frame before trusting the entry.
    let mut node_tts: Vec<u16> = Vec::with_capacity(nodes.len());
    let leaf_tt = |lit: u8, node_tts: &[u16]| -> Option<u16> {
        let (reference, compl) = (lit >> 1, lit & 1 != 0);
        let tt = match reference {
            0 => 0x0000,
            1..=4 => {
                let (leaf_index, flip) = assign[reference as usize - 1]?;
                if leaf_index >= cut.leaves.len() {
                    return None;
                }
                if flip {
                    !VAR_TT[leaf_index]
                } else {
                    VAR_TT[leaf_index]
                }
            }
            _ => *node_tts.get(reference as usize - 5)?,
        };
        Some(if compl { !tt } else { tt })
    };
    for &(l0, l1) in nodes {
        let t0 = leaf_tt(l0, &node_tts)?;
        let t1 = leaf_tt(l1, &node_tts)?;
        node_tts.push(t0 & t1);
    }
    let root_tt = leaf_tt(root, &node_tts)?;
    let root_tt = if t.out { !root_tt } else { root_tt };
    if root_tt != cut.tt {
        return None;
    }

    let gain = i64::from(mffc) - nodes.len() as i64;
    Some((
        gain,
        Decision::Replace {
            leaves: cut.leaves.clone(),
            assign,
            root,
            nodes,
            out: t.out,
        },
    ))
}

/// Builds a library subgraph in `aig` over already-mapped leaf literals.
fn instantiate(
    aig: &mut Aig,
    leaves: &[AigLit],
    assign: &[Option<(usize, bool)>; 4],
    root: u8,
    nodes: &[(u8, u8)],
    out: bool,
) -> AigLit {
    let mut built: Vec<AigLit> = Vec::with_capacity(nodes.len());
    let decode = |lit: u8, built: &[AigLit]| -> AigLit {
        let (reference, compl) = (lit >> 1, lit & 1 != 0);
        let base = match reference {
            0 => AigLit::FALSE,
            1..=4 => {
                let (leaf_index, flip) = assign[reference as usize - 1]
                    .expect("verified entries only reference assigned inputs");
                let leaf = leaves[leaf_index];
                if flip {
                    leaf.complement()
                } else {
                    leaf
                }
            }
            _ => built[reference as usize - 5],
        };
        if compl {
            base.complement()
        } else {
            base
        }
    };
    for &(l0, l1) in nodes {
        let a = decode(l0, &built);
        let b = decode(l1, &built);
        let lit = aig.and(a, b);
        built.push(lit);
    }
    let lit = decode(root, &built);
    if out {
        lit.complement()
    } else {
        lit
    }
}

impl Aig {
    /// One greedy rewriting pass: returns a fresh, structurally hashed AIG
    /// computing the same outputs, with the primary interface (input and
    /// output names and order) preserved and unreferenced logic swept.
    ///
    /// See the module documentation for the algorithm. The pass is
    /// deterministic and idempotent in practice; callers wanting a fixpoint
    /// can iterate while [`Aig::num_ands`] keeps shrinking.
    pub fn rewrite(&self) -> Aig {
        let cone = self.cone(self.outputs());
        let mut refs = self.reference_counts(&cone);
        let mut canon_memo: HashMap<u16, (u16, NpnTransform)> = HashMap::new();

        // Phase 1: cuts + decisions, in the construction's topological order.
        let num_nodes = self.num_nodes();
        let mut cut_sets: Vec<Vec<Cut>> = Vec::with_capacity(num_nodes);
        let mut decisions: Vec<Decision> = vec![Decision::Copy; num_nodes];
        for node in 0..num_nodes as u32 {
            if node == 0 {
                cut_sets.push(vec![Cut {
                    leaves: Vec::new(),
                    tt: 0x0000,
                }]);
                continue;
            }
            let unit = Cut {
                leaves: vec![node],
                tt: VAR_TT[0],
            };
            if self.is_input(node) || !cone[node as usize] {
                cut_sets.push(vec![unit]);
                continue;
            }
            let (f0, f1) = self.fanins(node);
            let mut cuts: Vec<Cut> = Vec::new();
            for ca in &cut_sets[f0.node() as usize] {
                for cb in &cut_sets[f1.node() as usize] {
                    let Some(leaves) = merge_leaves(&ca.leaves, &cb.leaves) else {
                        continue;
                    };
                    if cuts.iter().any(|c| c.leaves == leaves) {
                        continue;
                    }
                    let ta = expand_tt(ca.tt, &ca.leaves, &leaves);
                    let ta = if f0.is_complemented() { !ta } else { ta };
                    let tb = expand_tt(cb.tt, &cb.leaves, &leaves);
                    let tb = if f1.is_complemented() { !tb } else { tb };
                    cuts.push(Cut {
                        leaves,
                        tt: ta & tb,
                    });
                }
            }
            cuts.sort_by_key(|c| c.leaves.len());
            cuts.truncate(MAX_CUTS - 1);

            let mut best: Option<(i64, Decision)> = None;
            for cut in &cuts {
                if cut.leaves.as_slice() == [node] {
                    continue;
                }
                let mffc = mffc_size(self, &mut refs, node, &cut.leaves);
                if let Some((gain, decision)) = evaluate_cut(cut, mffc, &mut canon_memo) {
                    if gain > 0 && best.as_ref().is_none_or(|(g, _)| gain > *g) {
                        best = Some((gain, decision));
                    }
                }
            }
            if let Some((_, decision)) = best {
                decisions[node as usize] = decision;
            }
            cuts.push(unit);
            cut_sets.push(cuts);
        }

        // Phase 2: demand-driven rebuild from the outputs — nodes bypassed
        // by every replacement are never materialised.
        let mut out = Aig::new(self.name());
        for name in self.input_names() {
            out.add_input(name.clone());
        }
        let mut map: Vec<Option<AigLit>> = vec![None; num_nodes];
        map[0] = Some(AigLit::FALSE);
        for (&node, name) in self.input_nodes().iter().zip(self.input_names()) {
            map[node as usize] = Some(out.input_lit(name).expect("input was just added"));
        }
        let roots: Vec<u32> = self.outputs().iter().map(|l| l.node()).collect();
        let mut stack: Vec<u32> = roots;
        while let Some(&node) = stack.last() {
            if map[node as usize].is_some() {
                stack.pop();
                continue;
            }
            let deps: Vec<u32> = match &decisions[node as usize] {
                Decision::Copy => {
                    let (f0, f1) = self.fanins(node);
                    vec![f0.node(), f1.node()]
                }
                Decision::Const(_) => Vec::new(),
                Decision::Alias { leaf, .. } => vec![*leaf],
                Decision::Replace { leaves, .. } => leaves.clone(),
            };
            let pending: Vec<u32> = deps
                .iter()
                .copied()
                .filter(|&d| map[d as usize].is_none())
                .collect();
            if !pending.is_empty() {
                stack.extend(pending);
                continue;
            }
            let lit = match &decisions[node as usize] {
                Decision::Copy => {
                    let (f0, f1) = self.fanins(node);
                    let a = map[f0.node() as usize].expect("dependency built").when(
                        // `when` complements on `false`; keep the edge as-is.
                        !f0.is_complemented(),
                    );
                    let b = map[f1.node() as usize]
                        .expect("dependency built")
                        .when(!f1.is_complemented());
                    out.and(a, b)
                }
                Decision::Const(value) => AigLit::FALSE.when(!value),
                Decision::Alias { leaf, compl } => {
                    let base = map[*leaf as usize].expect("dependency built");
                    if *compl {
                        base.complement()
                    } else {
                        base
                    }
                }
                Decision::Replace {
                    leaves,
                    assign,
                    root,
                    nodes,
                    out: flip,
                } => {
                    let leaf_lits: Vec<AigLit> = leaves
                        .iter()
                        .map(|&l| map[l as usize].expect("dependency built"))
                        .collect();
                    instantiate(&mut out, &leaf_lits, assign, *root, nodes, *flip)
                }
            };
            map[node as usize] = Some(lit);
            stack.pop();
        }
        for (&lit, name) in self.outputs().iter().zip(self.output_names()) {
            let mapped = map[lit.node() as usize].expect("output cone was built");
            out.add_output(
                name.clone(),
                if lit.is_complemented() {
                    mapped.complement()
                } else {
                    mapped
                },
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Circuit;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Exhaustively compares two AIGs with identical input interfaces over
    /// every assignment (requires ≤ 12 inputs), using packed simulation in
    /// 64-pattern blocks.
    pub(crate) fn exhaustive_equivalent(a: &Aig, b: &Aig) -> bool {
        assert_eq!(a.input_names(), b.input_names(), "interfaces must match");
        assert_eq!(a.num_outputs(), b.num_outputs(), "interfaces must match");
        let n = a.num_inputs();
        assert!(n <= 12, "exhaustive sweep is bounded to 12 inputs");
        let patterns = 1u64 << n;
        let mut base = 0u64;
        while base < patterns {
            let lanes = (patterns - base).min(64) as usize;
            let words: Vec<u64> = (0..n)
                .map(|i| {
                    let mut w = 0u64;
                    for lane in 0..lanes {
                        w |= ((base + lane as u64) >> i & 1) << lane;
                    }
                    w
                })
                .collect();
            let va = a.eval_words(&words);
            let vb = b.eval_words(&words);
            let mask = if lanes == 64 {
                u64::MAX
            } else {
                (1u64 << lanes) - 1
            };
            for (oa, ob) in a.outputs().iter().zip(b.outputs()) {
                if (a.lit_word(&va, *oa) ^ b.lit_word(&vb, *ob)) & mask != 0 {
                    return false;
                }
            }
            base += 64;
        }
        true
    }

    /// A random AND/OR/XOR soup over `inputs` inputs.
    fn random_soup(seed: u64, inputs: usize, gates: usize) -> Aig {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut aig = Aig::new(format!("soup{seed}"));
        let mut lits: Vec<AigLit> = (0..inputs)
            .map(|i| aig.add_input(format!("i{i}")))
            .collect();
        for _ in 0..gates {
            let a = lits[rng.gen_range(0..lits.len())].when(rng.gen());
            let b = lits[rng.gen_range(0..lits.len())].when(rng.gen());
            let lit = match rng.gen_range(0..3) {
                0 => aig.and(a, b),
                1 => aig.or(a, b),
                _ => aig.xor(a, b),
            };
            lits.push(lit);
        }
        for k in 0..3.min(lits.len()) {
            let lit = lits[lits.len() - 1 - k];
            aig.add_output(format!("o{k}"), lit);
        }
        aig
    }

    #[test]
    fn npn_transforms_compose_and_invert_consistently() {
        // Every transform maps the canonical form's preimage back: applying
        // the transform returned by `npn_canonical` must reproduce the
        // canonical truth table, for a spread of functions.
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let tt: u16 = rng.gen();
            let (canonical, t) = npn_canonical(tt);
            assert_eq!(t.apply(tt), canonical);
            // Canonisation is idempotent and class-invariant.
            let (again, _) = npn_canonical(canonical);
            assert_eq!(again, canonical);
        }
    }

    #[test]
    fn npn_classes_of_all_functions_number_222() {
        let mut classes = std::collections::HashSet::new();
        for tt in 0..=u16::MAX {
            classes.insert(npn_canonical(tt).0);
        }
        assert_eq!(classes.len(), 222);
    }

    #[test]
    fn library_entries_compute_their_canonical_class() {
        assert!(
            !crate::rewrite_table::LIBRARY.is_empty(),
            "library must be generated (see rewrite_table.rs)"
        );
        for &(canonical, root, nodes) in crate::rewrite_table::LIBRARY {
            // Simulate the entry over the projection tables.
            let mut tts: Vec<u16> = Vec::with_capacity(nodes.len());
            let decode = |lit: u8, tts: &[u16]| -> u16 {
                let (reference, compl) = (lit >> 1, lit & 1 != 0);
                let tt = match reference {
                    0 => 0x0000,
                    1..=4 => VAR_TT[reference as usize - 1],
                    _ => tts[reference as usize - 5],
                };
                if compl {
                    !tt
                } else {
                    tt
                }
            };
            for &(l0, l1) in nodes {
                let v = decode(l0, &tts) & decode(l1, &tts);
                tts.push(v);
            }
            assert_eq!(decode(root, &tts), canonical, "entry {canonical:#06x}");
            // And the key really is canonical.
            assert_eq!(npn_canonical(canonical).0, canonical);
        }
    }

    proptest::proptest! {
        /// Rewriting random AND/OR/XOR soups preserves the function on
        /// every input pattern (exhaustive packed sweep) and never grows
        /// the live network.
        #[test]
        fn prop_rewrite_preserves_equivalence_on_random_soups(seed in 0u64..80) {
            let aig = random_soup(seed, 4 + (seed as usize % 7), 40);
            let rewritten = aig.rewrite();
            proptest::prop_assert!(
                exhaustive_equivalent(&aig, &rewritten),
                "seed {} changed function", seed
            );
            proptest::prop_assert!(
                rewritten.num_ands() <= aig.stats().ands,
                "seed {} grew: {} -> {}",
                seed, aig.stats().ands, rewritten.num_ands()
            );
            proptest::prop_assert!(rewritten.check_invariants().is_empty());
        }
    }

    #[test]
    fn rewrite_shrinks_a_redundant_network() {
        // A 2:1 mux built the long way round: s·t + ¬s·e plus a redundant
        // re-derivation of the same function; rewriting must collapse it.
        let mut aig = Aig::new("mux");
        let s = aig.add_input("s");
        let t = aig.add_input("t");
        let e = aig.add_input("e");
        let a = aig.and(s, t);
        let b = aig.and(s.complement(), e);
        let m = aig.or(a, b);
        // An XOR-shaped detour computing the same mux.
        let diff = aig.xor(t, e);
        let pick = aig.and(diff, s);
        let m2 = aig.xor(pick, e);
        let o = aig.xor(m, m2); // constant false
        aig.add_output("zero", o);
        aig.add_output("mux", m);
        let rewritten = aig.rewrite();
        assert!(exhaustive_equivalent(&aig, &rewritten));
        assert!(
            rewritten.num_ands() < aig.num_ands(),
            "{} -> {}",
            aig.num_ands(),
            rewritten.num_ands()
        );
    }

    #[test]
    fn rewrite_preserves_the_primary_interface() {
        let aig = random_soup(3, 6, 30);
        let rewritten = aig.rewrite();
        assert_eq!(aig.input_names(), rewritten.input_names());
        assert_eq!(aig.output_names(), rewritten.output_names());
    }

    #[test]
    fn rewrite_round_trips_through_circuits() {
        // Circuit -> AIG -> rewrite -> Circuit keeps the interface intact.
        let mut c = Circuit::new("host");
        let ins: Vec<_> = (0..5)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        let g1 = c
            .add_gate(crate::GateType::Xor, "g1", &[ins[0], ins[1]])
            .unwrap();
        let g2 = c
            .add_gate(crate::GateType::Nand, "g2", &[g1, ins[2], ins[3]])
            .unwrap();
        let g3 = c
            .add_gate(crate::GateType::Or, "g3", &[g2, ins[4]])
            .unwrap();
        c.mark_output(g3);
        let aig = Aig::from_circuit(&c).unwrap();
        let rewritten = aig.rewrite();
        let back = rewritten.to_circuit().unwrap();
        assert_eq!(back.num_outputs(), c.num_outputs());
        assert!(exhaustive_equivalent(&aig, &rewritten));
    }

    /// Generates `rewrite_table.rs`: BFS over minimum tree-cost AIGs of all
    /// functions reachable with ≤ 12 AND nodes, compressed to one best entry
    /// per NPN class, re-expressed in the canonical frame and verified.
    ///
    /// ```sh
    /// cargo test -p kratt-netlist --release generate_rewrite_table -- --ignored
    /// ```
    #[test]
    #[ignore = "regenerates src/rewrite_table.rs"]
    fn generate_rewrite_table() {
        const MAX_COST: usize = 12;
        const NONE: u8 = u8::MAX;
        // cost[tt], children[tt] = (ta, tb, polarities) with the raw child
        // tables; polarity bit 0 complements ta, bit 1 complements tb.
        let mut cost = vec![NONE; 65536];
        let mut children = vec![(0u16, 0u16, 0u8); 65536];
        let mut by_cost: Vec<Vec<u16>> = vec![Vec::new(); MAX_COST + 1];
        for tt in VAR_TT {
            cost[tt as usize] = 0;
            by_cost[0].push(tt);
        }
        for total in 1..=MAX_COST {
            let mut found: Vec<u16> = Vec::new();
            for ca in 0..total {
                let cb = total - 1 - ca;
                if ca > cb {
                    break;
                }
                for i in 0..by_cost[ca].len() {
                    let ta = by_cost[ca][i];
                    for &tb in &by_cost[cb] {
                        for pol in 0..4u8 {
                            let va = if pol & 1 != 0 { !ta } else { ta };
                            let vb = if pol & 2 != 0 { !tb } else { tb };
                            let t = va & vb;
                            if cost[t as usize] == NONE {
                                cost[t as usize] = total as u8;
                                children[t as usize] = (ta, tb, pol);
                                found.push(t);
                            }
                        }
                    }
                }
            }
            by_cost[total] = found;
        }

        // Best raw representative per NPN class.
        let mut classes: HashMap<u16, (u16, NpnTransform, u8)> = HashMap::new();
        for tt in 0..=u16::MAX {
            if cost[tt as usize] == NONE {
                continue;
            }
            let (canonical, t) = npn_canonical(tt);
            let entry = classes
                .entry(canonical)
                .or_insert((tt, t, cost[tt as usize]));
            if cost[tt as usize] < entry.2 || (cost[tt as usize] == entry.2 && tt < entry.0) {
                *entry = (tt, t, cost[tt as usize]);
            }
        }
        // Constants and projections are handled inline by the rewriter.
        let mut keys: Vec<u16> = classes
            .keys()
            .copied()
            .filter(|&c| c != 0x0000 && npn_canonical(VAR_TT[0]).0 != c)
            .collect();
        keys.sort_unstable();

        let mut body = String::new();
        for &canonical in &keys {
            let (raw, t, _) = classes[&canonical];
            // Emit the raw structure as a node list (shared by truth table).
            let mut nodes: Vec<(u8, u8)> = Vec::new();
            let mut memo: HashMap<u16, u8> = HashMap::new();
            fn emit(
                tt: u16,
                cost: &[u8],
                children: &[(u16, u16, u8)],
                t: NpnTransform,
                nodes: &mut Vec<(u8, u8)>,
                memo: &mut HashMap<u16, u8>,
            ) -> u8 {
                if let Some(&lit) = memo.get(&tt) {
                    return lit;
                }
                // Source variable x_i becomes y[perm[i]] ^ flips[i].
                if let Some(i) = VAR_TT.iter().position(|&v| v == tt) {
                    let flip = (t.flips >> i) & 1;
                    return (1 + t.perm[i]) * 2 + flip;
                }
                assert!(cost[tt as usize] > 0, "non-leaf entry");
                let (ta, tb, pol) = children[tt as usize];
                let la = emit(ta, cost, children, t, nodes, memo) ^ u8::from(pol & 1 != 0);
                let lb = emit(tb, cost, children, t, nodes, memo) ^ u8::from(pol & 2 != 0);
                let lit = (5 + nodes.len() as u8) * 2;
                nodes.push((la, lb));
                memo.insert(tt, lit);
                lit
            }
            let root = emit(raw, &cost, &children, t, &mut nodes, &mut memo) ^ u8::from(t.out);
            // Verify: the emitted entry must compute `canonical` over y0..y3.
            let mut tts: Vec<u16> = Vec::new();
            let decode = |lit: u8, tts: &[u16]| -> u16 {
                let (reference, compl) = (lit >> 1, lit & 1 != 0);
                let tt = match reference {
                    0 => 0x0000,
                    1..=4 => VAR_TT[reference as usize - 1],
                    _ => tts[reference as usize - 5],
                };
                if compl {
                    !tt
                } else {
                    tt
                }
            };
            for &(l0, l1) in &nodes {
                let v = decode(l0, &tts) & decode(l1, &tts);
                tts.push(v);
            }
            assert_eq!(
                decode(root, &tts),
                canonical,
                "re-expression failed for class {canonical:#06x} (raw {raw:#06x})"
            );
            let node_list: Vec<String> = nodes.iter().map(|(a, b)| format!("({a}, {b})")).collect();
            body.push_str(&format!(
                "    ({canonical:#06x}, {root}, &[{}]),\n",
                node_list.join(", ")
            ));
        }

        let text = format!(
            "{}\n#[rustfmt::skip]\n#[allow(clippy::type_complexity)]\npub(crate) const LIBRARY: &[(u16, u8, &[(u8, u8)])] = &[\n{}];\n",
            "//! Precomputed optimal-subgraph library for [`crate::rewrite`].\n//!\n//! GENERATED FILE — do not edit by hand. Regenerate with\n//!\n//! ```sh\n//! cargo test -p kratt-netlist --release generate_rewrite_table -- --ignored\n//! ```\n//!\n//! Each entry is `(canonical_tt, root, nodes)`: the NPN-canonical 4-input\n//! truth table, the root literal and the AND nodes of a minimum-tree-cost\n//! AIG implementing exactly that canonical function over inputs `y0..y3`.\n//! Literals encode `reference * 2 + complement` with references `0` =\n//! constant false, `1..=4` = inputs `y0..y3`, and `5 + k` = AND node `k`\n//! of the entry's node list (nodes are in topological order).\n\n/// The canonical-class library, one entry per reachable NPN class.",
            body
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/rewrite_table.rs");
        std::fs::write(path, text).expect("write rewrite_table.rs");
        println!(
            "wrote {} entries ({} classes reachable at tree-cost <= {MAX_COST})",
            keys.len(),
            classes.len()
        );
    }
}
