//! AIG invariant rules: the structural contract of the shared
//! [`Aig`](kratt_netlist::Aig) core IR, surfaced as diagnostics instead of
//! debug assertions.

use crate::diagnostic::{Diagnostic, Severity};
use crate::rule::{LintContext, Rule};
use kratt_netlist::AigViolation;

/// Every AIG rule, in catalogue order.
pub(crate) fn rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(AigFaninOrder),
        Box::new(AigStrashConsistency),
        Box::new(AigDanglingNode),
    ]
}

/// `aig-fanin-order` (error): an AND node whose fanin does not precede it in
/// the node array. Every pass over the AIG (evaluation, CNF encoding,
/// raising) walks nodes in index order and relies on fanins being resolved
/// already.
pub struct AigFaninOrder;

impl Rule for AigFaninOrder {
    fn id(&self) -> &'static str {
        "aig-fanin-order"
    }
    fn summary(&self) -> &'static str {
        "AND node has a fanin that does not precede it topologically"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(aig) = ctx.aig() else {
            return Vec::new();
        };
        aig.check_invariants()
            .into_iter()
            .filter_map(|v| match v {
                AigViolation::FaninOrder { node, .. } => Some(Diagnostic::at(
                    self.id(),
                    Severity::Error,
                    format!("node {node}"),
                    v.to_string(),
                )),
                AigViolation::DuplicateNode { .. } => None,
            })
            .collect()
    }
}

/// `aig-strash-consistency` (error): two live AND nodes with the same fanin
/// pair. Structural hashing promises at most one node per (fanin, fanin)
/// pair; a duplicate means some path bypassed the strash table, and
/// structural equivalences the solvers count on no longer hold.
pub struct AigStrashConsistency;

impl Rule for AigStrashConsistency {
    fn id(&self) -> &'static str {
        "aig-strash-consistency"
    }
    fn summary(&self) -> &'static str {
        "two AND nodes share one fanin pair (strash table bypassed)"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(aig) = ctx.aig() else {
            return Vec::new();
        };
        aig.check_invariants()
            .into_iter()
            .filter_map(|v| match v {
                AigViolation::DuplicateNode { second, .. } => Some(Diagnostic::at(
                    self.id(),
                    Severity::Error,
                    format!("node {second}"),
                    v.to_string(),
                )),
                AigViolation::FaninOrder { .. } => None,
            })
            .collect()
    }
}

/// `aig-dangling-node` (warning): an AND node outside the cone of every
/// output. Dangling nodes are functionally harmless but inflate node counts
/// and signal a transform that forgot to sweep.
pub struct AigDanglingNode;

impl Rule for AigDanglingNode {
    fn id(&self) -> &'static str {
        "aig-dangling-node"
    }
    fn summary(&self) -> &'static str {
        "AND node is outside the cone of every output"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(aig) = ctx.aig() else {
            return Vec::new();
        };
        aig.dangling_nodes()
            .into_iter()
            .map(|node| {
                Diagnostic::at(
                    self.id(),
                    Severity::Warning,
                    format!("node {node}"),
                    "AND node does not reach any output",
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_netlist::{Aig, AigLit};

    fn run(rule: &dyn Rule, aig: &Aig) -> Vec<Diagnostic> {
        rule.check(&LintContext::for_aig(aig))
    }

    fn two_input_aig() -> (Aig, AigLit, AigLit) {
        let mut aig = Aig::new("toy");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        (aig, a, b)
    }

    #[test]
    fn clean_aig_passes_every_rule() {
        let (mut aig, a, b) = two_input_aig();
        let and = aig.and(a, b);
        aig.add_output("o", and);
        for rule in rules() {
            assert!(
                run(rule.as_ref(), &aig).is_empty(),
                "rule `{}` fired on a clean AIG",
                rule.id()
            );
        }
    }

    #[test]
    fn fanin_order_violation_fires() {
        let (mut aig, a, _) = two_input_aig();
        // Fanin node 9 does not exist yet, so it cannot precede this node.
        let broken = aig.raw_push_and(a, AigLit::new(9, false));
        aig.add_output("o", broken);
        let found = run(&AigFaninOrder, &aig);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].severity, Severity::Error);
        // The other AIG rules do not double-report this violation.
        assert!(run(&AigStrashConsistency, &aig).is_empty());
    }

    #[test]
    fn strash_duplicate_fires() {
        let (mut aig, a, b) = two_input_aig();
        let first = aig.and(a, b);
        let dup = aig.raw_push_and(a, b);
        aig.add_output("o1", first);
        aig.add_output("o2", dup);
        let found = run(&AigStrashConsistency, &aig);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("share the same fanin pair"));
        assert!(run(&AigFaninOrder, &aig).is_empty());
    }

    #[test]
    fn dangling_node_fires() {
        let (mut aig, a, b) = two_input_aig();
        let _orphan = aig.and(a, b);
        aig.add_output("o", a);
        let found = run(&AigDanglingNode, &aig);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].severity, Severity::Warning);
    }
}
