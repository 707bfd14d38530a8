//! Structural primitives shared by the removal attack and by KRATT's logic
//! removal step.

use kratt_netlist::analysis::{fanin_marks, fanout_marks, topological_order};
use kratt_netlist::{Circuit, GateId, NetId};
use std::collections::{HashMap, HashSet};

/// Finds the *critical signal* `cs1` of a locked netlist: the output of the
/// first gate (in topological order) on the paths from the key inputs to the
/// primary outputs through which **all** key influence flows (the paper's
/// Section III-A, step (i)).
///
/// Concretely, `cs1` is the topologically first gate output that dominates
/// a virtual sink fed by every primary output, from a virtual source feeding
/// every key input: every key-to-output path crosses it, so it is the single
/// merge point of the locking/restore unit. One reverse pass over the cached
/// topological order marks the nets that reach an output, and one forward
/// pass computes immediate dominators in topological numbering (Cooper,
/// Harvey and Kennedy, "A Simple, Fast Dominance Algorithm", 2001). When no
/// key input reaches an output, every gate blocks vacuously and `cs1` is the
/// first gate in every key input's fan-out cone.
///
/// Returns `None` if the circuit has no key inputs or no such single merge
/// point exists (e.g. random XOR locking, where key gates are scattered),
/// including when one key input reaches an output and another does not, or
/// a key input is itself a primary output.
pub fn find_critical_signal(circuit: &Circuit) -> Option<NetId> {
    const NONE: u32 = u32::MAX;
    let key_inputs = circuit.key_inputs();
    if key_inputs.is_empty() {
        return None;
    }
    let order = topological_order(circuit).ok()?;
    // The nets from which some primary output is reachable.
    let (live, _) = fanin_marks(circuit, circuit.outputs(), |_| false).ok()?;
    let live_keys = key_inputs.iter().filter(|k| live[k.index()]).count();
    if live_keys == 0 {
        return first_common_gate(circuit, &order, &key_inputs);
    }
    if live_keys < key_inputs.len() {
        // A gate on every path of the live keys reaches an output, so a dead
        // key cannot reach it.
        return None;
    }

    // Dominator-tree nodes: 0 is the source, `1..=k` the key inputs and
    // `k + 1 + i` the output of the `i`-th gate in order, so every node is
    // numbered after its dominators. `node` maps a net to its node, for the
    // nets on a key-to-output path.
    let k = key_inputs.len() as u32;
    let mut node = vec![NONE; circuit.num_nets()];
    let mut idom = vec![0u32; key_inputs.len() + 1 + order.len()];
    for (number, &key) in (1..).zip(&key_inputs) {
        node[key.index()] = number;
    }
    // The nearest common dominator of the nets' nodes, if any has one.
    let meet = |idom: &[u32], node: &[u32], nets: &[NetId]| {
        nets.iter()
            .map(|net| node[net.index()])
            .filter(|&p| p != NONE)
            .reduce(|mut a, mut b| {
                while a != b {
                    if a > b {
                        a = idom[a as usize];
                    } else {
                        b = idom[b as usize];
                    }
                }
                a
            })
    };
    for (number, &gid) in (k + 1..).zip(order.iter()) {
        let gate = circuit.gate(gid);
        if live[gate.output.index()] {
            if let Some(dominator) = meet(&idom, &node, &gate.inputs) {
                idom[number as usize] = dominator;
                node[gate.output.index()] = number;
            }
        }
    }
    // Walk up from the sink's immediate dominator to the topmost gate.
    let mut dominator = meet(&idom, &node, circuit.outputs())?;
    let mut first = None;
    while dominator > k {
        first = Some(dominator);
        dominator = idom[dominator as usize];
    }
    first.map(|number| circuit.gate(order[(number - k - 1) as usize]).output)
}

/// The output of the first gate in `order` that is in every key input's
/// fan-out cone: one forward pass over the order per key input.
fn first_common_gate(circuit: &Circuit, order: &[GateId], key_inputs: &[NetId]) -> Option<NetId> {
    let mut keys_reaching = vec![0usize; circuit.num_nets()];
    for &key in key_inputs {
        let reached = fanout_marks(circuit, &[key]).ok()?;
        for (count, reached) in keys_reaching.iter_mut().zip(reached) {
            *count += usize::from(reached);
        }
    }
    order
        .iter()
        .map(|&gid| circuit.gate(gid).output)
        .find(|out| keys_reaching[out.index()] == key_inputs.len())
}

/// Finds, for each protected primary input of the extracted locking/restore
/// unit, the key input(s) associated with it: the key inputs that share a
/// gate with the protected input inside the unit (possibly through
/// inverters), as in the paper's Section III-A. Anti-SAT style units
/// associate two key inputs per protected input.
///
/// The returned pairs are `(protected input name, key input names)`, in
/// data-input order; each input's keys come in gate order, then in the
/// gate's input order, without repeats. One pass over the gates serves
/// every protected input.
pub fn associate_keys_with_inputs(unit: &Circuit) -> Vec<(String, Vec<String>)> {
    let key_inputs: HashSet<NetId> = unit.key_inputs().into_iter().collect();
    let data_inputs: Vec<NetId> = unit.data_inputs();

    // Map each net to the primary input it transitively buffers/inverts, if
    // it is just a chain of NOT/BUF gates from that input.
    let mut alias: HashMap<NetId, NetId> = HashMap::new();
    for &pi in unit.inputs() {
        alias.insert(pi, pi);
    }
    if let Ok(order) = topological_order(unit) {
        for &gid in order.iter() {
            let gate = unit.gate(gid);
            if gate.inputs.len() == 1 {
                if let Some(&root) = alias.get(&gate.inputs[0]) {
                    alias.insert(gate.output, root);
                }
            }
        }
    }

    let slot: HashMap<NetId, usize> = data_inputs
        .iter()
        .enumerate()
        .map(|(index, &ppi)| (ppi, index))
        .collect();
    let mut keys: Vec<Vec<NetId>> = vec![Vec::new(); data_inputs.len()];
    let mut roots: Vec<NetId> = Vec::new();
    for (_, gate) in unit.gates() {
        roots.clear();
        roots.extend(gate.inputs.iter().filter_map(|n| alias.get(n).copied()));
        for &ppi in &roots {
            let Some(&index) = slot.get(&ppi) else {
                continue;
            };
            for &root in &roots {
                if key_inputs.contains(&root) && !keys[index].contains(&root) {
                    keys[index].push(root);
                }
            }
        }
    }
    data_inputs
        .iter()
        .zip(keys)
        .map(|(&ppi, keys)| {
            (
                unit.net_name(ppi).to_string(),
                keys.into_iter()
                    .map(|key| unit.net_name(key).to_string())
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kratt_locking::{AntiSat, LockingTechnique, SarLock, SecretKey, TtLock};
    use kratt_netlist::transform::extract_cone;
    use kratt_netlist::GateType;

    fn majority() -> Circuit {
        let mut c = Circuit::new("majority");
        let a = c.add_input("x1").unwrap();
        let b = c.add_input("x2").unwrap();
        let x = c.add_input("x3").unwrap();
        let ab = c.add_gate(GateType::And, "ab", &[a, b]).unwrap();
        let ax = c.add_gate(GateType::And, "ax", &[a, x]).unwrap();
        let bx = c.add_gate(GateType::And, "bx", &[b, x]).unwrap();
        let maj = c.add_gate(GateType::Or, "f", &[ab, ax, bx]).unwrap();
        c.mark_output(maj);
        c
    }

    #[test]
    fn critical_signal_of_sarlock_is_the_flip_root() {
        let locked = SarLock::new(3)
            .lock(&majority(), &SecretKey::from_u64(0b100, 3))
            .unwrap();
        let cs1 = find_critical_signal(&locked.circuit).expect("SFLT has a critical signal");
        // The critical signal is the flip root: its only consumer is the XOR
        // that corrupts the primary output, and its cone contains every key
        // input together with the hard-wired mask logic.
        let fanout = crate::reference::fanout_map(&locked.circuit);
        let consumers = &fanout[&cs1];
        assert_eq!(consumers.len(), 1);
        let consumer = locked.circuit.gate(consumers[0]);
        assert_eq!(consumer.ty, GateType::Xor);
        assert!(locked.circuit.is_output(consumer.output));
        let unit = extract_cone(&locked.circuit, &[cs1], &[]).unwrap();
        assert_eq!(unit.key_inputs().len(), 3);
        assert!(
            unit.num_gates() > 6,
            "unit must include comparator and mask logic"
        );
    }

    #[test]
    fn critical_signal_of_ttlock_is_the_restore_root() {
        let locked = TtLock::new(3)
            .lock(&majority(), &SecretKey::from_u64(0b010, 3))
            .unwrap();
        let cs1 = find_critical_signal(&locked.circuit).expect("DFLT has a critical signal");
        let unit = extract_cone(&locked.circuit, &[cs1], &[]).unwrap();
        // The restore unit depends on all 3 key inputs and the 3 PPIs only.
        assert_eq!(unit.key_inputs().len(), 3);
        assert_eq!(unit.data_inputs().len(), 3);
    }

    #[test]
    fn no_key_inputs_means_no_critical_signal() {
        assert!(find_critical_signal(&majority()).is_none());
    }

    /// The shapes the critical-signal property draws.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shape {
        /// Gates over data and key inputs alike; any output.
        Soup,
        /// Every key merges into one unit root that corrupts the outputs.
        Unit,
        /// A unit, plus a key input that reaches no output.
        DeadKey,
        /// A unit whose logic reaches no output.
        AllDead,
        /// A unit, plus a key input that is itself a primary output.
        KeyOutput,
        /// No key inputs at all.
        NoKeys,
    }

    /// A random circuit of a shape drawn from `seed`: a host over two to
    /// five data inputs and up to eight key inputs, declared in random
    /// order.
    fn random_lock(seed: u64) -> (Circuit, Shape) {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        use Shape::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = [Soup, Unit, DeadKey, AllDead, KeyOutput, NoKeys][rng.gen_range(0..6usize)];
        let key_count = match shape {
            NoKeys => 0,
            DeadKey => rng.gen_range(2..9),
            _ => rng.gen_range(1..9),
        };
        let mut names: Vec<String> = (0..rng.gen_range(2..6))
            .map(|i| format!("x{i}"))
            .chain((0..key_count).map(|i| format!("keyinput{i}")))
            .collect();
        names.shuffle(&mut rng);
        let mut c = Circuit::new(format!("lock{seed}"));
        for name in &names {
            c.add_input(name.as_str()).unwrap();
        }
        let keys = c.key_inputs();
        let data = c.data_inputs();
        /// A gate of a random type over exactly `fanin`.
        fn merge(c: &mut Circuit, rng: &mut StdRng, fanin: &[NetId]) -> NetId {
            let types = [
                GateType::And,
                GateType::Nand,
                GateType::Or,
                GateType::Nor,
                GateType::Xor,
                GateType::Xnor,
            ];
            let ty = match fanin.len() {
                1 if rng.gen_bool(0.5) => GateType::Not,
                1 => GateType::Buf,
                _ => types[rng.gen_range(0..types.len())],
            };
            c.add_gate(ty, format!("g{}", c.num_gates()), fanin)
                .unwrap()
        }
        /// A gate of a random type over one to three nets of `over`.
        fn gate(c: &mut Circuit, rng: &mut StdRng, over: &[NetId]) -> NetId {
            let fanin: Vec<NetId> = (0..rng.gen_range(1..4))
                .map(|_| over[rng.gen_range(0..over.len())])
                .collect();
            merge(c, rng, &fanin)
        }

        let mut host = data.clone();
        for _ in 0..rng.gen_range(1..8) {
            let net = gate(&mut c, &mut rng, &host);
            host.push(net);
        }
        if matches!(shape, Soup | NoKeys) {
            let mut nets: Vec<NetId> = host.iter().chain(&keys).copied().collect();
            for _ in 0..rng.gen_range(0..10) {
                let net = gate(&mut c, &mut rng, &nets);
                nets.push(net);
            }
            for _ in 0..rng.gen_range(1..4) {
                c.mark_output(nets[rng.gen_range(0..nets.len())]);
            }
            return (c, shape);
        }

        // The unit: a soup over the live keys and some data inputs, folded
        // with every live key and some of its gates into one root gate.
        let live = if shape == DeadKey {
            &keys[1..]
        } else {
            &keys[..]
        };
        let mut unit: Vec<NetId> = live.iter().chain(&data[..1]).copied().collect();
        for _ in 0..rng.gen_range(0..8) {
            let net = gate(&mut c, &mut rng, &unit);
            unit.push(net);
        }
        let mut root = unit[unit.len() - 1];
        // Half the dead units leave their keys scattered.
        let fold = shape != AllDead || rng.gen_bool(0.5);
        for &net in live.iter().chain(&unit[live.len()..]) {
            if fold && (rng.gen_bool(0.7) || live.contains(&net)) {
                root = merge(&mut c, &mut rng, &[root, net]);
            }
        }
        root = merge(&mut c, &mut rng, &[root]);
        if shape == DeadKey && rng.gen_bool(0.5) {
            // The dead key feeds dangling logic, or nothing.
            merge(&mut c, &mut rng, &[keys[0], root]);
        }
        // Corrupt one to three host nets with the root, possibly through
        // a chain, and keep some host outputs clean.
        for _ in 0..rng.gen_range(1..4) {
            let host_net = host[rng.gen_range(0..host.len())];
            if shape == AllDead {
                c.mark_output(host_net);
                continue;
            }
            let mut corrupted = merge(&mut c, &mut rng, &[host_net, root]);
            if rng.gen_bool(0.3) {
                corrupted = merge(&mut c, &mut rng, &[corrupted, host_net]);
            }
            c.mark_output(corrupted);
        }
        if rng.gen_bool(0.5) {
            c.mark_output(host[rng.gen_range(0..host.len())]);
        }
        if shape == KeyOutput {
            c.mark_output(keys[rng.gen_range(0..keys.len())]);
        }
        (c, shape)
    }

    proptest::proptest! {
        /// The first dominator is the cone-intersection scan's critical
        /// signal on every shape, and the pinned shapes give the pinned
        /// answers: a unit has one, while a dead key, a key output or no
        /// key at all leaves none.
        #[test]
        fn prop_critical_signal_matches_the_reference(seed in 0u64..1200) {
            let (c, shape) = random_lock(seed);
            let found = find_critical_signal(&c);
            let expected = crate::reference::find_critical_signal(&c);
            proptest::prop_assert!(found == expected, "{shape:?}: {found:?} != {expected:?}");
            match shape {
                Shape::Unit => proptest::prop_assert!(found.is_some()),
                Shape::DeadKey | Shape::KeyOutput | Shape::NoKeys => {
                    proptest::prop_assert!(found.is_none())
                }
                Shape::Soup | Shape::AllDead => {}
            }
        }
    }

    #[test]
    fn association_pairs_each_ppi_with_one_key_for_comparator_units() {
        let locked = TtLock::new(3)
            .lock(&majority(), &SecretKey::from_u64(0b001, 3))
            .unwrap();
        let cs1 = find_critical_signal(&locked.circuit).unwrap();
        let unit = extract_cone(&locked.circuit, &[cs1], &[]).unwrap();
        let assoc = associate_keys_with_inputs(&unit);
        assert_eq!(assoc.len(), 3);
        for (ppi, keys) in &assoc {
            assert_eq!(keys.len(), 1, "PPI {ppi} should pair with exactly one key");
        }
        // Each key input appears exactly once overall.
        let mut all_keys: Vec<&String> = assoc.iter().flat_map(|(_, k)| k).collect();
        all_keys.sort();
        all_keys.dedup();
        assert_eq!(all_keys.len(), 3);
    }

    #[test]
    fn association_pairs_each_ppi_with_two_keys_for_anti_sat() {
        let locked = AntiSat::new(6)
            .lock(&majority(), &SecretKey::from_u64(0b101_010, 6))
            .unwrap();
        let cs1 = find_critical_signal(&locked.circuit).unwrap();
        let unit = extract_cone(&locked.circuit, &[cs1], &[]).unwrap();
        let assoc = associate_keys_with_inputs(&unit);
        assert_eq!(assoc.len(), 3);
        for (ppi, keys) in &assoc {
            assert_eq!(
                keys.len(),
                2,
                "PPI {ppi} should pair with two keys in Anti-SAT"
            );
        }
    }
}
