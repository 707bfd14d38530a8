//! Quickstart: the paper's running example (Fig. 5).
//!
//! A 3-input majority circuit is locked with SARLock (an SFLT) and with
//! TTLock (a DFLT); KRATT breaks the former with the QBF formulation alone
//! and the latter with the oracle-guided structural analysis.
//!
//! Run with `cargo run --example quickstart`.

use kratt::KrattAttack;
use kratt_attacks::{AttackOutcome, Oracle};
use kratt_benchmarks::small::majority;
use kratt_locking::{LockingTechnique, SarLock, SecretKey, TtLock};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let original = majority();
    println!("original circuit: {original}");

    // --- SFLT: SARLock, broken oracle-less via QBF -------------------------
    let secret = SecretKey::from_u64(0b100, 3);
    let locked = SarLock::new(3).lock(&original, &secret)?;
    println!("\nlocked with SARLock, secret key k3k2k1 = {secret}");
    let report = KrattAttack::new().attack_oracle_less(&locked.circuit)?;
    match &report.outcome {
        AttackOutcome::ExactKey(key) => {
            println!(
                "KRATT (oracle-less, {:?}) recovered key = {key}",
                report.path
            );
            assert_eq!(key.to_u64(), secret.to_u64());
        }
        other => println!("unexpected outcome: {other:?}"),
    }

    // --- DFLT: TTLock, broken oracle-guided via structural analysis --------
    let secret = SecretKey::from_u64(0b010, 3);
    let locked = TtLock::new(3).lock(&original, &secret)?;
    println!("\nlocked with TTLock, secret key k3k2k1 = {secret}");
    let oracle = Oracle::new(original.clone())?;
    let report = KrattAttack::new().attack_oracle_guided(&locked.circuit, &oracle)?;
    match &report.outcome {
        AttackOutcome::ExactKey(key) => {
            println!(
                "KRATT (oracle-guided, {:?}) recovered key = {key} with {} oracle queries",
                report.path,
                oracle.queries()
            );
            assert_eq!(key.to_u64(), secret.to_u64());
        }
        other => println!("unexpected outcome: {other:?}"),
    }

    // The correct key restores the original function.
    let unlocked = locked.apply_key(&secret)?;
    assert!(kratt_netlist::sim::exhaustively_equivalent(
        &original, &unlocked
    )?);
    println!("\ncorrect key verified: locked circuit + secret key == original circuit");
    Ok(())
}
