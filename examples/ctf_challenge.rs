//! Attack the HeLLO: CTF'22-style challenges of the paper's Table V.
//!
//! The competition distributed SFLL-locked circuits without originals or
//! keys; this example regenerates analog challenges with known ground truth
//! (scaled-down hosts, identical interfaces), then lets KRATT loose on them
//! under both threat models.
//!
//! Run with `cargo run --release --example ctf_challenge`.

use kratt::KrattAttack;
use kratt_attacks::{score_guess, AttackOutcome, Oracle};
use kratt_benchmarks::hello_ctf::HelloCtfCircuit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // final_v3 at full scale (it is tiny); the two large finals scaled down.
    let challenges = [
        (HelloCtfCircuit::FinalV3, 1.0),
        (HelloCtfCircuit::FinalV1, 0.02),
        (HelloCtfCircuit::FinalV2, 0.02),
    ];
    for (challenge, scale) in challenges {
        let (host, locked) = challenge.generate_locked_scaled(scale)?;
        println!(
            "\n{}: {} gates, {} key inputs",
            challenge.name(),
            locked.circuit.num_gates(),
            locked.circuit.key_inputs().len()
        );

        // Oracle-less: partial key guess.
        let ol = KrattAttack::new().attack_oracle_less(&locked.circuit)?;
        let key_names: Vec<String> = locked
            .circuit
            .key_inputs()
            .iter()
            .map(|&n| locked.circuit.net_name(n).to_string())
            .collect();
        let (cdk, dk) = score_guess(&locked, &ol.outcome.as_guess(&key_names));
        println!(
            "  oracle-less ({:?}): cdk/dk = {cdk}/{dk} in {:.2?}",
            ol.path, ol.runtime
        );

        // Oracle-guided: exact key.
        let oracle = Oracle::new(host.clone())?;
        let og = KrattAttack::new().attack_oracle_guided(&locked.circuit, &oracle)?;
        match &og.outcome {
            AttackOutcome::ExactKey(key) => {
                let correct = key
                    .bits()
                    .iter()
                    .zip(locked.secret.bits())
                    .filter(|(a, b)| a == b)
                    .count();
                println!(
                    "  oracle-guided ({:?}): key recovered in {:.2?}, {}/{} bits match the ground truth",
                    og.path,
                    og.runtime,
                    correct,
                    key.len()
                );
            }
            other => println!("  oracle-guided: {other:?} after {:.2?}", og.runtime),
        }
    }
    Ok(())
}
