//! Error type shared by the attack implementations.

use crate::engine::ThreatModel;
use kratt_netlist::NetlistError;
use std::fmt;

/// Errors an attack can report (besides the legitimate "out of time" outcome,
/// which is part of the report types, not an error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackError {
    /// The locked netlist has no key inputs — there is nothing to attack.
    NoKeyInputs,
    /// No single critical signal exists (the key inputs do not converge into
    /// one merge point), so removal-style attacks do not apply.
    NoCriticalSignal,
    /// The locked netlist and the oracle disagree on the data-input
    /// interface (an input exists in one but not the other).
    InterfaceMismatch(String),
    /// The attack does not support the request's threat model (e.g. an
    /// oracle-less request against a DIP-loop attack).
    Unsupported {
        /// Registry name of the attack.
        attack: String,
        /// The unsupported threat model of the request.
        model: ThreatModel,
    },
    /// No attack with the given name is registered.
    UnknownAttack(String),
    /// A portfolio's member list is unusable: it is empty, names a member
    /// twice, or names the portfolio itself.
    BadPortfolioMembers(String),
    /// A DIP-loop attack ran out of distinguishing inputs, but no key
    /// reproduces every oracle response it observed: the oracle computes a
    /// function the locked netlist takes under no key, so there is no key
    /// to report.
    NoConsistentKey,
    /// A strict `KeyGuess` → `SecretKey` conversion was attempted on a
    /// partial guess.
    PartialKey {
        /// Key bits the guess does not decipher.
        missing: usize,
        /// Total key bits of the netlist.
        total: usize,
    },
    /// An underlying netlist operation failed.
    Netlist(NetlistError),
    /// The attack never ran because the scenario could not be set up — most
    /// commonly a locking scheme that fails on its host (e.g. a key width
    /// exceeding the protected-input count). Carried as a structured row
    /// error by the batch harness and campaign pipeline so one impossible
    /// (scheme, host) cell cannot abort a whole matrix.
    Setup(String),
    /// The job never started: the scheduler was halted before a worker
    /// picked it up. Interrupted rows are never journaled, so a resumed
    /// campaign re-attacks exactly these cells.
    Interrupted,
    /// The attack panicked while running inside the batch harness; the
    /// payload is the panic message. Carried as a row error so one
    /// misbehaving (attack, case) pair cannot abort a whole matrix.
    Panicked(String),
    /// An attack-specific failure that has no structured variant.
    Other(String),
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::NoKeyInputs => write!(f, "locked netlist has no key inputs"),
            AttackError::NoCriticalSignal => {
                write!(
                    f,
                    "key inputs do not converge into a single critical signal"
                )
            }
            AttackError::InterfaceMismatch(name) => {
                write!(
                    f,
                    "input `{name}` is not shared between the locked netlist and the oracle"
                )
            }
            AttackError::Unsupported { attack, model } => {
                write!(
                    f,
                    "attack `{attack}` does not support the {model} threat model"
                )
            }
            AttackError::UnknownAttack(name) => {
                write!(f, "no attack named `{name}` is registered")
            }
            AttackError::BadPortfolioMembers(message) => {
                write!(f, "bad portfolio member list: {message}")
            }
            AttackError::NoConsistentKey => {
                write!(f, "no key reproduces the oracle's responses")
            }
            AttackError::PartialKey { missing, total } => {
                write!(f, "guess leaves {missing} of {total} key bits undeciphered")
            }
            AttackError::Netlist(e) => write!(f, "netlist error: {e}"),
            AttackError::Setup(message) => write!(f, "scenario setup failed: {message}"),
            AttackError::Interrupted => {
                write!(
                    f,
                    "interrupted before the attack started (the scheduler was halted)"
                )
            }
            AttackError::Panicked(message) => write!(f, "attack panicked: {message}"),
            AttackError::Other(message) => write!(f, "{message}"),
        }
    }
}

/// Runs `run` behind a panic firewall: a panic comes back as
/// [`AttackError::Panicked`] carrying the panic message, so one misbehaving
/// attack can abort neither the matrix row nor the portfolio race that runs
/// it.
pub(crate) fn catch_panic<T>(
    run: impl FnOnce() -> Result<T, AttackError>,
) -> Result<T, AttackError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic payload of unknown type".to_string());
        Err(AttackError::Panicked(message))
    })
}

impl std::error::Error for AttackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AttackError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for AttackError {
    fn from(e: NetlistError) -> Self {
        AttackError::Netlist(e)
    }
}

/// A locking failure is always a *setup* failure from the attack side: the
/// scenario never existed, so no attack ran.
impl From<kratt_locking::LockError> for AttackError {
    fn from(e: kratt_locking::LockError) -> Self {
        AttackError::Setup(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(AttackError::NoKeyInputs.to_string().contains("key"));
        assert!(AttackError::InterfaceMismatch("G7".into())
            .to_string()
            .contains("G7"));
        let wrapped: AttackError = NetlistError::UnknownNet("n".into()).into();
        assert!(std::error::Error::source(&wrapped).is_some());
    }
}
