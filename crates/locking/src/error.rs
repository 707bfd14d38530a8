//! Error type for locking operations.

use kratt_netlist::NetlistError;
use std::fmt;

/// Errors produced while locking a circuit or applying a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockError {
    /// The original circuit does not have enough data inputs to protect the
    /// requested number of bits.
    NotEnoughInputs {
        /// Data inputs available in the circuit.
        available: usize,
        /// Protected inputs the technique needs.
        needed: usize,
    },
    /// The key supplied has the wrong number of bits for the technique.
    KeyWidthMismatch {
        /// Bits the technique expects.
        expected: usize,
        /// Bits supplied.
        got: usize,
    },
    /// The circuit has no primary outputs to corrupt.
    NoOutputs,
    /// A scheme spec string (or the parameters it carries) is malformed for
    /// the technique it names.
    BadSpec(String),
    /// Strict-mode locking rejected the locked netlist: the post-lock lint
    /// pass found error-level structural diagnostics (the message carries
    /// them, `; `-joined).
    LintRejected(String),
    /// An underlying netlist operation failed.
    Netlist(NetlistError),
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::NotEnoughInputs { available, needed } => write!(
                f,
                "circuit has {available} data inputs but the technique needs {needed}"
            ),
            LockError::KeyWidthMismatch { expected, got } => {
                write!(f, "technique expects a {expected}-bit key, got {got} bits")
            }
            LockError::NoOutputs => write!(f, "circuit has no primary outputs to corrupt"),
            LockError::BadSpec(message) => write!(f, "bad scheme spec: {message}"),
            LockError::LintRejected(findings) => {
                write!(f, "lint rejected the locked circuit: {findings}")
            }
            LockError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl std::error::Error for LockError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LockError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for LockError {
    fn from(e: NetlistError) -> Self {
        LockError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LockError::NotEnoughInputs {
            available: 3,
            needed: 8,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('8'));
        let e = LockError::KeyWidthMismatch {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains('4'));
        let e: LockError = NetlistError::UnknownNet("x".into()).into();
        assert!(e.to_string().contains('x'));
    }
}
