//! Synthesis error type.

use aqfp_netlist::NetlistError;
use std::error::Error;
use std::fmt;

/// Errors produced by the synthesis stage. Each variant returns the
/// netlist error it wraps from [`Error::source`] and leaves it out of its
/// own `Display`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthesisError {
    /// The input netlist failed structural validation.
    InvalidInput(NetlistError),
    /// An internal rewrite produced an invalid netlist (a bug in the
    /// synthesis stage; reported rather than panicking so callers can save
    /// the offending input).
    InternalRewrite(NetlistError),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::InvalidInput(_) => f.write_str("input netlist is invalid"),
            SynthesisError::InternalRewrite(_) => {
                f.write_str("synthesis rewrite produced an invalid netlist")
            }
        }
    }
}

impl Error for SynthesisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SynthesisError::InvalidInput(e) | SynthesisError::InternalRewrite(e) => Some(e),
        }
    }
}

impl From<NetlistError> for SynthesisError {
    fn from(value: NetlistError) -> Self {
        SynthesisError::InvalidInput(value)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use aqfp_netlist::GateId;

    #[test]
    fn display_leaves_the_cause_to_source() {
        let err = SynthesisError::InvalidInput(NetlistError::Cycle { gate: GateId(3) });
        assert!(!err.to_string().contains("cycle"), "{err}");
        let cause = std::error::Error::source(&err).expect("the netlist error is the source");
        assert!(cause.to_string().contains("cycle"), "{cause}");
    }
}
