//! Compiler error type.

use std::fmt;

/// An error produced while compiling a [`Net`](crate::dsl::Net).
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The non-recurrent connection graph has a cycle.
    Cycle {
        /// Names of ensembles on the cycle.
        ensembles: Vec<String>,
    },
    /// An ensemble field's initial tensor has the wrong shape.
    FieldShape {
        /// The offending ensemble.
        ensemble: String,
        /// The offending field.
        field: String,
        /// Human-readable explanation.
        detail: String,
    },
    /// A connection mapping produced regions of differing sizes, which the
    /// uniform-region analysis cannot stage.
    NonRectangular {
        /// The sink ensemble of the offending connection.
        ensemble: String,
        /// Index of the connection on the sink.
        connection: usize,
    },
    /// A mapping range fell entirely outside the source ensemble.
    MappingOutOfRange {
        /// The sink ensemble of the offending connection.
        ensemble: String,
        /// Index of the connection on the sink.
        connection: usize,
        /// Human-readable explanation.
        detail: String,
    },
    /// An ensemble configuration is invalid (missing neuron, missing
    /// field storage, bad normalization arity, …).
    Invalid {
        /// The offending ensemble.
        ensemble: String,
        /// Human-readable explanation.
        detail: String,
    },
    /// The IR verifier rejected the program a compiler stage produced.
    /// Always a compiler bug (or a deliberately sabotaged stage under
    /// test), never a user error.
    Verify {
        /// Name of the stage whose output failed verification
        /// (`"synthesize"` when the synthesized program itself is bad).
        pass: String,
        /// The verifier's diagnostic, including the statement path.
        detail: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Cycle { ensembles } => write!(
                f,
                "non-recurrent connection graph has a cycle through [{}] (mark backward edges recurrent)",
                ensembles.join(", ")
            ),
            CompileError::FieldShape {
                ensemble,
                field,
                detail,
            } => write!(f, "field `{field}` of ensemble `{ensemble}`: {detail}"),
            CompileError::NonRectangular {
                ensemble,
                connection,
            } => write!(
                f,
                "connection {connection} of ensemble `{ensemble}` maps sink neurons to regions of differing sizes"
            ),
            CompileError::MappingOutOfRange {
                ensemble,
                connection,
                detail,
            } => write!(
                f,
                "connection {connection} of ensemble `{ensemble}` maps outside the source: {detail}"
            ),
            CompileError::Invalid { ensemble, detail } => {
                write!(f, "invalid ensemble `{ensemble}`: {detail}")
            }
            CompileError::Verify { pass, detail } => {
                write!(f, "ir verification failed after pass `{pass}`: {detail}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let e = CompileError::Cycle {
            ensembles: vec!["a".into(), "b".into()],
        };
        let msg = e.to_string();
        assert!(msg.contains("cycle through [a, b]"));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_trait_object_compatible() {
        fn takes_err(_: &(dyn std::error::Error + Send + Sync)) {}
        let e = CompileError::Invalid {
            ensemble: "x".into(),
            detail: "no neuron type".into(),
        };
        takes_err(&e);
    }
}
