//! Error type for the transducer core.

use std::fmt;

/// Errors from constructing or running transducers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The transducer schema violates a structural condition of §2.2
    /// (components not disjoint, log not contained in `in ∪ out`, …).
    InvalidSchema {
        /// Explanation of the violation.
        detail: String,
    },
    /// A Spocus restriction of §3.1 is violated (state relations not of the
    /// `past-R` form, output rule mentioning a forbidden relation, recursion,
    /// negation of a non-base relation, unsafe rule, …).
    NotSpocus {
        /// Explanation of the violation.
        detail: String,
    },
    /// A run was attempted with inputs or a database that do not match the
    /// transducer schema.
    SchemaMismatch {
        /// Explanation of the mismatch.
        detail: String,
    },
    /// A syntax error in the transducer DSL.
    Parse {
        /// Explanation of the problem.
        detail: String,
    },
    /// A session-runtime error (duplicate session name, …).
    Runtime {
        /// Explanation of the problem.
        detail: String,
    },
    /// A session was placed on a shard the runtime does not have.
    ShardOutOfRange {
        /// The requested shard.
        shard: usize,
        /// The runtime's shard count.
        shards: usize,
    },
    /// A step input was rejected by the session's enforcement gate
    /// ([`MonitorPolicy::Enforce`](crate::MonitorPolicy::Enforce)): admitting
    /// it would drive the run into an error state.  The run is left exactly
    /// as it was before the step — the session stays usable.
    StepRejected {
        /// The step index (0-based) the input was offered at.
        step: usize,
        /// The name of the violated constraint or property.
        constraint: String,
        /// Explanation, including the witness tuple when one exists.
        detail: String,
    },
    /// The session panicked mid-step and was quarantined: its name is
    /// released, its state is preserved for inspection, and every further
    /// [`Session::step`](crate::Session::step) fails with this error.
    SessionQuarantined {
        /// The quarantined session's name.
        session: String,
        /// The panic payload (or a placeholder when it was not a string).
        detail: String,
    },
    /// An error bubbled up from the datalog engine.
    Datalog(rtx_datalog::DatalogError),
    /// An error bubbled up from the relational layer.
    Relational(rtx_relational::RelationalError),
    /// An error bubbled up from the durable store (I/O, corruption, an
    /// unknown table or a wrong arity).
    Store(rtx_store::StoreError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidSchema { detail } => write!(f, "invalid transducer schema: {detail}"),
            CoreError::NotSpocus { detail } => write!(f, "not a Spocus transducer: {detail}"),
            CoreError::SchemaMismatch { detail } => write!(f, "schema mismatch: {detail}"),
            CoreError::Parse { detail } => write!(f, "transducer parse error: {detail}"),
            CoreError::Runtime { detail } => write!(f, "runtime error: {detail}"),
            CoreError::ShardOutOfRange { shard, shards } => {
                write!(f, "shard {shard} out of range: this runtime has {shards} shards")
            }
            CoreError::StepRejected {
                step,
                constraint,
                detail,
            } => write!(
                f,
                "step {step} rejected by input control: constraint `{constraint}` violated ({detail})"
            ),
            CoreError::SessionQuarantined { session, detail } => {
                write!(f, "session `{session}` is quarantined: {detail}")
            }
            CoreError::Datalog(e) => write!(f, "datalog error: {e}"),
            CoreError::Relational(e) => write!(f, "relational error: {e}"),
            CoreError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<rtx_datalog::DatalogError> for CoreError {
    fn from(e: rtx_datalog::DatalogError) -> Self {
        CoreError::Datalog(e)
    }
}

impl From<rtx_relational::RelationalError> for CoreError {
    fn from(e: rtx_relational::RelationalError) -> Self {
        CoreError::Relational(e)
    }
}

impl From<rtx_store::StoreError> for CoreError {
    fn from(e: rtx_store::StoreError) -> Self {
        CoreError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e = CoreError::NotSpocus {
            detail: "projection in state rule".into(),
        };
        assert!(e.to_string().contains("Spocus"));
        let e: CoreError =
            rtx_relational::RelationalError::UnknownRelation { name: "r".into() }.into();
        assert!(matches!(e, CoreError::Relational(_)));
        let e: CoreError = rtx_datalog::DatalogError::Parse {
            message: "x".into(),
            fragment: "y".into(),
        }
        .into();
        assert!(matches!(e, CoreError::Datalog(_)));
        assert!(CoreError::Parse {
            detail: "bad".into()
        }
        .to_string()
        .contains("bad"));
        assert!(CoreError::InvalidSchema { detail: "d".into() }
            .to_string()
            .contains("schema"));
        assert!(CoreError::SchemaMismatch { detail: "m".into() }
            .to_string()
            .contains("mismatch"));
    }
}
