//! # rtx — Relational Transducers for Electronic Commerce
//!
//! A from-scratch Rust implementation of the model, the worked business
//! models and the decision procedures of *Relational Transducers for
//! Electronic Commerce* (Abiteboul, Vianu, Fordham, Yesha; PODS 1998 / JCSS
//! 2000).  This facade crate re-exports the whole workspace:
//!
//! * [`relational`] — the relational model substrate;
//! * [`logic`] — first-order logic and ∃\*∀\* (Bernays–Schönfinkel)
//!   satisfiability;
//! * [`sat`] — the SAT solver backing the decision procedures;
//! * [`datalog`] — the semipositive non-recursive datalog¬≠ engine;
//! * [`automata`] — finite automata for the `Gen(T)` characterisation;
//! * [`store`] — the durable catalog behind the `db` relations: a resident
//!   database with a write-ahead log, snapshots and crash recovery;
//! * [`core`] — relational transducers, Spocus transducers, the DSL, and the
//!   paper's worked models (`short`, `friendly`, `a b* c`);
//! * [`verify`] — log validation, goal reachability, temporal properties,
//!   customization containment, `T_sdi` enforcement, error-free-run
//!   verification, and the online session monitor behind the runtime
//!   guardrails;
//! * [`workloads`] — synthetic catalogs, customer sessions and scalable model
//!   families for the benchmarks.
//!
//! ## Quickstart
//!
//! ```
//! use rtx::prelude::*;
//!
//! // The paper's `short` business model, catalog and Figure 1 inputs.
//! let transducer = rtx::core::models::short();
//! let db = rtx::core::models::figure1_database();
//! let inputs = rtx::core::models::figure1_inputs();
//!
//! // Run it and audit its own log (Theorem 3.1).
//! let run = transducer.run(&db, &inputs).unwrap();
//! let verdict = validate_log(&transducer, &db, run.log()).unwrap();
//! assert!(verdict.is_valid());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rtx_automata as automata;
pub use rtx_core as core;
pub use rtx_datalog as datalog;
pub use rtx_logic as logic;
pub use rtx_relational as relational;
pub use rtx_sat as sat;
pub use rtx_store as store;
pub use rtx_verify as verify;
pub use rtx_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use rtx_core::{
        models, parse_transducer, ControlDiscipline, MonitorPolicy, PropositionalTransducer,
        RelationalTransducer, Run, Runtime, RuntimeHealth, Session, SessionObserver,
        ShardedRuntime, ShardedSession, SpocusBuilder, SpocusTransducer, TransducerSchema,
        Violation, ViolationKind,
    };
    pub use rtx_datalog::{parse_program, parse_rule, Program, Rule};
    pub use rtx_logic::{Formula, Term};
    pub use rtx_relational::{
        Instance, InstanceSequence, Relation, RelationName, Schema, Tuple, Value,
    };
    pub use rtx_verify::{
        customization_preserves_logs, error_free_containment, error_free_runs_satisfy,
        holds_in_all_runs, is_goal_reachable, validate_log, Goal, GoalLiteral, LogAuditCursor,
        LogValidity, SdiConstraint, SessionMonitor,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_re_exports_are_wired() {
        let t = crate::core::models::short();
        assert_eq!(t.name(), "short");
        let _schema: &crate::core::TransducerSchema = t.schema();
    }
}
