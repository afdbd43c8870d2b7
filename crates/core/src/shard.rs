//! Shards: routing labels on the one [`Runtime`].
//!
//! Sharding changes no semantics.  Every session of a [`Runtime`] carries a
//! shard label, fixed at open: [`Runtime::open_session`] takes the name's
//! home shard ([`Runtime::shard_of`], deterministic FNV-1a), and
//! [`Runtime::open_session_on`] places explicitly.  All sessions share the
//! runtime's one name registry, one configuration, one health record and
//! one `Arc<ResidentDb>`, so a catalog mutation reaches every shard at the
//! next step and a dropped or quarantined session's name is reusable on any
//! shard.
//!
//! What the label is for: the `rtx-front` server runs one worker thread per
//! shard, and each worker owns and steps exactly the sessions labelled with
//! its shard, so no session is ever shared between threads.  The runtime
//! divides its worker budget among the shards
//! ([`Parallelism::divided_among`](rtx_datalog::Parallelism::divided_among))
//! so that one stepping thread per shard does not oversubscribe it.
//!
//! [`ShardedRuntime`] and [`ShardedSession`] are the older names of the same
//! types, kept for callers that still use them.

use crate::{Runtime, Session};
use rtx_datalog::{Parallelism, ResidentDb};
use std::ops::Deref;
use std::sync::Arc;

/// A session of a sharded runtime — the same [`Session`] type.
pub type ShardedSession = Session;

/// A [`Runtime`] built with a shard count.  It dereferences to the runtime
/// and adds nothing but the constructors that take the count (and
/// [`ShardedRuntime::open_durable`]).
#[derive(Debug, Clone)]
pub struct ShardedRuntime(Runtime);

impl ShardedRuntime {
    /// Creates a sharded runtime owning a resident database.
    pub fn new(db: ResidentDb, shards: usize) -> Self {
        ShardedRuntime::shared(Arc::new(db), shards)
    }

    /// Creates a sharded runtime over an already-shared resident database
    /// with the default [`Parallelism`] budget.
    pub fn shared(db: Arc<ResidentDb>, shards: usize) -> Self {
        ShardedRuntime::shared_with(db, shards, Parallelism::default())
    }

    /// [`Runtime::with_shards`]: `shards` labels (at least one) over one
    /// shared database, with `parallelism` as the total worker budget.
    pub fn shared_with(db: Arc<ResidentDb>, shards: usize, parallelism: Parallelism) -> Self {
        ShardedRuntime(Runtime::with_shards(db, shards, parallelism))
    }
}

impl Deref for ShardedRuntime {
    type Target = Runtime;

    fn deref(&self) -> &Runtime {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::{MonitorPolicy, SessionObserver, Violation};
    use crate::{models, CoreError, SessionDemand, SessionGoal};
    use rtx_datalog::{DemandPolicy, EvalBudget};
    use rtx_relational::{Instance, Tuple, Value};
    use std::collections::BTreeSet;

    fn input_step(orders: &[&str], pays: &[(&str, i64)]) -> Instance {
        let schema = models::short_input_schema();
        let mut inst = Instance::empty(&schema);
        for o in orders {
            inst.insert("order", Tuple::from_iter([*o])).unwrap();
        }
        for (p, amt) in pays {
            inst.insert("pay", Tuple::new(vec![Value::str(*p), Value::int(*amt)]))
                .unwrap();
        }
        inst
    }

    fn sharded(shards: usize) -> ShardedRuntime {
        ShardedRuntime::new(ResidentDb::new(models::figure1_database()), shards)
    }

    #[test]
    fn routing_is_deterministic_and_covers_every_shard() {
        let fleet = sharded(4);
        assert_eq!(fleet.shard_count(), 4);
        let mut seen = BTreeSet::new();
        for i in 0..64 {
            let name = format!("customer-{i}");
            let shard = fleet.shard_of(&name);
            assert!(shard < 4);
            assert_eq!(shard, fleet.shard_of(&name), "routing must be stable");
            seen.insert(shard);
        }
        assert_eq!(seen.len(), 4, "64 names must hit all 4 shards");
        // The hash is platform-independent: pin one value so a silent change
        // of the routing function (which would strand remote routing tables)
        // shows up here.
        assert_eq!(sharded(1).shard_of("anything"), 0);
    }

    #[test]
    fn sharded_sessions_reproduce_the_unsharded_run() {
        let transducer = Arc::new(models::short());
        let db = models::figure1_database();
        let inputs = models::figure1_inputs();

        let unsharded = Runtime::new(ResidentDb::new(db.clone()));
        let mut reference = unsharded
            .open_session("customer", Arc::clone(&transducer))
            .unwrap();

        let fleet = sharded(3);
        let mut session = fleet.open_session("customer", transducer).unwrap();
        for input in inputs.iter() {
            assert_eq!(session.step(input).unwrap(), reference.step(input).unwrap());
        }
        assert_eq!(session.run().unwrap(), reference.run().unwrap());
    }

    #[test]
    fn names_are_unique_fleet_wide_and_released_across_shards() {
        let fleet = sharded(4);
        let transducer = Arc::new(models::short());

        // Open on an explicit shard that is NOT the name's home shard, then
        // try the routed open: the global registry must still refuse.
        let home = fleet.shard_of("alice");
        let elsewhere = (home + 1) % 4;
        let held = fleet
            .open_session_on(elsewhere, "alice", Arc::clone(&transducer))
            .unwrap();
        assert_eq!(held.shard(), elsewhere);
        let err = fleet
            .open_session("alice", Arc::clone(&transducer))
            .unwrap_err();
        assert!(
            err.to_string().contains("already open"),
            "cross-shard duplicate must be refused: {err}"
        );
        assert_eq!(fleet.session_count(), 1);

        // The bug this pins: dropping the session on shard A must make the
        // name reusable on shard B (and anywhere else), not just on A.
        drop(held);
        assert_eq!(fleet.session_count(), 0);
        let reopened = fleet
            .open_session_on(home, "alice", Arc::clone(&transducer))
            .unwrap();
        assert_eq!(reopened.shard(), home);

        // Out-of-range explicit placement is a typed refusal, not a panic,
        // and leaks no registry entry.
        let err = fleet.open_session_on(9, "bob", transducer).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        assert_eq!(fleet.session_names(), vec!["alice".to_string()]);
    }

    /// An observer that panics on `admit` from step `fuse` onwards.
    #[derive(Debug)]
    struct Bomb {
        fuse: usize,
    }

    impl SessionObserver for Bomb {
        fn admit(&mut self, step: usize, _input: &Instance) -> Result<Vec<Violation>, CoreError> {
            assert!(step < self.fuse, "the bomb went off");
            Ok(Vec::new())
        }

        fn observe(
            &mut self,
            _step: usize,
            _input: &Instance,
            _output: &Instance,
        ) -> Result<Vec<Violation>, CoreError> {
            Ok(Vec::new())
        }
    }

    #[test]
    fn quarantine_releases_the_global_name_for_reuse_on_another_shard() {
        let fleet = sharded(3);
        let transducer = Arc::new(models::short());
        let mut bad = fleet
            .open_session_on(0, "customer", Arc::clone(&transducer))
            .unwrap();
        bad.set_monitor_policy(MonitorPolicy::Observe);
        bad.attach_observer(Box::new(Bomb { fuse: 1 }));

        let step = input_step(&["time"], &[]);
        bad.step(&step).unwrap();
        let err = bad.step(&step).unwrap_err();
        assert!(matches!(err, CoreError::SessionQuarantined { .. }));
        assert!(bad.is_quarantined());

        // The quarantined session released its global name immediately — a
        // replacement can open on a *different* shard while the quarantined
        // wrapper is still alive for inspection.
        assert_eq!(fleet.session_count(), 0);
        let mut replacement = fleet
            .open_session_on(2, "customer", Arc::clone(&transducer))
            .unwrap();
        assert_eq!(bad.len(), 1, "the completed step survives quarantine");
        assert_eq!(
            fleet.health().quarantined_sessions,
            vec!["customer".to_string()]
        );

        // Dropping the quarantined wrapper must NOT evict the replacement.
        drop(bad);
        assert_eq!(fleet.session_count(), 1);
        replacement.step(&step).unwrap();
    }

    #[test]
    fn per_shard_worker_budgets_divide_the_total() {
        // The oversubscription bug this pins: N shards each resolving the
        // full process-wide worker count would oversubscribe the machine
        // N-fold.  Each shard must get its share of the *total* budget.
        let db = Arc::new(ResidentDb::new(models::figure1_database()));
        let fleet = Runtime::with_shards(Arc::clone(&db), 4, Parallelism::threads(8));
        assert_eq!(fleet.parallelism().worker_count(), 2);
        assert_eq!(fleet.parallelism().worker_count() * fleet.shard_count(), 8);

        // More shards than workers: every shard keeps at least one worker.
        let fleet = Runtime::with_shards(Arc::clone(&db), 8, Parallelism::threads(3));
        assert_eq!(fleet.parallelism().worker_count(), 1);

        // A zero shard count clamps to one unsharded runtime.
        let fleet = ShardedRuntime::shared_with(db, 0, Parallelism::threads(3));
        assert_eq!(fleet.shard_count(), 1);
        assert_eq!(fleet.parallelism().worker_count(), 3);
    }

    #[test]
    fn a_plain_runtime_has_one_shard() {
        let db = Arc::new(ResidentDb::new(models::figure1_database()));
        let runtime = Runtime::shared_with(db, Parallelism::threads(3));
        assert_eq!(runtime.shard_count(), 1);
        assert_eq!(runtime.parallelism().worker_count(), 3);
        let transducer = Arc::new(models::short());
        let session = runtime
            .open_session_on(0, "a", Arc::clone(&transducer))
            .unwrap();
        assert_eq!(session.shard(), 0);
        let err = runtime.open_session_on(1, "b", transducer).unwrap_err();
        assert_eq!(
            err,
            CoreError::ShardOutOfRange {
                shard: 1,
                shards: 1
            }
        );
        assert_eq!(runtime.session_names(), vec!["a".to_string()]);
    }

    #[test]
    fn catalog_mutations_reach_sessions_on_every_shard() {
        let transducer = Arc::new(models::short());
        let fleet = sharded(3);
        let mut sessions: Vec<ShardedSession> = (0..3)
            .map(|i| {
                fleet
                    .open_session_on(i, format!("s{i}"), Arc::clone(&transducer))
                    .unwrap()
            })
            .collect();

        // `economist` is unpriced: no shard bills for it.
        for session in &mut sessions {
            let out = session.step(&input_step(&["economist"], &[])).unwrap();
            assert!(out.relation("sendbill").unwrap().is_empty());
        }
        // One write to the shared catalog is visible to every shard at the
        // very next step.
        fleet
            .database()
            .insert(
                "price",
                Tuple::new(vec![Value::str("economist"), Value::int(700)]),
            )
            .unwrap();
        for session in &mut sessions {
            let out = session.step(&input_step(&["economist"], &[])).unwrap();
            assert!(out.holds(
                "sendbill",
                &Tuple::new(vec![Value::str("economist"), Value::int(700)])
            ));
        }
        assert_eq!(fleet.health().active_sessions, 3);
    }

    #[test]
    fn fan_out_setters_configure_every_shard() {
        let fleet = sharded(2);
        fleet.set_monitor_policy(MonitorPolicy::Enforce);
        fleet.set_demand_policy(DemandPolicy::Full);
        fleet.set_step_budget(EvalBudget::max_derivations(7));
        let demand = SessionDemand::new().goal(
            SessionGoal::new("sendbill", "bf")
                .unwrap()
                .from_input("order", [0]),
        );
        for shard in 0..fleet.shard_count() {
            let session = fleet
                .open_session_with_demand_on(
                    shard,
                    format!("s{shard}"),
                    models::short(),
                    demand.clone(),
                )
                .unwrap();
            assert_eq!(session.shard(), shard);
            assert_eq!(session.monitor_policy(), MonitorPolicy::Enforce);
            assert_eq!(session.demand_policy(), Some(DemandPolicy::Full));
            assert_eq!(session.step_budget(), EvalBudget::max_derivations(7));
        }
    }
}
