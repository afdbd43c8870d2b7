//! Durability: a crash-safe backing for the one [`Runtime`].
//!
//! [`Runtime`] alone serves sessions against an in-memory
//! [`ResidentDb`](rtx_datalog::ResidentDb); a process restart loses the
//! catalog.  [`DurableRuntime`] closes that gap by serving the database an
//! [`rtx_store::DurableStore`] owns: every catalog mutation is write-ahead
//! logged through the store's [`Vfs`] *before* it reaches the resident
//! database, and [`Runtime::open_durable`] recovers the exact committed
//! catalog after a crash — snapshot, WAL tail replay, torn-tail handling and
//! all (see the `rtx-store` crate docs for the lifecycle).  The runtime it
//! serves ([`DurableRuntime::runtime`]) is an ordinary [`Runtime`] of any
//! shard count ([`ShardedRuntime::open_durable`]); recovery does not depend
//! on the shard count.
//!
//! Ordering per mutation: WAL append (+ fsync per [`FsyncPolicy`]) →
//! resident apply, which bumps exactly the touched relation's version stamp
//! so open sessions reseed only what changed.
//! [`DurableRuntime::checkpoint`] snapshots the resident database and leaves
//! it, and the sessions reading it, untouched.

use crate::shard::ShardedRuntime;
use crate::{CoreError, Runtime};
use rtx_datalog::Parallelism;
use rtx_relational::Tuple;
use rtx_store::{DurableStore, FsyncPolicy, RecoveryReport, Vfs};
use std::sync::{Arc, Mutex, MutexGuard};

/// A [`Runtime`] whose catalog survives process crashes: mutations go
/// through a write-ahead log and recovery rebuilds the resident database
/// bit-identically.  See the [module docs](self).
#[derive(Debug)]
pub struct DurableRuntime {
    runtime: Runtime,
    store: Mutex<DurableStore>,
}

fn lock(store: &Mutex<DurableStore>) -> MutexGuard<'_, DurableStore> {
    store.lock().expect("durable store poisoned")
}

impl Runtime {
    /// Opens (or recovers) a durable runtime on `vfs`: persisted state is
    /// recovered by the [`DurableStore`] and its resident database served to
    /// sessions exactly like an in-memory [`Runtime`].
    ///
    /// The fsync `policy` may be overridden by the `RTX_FSYNC` environment
    /// variable (see [`FsyncPolicy::from_env`]).
    pub fn open_durable(
        vfs: Arc<dyn Vfs>,
        policy: FsyncPolicy,
    ) -> Result<(DurableRuntime, RecoveryReport), CoreError> {
        ShardedRuntime::open_durable(vfs, policy, 1)
    }
}

impl ShardedRuntime {
    /// [`Runtime::open_durable`] serving the recovered catalog on a runtime
    /// with `shards` shard labels ([`Runtime::with_shards`]).
    pub fn open_durable(
        vfs: Arc<dyn Vfs>,
        policy: FsyncPolicy,
        shards: usize,
    ) -> Result<(DurableRuntime, RecoveryReport), CoreError> {
        let (store, report) = DurableStore::open(vfs, policy)?;
        let db = Arc::clone(store.database());
        Ok((
            DurableRuntime {
                runtime: Runtime::with_shards(db, shards, Parallelism::default()),
                store: Mutex::new(store),
            },
            report,
        ))
    }
}

impl DurableRuntime {
    /// The session runtime serving the recovered catalog.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Creates a catalog table durably, then makes it resident.
    pub fn create_table(
        &self,
        name: impl Into<String>,
        arity: usize,
        attributes: Option<Vec<String>>,
    ) -> Result<(), CoreError> {
        Ok(lock(&self.store).create_table(name, arity, attributes)?)
    }

    /// Inserts a catalog row durably, then makes it resident.  Open
    /// sessions observe the change at their next step.  Returns `true` if
    /// the row was new.
    pub fn insert(&self, table: &str, row: Tuple) -> Result<bool, CoreError> {
        Ok(lock(&self.store).insert(table, row)?)
    }

    /// Retracts a catalog row durably, then removes it from the resident
    /// database.  Returns `true` if the row was present.
    pub fn retract(&self, table: &str, row: &Tuple) -> Result<bool, CoreError> {
        Ok(lock(&self.store).retract(table, row)?)
    }

    /// Forces every acknowledged write to stable storage, regardless of the
    /// fsync policy.
    pub fn sync(&self) -> Result<(), CoreError> {
        Ok(lock(&self.store).sync()?)
    }

    /// Checkpoints the backing store: snapshots the catalog and truncates
    /// the WAL (see [`DurableStore::checkpoint`]).  The resident database
    /// and open sessions are unaffected.
    pub fn checkpoint(&self) -> Result<(), CoreError> {
        Ok(lock(&self.store).checkpoint()?)
    }

    /// The backing store's snapshot/WAL epoch (bumped per checkpoint).
    pub fn epoch(&self) -> u64 {
        lock(&self.store).epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use rtx_relational::Value;
    use rtx_store::MemVfs;

    fn open(vfs: &MemVfs) -> (DurableRuntime, RecoveryReport) {
        Runtime::open_durable(Arc::new(vfs.clone()), FsyncPolicy::Always).unwrap()
    }

    /// Loads the Figure 1 catalog into a durable runtime.
    fn seed_figure1(rt: &DurableRuntime) {
        let db = models::figure1_database();
        for (name, relation) in db.iter() {
            rt.create_table(name.as_str(), relation.arity(), None)
                .unwrap();
            for tuple in relation.iter() {
                rt.insert(name.as_str(), tuple.clone()).unwrap();
            }
        }
    }

    #[test]
    fn durable_runtime_reopens_bit_identical() {
        let vfs = MemVfs::new();
        let (rt, report) = open(&vfs);
        assert_eq!(report, RecoveryReport::default());
        seed_figure1(&rt);
        rt.checkpoint().unwrap();
        // Post-checkpoint churn lands in the WAL tail.
        rt.insert(
            "price",
            Tuple::new(vec![Value::str("herald"), Value::int(500)]),
        )
        .unwrap();
        rt.retract(
            "price",
            &Tuple::new(vec![Value::str("newsweek"), Value::int(845)]),
        )
        .unwrap();
        let expect = rt.runtime().database().snapshot();
        drop(rt); // crash

        let (recovered, report) = open(&vfs);
        assert_eq!(report.replayed, 2);
        assert!(report.snapshot_ops > 0);
        assert_eq!(recovered.runtime().database().snapshot(), expect);
    }

    #[test]
    fn sessions_replay_figure1_after_recovery() {
        // End-to-end: seed the catalog durably, crash, recover, and run the
        // paper's Figure 1 interaction against the recovered catalog — the
        // delivery must fire exactly as it does in-memory.
        let vfs = MemVfs::new();
        let (rt, _) = open(&vfs);
        seed_figure1(&rt);
        drop(rt); // crash before any checkpoint: recovery is WAL-only

        let (recovered, report) = open(&vfs);
        assert!(report.replayed > 0);
        let session = recovered
            .runtime()
            .open_session("customer", models::short())
            .unwrap();
        let mut session = session;
        for input in models::figure1_inputs().iter() {
            session.step(input).unwrap();
        }
        let run = session.run().unwrap();
        assert!(run
            .outputs()
            .get(1)
            .unwrap()
            .holds("deliver", &Tuple::from_iter([Value::str("time")])));
    }

    #[test]
    fn mutations_reach_open_sessions_and_survive_checkpoint() {
        let vfs = MemVfs::new();
        let (rt, _) = open(&vfs);
        seed_figure1(&rt);
        let v0 = rt.runtime().database().version();
        // A checkpoint truncates the WAL mid-stream; the next mutation must
        // still reach the resident database.
        rt.checkpoint().unwrap();
        rt.insert(
            "price",
            Tuple::new(vec![Value::str("herald"), Value::int(500)]),
        )
        .unwrap();
        assert!(rt.runtime().database().version() > v0);
        assert_eq!(
            rt.runtime()
                .database()
                .snapshot()
                .relation("price")
                .unwrap()
                .len(),
            4
        );
        assert_eq!(rt.epoch(), 1);
    }

    #[test]
    fn one_durable_store_feeds_every_shard() {
        let vfs = MemVfs::new();
        let (rt, report) =
            ShardedRuntime::open_durable(Arc::new(vfs.clone()), FsyncPolicy::Always, 3).unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(rt.runtime().shard_count(), 3);
        let db = models::figure1_database();
        for (name, relation) in db.iter() {
            rt.create_table(name.as_str(), relation.arity(), None)
                .unwrap();
            for tuple in relation.clone().iter() {
                rt.insert(name.as_str(), tuple.clone()).unwrap();
            }
        }

        // Sessions pinned to different shards all see one durable mutation
        // at their next step: the store feeds a single shared ResidentDb.
        let transducer = Arc::new(models::short());
        let mut sessions: Vec<_> = (0..3)
            .map(|i| {
                rt.runtime()
                    .open_session_on(i, format!("s{i}"), Arc::clone(&transducer))
                    .unwrap()
            })
            .collect();
        let schema = models::short_input_schema();
        let order_economist = {
            let mut inst = rtx_relational::Instance::empty(&schema);
            inst.insert("order", Tuple::from_iter(["economist"]))
                .unwrap();
            inst
        };
        for session in &mut sessions {
            let out = session.step(&order_economist).unwrap();
            assert!(out.relation("sendbill").unwrap().is_empty());
        }
        rt.insert(
            "price",
            Tuple::new(vec![Value::str("economist"), Value::int(700)]),
        )
        .unwrap();
        for session in &mut sessions {
            let out = session.step(&order_economist).unwrap();
            assert!(out.holds(
                "sendbill",
                &Tuple::new(vec![Value::str("economist"), Value::int(700)])
            ));
        }
        let expect = rt.runtime().database().snapshot();
        drop(sessions);
        drop(rt); // crash

        // Recovery is shard-count independent: reopening with a different
        // fleet size rebuilds the identical catalog.
        let (recovered, report) =
            ShardedRuntime::open_durable(Arc::new(vfs), FsyncPolicy::Always, 2).unwrap();
        assert!(report.replayed > 0);
        assert_eq!(recovered.runtime().database().snapshot(), expect);
    }

    #[test]
    fn store_errors_surface_as_core_errors() {
        let vfs = MemVfs::new();
        let (rt, _) = open(&vfs);
        rt.create_table("t", 1, None).unwrap();
        let err = rt.create_table("t", 1, None).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Store(rtx_store::StoreError::DuplicateTable(_))
        ));
        assert!(err.to_string().contains("already exists"));
    }
}
