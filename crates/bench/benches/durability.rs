//! Durability costs: WAL append throughput per fsync policy, snapshot
//! (checkpoint) writes, and cold recovery vs. WAL length.
//!
//! The WAL-append benches run against real files ([`StdVfs`] rooted under
//! `CARGO_TARGET_TMPDIR`), because the number being measured *is* the
//! filesystem round-trip — `always` pays an fsync per operation, `every:64`
//! amortizes it 64×, `never` leaves flushing to the OS.  Recovery benches
//! use the in-memory backend so they measure decode + replay, not page-cache
//! luck.

use criterion::{black_box, Criterion};
use rtx::store::{DurableStore, FsyncPolicy, MemVfs, StdVfs, Vfs};
use rtx::workloads::{crash_churn, ChurnOp};
use std::sync::Arc;

/// Applies one churn op (checkpoints included) to a durable store.
fn apply(store: &mut DurableStore, op: &ChurnOp) {
    match op {
        ChurnOp::Create { table, arity } => {
            store.create_table(table.clone(), *arity, None).unwrap();
        }
        ChurnOp::Insert { table, row } => {
            store.insert(table, row.clone()).unwrap();
        }
        ChurnOp::Retract { table, row } => {
            store.retract(table, row).unwrap();
        }
        ChurnOp::Checkpoint => store.checkpoint().unwrap(),
    }
}

/// A fresh [`StdVfs`] rooted in a per-bench scratch directory under the
/// cargo-managed target tmpdir (kept inside the workspace).
fn scratch(name: &str) -> StdVfs {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    StdVfs::new(dir).unwrap()
}

/// A [`MemVfs`] holding `n_ops` of committed churn (no checkpoints, so the
/// whole history sits in the WAL tail) — the cold-recovery input.
fn wal_image(n_ops: usize) -> MemVfs {
    let vfs = MemVfs::new();
    let (mut store, _) = DurableStore::open(Arc::new(vfs.clone()), FsyncPolicy::Never).unwrap();
    for op in crash_churn(n_ops, 7).iter() {
        if !matches!(op, ChurnOp::Checkpoint) {
            apply(&mut store, op);
        }
    }
    store.sync().unwrap();
    vfs
}

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("durability");

    // WAL append throughput per fsync policy: 64 inserts per iteration
    // against a real file, so the policy's fsync schedule is the variable.
    for (label, policy) in [
        ("always", FsyncPolicy::Always),
        ("every64", FsyncPolicy::EveryN(64)),
        ("never", FsyncPolicy::Never),
    ] {
        let vfs = scratch(&format!("durability-wal-{label}"));
        let (mut store, _) = DurableStore::open(Arc::new(vfs), policy).unwrap();
        store.create_table("t", 2, None).unwrap();
        let mut next = 0i64;
        group.bench_function(format!("wal-append/policy={label}/batch=64"), |b| {
            b.iter(|| {
                for _ in 0..64 {
                    store
                        .insert(
                            "t",
                            rtx::relational::Tuple::new(vec![
                                rtx::relational::Value::str("row"),
                                rtx::relational::Value::int(next),
                            ]),
                        )
                        .unwrap();
                    next += 1;
                }
            });
        });
    }

    // Snapshot write: one checkpoint of an n-row catalog (the WAL reset
    // rides along, as it does in production).
    for rows in [1_000usize, 10_000] {
        let vfs = scratch(&format!("durability-snap-{rows}"));
        let (mut store, _) = DurableStore::open(Arc::new(vfs), FsyncPolicy::Never).unwrap();
        store.create_table("t", 2, None).unwrap();
        for i in 0..rows {
            store
                .insert(
                    "t",
                    rtx::relational::Tuple::new(vec![
                        rtx::relational::Value::str(format!("p{i}")),
                        rtx::relational::Value::int(i as i64),
                    ]),
                )
                .unwrap();
        }
        group.bench_function(format!("snapshot-write/rows={rows}"), |b| {
            b.iter(|| store.checkpoint().unwrap());
        });
    }

    // Cold recovery vs. WAL length: decode + checksum + replay of the whole
    // tail into a fresh store.
    for n_ops in [1_000usize, 5_000] {
        let image = wal_image(n_ops);
        group.bench_function(format!("cold-recovery/wal-ops={n_ops}"), |b| {
            b.iter(|| {
                let vfs: Arc<dyn Vfs> = Arc::new(image.clone());
                let (store, report) = DurableStore::open(vfs, FsyncPolicy::Never).unwrap();
                assert!(report.torn_tail.is_none());
                black_box(store.op_count());
            });
        });
    }

    group.finish();
}

fn main() {
    let mut c = rtx_bench::criterion_config();
    benches(&mut c);
    c.final_summary();
}
