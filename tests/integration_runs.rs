//! Integration tests spanning the whole stack: the paper's worked runs
//! (Figures 1 and 2), the DSL, the store substrate, and the log machinery.

use rtx::core::models;
use rtx::prelude::*;
use rtx::store::{DurableStore, FsyncPolicy, MemVfs};
use std::sync::Arc;

#[test]
fn figure1_exchange_end_to_end() {
    let short = models::short();
    let db = models::figure1_database();
    let run = short.run(&db, &models::figure1_inputs()).unwrap();

    // The shape of Figure 1: bills at step 1, delivery of Time at step 2,
    // a bill for Le Monde at step 3, delivery of Newsweek at step 4.
    assert_eq!(run.len(), 4);
    assert_eq!(
        run.outputs()
            .get(0)
            .unwrap()
            .relation("sendbill")
            .unwrap()
            .len(),
        2
    );
    assert!(run
        .outputs()
        .get(1)
        .unwrap()
        .holds("deliver", &Tuple::from_iter(["time"])));
    assert!(run.outputs().get(2).unwrap().holds(
        "sendbill",
        &Tuple::new(vec![Value::str("lemonde"), Value::int(8350)])
    ));
    assert!(run
        .outputs()
        .get(3)
        .unwrap()
        .holds("deliver", &Tuple::from_iter(["newsweek"])));

    // The log only contains the three designated relations.
    assert_eq!(run.log().schema().len(), 3);
    for step in run.log().iter() {
        assert!(step.relation("order").is_none());
    }
}

#[test]
fn figure2_warnings_end_to_end() {
    let friendly = models::friendly();
    let db = models::figure1_database();
    let run = friendly.run(&db, &models::figure2_inputs()).unwrap();
    let all_outputs: Vec<String> = run
        .outputs()
        .iter()
        .flat_map(|o| {
            o.iter()
                .filter(|(_, rel)| !rel.is_empty())
                .map(|(name, _)| name.as_str().to_string())
                .collect::<Vec<_>>()
        })
        .collect();
    for expected in [
        "sendbill",
        "deliver",
        "unavailable",
        "rejectpay",
        "alreadypaid",
        "rebill",
    ] {
        assert!(
            all_outputs.iter().any(|o| o == expected),
            "{expected} never produced in the Figure 2 run"
        );
    }
}

#[test]
fn dsl_and_builder_agree_on_short() {
    let parsed = rtx::core::parse_transducer(models::SHORT_PROGRAM).unwrap();
    let db = models::figure1_database();
    let inputs = models::figure1_inputs();
    let a = parsed.run(&db, &inputs).unwrap();
    let b = models::short().run(&db, &inputs).unwrap();
    assert_eq!(a.outputs(), b.outputs());
    assert_eq!(a.log(), b.log());
}

#[test]
fn catalog_can_live_in_the_store_substrate() {
    // Load the Figure 1 catalog into the durable store, recover it from the
    // write-ahead log, and run the transducer against the recovered catalog.
    let db = models::figure1_database();
    let vfs = MemVfs::new();
    let (mut store, _) = DurableStore::open(Arc::new(vfs.clone()), FsyncPolicy::Never).unwrap();
    for (name, relation) in db.iter() {
        store
            .create_table(name.as_str(), relation.arity(), None)
            .unwrap();
        for tuple in relation.iter() {
            store.insert(name.as_str(), tuple.clone()).unwrap();
        }
    }
    drop(store);
    let (recovered, _) = DurableStore::open(Arc::new(vfs), FsyncPolicy::Never).unwrap();
    let replayed = recovered.database().snapshot();
    assert_eq!(replayed, db);

    let run = models::short()
        .run(&replayed, &models::figure1_inputs())
        .unwrap();
    assert!(run.ever_outputs("deliver", &Tuple::from_iter(["time"])));
}

#[test]
fn propositional_example_generates_prefixes_of_abstar_c() {
    let t = models::abstar_c();
    let words = t.generate_words(3).unwrap();
    assert!(words.contains(&vec!["a".to_string(), "b".to_string(), "c".to_string()]));
    assert!(!words.contains(&vec!["b".to_string()]));
    // prefix closed
    for w in &words {
        for cut in 0..w.len() {
            assert!(words.contains(&w[..cut]));
        }
    }
}

#[test]
fn control_disciplines_on_friendly() {
    // friendly never outputs error/ok/accept, so: error-free always, ok never
    // (on non-empty runs), accepted never.
    let friendly = models::friendly();
    let db = models::figure1_database();
    let run = friendly.run(&db, &models::figure2_inputs()).unwrap();
    assert!(ControlDiscipline::ErrorFree.accepts(&run));
    assert!(!ControlDiscipline::OkAtEveryStep.accepts(&run));
    assert!(!ControlDiscipline::AcceptAtEnd.accepts(&run));
}
