//! The adapter: every call the benchmark makes into the system under test.
//!
//! Workload files drive the service only through the items here, so an
//! API-only change to the service (one runtime type, one evaluation entry
//! point) touches this file alone.  Calls that a layer metric times are
//! wrapped in [`trace`] spans named after that layer.

use crate::trace;
use rtx_core::{
    models, MonitorPolicy, RelationalTransducer, Runtime, Session, SessionDemand, SessionObserver,
    ShardedRuntime, ShardedSession, SpocusTransducer, Violation,
};
use rtx_datalog::{Parallelism, ResidentDb};
use rtx_front::{FrontClient, FrontConfig, FrontServer};
use rtx_relational::{InstanceSequence, RelationName, Tuple, Value};
use rtx_store::{FsyncPolicy, StdVfs};
use rtx_workloads::scenarios::Scenario;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub use rtx_relational::Instance;

/// Every evaluation runs sequentially inside the thread that calls it, so
/// the benchmark's load never uses more threads than it drives.
fn sequential() -> Parallelism {
    Parallelism::sequential()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// Catalogs, models and inputs
// ---------------------------------------------------------------------------

/// The catalog covering every servable model (the one the wire server
/// serves).
pub fn combined_catalog() -> Instance {
    rtx_front::combined_catalog()
}

/// A `price`/`available` catalog of `products` products.
pub fn product_catalog(products: usize, seed: u64) -> Instance {
    rtx_workloads::catalog(products, seed)
}

/// A product catalog with a `category` relation.
pub fn category_catalog(products: usize, seed: u64) -> Instance {
    rtx_workloads::category_catalog(products, 8, seed)
}

/// Total tuples of an instance.
pub fn tuples(instance: &Instance) -> usize {
    instance.total_tuples()
}

/// The kinds of session the workloads open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's `short` model.
    Short,
    /// `short` plus category promotions.
    Category,
    /// The storefront model opened with its per-session demand.
    Storefront,
    /// One of the four guardrail scenarios, monitored under `Observe`.
    Scenario(usize),
}

/// How a session is opened: the three `runtime.open_*` / `runtime.step_*`
/// classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Plain,
    Demand,
    Monitored,
}

impl Kind {
    /// The seven-model mix of the load generator, in its order.
    pub const FLEET: [Kind; 7] = [
        Kind::Short,
        Kind::Category,
        Kind::Storefront,
        Kind::Scenario(0),
        Kind::Scenario(1),
        Kind::Scenario(2),
        Kind::Scenario(3),
    ];

    pub fn model(self) -> &'static str {
        match self {
            Kind::Short => "short",
            Kind::Category => "category",
            Kind::Storefront => "storefront",
            Kind::Scenario(i) => rtx_front::MODEL_NAMES[3 + i],
        }
    }

    pub fn class(self) -> Class {
        match self {
            Kind::Short | Kind::Category => Class::Plain,
            Kind::Storefront => Class::Demand,
            Kind::Scenario(_) => Class::Monitored,
        }
    }
}

/// The input sequence of one session of `kind`: `steps` customer or
/// browsing steps over `catalog`'s first `products` products, or the
/// scenario's fixed clean inputs (whose length is the scenario's own).
pub fn session_inputs(
    kind: Kind,
    catalog: &Instance,
    steps: usize,
    products: usize,
    seed: u64,
) -> Vec<Instance> {
    let sequence = match kind {
        Kind::Short | Kind::Category => {
            rtx_workloads::customer_session(catalog, steps, products, 0.9, seed)
        }
        Kind::Storefront => rtx_workloads::browse_session(steps, products, seed),
        Kind::Scenario(i) => Scenario::all().swap_remove(i).clean_inputs,
    };
    sequence.into_instances()
}

fn transducer(kind: Kind) -> Result<(Arc<SpocusTransducer>, Option<SessionDemand>), String> {
    let _span = trace::span("front.lookup_model");
    let model = rtx_front::lookup_model(kind.model())
        .ok_or_else(|| format!("unknown model `{}`", kind.model()))?;
    Ok((model.transducer, model.demand))
}

// ---------------------------------------------------------------------------
// Monitoring
// ---------------------------------------------------------------------------

/// A [`SessionObserver`] that times the calls into the monitor it wraps.
#[derive(Debug)]
struct TimedMonitor {
    inner: rtx_verify::SessionMonitor,
}

impl SessionObserver for TimedMonitor {
    fn admit(
        &mut self,
        step: usize,
        input: &Instance,
    ) -> Result<Vec<Violation>, rtx_core::CoreError> {
        let _span = trace::span("monitor.admit");
        self.inner.admit(step, input)
    }

    fn observe(
        &mut self,
        step: usize,
        input: &Instance,
        output: &Instance,
    ) -> Result<Vec<Violation>, rtx_core::CoreError> {
        let before = self.inner.work();
        let observed = {
            let _span = trace::span("monitor.observe");
            self.inner.observe(step, input, output)
        };
        trace::count("monitor.work", self.inner.work() - before);
        trace::count("monitor.steps", 1);
        observed
    }
}

fn scenario_monitor(scenario: &Scenario, db: &Arc<ResidentDb>) -> Result<TimedMonitor, String> {
    let _span = trace::span("monitor.build");
    let inner = scenario
        .monitor(db)
        .map_err(err)?
        .with_parallelism(sequential());
    Ok(TimedMonitor { inner })
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// Step counters of one step, from `Session::last_stats`.
fn count_stats(session: &Session, class: Class) {
    if !trace::is_on() {
        return;
    }
    let stats = session.last_stats();
    trace::count("eval.rule_applications", stats.rule_applications);
    trace::count("eval.tuples_derived", stats.tuples_derived);
    trace::count("eval.steps", 1);
    if class == Class::Demand {
        trace::count("demand.magic_applications", stats.magic_applications);
        trace::count("demand.magic_tuples", stats.magic_tuples_derived);
        trace::count("demand.steps", 1);
    }
}

fn step_span(class: Class) -> &'static str {
    match class {
        Class::Plain => "runtime.step.plain",
        Class::Demand => "runtime.step.demand",
        Class::Monitored => "runtime.step.monitored",
    }
}

fn open_span(class: Class) -> &'static str {
    match class {
        Class::Plain => "runtime.open.plain",
        Class::Demand => "runtime.open.demand",
        Class::Monitored => "runtime.open.monitored",
    }
}

/// What a finished session produced, kept for the correctness checks after
/// the timed region.
#[derive(Debug, Clone)]
pub struct Record {
    pub kind: Kind,
    pub inputs: Vec<Instance>,
    pub outputs: Vec<Instance>,
}

/// The one-shot reference: `RelationalTransducer::run` over the same inputs
/// and catalog must produce the session's outputs (restricted to the
/// demanded footprint for demanded sessions).
pub fn check_one_shot(record: &Record, catalog: &Instance) -> Result<(), String> {
    let (model, demand) = transducer(record.kind)?;
    let names: BTreeSet<RelationName> = model.schema().db().names().cloned().collect();
    let db = catalog.restrict_to_set(&names);
    let inputs = InstanceSequence::new(model.schema().input().clone(), record.inputs.clone())
        .map_err(err)?;
    let run = model.run(&db, &inputs).map_err(err)?;
    if run.outputs().len() != record.outputs.len() {
        return Err(format!(
            "{}: one-shot run has {} steps, the session {}",
            record.kind.model(),
            run.outputs().len(),
            record.outputs.len()
        ));
    }
    for (i, (expected, got)) in run.outputs().iter().zip(&record.outputs).enumerate() {
        let expected = match demand {
            Some(_) => storefront_footprint(expected, &record.inputs[i]),
            None => expected.clone(),
        };
        if &expected != got {
            return Err(format!(
                "{} step {i}: session output differs from the one-shot run",
                record.kind.model()
            ));
        }
    }
    Ok(())
}

/// The storefront demand's footprint: `detail`/`offer` rows at the products
/// browsed in this step.
fn storefront_footprint(output: &Instance, input: &Instance) -> Instance {
    let browsed: BTreeSet<&Value> = input
        .relation("browse")
        .into_iter()
        .flat_map(|r| r.iter())
        .filter_map(|t| t.get(0))
        .collect();
    let mut kept = Instance::empty(&output.schema());
    for (name, relation) in output.iter() {
        for tuple in relation.iter() {
            if tuple.get(0).is_some_and(|p| browsed.contains(p)) {
                kept.insert(name.clone(), tuple.clone())
                    .expect("same schema");
            }
        }
    }
    kept
}

// ---------------------------------------------------------------------------
// Sharded fleet
// ---------------------------------------------------------------------------

/// A sharded runtime over one resident catalog.
#[derive(Clone)]
pub struct Fleet {
    runtime: ShardedRuntime,
    /// The guardrail scenarios, built once (the load generator does the
    /// same per thread).
    scenarios: Arc<Vec<Scenario>>,
}

/// One open session of a [`Fleet`].
pub struct FleetSession {
    inner: ShardedSession,
    class: Class,
}

impl Fleet {
    pub fn new(catalog: Instance, shards: usize) -> Fleet {
        let runtime =
            ShardedRuntime::shared_with(Arc::new(ResidentDb::new(catalog)), shards, sequential());
        runtime.set_monitor_policy(MonitorPolicy::Observe);
        runtime.set_demand_policy(rtx_core::DemandPolicy::Demand);
        Fleet {
            runtime,
            scenarios: Arc::new(Scenario::all()),
        }
    }

    /// Opens a session the way the load generator does: build the model,
    /// open it (with its demand when demanded), and attach a monitor to the
    /// scenario kinds.
    pub fn open(&self, name: &str, kind: Kind) -> Result<FleetSession, String> {
        let class = kind.class();
        let _span = trace::span(open_span(class));
        let (model, demand) = transducer(kind)?;
        let mut inner = match (class, demand) {
            (Class::Demand, Some(demand)) => {
                self.runtime.open_session_with_demand(name, model, demand)
            }
            _ => self.runtime.open_session(name, model),
        }
        .map_err(err)?;
        if let Kind::Scenario(index) = kind {
            let monitor = scenario_monitor(&self.scenarios[index], self.runtime.database())?;
            inner.set_monitor_policy(MonitorPolicy::Observe);
            inner.attach_observer(Box::new(monitor));
        }
        Ok(FleetSession { inner, class })
    }

    pub fn shard_of(&self, name: &str) -> usize {
        self.runtime.shard_of(name)
    }

    pub fn shard_count(&self) -> usize {
        self.runtime.shard_count()
    }

    /// Clean traffic must leave no quarantine, rejection or violation.
    pub fn check_health(&self) -> Result<(), String> {
        let health = self.runtime.health();
        if health.quarantined_sessions.is_empty()
            && health.rejections == 0
            && health.violations == 0
        {
            Ok(())
        } else {
            Err(format!("clean traffic left {health:?}"))
        }
    }
}

impl FleetSession {
    pub fn step(&mut self, input: &Instance) -> Result<Instance, String> {
        let output = {
            let _span = trace::span(step_span(self.class));
            self.inner.step(input).map_err(err)?
        };
        count_stats(&self.inner, self.class);
        Ok(output)
    }

    pub fn shard(&self) -> usize {
        self.inner.shard()
    }
}

// ---------------------------------------------------------------------------
// Unsharded runtime (long sessions)
// ---------------------------------------------------------------------------

/// A single runtime over one resident catalog.
#[derive(Clone)]
pub struct Service {
    runtime: Runtime,
}

/// One open session of a [`Service`] (or of a durable service).
pub struct PlainSession {
    inner: Session,
}

/// What `Session::run` returned, reduced to what the checks read.
pub struct RunRecord {
    pub outputs: Vec<Instance>,
    log: InstanceSequence,
    steps: usize,
}

impl Service {
    pub fn new(catalog: Instance) -> Service {
        Service {
            runtime: Runtime::shared_with(Arc::new(ResidentDb::new(catalog)), sequential()),
        }
    }

    pub fn open(&self, name: &str, kind: Kind) -> Result<PlainSession, String> {
        open_plain(&self.runtime, name, kind)
    }

    /// Replays a recorded run through a fresh online monitor — the
    /// incremental form of Theorem 3.1 log validation, linear in the run —
    /// and fails on any violation.
    pub fn check_log_online(
        &self,
        kind: Kind,
        inputs: &[Instance],
        run: &RunRecord,
    ) -> Result<(), String> {
        let (model, _) = transducer(kind)?;
        let mut monitor =
            rtx_verify::SessionMonitor::new(model, Arc::clone(self.runtime.database()))
                .map_err(err)?
                .with_parallelism(sequential());
        if inputs.len() != run.steps {
            return Err(format!(
                "run has {} steps, {} inputs were sent",
                run.steps,
                inputs.len()
            ));
        }
        for (step, (input, output)) in inputs.iter().zip(&run.outputs).enumerate() {
            let violations = monitor.observe(step, input, output).map_err(err)?;
            if let Some(v) = violations.first() {
                return Err(format!("online log validation: {v}"));
            }
        }
        Ok(())
    }
}

fn open_plain(runtime: &Runtime, name: &str, kind: Kind) -> Result<PlainSession, String> {
    let _span = trace::span(open_span(kind.class()));
    let (model, _) = transducer(kind)?;
    let inner = runtime.open_session(name, model).map_err(err)?;
    Ok(PlainSession { inner })
}

impl PlainSession {
    pub fn step(&mut self, input: &Instance) -> Result<Instance, String> {
        let output = {
            let _span = trace::span("runtime.step.plain");
            self.inner.step(input).map_err(err)?
        };
        count_stats(&self.inner, Class::Plain);
        Ok(output)
    }

    /// Tuples in the session's cumulative state.
    pub fn state_tuples(&self) -> usize {
        self.inner.state().total_tuples()
    }

    /// `Session::run`: the paper's run object rebuilt from the session's
    /// history.
    pub fn run(&self) -> Result<RunRecord, String> {
        let run = {
            let _span = trace::span("history.run");
            self.inner.run().map_err(err)?
        };
        Ok(RunRecord {
            outputs: run.outputs().iter().cloned().collect(),
            log: run.log().clone(),
            steps: run.len(),
        })
    }
}

/// Theorem 3.1 (`validate_log`) on the first `steps` steps of a `short`
/// run, over the catalog rows of the products those steps mention — the
/// decision procedure grounds over the whole active domain, so it is run
/// on a prefix it can decide.
pub fn check_log_prefix(
    catalog: &Instance,
    inputs: &[Instance],
    run: &RunRecord,
    steps: usize,
) -> Result<(), String> {
    let model = models::short();
    let steps = steps.min(run.steps);
    let products: BTreeSet<&Value> = inputs[..steps]
        .iter()
        .flat_map(|input| input.iter().flat_map(|(_, r)| r.iter()))
        .filter_map(|t| t.get(0))
        .collect();
    let mut db = Instance::empty(model.schema().db());
    for (name, relation) in catalog.iter() {
        if !model.schema().db().contains(name.clone()) {
            continue;
        }
        for tuple in relation.iter() {
            if tuple.get(0).is_some_and(|p| products.contains(p)) {
                db.insert(name.clone(), tuple.clone()).map_err(err)?;
            }
        }
    }
    let verdict = rtx_verify::validate_log(&model, &db, &run.log.prefix(steps)).map_err(err)?;
    if verdict.is_valid() {
        Ok(())
    } else {
        Err(format!(
            "validate_log rejects the first {steps} steps of the run's log"
        ))
    }
}

// ---------------------------------------------------------------------------
// Durable runtime
// ---------------------------------------------------------------------------

/// A durable runtime on a real directory.
pub struct Durable {
    runtime: rtx_core::DurableRuntime,
    dir: PathBuf,
}

/// The fsync policy the durable workload states and runs under.
pub const FSYNC: &str = "always";

/// Fails when `RTX_FSYNC` would override the stated fsync policy.
pub fn check_fsync_env() -> Result<(), String> {
    match std::env::var("RTX_FSYNC") {
        Ok(v) if !v.trim().is_empty() => Err(format!(
            "RTX_FSYNC={v} would override the stated fsync policy `{FSYNC}`"
        )),
        _ => Ok(()),
    }
}

fn open_durable(dir: &Path, policy: FsyncPolicy) -> Result<rtx_core::DurableRuntime, String> {
    let vfs = StdVfs::new(dir).map_err(err)?;
    let (runtime, _report) = rtx_core::Runtime::open_durable(Arc::new(vfs), policy).map_err(err)?;
    runtime.runtime().set_monitor_policy(MonitorPolicy::Off);
    Ok(runtime)
}

impl Durable {
    /// Creates a store in `dir` holding `catalog`: bulk-loaded without
    /// per-write fsync, checkpointed, then reopened (recovered) under
    /// `fsync=always`.
    pub fn create(dir: &Path, catalog: &Instance) -> Result<Durable, String> {
        {
            let loader = open_durable(dir, FsyncPolicy::Never)?;
            for (name, relation) in catalog.iter() {
                loader
                    .create_table(name.as_str(), relation.arity(), None)
                    .map_err(err)?;
                for tuple in relation.iter() {
                    loader.insert(name.as_str(), tuple.clone()).map_err(err)?;
                }
            }
            loader.sync().map_err(err)?;
            loader.checkpoint().map_err(err)?;
        }
        Durable::reopen(dir)
    }

    /// Opens (recovers) the store in `dir` under `fsync=always`.
    pub fn reopen(dir: &Path) -> Result<Durable, String> {
        Ok(Durable {
            runtime: open_durable(dir, FsyncPolicy::Always)?,
            dir: dir.to_path_buf(),
        })
    }

    pub fn open(&self, name: &str, kind: Kind) -> Result<PlainSession, String> {
        open_plain(self.runtime.runtime(), name, kind)
    }

    pub fn insert(&self, table: &str, row: &Tuple) -> Result<(), String> {
        let _span = trace::span("store.insert");
        match self.runtime.insert(table, row.clone()).map_err(err)? {
            true => Ok(()),
            false => Err(format!("insert into {table}: row already present")),
        }
    }

    pub fn retract(&self, table: &str, row: &Tuple) -> Result<(), String> {
        let _span = trace::span("store.retract");
        match self.runtime.retract(table, row).map_err(err)? {
            true => Ok(()),
            false => Err(format!("retract from {table}: row absent")),
        }
    }

    pub fn checkpoint(&self) -> Result<(), String> {
        let _span = trace::span("store.checkpoint");
        self.runtime.checkpoint().map_err(err)
    }

    pub fn index_builds(&self) -> u64 {
        self.runtime.runtime().database().index_builds()
    }

    /// The resident catalog as sessions see it.
    pub fn snapshot(&self) -> Instance {
        self.runtime.runtime().database().snapshot()
    }

    /// Bytes the store occupies on disk.
    pub fn disk_bytes(&self) -> u64 {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }

    pub fn check_health(&self) -> Result<(), String> {
        let health = self.runtime.runtime().health();
        if health.quarantined_sessions.is_empty() && health.rejections == 0 {
            Ok(())
        } else {
            Err(format!("durable runtime health {health:?}"))
        }
    }
}

/// One catalog mutation: `price` rows to retract, then rows to insert.
pub type Mutation = (Vec<Tuple>, Vec<Tuple>);

/// `count` mutations of `catalog`'s `price` relation, each a retract and/or
/// an insert; applied in order none retracts an absent row.
pub fn catalog_mutations(catalog: &Instance, count: usize, seed: u64) -> Vec<Mutation> {
    rtx_workloads::catalog_mutations(catalog, count, seed)
        .iter()
        .map(|op| op.price_deltas())
        .collect()
}

/// `catalog` with `mutations` applied to its `price` relation.
pub fn apply_mutations(catalog: &Instance, mutations: &[Mutation]) -> Result<Instance, String> {
    let mut expected = catalog.clone();
    for (retracts, inserts) in mutations {
        for row in retracts {
            expected.remove("price", row).map_err(err)?;
        }
        for row in inserts {
            expected.insert("price", row.clone()).map_err(err)?;
        }
    }
    Ok(expected)
}

// ---------------------------------------------------------------------------
// Wire front end
// ---------------------------------------------------------------------------

/// An in-process front-end server on a loopback port.  Dropping it shuts
/// it down.
pub struct Server {
    addr: SocketAddr,
    serving: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Server {
    pub fn start(shards: usize) -> Result<Server, String> {
        let server = FrontServer::bind(
            "127.0.0.1:0",
            FrontConfig {
                shards,
                parallelism: sequential(),
                ..FrontConfig::default()
            },
        )
        .map_err(err)?;
        let addr = server.local_addr().map_err(err)?;
        let serving = std::thread::spawn(move || server.serve());
        Ok(Server {
            addr,
            serving: Some(serving),
        })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Ok(Client {
            inner: FrontClient::connect(self.addr).map_err(err)?,
        })
    }

    /// Sends `SHUTDOWN` and waits for the server to drain.
    pub fn stop(mut self) -> Result<(), String> {
        self.shut_down()
    }

    fn shut_down(&mut self) -> Result<(), String> {
        let Some(serving) = self.serving.take() else {
            return Ok(());
        };
        let reply = self.connect()?.request("SHUTDOWN")?;
        if reply != "OK bye" {
            return Err(format!("SHUTDOWN answered `{reply}`"));
        }
        serving
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(err)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shut_down();
    }
}

/// A line-protocol connection.
pub struct Client {
    inner: FrontClient,
}

impl Client {
    /// Sends one line, reads one reply line (no retry on `BUSY`).
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.inner.request(line).map_err(err)
    }
}

/// `OPEN` line of a wire session of `kind` (demanded for the storefront).
pub fn open_line(name: &str, kind: Kind) -> String {
    match kind.class() {
        Class::Demand => format!("OPEN {name} {} demand", kind.model()),
        _ => format!("OPEN {name} {}", kind.model()),
    }
}

/// The wire rendering of an input instance.
pub fn render_facts(input: &Instance) -> String {
    rtx_front::render_instance(input)
}

/// `STEP` line carrying rendered `facts`.
pub fn step_line(name: &str, facts: &str) -> String {
    format!("STEP {name} {facts}")
}

/// An in-process mirror of wire sessions: parses the same `STEP` facts,
/// steps the same model on its own runtime and renders the output, each
/// call timed as its front-end layer.
pub struct Mirror {
    fleet: Fleet,
}

pub struct MirrorSession {
    session: FleetSession,
    schema: rtx_relational::Schema,
}

impl Mirror {
    pub fn new() -> Mirror {
        Mirror {
            fleet: Fleet::new(combined_catalog(), 1),
        }
    }

    pub fn open(&self, name: &str, kind: Kind) -> Result<MirrorSession, String> {
        let session = self.fleet.open(name, kind)?;
        let schema = session.inner.transducer().schema().input().clone();
        Ok(MirrorSession { session, schema })
    }
}

impl MirrorSession {
    /// The `OUT` line the server must have answered to `facts`.
    pub fn expected_reply(&mut self, facts: &str) -> Result<String, String> {
        let input = {
            let _span = trace::span("front.parse_facts");
            rtx_front::parse_facts(facts, &self.schema)?
        };
        let output = self.session.step(&input)?;
        let _span = trace::span("front.render");
        Ok(format!("OUT {}", rtx_front::render_instance(&output)))
    }
}
