//! The four workloads and the set-up each one needs.

use crate::script::{derive_traces, Recipe, Rng, Trace};
use prague::{PragueSystem, SystemParams};
use prague_datagen::{graphgen_generate, molecules_generate, GraphGenConfig, MoleculeConfig};
use prague_graph::{Graph, GraphDb, LabelTable};
use prague_mining::{mine_classified, MiningResult};
use std::time::{Duration, Instant};

/// Verification pool workers of every workload: the host has two cores.
pub const POOL_THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// AIDS-like molecules, `MoleculeConfig` defaults.
    Molecules,
    /// GraphGen graphs: 8 labels, 30 edges on average, density 0.1.
    Synthetic,
}

/// Everything that distinguishes one workload from another.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub data: Data,
    pub graphs: usize,
    /// Mining depth (`max_fragment_edges`).
    pub mine_edges: usize,
    /// MF/DF split: fragments larger than β live in the DF blob store.
    pub beta: usize,
    pub shards: usize,
    pub connections: usize,
    /// Live sessions a connection interleaves.
    pub sessions_per_conn: usize,
    /// Pause between a reply and the same session's next frame.
    pub think: Duration,
    pub recipe: Recipe,
    /// Traces in one pass.
    pub pass: usize,
}

pub const WORKLOADS: [&str; 4] = ["mol_nothink", "mol_think", "syn_nothink", "mol_edit"];

/// The workload called `name`; `smoke` shrinks it to a few hundred graphs
/// for the tests.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let mol = Spec {
        name: "mol_nothink",
        data: Data::Molecules,
        graphs: if smoke { 300 } else { 8_000 },
        mine_edges: 5,
        beta: 3,
        shards: 1,
        connections: 1,
        sessions_per_conn: 1,
        think: Duration::ZERO,
        recipe: Recipe::Formulate,
        pass: if smoke { 8 } else { 32 },
    };
    match name {
        "mol_nothink" => Some(mol),
        "mol_think" => Some(Spec {
            name: "mol_think",
            shards: 2,
            connections: 2,
            sessions_per_conn: if smoke { 2 } else { 8 },
            think: Duration::from_millis(if smoke { 50 } else { 250 }),
            ..mol
        }),
        "syn_nothink" => Some(Spec {
            name: "syn_nothink",
            data: Data::Synthetic,
            graphs: if smoke { 1_000 } else { 40_000 },
            mine_edges: 3,
            beta: 2,
            shards: 2,
            ..mol
        }),
        "mol_edit" => Some(Spec {
            name: "mol_edit",
            recipe: Recipe::Edit,
            pass: if smoke { 4 } else { 16 },
            ..mol
        }),
        _ => None,
    }
}

impl Spec {
    /// Sessions live at once across all connections.
    pub fn lanes(&self) -> usize {
        self.connections * self.sessions_per_conn
    }

    pub fn params(&self, shards: usize) -> SystemParams {
        SystemParams {
            alpha: 0.1,
            beta: self.beta,
            max_fragment_edges: self.mine_edges,
            shards,
            ..Default::default()
        }
    }
}

/// Wall time of each set-up stage, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub mine_s: f64,
    pub index_s: f64,
    pub warm_s: f64,
    pub derive_s: f64,
}

/// A generated and mined database, not yet indexed.
pub struct Mined {
    pub db: GraphDb,
    pub labels: LabelTable,
    pub mining: MiningResult,
}

impl Mined {
    /// A second copy (`MiningResult` has no `Clone`): the traced run
    /// indexes the same mining result several ways.
    pub fn duplicate(&self) -> Mined {
        Mined {
            db: self.db.clone(),
            labels: self.labels.clone(),
            mining: MiningResult {
                frequent: self.mining.frequent.clone(),
                difs: self.mining.difs.clone(),
                nif_count: self.mining.nif_count,
            },
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn generate_and_mine(spec: &Spec, seed: u64, times: &mut SetupTimes) -> Mined {
    let t = Instant::now();
    let data_seed = Rng(seed ^ 0xDA7A).next();
    let (db, labels) = match spec.data {
        Data::Molecules => {
            let ds = molecules_generate(&MoleculeConfig {
                graphs: spec.graphs,
                seed: data_seed,
                ..Default::default()
            });
            (ds.db, ds.labels)
        }
        Data::Synthetic => graphgen_generate(&GraphGenConfig {
            graphs: spec.graphs,
            seed: data_seed,
            label_count: 8,
            ..Default::default()
        }),
    };
    times.generate_s = secs(t);
    let t = Instant::now();
    let mining = mine_classified(&db, 0.1, spec.mine_edges);
    times.mine_s = secs(t);
    Mined { db, labels, mining }
}

/// Index `mined` at `shards` shards, warm the FSG lists and start the
/// verification pool: the state `prague serve` reaches before it listens.
pub fn index(spec: &Spec, mined: Mined, shards: usize, times: &mut SetupTimes) -> PragueSystem {
    let t = Instant::now();
    let mut system =
        PragueSystem::from_mining_result(mined.db, mined.labels, mined.mining, spec.params(shards))
            .expect("index build");
    times.index_s = secs(t);
    let t = Instant::now();
    system.warm().expect("a fresh store warms");
    times.warm_s = secs(t);
    system.set_threads(POOL_THREADS);
    system
}

/// Generate, mine, index, warm: the offline part of one workload.
pub fn build_system(spec: &Spec, seed: u64, times: &mut SetupTimes) -> PragueSystem {
    let mined = generate_and_mine(spec, seed, times);
    index(spec, mined, spec.shards, times)
}

/// The traces of one pass, derived from the indexed database.
pub fn traces(spec: &Spec, system: &PragueSystem, seed: u64, times: &mut SetupTimes) -> Vec<Trace> {
    let t = Instant::now();
    let a2f = &system.indexes().a2f;
    // Fragment ids follow the miner's thread completion order, which
    // differs from run to run; CAM order does not.
    let mut ids: Vec<u32> = a2f.iter_meta().map(|(id, _, _)| id).collect();
    ids.sort_unstable_by_key(|&id| a2f.cam(id));
    let frequent: Vec<Graph> = ids
        .into_iter()
        .map(|id| a2f.fragment(id).expect("a fresh store reads back"))
        .collect();
    let labels = u16::try_from(system.labels().len()).unwrap_or(u16::MAX);
    let traces = derive_traces(
        system.db(),
        &frequent,
        labels,
        spec.recipe,
        spec.pass,
        Rng(seed ^ 0x7ACE).next(),
    );
    times.derive_s = secs(t);
    traces
}
