//! Build reproducibility across miner threads and shard counts: fragment
//! ids must mean the same thing in every build of the same dataset.
//!
//! `mine_parallel` merges per-thread output in completion order, so only
//! the `(size, CAM)` order `MiningResult::from_output` imposes keeps A²F /
//! A²I ids — and with them index snapshots and saved catalogs — from
//! depending on scheduling. The audit's `hash-container` / `hashmap-iter`
//! rules cannot see that kind of nondeterminism; this test can. It mines
//! at 1/2/8 threads, indexes each result through the facade at 1/2/8
//! shards, and repeats, comparing:
//!
//! * the saved catalog (`persist::save_catalog`) — byte-identical across
//!   every mining run, `mine_sharded`'s included;
//! * the facade's merged view (structure + global FSG lists per id) —
//!   identical across all nine thread × shard combinations;
//! * the catalog's `A2fIndex::snapshot_bytes` — byte-identical across
//!   threads and repetitions at each shard count (it holds shard 0's
//!   *restricted* lists, so it legitimately differs between shard
//!   counts; at one shard it is the whole index).

use prague::persist;
use prague_graph::{Graph, GraphDb, GraphId, Label, LabelTable};
use prague_index::{A2fConfig, DfBacking};
use prague_mining::{mine_parallel, MiningConfig, MiningResult};
use prague_shard::{ShardPlan, ShardedIndexes};

const THREADS: [usize; 3] = [1, 2, 8];
const SHARDS: [usize; 3] = [1, 2, 8];
const REPETITIONS: usize = 20;
const ALPHA: f64 = 0.25;
const MAX_EDGES: usize = 4;

/// Triangles, paths and stars over four labels: enough distinct 1-edge
/// roots that the miner threads race, enough graphs that eight shards all
/// get members.
fn dataset() -> GraphDb {
    let mut graphs = Vec::new();
    for seed in 0..24u16 {
        let mut g = Graph::new();
        let a = g.add_node(Label(seed % 4));
        let b = g.add_node(Label((seed + 1) % 4));
        let c = g.add_node(Label((seed + 2) % 3));
        let d = g.add_node(Label(seed % 2));
        g.add_edge(a, b).unwrap();
        g.add_edge(b, c).unwrap();
        if seed % 2 == 0 {
            g.add_edge(c, a).unwrap();
        }
        g.add_edge(c, d).unwrap();
        if seed % 3 == 0 {
            g.add_edge(a, d).unwrap();
        }
        graphs.push(g);
    }
    GraphDb::from_graphs(graphs)
}

fn config() -> A2fConfig {
    A2fConfig {
        beta: 2,
        backing: DfBacking::TempDisk,
        store_full_ids: false,
    }
}

fn saved_catalog(db: &GraphDb, mining: &MiningResult) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("prague-determinism-{}", std::process::id()));
    persist::save_catalog(&path, db, &LabelTable::new(), mining).expect("catalog saves");
    let bytes = std::fs::read(&path).expect("catalog reads back");
    std::fs::remove_file(&path).ok();
    bytes
}

/// What a session can observe of one indexed fragment: the catalog's
/// structure for its id and the *global* FSG list the facade serves.
#[derive(Debug, PartialEq)]
struct Entry {
    cam: Vec<u16>,
    size: usize,
    children: Vec<u32>,
    parents: Vec<u32>,
    fsg: Vec<GraphId>,
}

/// Every A²F entry in id order, then every A²I entry in id order.
fn merged_view(facade: &ShardedIndexes) -> Vec<Entry> {
    let catalog = facade.catalog();
    let a2f = (0..catalog.a2f.fragment_count() as u32).map(|id| Entry {
        cam: catalog.a2f.cam(id).entries().to_vec(),
        size: catalog.a2f.size(id),
        children: catalog.a2f.children(id).to_vec(),
        parents: catalog.a2f.parents(id).to_vec(),
        fsg: facade.a2f_fsg(id).expect("temp store reads").to_vec(),
    });
    let a2i = catalog.a2i.iter().map(|(id, dif)| Entry {
        cam: dif.cam.entries().to_vec(),
        size: catalog.a2i.size(id),
        children: Vec::new(),
        parents: Vec::new(),
        fsg: facade.a2i_fsg(id).to_vec(),
    });
    a2f.chain(a2i).collect()
}

/// Compare `got` with the first value seen for this slot.
fn same_as_first<T: PartialEq + std::fmt::Debug>(slot: &mut Option<T>, got: T, what: &str) {
    match slot {
        None => *slot = Some(got),
        Some(first) => assert!(*first == got, "{what} differs between builds"),
    }
}

/// The comparisons every built facade goes through: its merged view
/// against every other build's, its catalog snapshot against the builds
/// at the same shard count.
fn check_facade(
    view: &mut Option<Vec<Entry>>,
    snapshot: &mut Option<Vec<u8>>,
    facade: &ShardedIndexes,
    at: &str,
) {
    same_as_first(view, merged_view(facade), &format!("merged view {at}"));
    same_as_first(
        snapshot,
        facade.catalog().a2f.snapshot_bytes().expect("snapshots"),
        &format!("catalog snapshot {at}"),
    );
}

#[test]
fn builds_are_identical_across_threads_shards_and_repetitions() {
    let db = dataset();
    let mining_config = MiningConfig::from_ratio(db.len(), ALPHA, MAX_EDGES);
    let mut catalog_file = None;
    let mut view = None;
    let mut snapshots: [Option<Vec<u8>>; SHARDS.len()] = Default::default();

    for rep in 0..REPETITIONS {
        for threads in THREADS {
            let mining = MiningResult::from_output(mine_parallel(&db, &mining_config, threads));
            assert!(mining.frequent.len() > 4, "dataset mines to a real lattice");
            same_as_first(
                &mut catalog_file,
                saved_catalog(&db, &mining),
                &format!("saved catalog (rep {rep}, {threads} threads)"),
            );
            for (snapshot, shards) in snapshots.iter_mut().zip(SHARDS) {
                let facade =
                    ShardedIndexes::from_result(&db, ShardPlan::new(shards), &mining, &config())
                        .expect("indexes build");
                let at = format!("(rep {rep}, {threads} threads, {shards} shards)");
                check_facade(&mut view, snapshot, &facade, &at);
            }
        }
    }

    // The facade's own build — whole-database mining at one shard,
    // two-wave shard mining above — lands on the same ids too.
    for (snapshot, shards) in snapshots.iter_mut().zip(SHARDS) {
        let at = format!("(facade build, {shards} shards)");
        let (facade, mining) = ShardedIndexes::build(
            &db,
            ShardPlan::new(shards),
            ALPHA,
            MAX_EDGES,
            &config(),
            None,
        )
        .expect("facade builds");
        same_as_first(
            &mut catalog_file,
            saved_catalog(&db, &mining),
            &format!("saved catalog {at}"),
        );
        check_facade(&mut view, snapshot, &facade, &at);
    }
}
