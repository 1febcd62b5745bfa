//! Criterion micro-benchmarks for the PRAGUE building blocks: CAM
//! canonicalization, VF2 matching, connected-subset enumeration, gSpan
//! mining, SPIG construction, candidate generation, MCCS verification and
//! the index codec. One `cargo bench` run covers the hot paths of every
//! experiment.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use prague::{PragueSystem, ShardPlan, ShardedIndexes, SystemParams};
use prague_datagen::{molecules_generate, MoleculeConfig};
use prague_graph::{cam_code, Graph, GraphDb, Label};
use prague_index::{A2fConfig, DfBacking};
use prague_mining::{mine, mine_classified, MiningConfig};
use prague_spig::{SpigSet, VisualQuery};
use std::hint::black_box;

fn bench_db(graphs: usize) -> GraphDb {
    molecules_generate(&MoleculeConfig {
        graphs,
        mean_nodes: 15.0,
        ..Default::default()
    })
    .db
}

/// A 9-edge molecule-like query graph with a ring.
fn bench_query() -> Graph {
    let mut g = Graph::new();
    let n: Vec<_> = [0u16, 0, 0, 0, 0, 1, 0, 2, 0]
        .iter()
        .map(|&l| g.add_node(Label(l)))
        .collect();
    for (u, v) in [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 0),
        (4, 5),
        (5, 6),
        (6, 7),
        (7, 8),
    ] {
        g.add_edge(n[u], n[v]).unwrap();
    }
    g
}

fn bench_cam(c: &mut Criterion) {
    let q = bench_query();
    c.bench_function("cam_code_9edge_ring", |b| {
        b.iter(|| cam_code(black_box(&q)))
    });
}

fn bench_vf2(c: &mut Criterion) {
    let db = bench_db(50);
    let q = {
        let mut g = Graph::new();
        let a = g.add_node(Label(0));
        let b = g.add_node(Label(0));
        let x = g.add_node(Label(1));
        g.add_edge(a, b).unwrap();
        g.add_edge(b, x).unwrap();
        g
    };
    let order = prague_graph::vf2::MatchOrder::new(&q);
    c.bench_function("vf2_3node_query_over_50_graphs", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for (_, g) in db.iter() {
                if prague_graph::vf2::is_subgraph_with_order(black_box(&q), g, &order) {
                    hits += 1;
                }
            }
            hits
        })
    });
}

fn bench_enumerate(c: &mut Criterion) {
    let q = bench_query();
    c.bench_function("connected_subsets_9edge_query", |b| {
        b.iter(|| prague_graph::enumerate::connected_edge_subsets_by_size(black_box(&q)).unwrap())
    });
}

fn bench_mccs(c: &mut Criterion) {
    let q = bench_query();
    let db = bench_db(20);
    c.bench_function("mccs_distance_9edge_vs_20_graphs", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (_, g) in db.iter() {
                total += prague_graph::mccs::subgraph_distance(black_box(&q), g).unwrap();
            }
            total
        })
    });
}

fn bench_gspan(c: &mut Criterion) {
    let db = bench_db(100);
    let cfg = MiningConfig::from_ratio(db.len(), 0.2, 5);
    c.bench_function("gspan_100_graphs_a02_max5", |b| {
        b.iter(|| mine(black_box(&db), &cfg))
    });
}

fn bench_codec(c: &mut Criterion) {
    let ids: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
    c.bench_function("codec_sorted_ids_10k_roundtrip", |b| {
        b.iter(|| {
            let mut buf = bytes::BytesMut::new();
            prague_index::codec::put_sorted_ids(&mut buf, black_box(&ids));
            let mut slice: &[u8] = &buf;
            prague_index::codec::get_sorted_ids(&mut slice).unwrap()
        })
    });
}

/// SPIG construction and candidate generation over a realistic built system.
fn bench_spig_and_candidates(c: &mut Criterion) {
    let db = bench_db(400);
    let result = mine_classified(&db, 0.15, 8);
    let facade = ShardedIndexes::from_result(
        &db,
        ShardPlan::new(1),
        &result,
        &A2fConfig {
            beta: 3,
            backing: DfBacking::TempDisk,
            store_full_ids: false,
        },
    )
    .unwrap();
    facade.warm().unwrap();
    let indexes = facade.catalog();

    // formulate the bench query's first 8 edges, measure adding the 9th
    let q = bench_query();
    let setup = || {
        let mut query = VisualQuery::new();
        for &l in q.labels() {
            query.add_node(l);
        }
        let mut set = SpigSet::new();
        for e in q.edges().iter().take(8) {
            query.add_edge(e.u, e.v).unwrap();
            set.on_new_edge(&query, &indexes.a2f, &indexes.a2i).unwrap();
        }
        (query, set)
    };

    c.bench_function("spig_construct_9th_edge", |b| {
        b.iter_batched(
            setup,
            |(mut query, mut set)| {
                let e = q.edges()[8];
                query.add_edge(e.u, e.v).unwrap();
                set.on_new_edge(&query, &indexes.a2f, &indexes.a2i).unwrap();
                set
            },
            BatchSize::SmallInput,
        )
    });

    let (mut query, mut set) = setup();
    let e = q.edges()[8];
    query.add_edge(e.u, e.v).unwrap();
    set.on_new_edge(&query, &indexes.a2f, &indexes.a2i).unwrap();

    c.bench_function("exact_sub_candidates_target", |b| {
        b.iter(|| {
            let v = set.target_vertex(&query).unwrap();
            prague::exact_sub_candidates(v, &facade, db.len())
        })
    });

    c.bench_function("similar_sub_candidates_sigma3", |b| {
        b.iter(|| prague::similar_sub_candidates(query.size(), 3, &set, &facade, db.len(), None))
    });
}

fn bench_session_pipeline(c: &mut Criterion) {
    let db = bench_db(400);
    let system = PragueSystem::build(
        db,
        SystemParams {
            alpha: 0.15,
            beta: 3,
            max_fragment_edges: 8,
            ..Default::default()
        },
    )
    .unwrap();
    system.warm().unwrap();
    let q = bench_query();
    c.bench_function("full_session_formulate_and_run", |b| {
        b.iter(|| {
            let mut session = system.session(2);
            let nodes: Vec<_> = q.labels().iter().map(|&l| session.add_node(l)).collect();
            for e in q.edges() {
                session
                    .add_edge(nodes[e.u as usize], nodes[e.v as usize])
                    .unwrap();
            }
            session.choose_similarity().unwrap();
            session.run().unwrap().results.len()
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_cam,
        bench_vf2,
        bench_enumerate,
        bench_mccs,
        bench_gspan,
        bench_codec,
        bench_spig_and_candidates,
        bench_session_pipeline
);
criterion_main!(benches);
