//! Command implementations.

use crate::args::{
    BuildArgs, GenerateArgs, InteractiveArgs, QueryArgs, ServeArgs, StatsArgs, StatsMode,
};
use prague::{persist, PragueSystem, QueryResults, SystemParams};
use prague_datagen::{GraphGenConfig, MoleculeConfig};
use prague_graph::io::{read_lg_file, write_lg_file};
use prague_graph::{Graph, LabelTable};
use prague_mining::mine_classified;
use prague_obs::Obs;
use prague_server::{Server, ServerConfig, SessionManager, SystemClock};

/// `prague generate`: write a synthetic dataset in `.lg` format.
pub fn generate(args: &GenerateArgs) -> Result<(), String> {
    let (db, labels) = match args.kind.as_str() {
        "molecules" => {
            let ds = prague_datagen::molecules_generate(&MoleculeConfig {
                graphs: args.graphs,
                seed: args.seed,
                ..Default::default()
            });
            (ds.db, ds.labels)
        }
        "synthetic" => prague_datagen::graphgen_generate(&GraphGenConfig {
            graphs: args.graphs,
            seed: args.seed,
            label_count: args.labels,
            ..Default::default()
        }),
        other => {
            return Err(format!(
                "unknown dataset kind {other:?} (molecules|synthetic)"
            ))
        }
    };
    write_lg_file(&args.out, &db, &labels).map_err(|e| e.to_string())?;
    println!(
        "wrote {} graphs (avg {:.1} edges, {} labels) to {}",
        db.len(),
        db.avg_edges(),
        labels.len(),
        args.out.display()
    );
    Ok(())
}

/// `prague build`: mine a dataset and save the catalog.
pub fn build(args: &BuildArgs) -> Result<(), String> {
    let mut labels = LabelTable::new();
    let db = read_lg_file(&args.data, &mut labels).map_err(|e| e.to_string())?;
    if db.is_empty() {
        return Err("dataset is empty".into());
    }
    println!(
        "mining {} graphs at α = {} (fragments ≤ {} edges)…",
        db.len(),
        args.alpha,
        args.max_edges
    );
    let t0 = std::time::Instant::now();
    let mining = mine_classified(&db, args.alpha, args.max_edges);
    println!(
        "  {} frequent fragments, {} DIFs ({} NIFs seen) in {:.1?}",
        mining.frequent.len(),
        mining.difs.len(),
        mining.nif_count,
        t0.elapsed()
    );
    persist::save_catalog(&args.out, &db, &labels, &mining).map_err(|e| e.to_string())?;
    println!("catalog saved to {}", args.out.display());
    Ok(())
}

/// `prague stats`: print catalog statistics.
pub fn stats(args: &StatsArgs) -> Result<(), String> {
    let (db, labels, mining) = persist::load_catalog(&args.catalog).map_err(|e| e.to_string())?;
    println!("catalog {}", args.catalog.display());
    println!("  graphs: {}", db.len());
    println!("  total edges: {}", db.total_edges());
    println!("  avg edges/graph: {:.2}", db.avg_edges());
    println!("  labels: {}", labels.len());
    println!("  frequent fragments: {}", mining.frequent.len());
    println!("  DIFs: {}", mining.difs.len());
    // size histogram
    let mut hist: Vec<usize> = Vec::new();
    for f in &mining.frequent {
        if hist.len() <= f.size() {
            hist.resize(f.size() + 1, 0);
        }
        hist[f.size()] += 1;
    }
    for (size, count) in hist.iter().enumerate().skip(1) {
        if *count > 0 {
            println!("    |f| = {size}: {count} frequent fragments");
        }
    }
    Ok(())
}

/// Order a query graph's edges so every prefix is connected (the GUI
/// guarantee the session requires).
#[allow(clippy::needless_range_loop)]
pub fn connected_order(q: &Graph) -> Vec<usize> {
    let n = q.edge_count();
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut wired: std::collections::HashSet<u32> = std::collections::HashSet::new();
    while order.len() < n {
        let mut advanced = false;
        for e in 0..n {
            if used[e] {
                continue;
            }
            let edge = q.edge(e as u32);
            if order.is_empty() || wired.contains(&edge.u) || wired.contains(&edge.v) {
                used[e] = true;
                wired.insert(edge.u);
                wired.insert(edge.v);
                order.push(e);
                advanced = true;
            }
        }
        if !advanced {
            break; // disconnected query: remaining edges start a new component
        }
    }
    // append any disconnected leftovers so the caller sees them fail cleanly
    for e in 0..n {
        if !used[e] {
            order.push(e);
        }
    }
    order
}

/// Load a catalog and stand up a ready-to-query system over it: indexes
/// rebuilt at `shards` shards and warmed, verification pool sized, and
/// (with `--stats`) observability attached *after* warming so the
/// snapshot covers only the session.
fn load_system(
    catalog: &std::path::Path,
    beta: usize,
    shards: usize,
    threads: usize,
    stats: StatsMode,
) -> Result<PragueSystem, String> {
    let (db, labels, mining) = persist::load_catalog(catalog).map_err(|e| e.to_string())?;
    let max_edges = mining.frequent.iter().map(|f| f.size()).max().unwrap_or(1);
    let mut system = PragueSystem::from_mining_result(
        db,
        labels,
        mining,
        SystemParams {
            alpha: 0.0, // recorded in the catalog's mining pass; unused here
            beta,
            max_fragment_edges: max_edges,
            shards,
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
    system.warm().map_err(|e| e.to_string())?;
    system.set_threads(threads);
    if stats.is_on() {
        system.set_obs(Obs::enabled());
    }
    Ok(system)
}

/// Print an observability snapshot in the requested mode (no-op when the
/// handle is disabled or the mode is `Off`).
fn print_stats(system: &PragueSystem, mode: StatsMode) {
    let Some(snap) = system.obs().snapshot() else {
        return;
    };
    match mode {
        StatsMode::Off => {}
        StatsMode::Text => print!("{}", snap.render()),
        StatsMode::Json => println!("{}", snap.to_json()),
    }
}

/// `prague query` (alias `prague run`): load a catalog, rebuild the
/// indexes, replay the query and print the results — plus, with
/// `--stats[=json]`, the observability snapshot of the whole replay.
pub fn query(args: &QueryArgs) -> Result<(), String> {
    let system = load_system(
        &args.catalog,
        args.beta,
        args.shards,
        args.threads,
        args.stats,
    )?;
    let labels = system.labels();
    let max_edges = system.params().max_fragment_edges;

    // the query file's labels must resolve against the catalog's table
    let mut qlabels = labels.clone();
    let qdb = read_lg_file(&args.query, &mut qlabels).map_err(|e| e.to_string())?;
    if qlabels.len() > labels.len() {
        return Err("query uses labels that do not occur in the catalog's dataset".into());
    }
    let Some((_, q)) = qdb.iter().next() else {
        return Err("query file contains no graph".into());
    };
    if q.edge_count() > max_edges {
        eprintln!(
            "note: query has {} edges but the catalog was mined to {max_edges}; \
             deep levels will be unindexed (still correct, more verification)",
            q.edge_count()
        );
    }

    let mut session = system.session(args.sigma);
    let nodes: Vec<_> = q.labels().iter().map(|&l| session.add_node(l)).collect();
    for &e in &connected_order(q) {
        let edge = q.edge(e as u32);
        session
            .add_edge(nodes[edge.u as usize], nodes[edge.v as usize])
            .map_err(|e| e.to_string())?;
    }
    if args.similar {
        session.choose_similarity().map_err(|e| e.to_string())?;
    }
    let outcome = session.run().map_err(|e| e.to_string())?;
    if args.trace {
        println!("{}", session.log().render());
    }
    match outcome.results {
        QueryResults::Exact(ids) => {
            println!("{} exact matches (SRT {:?})", ids.len(), outcome.srt);
            for id in ids.iter().take(20) {
                println!("  graph {id}");
            }
            if ids.len() > 20 {
                println!("  … and {} more", ids.len() - 20);
            }
        }
        QueryResults::Similar(r) => {
            println!(
                "{} approximate matches within σ = {} (SRT {:?})",
                r.matches.len(),
                args.sigma,
                outcome.srt
            );
            for m in r.matches.iter().take(20) {
                println!("  graph {:>6}  distance {}", m.graph_id, m.distance);
            }
            if r.matches.len() > 20 {
                println!("  … and {} more", r.matches.len() - 20);
            }
        }
    }
    print_stats(&system, args.stats);
    Ok(())
}

/// `prague interactive`: formulate a query on stdin over a loaded catalog.
/// With `--stats[=json]` the observability snapshot is printed on exit (and
/// available mid-session via the `stats` REPL command).
pub fn interactive(args: &InteractiveArgs) -> Result<(), String> {
    let system = load_system(
        &args.catalog,
        args.beta,
        args.shards,
        args.threads,
        args.stats,
    )?;
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    crate::interactive::run_repl(&system, args.sigma, stdin.lock(), &mut stdout)
        .map_err(|e| e.to_string())?;
    print_stats(&system, args.stats);
    Ok(())
}

/// `prague serve`: host the multi-session query service over a loaded
/// catalog. Runs until stdin closes (so `prague serve … < /dev/null`
/// starts, prints the bound address, and exits cleanly — the CI smoke),
/// then shuts down: sessions closed, speculative verification cancelled,
/// connection threads joined.
pub fn serve(args: &ServeArgs) -> Result<(), String> {
    serve_until(args, std::io::stdin().lock(), |addr| {
        println!("listening on {addr}");
    })
}

/// The testable core of [`serve`]: the service runs until `control`
/// (stdin in production) reaches EOF; `on_ready` observes the bound
/// address before any connection is accepted.
pub fn serve_until<R: std::io::BufRead>(
    args: &ServeArgs,
    control: R,
    on_ready: impl FnOnce(std::net::SocketAddr),
) -> Result<(), String> {
    let system = std::sync::Arc::new(load_system(
        &args.catalog,
        args.beta,
        args.shards,
        args.threads,
        args.stats,
    )?);
    let manager = std::sync::Arc::new(SessionManager::new(
        std::sync::Arc::clone(&system),
        ServerConfig {
            default_sigma: args.sigma,
            max_sessions: args.max_sessions,
            max_conns: args.max_conns,
            idle_timeout: std::time::Duration::from_secs(args.idle_secs),
            ..ServerConfig::default()
        },
        std::sync::Arc::new(SystemClock::new()),
    ));
    let server = Server::bind(&args.addr, std::sync::Arc::clone(&manager))
        .map_err(|e| format!("bind {}: {e}", args.addr))?;
    on_ready(server.local_addr());
    // Park on the control stream; EOF (or a read error) is the shutdown
    // signal. Lines typed here are ignored — the protocol runs over TCP.
    for line in control.lines() {
        if line.is_err() {
            break;
        }
    }
    server.shutdown();
    let stats = manager.lifecycle_stats();
    eprintln!(
        "shutdown: {} opened, {} closed, {} expired, {} evicted",
        stats.opened, stats.closed, stats.expired, stats.evicted
    );
    print_stats(&system, args.stats);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::*;

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("prague-cli-{}-{name}", std::process::id()))
    }

    #[test]
    fn end_to_end_generate_build_stats_query() {
        let data = temp("d.lg");
        let catalog = temp("c.prgc");
        let qfile = temp("q.lg");

        generate(&GenerateArgs {
            kind: "molecules".into(),
            graphs: 60,
            out: data.clone(),
            seed: 5,
            labels: 20,
        })
        .unwrap();

        build(&BuildArgs {
            data: data.clone(),
            out: catalog.clone(),
            alpha: 0.2,
            max_edges: 5,
        })
        .unwrap();

        stats(&StatsArgs {
            catalog: catalog.clone(),
        })
        .unwrap();

        // C-C query (carbon dominates the generator)
        std::fs::write(&qfile, "t # 0\nv 0 C\nv 1 C\ne 0 1\n").unwrap();
        query(&QueryArgs {
            catalog: catalog.clone(),
            query: qfile.clone(),
            sigma: 1,
            beta: 2,
            similar: false,
            trace: true,
            threads: 2,
            shards: 2,
            stats: StatsMode::Json,
        })
        .unwrap();

        for p in [data, catalog, qfile] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn serve_answers_frames_and_shuts_down_on_control_eof() {
        use std::io::{BufRead, BufReader, Write};

        let data = temp("srv-d.lg");
        let catalog = temp("srv-c.prgc");
        generate(&GenerateArgs {
            kind: "molecules".into(),
            graphs: 60,
            out: data.clone(),
            seed: 5,
            labels: 20,
        })
        .unwrap();
        build(&BuildArgs {
            data: data.clone(),
            out: catalog.clone(),
            alpha: 0.2,
            max_edges: 3,
        })
        .unwrap();

        let args = ServeArgs {
            catalog: catalog.clone(),
            addr: "127.0.0.1:0".into(),
            sigma: 2,
            beta: 2,
            threads: 2,
            shards: 2,
            max_sessions: 16,
            max_conns: 16,
            idle_secs: 60,
            stats: StatsMode::Off,
        };
        // `on_ready` runs while the server is live; the empty control
        // stream then shuts it down as soon as the closure returns.
        serve_until(&args, std::io::empty(), |addr| {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut ask = |frame: &str| {
                // Body and newline in one `write`, not one per format piece.
                stream.write_all(format!("{frame}\n").as_bytes()).unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                line
            };
            assert!(ask("{\"op\":\"ping\"}").contains("\"pong\":true"));
            let open = ask("{\"op\":\"open\"}");
            assert!(open.contains("\"session\":1"), "{open}");
            for _ in 0..3 {
                let n = ask("{\"op\":\"node\",\"session\":1,\"name\":\"C\"}");
                assert!(n.contains("\"ok\":true"), "{n}");
            }
            for (u, v) in [(0, 1), (1, 2)] {
                let e = ask(&format!(
                    "{{\"op\":\"edge\",\"session\":1,\"u\":{u},\"v\":{v}}}"
                ));
                assert!(e.contains("\"status\":"), "{e}");
            }
            let run = ask("{\"op\":\"run\",\"session\":1}");
            assert!(run.contains("\"kind\":"), "{run}");
            assert!(ask("{\"op\":\"stats\"}").contains("\"sessions\":1"));
            assert!(ask("{\"op\":\"close\",\"session\":1}").contains("\"closed\":true"));
            assert!(ask("garbage").contains("bad_json"));
        })
        .unwrap();

        for p in [data, catalog] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn connected_order_makes_prefixes_connected() {
        let mut g = Graph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(prague_graph::Label(0))).collect();
        // edges given in a disconnected-prefix order
        g.add_edge(n[2], n[3]).unwrap();
        g.add_edge(n[0], n[1]).unwrap();
        g.add_edge(n[1], n[2]).unwrap();
        let order = connected_order(&g);
        let mut wired = std::collections::HashSet::new();
        for (i, &e) in order.iter().enumerate() {
            let edge = g.edge(e as u32);
            if i > 0 {
                assert!(wired.contains(&edge.u) || wired.contains(&edge.v));
            }
            wired.insert(edge.u);
            wired.insert(edge.v);
        }
    }

    #[test]
    fn query_rejects_unknown_labels() {
        let data = temp("d2.lg");
        let catalog = temp("c2.prgc");
        let qfile = temp("q2.lg");
        generate(&GenerateArgs {
            kind: "synthetic".into(),
            graphs: 30,
            out: data.clone(),
            seed: 9,
            labels: 3,
        })
        .unwrap();
        build(&BuildArgs {
            data: data.clone(),
            out: catalog.clone(),
            alpha: 0.3,
            max_edges: 3,
        })
        .unwrap();
        std::fs::write(&qfile, "t # 0\nv 0 Xx\nv 1 Yy\ne 0 1\n").unwrap();
        let err = query(&QueryArgs {
            catalog: catalog.clone(),
            query: qfile.clone(),
            sigma: 1,
            beta: 2,
            similar: false,
            trace: false,
            threads: 1,
            shards: 1,
            stats: StatsMode::Off,
        })
        .unwrap_err();
        assert!(err.contains("labels"));
        for p in [data, catalog, qfile] {
            std::fs::remove_file(p).ok();
        }
    }
}
