//! Hand-rolled argument parsing (no external CLI dependency).

use std::path::PathBuf;

/// Usage text.
pub const USAGE: &str = "\
prague — practical visual subgraph query blending (PRAGUE, ICDE 2012)

USAGE:
  prague generate --kind <molecules|synthetic> --graphs <N> --out <FILE.lg>
                  [--seed <S>] [--labels <L>]
  prague build    --data <FILE.lg> --out <FILE.prgc>
                  [--alpha <A=0.1>] [--max-edges <M=10>]
  prague stats    --catalog <FILE.prgc>
  prague query    --catalog <FILE.prgc> --query <FILE.lg>
                  [--sigma <K=2>] [--beta <B=8>] [--similar] [--trace]
                  [--threads <N=1>] [--shards <N=1>] [--stats[=json]]
  prague run      alias of `query`
  prague interactive --catalog <FILE.prgc> [--sigma <K=2>] [--beta <B=8>]
                  [--threads <N=1>] [--shards <N=1>] [--stats[=json]]
  prague serve    --catalog <FILE.prgc> [--addr <HOST:PORT=127.0.0.1:7474>]
                  [--sigma <K=2>] [--beta <B=8>] [--threads <N=1>]
                  [--shards <N=1>] [--max-sessions <N=1024>]
                  [--max-conns <N=1024>] [--idle-secs <S=300>]
                  [--stats[=json]]
  prague help

`serve` hosts the multi-session query service: one JSON frame per line
over TCP (frame reference in README.md § \"The query service\"). It runs
until stdin is closed, then shuts down cleanly (sessions closed,
connection threads joined); with `--stats` the observability snapshot —
including the `srv.*` service metrics — is printed on exit.

`--stats` prints the observability snapshot (span tree, counters,
histograms; see ARCHITECTURE.md § Performance model) after the query;
`--stats=json` emits it as a single machine-readable JSON object.

`--threads N` verifies candidates on N pool workers and starts
verification speculatively during formulation think time; `--threads 1`
(the default) starts no pool and verifies inline at Run. Results are
identical either way.

`--shards N` keeps the action-aware indexes as N index pairs, graphs
placed by consistent hash of the graph id (see ARCHITECTURE.md §
\"Index facade\"); `--shards 1` (the default) keeps one pair holding
everything. Query answers are byte-identical at every count.
";

/// Parsed `generate` options.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// `molecules` or `synthetic`.
    pub kind: String,
    /// Number of graphs.
    pub graphs: usize,
    /// Output `.lg` path.
    pub out: PathBuf,
    /// RNG seed.
    pub seed: u64,
    /// Label-alphabet size (synthetic only).
    pub labels: u16,
}

/// Parsed `build` options.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildArgs {
    /// Input `.lg` dataset.
    pub data: PathBuf,
    /// Output catalog path.
    pub out: PathBuf,
    /// Minimum support ratio α.
    pub alpha: f64,
    /// Mining size cap.
    pub max_edges: usize,
}

/// Parsed `stats` options.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsArgs {
    /// Catalog path.
    pub catalog: PathBuf,
}

/// How observability statistics should be reported (`--stats[=json]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsMode {
    /// No instrumentation (the default): zero recording overhead.
    #[default]
    Off,
    /// Human-readable span tree + counters after the command.
    Text,
    /// One machine-readable JSON object after the command.
    Json,
}

impl StatsMode {
    /// Whether any recording was requested.
    pub fn is_on(self) -> bool {
        self != StatsMode::Off
    }
}

/// Parsed `query` options.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryArgs {
    /// Catalog path.
    pub catalog: PathBuf,
    /// Query `.lg` file (first graph used).
    pub query: PathBuf,
    /// Distance threshold σ.
    pub sigma: usize,
    /// Fragment size threshold β for the rebuilt index.
    pub beta: usize,
    /// Force similarity mode even when exact matches exist.
    pub similar: bool,
    /// Print the per-step formulation trace.
    pub trace: bool,
    /// Verification worker threads (1 = sequential).
    pub threads: usize,
    /// Index shard count (default 1).
    pub shards: usize,
    /// Observability reporting mode.
    pub stats: StatsMode,
}

/// Parsed `interactive` options.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractiveArgs {
    /// Catalog path.
    pub catalog: PathBuf,
    /// Distance threshold σ.
    pub sigma: usize,
    /// Fragment size threshold β for the rebuilt index.
    pub beta: usize,
    /// Verification worker threads (1 = sequential).
    pub threads: usize,
    /// Index shard count (default 1).
    pub shards: usize,
    /// Observability reporting mode.
    pub stats: StatsMode,
}

/// Parsed `serve` options.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Catalog path.
    pub catalog: PathBuf,
    /// Listen address (`HOST:PORT`; port 0 binds an ephemeral port).
    pub addr: String,
    /// Default distance threshold σ for sessions that don't override it.
    pub sigma: usize,
    /// Fragment size threshold β for the rebuilt index.
    pub beta: usize,
    /// Verification worker threads shared by all sessions.
    pub threads: usize,
    /// Index shard count (default 1).
    pub shards: usize,
    /// Hard cap on concurrently live sessions.
    pub max_sessions: usize,
    /// Hard cap on concurrently served TCP connections.
    pub max_conns: usize,
    /// Idle seconds before a session is expired.
    pub idle_secs: u64,
    /// Observability reporting mode.
    pub stats: StatsMode,
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a dataset.
    Generate(GenerateArgs),
    /// Mine + save a catalog.
    Build(BuildArgs),
    /// Print catalog statistics.
    Stats(StatsArgs),
    /// Run a query.
    Query(QueryArgs),
    /// Formulate a query interactively on stdin.
    Interactive(InteractiveArgs),
    /// Host the multi-session TCP query service.
    Serve(ServeArgs),
    /// Print usage.
    Help,
}

/// Argument errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// No subcommand or an unknown one.
    UnknownCommand(String),
    /// A flag without its value, or an unknown flag.
    BadFlag(String),
    /// A value failed to parse.
    BadValue {
        /// The flag.
        flag: String,
        /// The offending value.
        value: String,
    },
    /// A required flag was not given.
    Missing(&'static str),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownCommand(c) => write!(f, "unknown command {c:?}\n{USAGE}"),
            ParseError::BadFlag(x) => write!(f, "unknown or incomplete flag {x:?}"),
            ParseError::BadValue { flag, value } => {
                write!(f, "bad value {value:?} for {flag}")
            }
            ParseError::Missing(flag) => write!(f, "missing required flag {flag}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Split `args` (without the program name) into flag/value pairs and lone
/// switches.
fn flags(args: &[String]) -> Result<Vec<(String, Option<String>)>, ParseError> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < args.len() {
        let a = &args[i];
        if !a.starts_with("--") {
            return Err(ParseError::BadFlag(a.clone()));
        }
        // `--flag=value` binds the value inline (the only way to give a
        // value to a flag that is also valid as a bare switch, e.g.
        // `--stats=json`).
        if let Some((flag, value)) = a.split_once('=') {
            out.push((flag.to_string(), Some(value.to_string())));
            i += 1;
            continue;
        }
        let is_switch = matches!(a.as_str(), "--similar" | "--trace" | "--stats");
        if is_switch {
            out.push((a.clone(), None));
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| ParseError::BadFlag(a.clone()))?;
            out.push((a.clone(), Some(value.clone())));
            i += 2;
        }
    }
    Ok(out)
}

fn get<'a>(pairs: &'a [(String, Option<String>)], flag: &str) -> Option<&'a str> {
    pairs
        .iter()
        .find(|(f, _)| f == flag)
        .and_then(|(_, v)| v.as_deref())
}

fn has(pairs: &[(String, Option<String>)], flag: &str) -> bool {
    pairs.iter().any(|(f, _)| f == flag)
}

fn parse_num<T: std::str::FromStr>(
    pairs: &[(String, Option<String>)],
    flag: &str,
    default: T,
) -> Result<T, ParseError> {
    match get(pairs, flag) {
        Some(v) => v.parse().map_err(|_| ParseError::BadValue {
            flag: flag.to_string(),
            value: v.to_string(),
        }),
        None => Ok(default),
    }
}

fn required(pairs: &[(String, Option<String>)], flag: &'static str) -> Result<PathBuf, ParseError> {
    get(pairs, flag)
        .map(PathBuf::from)
        .ok_or(ParseError::Missing(flag))
}

/// `--stats` → text, `--stats=json` → JSON, absent → off.
fn stats_mode(pairs: &[(String, Option<String>)]) -> Result<StatsMode, ParseError> {
    match pairs.iter().find(|(f, _)| f == "--stats") {
        None => Ok(StatsMode::Off),
        Some((_, None)) => Ok(StatsMode::Text),
        Some((_, Some(v))) if v == "text" => Ok(StatsMode::Text),
        Some((_, Some(v))) if v == "json" => Ok(StatsMode::Json),
        Some((_, Some(v))) => Err(ParseError::BadValue {
            flag: "--stats".to_string(),
            value: v.clone(),
        }),
    }
}

/// Parse a full argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => {
            let pairs = flags(rest)?;
            Ok(Command::Generate(GenerateArgs {
                kind: get(&pairs, "--kind").unwrap_or("molecules").to_string(),
                graphs: parse_num(&pairs, "--graphs", 1000usize)?,
                out: required(&pairs, "--out")?,
                seed: parse_num(&pairs, "--seed", 42u64)?,
                labels: parse_num(&pairs, "--labels", 20u16)?,
            }))
        }
        "build" => {
            let pairs = flags(rest)?;
            Ok(Command::Build(BuildArgs {
                data: required(&pairs, "--data")?,
                out: required(&pairs, "--out")?,
                alpha: parse_num(&pairs, "--alpha", 0.1f64)?,
                max_edges: parse_num(&pairs, "--max-edges", 10usize)?,
            }))
        }
        "stats" => {
            let pairs = flags(rest)?;
            Ok(Command::Stats(StatsArgs {
                catalog: required(&pairs, "--catalog")?,
            }))
        }
        // `run` mirrors the paper's Run GUI action; it is an exact alias
        // of `query` so `prague run --stats=json …` reads naturally.
        "query" | "run" => {
            let pairs = flags(rest)?;
            Ok(Command::Query(QueryArgs {
                catalog: required(&pairs, "--catalog")?,
                query: required(&pairs, "--query")?,
                sigma: parse_num(&pairs, "--sigma", 2usize)?,
                beta: parse_num(&pairs, "--beta", 8usize)?,
                similar: has(&pairs, "--similar"),
                trace: has(&pairs, "--trace"),
                threads: parse_num(&pairs, "--threads", 1)?.max(1),
                shards: parse_num(&pairs, "--shards", 1)?.max(1),
                stats: stats_mode(&pairs)?,
            }))
        }
        "interactive" => {
            let pairs = flags(rest)?;
            Ok(Command::Interactive(InteractiveArgs {
                catalog: required(&pairs, "--catalog")?,
                sigma: parse_num(&pairs, "--sigma", 2usize)?,
                beta: parse_num(&pairs, "--beta", 8usize)?,
                threads: parse_num(&pairs, "--threads", 1)?.max(1),
                shards: parse_num(&pairs, "--shards", 1)?.max(1),
                stats: stats_mode(&pairs)?,
            }))
        }
        "serve" => {
            let pairs = flags(rest)?;
            Ok(Command::Serve(ServeArgs {
                catalog: required(&pairs, "--catalog")?,
                addr: get(&pairs, "--addr")
                    .unwrap_or("127.0.0.1:7474")
                    .to_string(),
                sigma: parse_num(&pairs, "--sigma", 2usize)?,
                beta: parse_num(&pairs, "--beta", 8usize)?,
                threads: parse_num(&pairs, "--threads", 1)?.max(1),
                shards: parse_num(&pairs, "--shards", 1)?.max(1),
                max_sessions: parse_num(&pairs, "--max-sessions", 1024usize)?.max(1),
                max_conns: parse_num(&pairs, "--max-conns", 1024usize)?.max(1),
                idle_secs: parse_num(&pairs, "--idle-secs", 300u64)?.max(1),
                stats: stats_mode(&pairs)?,
            }))
        }
        other => Err(ParseError::UnknownCommand(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_generate() {
        let cmd = parse_args(&argv(
            "generate --kind synthetic --graphs 500 --out d.lg --seed 7 --labels 5",
        ))
        .unwrap();
        match cmd {
            Command::Generate(g) => {
                assert_eq!(g.kind, "synthetic");
                assert_eq!(g.graphs, 500);
                assert_eq!(g.seed, 7);
                assert_eq!(g.labels, 5);
                assert_eq!(g.out, PathBuf::from("d.lg"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn defaults_applied() {
        let cmd = parse_args(&argv("build --data d.lg --out c.prgc")).unwrap();
        match cmd {
            Command::Build(b) => {
                assert!((b.alpha - 0.1).abs() < 1e-12);
                assert_eq!(b.max_edges, 10);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn switches_without_values() {
        let cmd = parse_args(&argv(
            "query --catalog c.prgc --query q.lg --similar --trace --sigma 3",
        ))
        .unwrap();
        match cmd {
            Command::Query(q) => {
                assert!(q.similar);
                assert!(q.trace);
                assert_eq!(q.sigma, 3);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_serve() {
        let cmd = parse_args(&argv(
            "serve --catalog c.prgc --addr 0.0.0.0:7575 --sigma 3 --threads 4 \
             --max-sessions 64 --max-conns 16 --idle-secs 30 --stats=json",
        ))
        .unwrap();
        match cmd {
            Command::Serve(s) => {
                assert_eq!(s.catalog, PathBuf::from("c.prgc"));
                assert_eq!(s.addr, "0.0.0.0:7575");
                assert_eq!(s.sigma, 3);
                assert_eq!(s.threads, 4);
                assert_eq!(s.max_sessions, 64);
                assert_eq!(s.max_conns, 16);
                assert_eq!(s.idle_secs, 30);
                assert_eq!(s.stats, StatsMode::Json);
            }
            _ => panic!(),
        }
        match parse_args(&argv("serve --catalog c.prgc")).unwrap() {
            Command::Serve(s) => {
                assert_eq!(s.addr, "127.0.0.1:7474");
                assert_eq!(s.max_sessions, 1024);
                assert_eq!(s.max_conns, 1024);
                assert_eq!(s.idle_secs, 300);
                assert_eq!(s.stats, StatsMode::Off);
            }
            _ => panic!(),
        }
        assert!(matches!(
            parse_args(&argv("serve")),
            Err(ParseError::Missing("--catalog"))
        ));
    }

    #[test]
    fn stats_switch_and_inline_value() {
        let cmd = parse_args(&argv("query --catalog c.prgc --query q.lg --stats")).unwrap();
        match cmd {
            Command::Query(q) => assert_eq!(q.stats, StatsMode::Text),
            _ => panic!(),
        }
        let cmd = parse_args(&argv("run --catalog c.prgc --query q.lg --stats=json")).unwrap();
        match cmd {
            Command::Query(q) => assert_eq!(q.stats, StatsMode::Json),
            _ => panic!(),
        }
        let cmd = parse_args(&argv("interactive --catalog c.prgc")).unwrap();
        match cmd {
            Command::Interactive(i) => assert_eq!(i.stats, StatsMode::Off),
            _ => panic!(),
        }
        assert!(matches!(
            parse_args(&argv("query --catalog c --query q --stats=xml")),
            Err(ParseError::BadValue { .. })
        ));
    }

    #[test]
    fn inline_values_work_for_ordinary_flags() {
        let cmd = parse_args(&argv("query --catalog=c.prgc --query=q.lg --sigma=4")).unwrap();
        match cmd {
            Command::Query(q) => {
                assert_eq!(q.catalog, PathBuf::from("c.prgc"));
                assert_eq!(q.sigma, 4);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn threads_flag_parses_and_clamps() {
        let cmd = parse_args(&argv("query --catalog c.prgc --query q.lg --threads 4")).unwrap();
        match cmd {
            Command::Query(q) => assert_eq!(q.threads, 4),
            _ => panic!(),
        }
        // 0 is clamped to sequential rather than rejected.
        let cmd = parse_args(&argv("interactive --catalog c.prgc --threads 0")).unwrap();
        match cmd {
            Command::Interactive(i) => assert_eq!(i.threads, 1),
            _ => panic!(),
        }
    }

    #[test]
    fn shards_flag_parses_and_clamps() {
        let cmd = parse_args(&argv("query --catalog c.prgc --query q.lg --shards 4")).unwrap();
        match cmd {
            Command::Query(q) => assert_eq!(q.shards, 4),
            _ => panic!(),
        }
        // 0 is clamped to one shard rather than rejected.
        let cmd = parse_args(&argv("serve --catalog c.prgc --shards 0")).unwrap();
        match cmd {
            Command::Serve(s) => assert_eq!(s.shards, 1),
            _ => panic!(),
        }
        let cmd = parse_args(&argv("interactive --catalog c.prgc")).unwrap();
        match cmd {
            Command::Interactive(i) => assert_eq!(i.shards, 1),
            _ => panic!(),
        }
    }

    #[test]
    fn run_is_query_alias() {
        let a = parse_args(&argv("query --catalog c.prgc --query q.lg")).unwrap();
        let b = parse_args(&argv("run --catalog c.prgc --query q.lg")).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn missing_required_flag() {
        assert_eq!(
            parse_args(&argv("stats")),
            Err(ParseError::Missing("--catalog"))
        );
    }

    #[test]
    fn bad_value_reported() {
        assert!(matches!(
            parse_args(&argv("build --data d.lg --out c --alpha xyz")),
            Err(ParseError::BadValue { .. })
        ));
    }

    #[test]
    fn unknown_command() {
        assert!(matches!(
            parse_args(&argv("frobnicate")),
            Err(ParseError::UnknownCommand(_))
        ));
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv("help")).unwrap(), Command::Help);
    }
}
