//! `serve`: the eCFD constraint server.
//!
//! Starts a TCP server speaking the line protocol of
//! [`ecfd_serve::protocol`] over a demo instance (Fig. 1's `cust` relation
//! with the paper's φ1 / φ2 constraints), or over a CSV file with constraints
//! from a text file.
//!
//! ```text
//! cargo run --release -p ecfd_serve --bin serve -- --addr 127.0.0.1:7878
//! cargo run --release -p ecfd_serve --bin serve -- \
//!     --csv data.csv --table cust --constraints rules.ecfd
//! ```
//!
//! Talk to it with anything line-based:
//!
//! ```text
//! $ printf 'EPOCH\nDETECT\nAPPLY +519,7,Zoe,Pine%%20St.,Albany,12239\nSYNC\nDETECT\nQUIT\n' | nc 127.0.0.1 7878
//! ```

use ecfd_serve::{Client, Follower, ServeConfig, Server, ShardedConfig};
use ecfd_session::Session;
use std::path::Path;
use std::time::Duration;

struct Args {
    addr: String,
    queue: usize,
    batch: usize,
    csv: Option<String>,
    table: String,
    constraints: Option<String>,
    wal_dir: Option<String>,
    recover: bool,
    follow: Option<String>,
    shards: usize,
    shard_key: Option<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            addr: "127.0.0.1:7878".to_string(),
            queue: 64,
            batch: 32,
            csv: None,
            table: "cust".to_string(),
            constraints: None,
            wal_dir: None,
            recover: false,
            follow: None,
            shards: 1,
            shard_key: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
            match flag.as_str() {
                "--addr" => args.addr = value("--addr")?,
                "--queue" => args.queue = parse_num(&value("--queue")?)?,
                "--batch" => args.batch = parse_num(&value("--batch")?)?,
                "--csv" => args.csv = Some(value("--csv")?),
                "--table" => args.table = value("--table")?,
                "--constraints" => args.constraints = Some(value("--constraints")?),
                "--wal-dir" => args.wal_dir = Some(value("--wal-dir")?),
                "--recover" => args.recover = true,
                "--follow" => args.follow = Some(value("--follow")?),
                "--shards" => args.shards = parse_num(&value("--shards")?)?,
                "--shard-key" => args.shard_key = Some(value("--shard-key")?),
                "--help" | "-h" => {
                    println!(
                        "usage: serve [--addr HOST:PORT] [--queue N] [--batch N]\n\
                         \x20            [--csv PATH --table NAME [--constraints PATH]]\n\
                         \x20            [--wal-dir DIR [--recover]] [--follow HOST:PORT]\n\
                         \x20            [--shards N --shard-key ATTR]\n\
                         Without --csv, serves the paper's demo instance (Fig. 1 + φ1/φ2).\n\
                         --wal-dir makes writes durable; --recover replays an existing log;\n\
                         --follow replicates a durable one-shard leader into this server;\n\
                         --shards (default 1) partitions rows by the hashed --shard-key value\n\
                         into N independent writers behind a cross-shard merge layer; one\n\
                         shard needs no key."
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.recover && args.wal_dir.is_none() {
            return Err("--recover needs --wal-dir".to_string());
        }
        if args.shards == 0 {
            return Err("--shards must be at least 1".to_string());
        }
        if args.shards > 1 && args.shard_key.is_none() {
            return Err("--shards above 1 needs --shard-key ATTR".to_string());
        }
        if args.shards > 1 && args.follow.is_some() {
            return Err("--follow cannot combine with --shards above 1 (REPLAY \
                        streams one shard's log)"
                .to_string());
        }
        Ok(args)
    }
}

fn parse_num(text: &str) -> Result<usize, String> {
    text.trim()
        .parse::<usize>()
        .map_err(|_| format!("`{text}` is not a number"))
}

/// Fig. 1's `cust` instance and the two constraints of Fig. 2, in the textual
/// syntax (`docs/ecfd-syntax.md`).
fn demo_session() -> Session {
    use ecfd_relation::{DataType, Relation, Schema, Tuple};
    let schema = Schema::builder("cust")
        .attr("AC", DataType::Str)
        .attr("PN", DataType::Str)
        .attr("NM", DataType::Str)
        .attr("STR", DataType::Str)
        .attr("CT", DataType::Str)
        .attr("ZIP", DataType::Str)
        .build();
    let data = Relation::with_tuples(
        schema,
        [
            Tuple::from_iter(["718", "1111111", "Mike", "Tree Ave.", "Albany", "12238"]),
            Tuple::from_iter(["518", "2222222", "Joe", "Elm Str.", "Colonie", "12205"]),
            Tuple::from_iter(["518", "2222222", "Jim", "Oak Ave.", "Troy", "12181"]),
            Tuple::from_iter(["100", "1111111", "Rick", "8th Ave.", "NYC", "10001"]),
            Tuple::from_iter(["212", "3333333", "Ben", "5th Ave.", "NYC", "10016"]),
            Tuple::from_iter(["646", "4444444", "Ian", "High St.", "NYC", "10011"]),
        ],
    )
    .expect("demo data fits the demo schema");
    let mut session = Session::new();
    session.load(data).expect("demo data loads");
    session
        .register_text(
            "cust: [CT] -> [AC] | [], { !{NYC, LI} || _ ; {Albany, Troy, Colonie} || {518} }\n\
             cust: [CT] -> []   | [AC], { {NYC} || {212, 718, 646, 347, 917} }",
        )
        .expect("demo constraints compile");
    session
}

fn csv_session(csv: &str, table: &str, constraints: Option<&str>) -> Result<Session, String> {
    let text = std::fs::read_to_string(csv).map_err(|e| format!("reading {csv}: {e}"))?;
    let relation = ecfd_relation::csv::from_csv_infer(table, &text)
        .map_err(|e| format!("parsing {csv}: {e}"))?;
    let mut session = Session::new();
    session
        .load(relation)
        .map_err(|e| format!("loading {csv}: {e}"))?;
    let rules = match constraints {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
        None => return Err("--csv needs --constraints (a file of textual eCFDs)".to_string()),
    };
    session
        .register_text(&rules)
        .map_err(|e| format!("registering constraints: {e}"))?;
    Ok(session)
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("serve: {msg}");
            std::process::exit(2);
        }
    };
    let session = match &args.csv {
        Some(csv) => match csv_session(csv, &args.table, args.constraints.as_deref()) {
            Ok(session) => session,
            Err(msg) => {
                eprintln!("serve: {msg}");
                std::process::exit(2);
            }
        },
        None => demo_session(),
    };

    // One shard routes every tuple to shard 0, so a key given with it is
    // never resolved.
    let shard_key = args.shard_key.as_deref().filter(|_| args.shards > 1);
    let config = ServeConfig {
        addr: args.addr.clone(),
        sharding: ShardedConfig {
            queue_capacity: args.queue,
            batch_max: args.batch,
            ..ShardedConfig::new(args.shards, shard_key.unwrap_or_default())
        },
        ..ServeConfig::default()
    };
    let sync_timeout = config.sync_timeout;

    let server = match &args.wal_dir {
        Some(dir) => {
            let dir = Path::new(dir);
            if let Some(refusal) = wal_refusal(dir, args.shards, args.recover) {
                eprintln!("serve: {refusal}");
                std::process::exit(2);
            }
            match Server::bind_durable(session, config, dir) {
                Ok((server, recoveries)) => {
                    for (s, recovery) in recoveries.iter().enumerate() {
                        println!(
                            "shard {s}: recovered {} delta(s) to ticket {} ({} checkpoint(s) \
                             verified, {} apply error(s), {} torn byte(s) dropped)",
                            recovery.deltas_applied,
                            recovery.last_ticket,
                            recovery.checkpoints_verified,
                            recovery.apply_errors,
                            recovery.truncated_bytes,
                        );
                    }
                    server
                }
                Err(e) => {
                    eprintln!("serve: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => match Server::bind(session, config) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("serve: {e}");
                std::process::exit(1);
            }
        },
    };
    let addr = server.local_addr().expect("bound listener has an address");
    match shard_key {
        Some(key) => println!("serving on {addr} ({} shard(s) by {key})", args.shards),
        None => println!("serving on {addr}"),
    }
    println!("protocol: PING | EPOCH | DETECT [FRESH] | CHECK | EXPLAIN [PLAN] | APPLY +f,… -f,… | SYNC | REPLAY c [n] | REPAIR-PLAN | STATS [prefix] | INFO | QUIT");

    if let Some(leader) = args.follow.clone() {
        let hub = server.handle().hub().clone();
        std::thread::spawn(move || {
            let client = match Client::connect(&leader) {
                Ok(client) => client,
                Err(e) => {
                    eprintln!("serve: connecting to leader {leader}: {e}");
                    return;
                }
            };
            println!("following {leader}");
            let mut follower =
                Follower::new(client, hub).expect("--follow is refused above one shard");
            loop {
                match follower.catch_up(sync_timeout) {
                    Ok(progress) => {
                        if progress.records > 0 {
                            println!(
                                "replayed {} record(s) from {leader}; epoch {}",
                                progress.records, progress.epoch
                            );
                        }
                    }
                    Err(e) => {
                        eprintln!("serve: replication from {leader} stopped: {e}");
                        return;
                    }
                }
                std::thread::sleep(Duration::from_millis(200));
            }
        });
    }

    match server.run() {
        Ok(_sessions) => {
            println!("shut down cleanly; final metrics:");
            print!("{}", ecfd_obs::registry().render());
        }
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
    }
}

/// Why `dir` must not be served as it stands, if so. Serving over ACKed
/// deltas without replaying them would break the durability contract, so a
/// log with records needs `--recover` — and a log from before the per-shard
/// layout, which no shard would ever open, is refused either way.
fn wal_refusal(dir: &Path, shards: usize, recover: bool) -> Option<String> {
    let at = dir.display();
    if wal_has_records(dir) {
        return Some(format!(
            "{at} holds a WAL written before the per-shard layout; move it into place with \
             `mkdir {at}/shard-0 && mv {at}/{} {at}/shard-0/`, then pass --recover",
            ecfd_wal::WAL_FILE_NAME
        ));
    }
    let logged = (0..shards).any(|s| wal_has_records(&dir.join(format!("shard-{s}"))));
    (logged && !recover).then(|| {
        format!(
            "{at} already holds shard WALs with records; pass --recover to replay them \
             (or point --wal-dir at an empty directory)"
        )
    })
}

/// True when `dir` already holds a WAL file with at least one record (a
/// bare magic header counts as empty, as does a missing file).
fn wal_has_records(dir: &Path) -> bool {
    let path = dir.join(ecfd_wal::WAL_FILE_NAME);
    match ecfd_wal::read_records(&path) {
        Ok(records) => !records.is_empty(),
        Err(_) => false,
    }
}
