//! Serving quickstart: one server, one delta-streaming client, two readers.
//!
//! Starts the snapshot-isolated serving layer on an ephemeral port over the
//! paper's Fig. 1 `cust` instance with φ1/φ2 registered, then:
//!
//! 1. a *writer client* streams insert/delete deltas through `APPLY` and
//!    barriers on `SYNC`;
//! 2. two *reader clients* query `DETECT` / `CHECK` / `EXPLAIN` while the
//!    deltas land, verifying that every answer is internally consistent for
//!    its epoch.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use ecfd::prelude::*;
use ecfd::serve::protocol::TupleOp;
use ecfd::serve::{Client, ServeConfig, Server};

fn cust_session() -> Session {
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
    .expect("demo rows fit the schema");
    let mut session = Session::new();
    session.load(data).expect("load");
    session
        .register_text(
            "cust: [CT] -> [AC] | [], { !{NYC, LI} || _ ; {Albany, Troy, Colonie} || {518} }\n\
             cust: [CT] -> []   | [AC], { {NYC} || {212, 718, 646, 347, 917} }",
        )
        .expect("φ1/φ2 compile");
    session
}

fn main() {
    // ── start the server on an ephemeral port ────────────────────────────
    let server = Server::bind(cust_session(), ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    println!("server listening on {addr}");

    let server_thread = std::thread::spawn(move || server.run().expect("server runs clean"));

    // ── reader clients watch while a writer client streams deltas ────────
    std::thread::scope(|scope| {
        // Two readers: every CHECK re-detects from scratch on the snapshot
        // it observed and compares with the published report.
        for reader_id in 0..2 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("reader connects");
                for _ in 0..20 {
                    let (epoch, consistent) = client.check().expect("CHECK");
                    assert!(consistent, "epoch {epoch} served an inconsistent report");
                }
                let (epoch, _) = client.check().expect("CHECK");
                println!(
                    "reader {reader_id}: 21 consistent detect round-trips (last epoch {epoch})"
                );
                client.quit().expect("QUIT");
            });
        }

        // The writer client: a second Albany row with a conflicting area
        // code (creates an MV pair), then deletes it again.
        scope.spawn(move || {
            let mut client = Client::connect(addr).expect("writer connects");
            let zoe = ["519", "7", "Zoe", "Pine St.", "Albany", "12239"];
            client
                .apply(vec![TupleOp::insert(zoe)])
                .expect("APPLY insert");
            let epoch = client.sync().expect("SYNC");
            let report = client.detect(false).expect("DETECT");
            println!("writer: after insert (epoch {epoch}) → {report:?}");

            client
                .apply(vec![TupleOp::delete(zoe)])
                .expect("APPLY delete");
            let epoch = client.sync().expect("SYNC");
            let report = client.detect(false).expect("DETECT");
            println!("writer: after delete (epoch {epoch}) → {report:?}");
            client.quit().expect("QUIT");
        });
    });

    // ── final picture: evidence + repair plan over the served snapshot ───
    let mut client = Client::connect(addr).expect("final client");
    println!("epoch:    {:?}", client.epoch().expect("EPOCH"));
    println!("evidence: {:?}", client.explain().expect("EXPLAIN"));
    println!("plan:     {:?}", client.repair_plan().expect("REPAIR-PLAN"));
    client.quit().expect("QUIT");

    handle.shutdown();
    let sessions = server_thread.join().expect("server thread");
    println!(
        "server returned its one shard's session at version {} — shut down cleanly",
        sessions[0].version()
    );
}
