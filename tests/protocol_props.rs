//! Property tests of the line protocol's parsers: hostile lines are refused
//! or accepted without a panic, and every well-formed request and response
//! survives `parse(render(x)) == x`.
//!
//! Two values have no round trip and the generators leave them out: an
//! `APPLY` with no ops renders as the bare `APPLY`, which the parser refuses,
//! and a tuple op with no fields renders as `+` (or `-`), which parses as one
//! empty field.

use ecfd::serve::protocol::{MvLine, ReplayRecord, Request, Response, TupleOp};
use proptest::prelude::*;

/// Letters, digits, the space, every reserved separator and one multibyte
/// character.
const ALPHABET: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 %,:;|@+-é";

/// Words the parsers branch on, so hostile lines reach past the verb.
const KEYWORDS: &str = "PING EPOCH DETECT FRESH CHECK EXPLAIN PLAN APPLY SYNC REPAIR-PLAN \
    REPLAY STATS INFO QUIT PONG REPORT CHECKED EVIDENCE ACK SYNCED REPLAYED METRICS PLANTEXT BYE \
    ERR ROWS SV MV QUEUED ERRORS TOTAL CONSISTENT TICKET DELETIONS MODIFICATIONS COST RECORDS \
    NEXT LINES VERSION ACCEPTED APPLIED WAL FOLLOWER";

fn arb_text(alphabet: &'static str, len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    let chars: Vec<char> = alphabet.chars().collect();
    proptest::collection::vec(0..chars.len(), len)
        .prop_map(move |picks| picks.into_iter().map(|i| chars[i]).collect())
}

/// A payload string: anything over the alphabet, the empty string included.
fn arb_field() -> impl Strategy<Value = String> {
    arb_text(ALPHABET, 0..8)
}

/// One token of a hostile line: a keyword, a small number, `-`, `true`, or
/// noise over the alphabet.
fn arb_token() -> impl Strategy<Value = String> {
    prop_oneof![
        {
            let keywords: Vec<&str> = KEYWORDS.split_whitespace().collect();
            (0..keywords.len()).prop_map(move |i| keywords[i].to_string())
        },
        (0..40u64).prop_map(|n| n.to_string()),
        Just("-".to_string()),
        Just("true".to_string()),
        arb_text(ALPHABET, 0..10),
    ]
}

fn arb_line() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::collection::vec(arb_token(), 0..10).prop_map(|tokens| tokens.join(" ")),
        arb_text(ALPHABET, 0..40),
    ]
}

fn arb_op() -> impl Strategy<Value = TupleOp> {
    (any::<bool>(), proptest::collection::vec(arb_field(), 1..4))
        .prop_map(|(insert, values)| TupleOp { insert, values })
}

fn arb_ops(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<TupleOp>> {
    proptest::collection::vec(arb_op(), len)
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Epoch),
        any::<bool>().prop_map(|fresh| Request::Detect { fresh }),
        Just(Request::Check),
        Just(Request::Explain),
        Just(Request::ExplainPlan),
        arb_ops(1..4).prop_map(|ops| Request::Apply { ops }),
        Just(Request::Sync),
        Just(Request::RepairPlan),
        (any::<u64>(), any::<usize>()).prop_map(|(cursor, max)| Request::Replay { cursor, max }),
        proptest::option::of(arb_field()).prop_map(|prefix| Request::Stats { prefix }),
        Just(Request::Info),
        Just(Request::Quit),
    ]
}

fn arb_mv_line() -> impl Strategy<Value = MvLine> {
    (
        any::<usize>(),
        any::<usize>(),
        proptest::collection::vec(arb_field(), 0..3),
        proptest::collection::vec(any::<u64>(), 0..4),
    )
        .prop_map(|(constraint, pattern, key, rows)| MvLine {
            constraint,
            pattern,
            key,
            rows,
        })
}

fn arb_record() -> impl Strategy<Value = ReplayRecord> {
    prop_oneof![
        (any::<u64>(), arb_ops(0..3)).prop_map(|(ticket, ops)| ReplayRecord::Delta { ticket, ops }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(epoch, last_ticket, report_hash)| {
            ReplayRecord::Checkpoint {
                epoch,
                last_ticket,
                report_hash,
            }
        }),
    ]
}

/// Multi-line text, as `METRICS` and `PLANTEXT` carry.
fn arb_lines() -> impl Strategy<Value = String> {
    arb_text("ab9 %,|@-é\n", 0..30)
}

fn arb_response() -> impl Strategy<Value = Response> {
    let ids = || proptest::collection::vec(any::<u64>(), 0..4);
    prop_oneof![
        Just(Response::Pong),
        (
            any::<u64>(),
            any::<usize>(),
            any::<usize>(),
            any::<usize>(),
            any::<usize>(),
            any::<u64>(),
        )
            .prop_map(|(epoch, rows, sv, mv, queued, errors)| Response::Epoch {
                epoch,
                rows,
                sv,
                mv,
                queued,
                errors,
            }),
        (any::<u64>(), any::<usize>(), ids(), ids()).prop_map(|(epoch, total, sv, mv)| {
            Response::Report {
                epoch,
                total,
                sv,
                mv,
            }
        }),
        (
            any::<u64>(),
            any::<usize>(),
            any::<usize>(),
            any::<usize>(),
            any::<bool>(),
        )
            .prop_map(|(epoch, total, sv, mv, consistent)| Response::Checked {
                epoch,
                total,
                sv,
                mv,
                consistent,
            }),
        (
            any::<u64>(),
            any::<usize>(),
            proptest::collection::vec((any::<u64>(), any::<usize>(), any::<usize>()), 0..4),
            proptest::collection::vec(arb_mv_line(), 0..3),
        )
            .prop_map(|(epoch, total, sv, mv)| Response::Evidence {
                epoch,
                total,
                sv,
                mv,
            }),
        (any::<u64>(), any::<u64>()).prop_map(|(ticket, epoch)| Response::Ack { ticket, epoch }),
        any::<u64>().prop_map(|epoch| Response::Synced { epoch }),
        (
            any::<u64>(),
            any::<usize>(),
            any::<usize>(),
            0..1_000_000u64,
        )
            .prop_map(
                |(epoch, deletions, modifications, eighths)| Response::Plan {
                    epoch,
                    deletions,
                    modifications,
                    cost: eighths as f64 / 8.0,
                }
            ),
        (proptest::collection::vec(arb_record(), 0..3), any::<u64>())
            .prop_map(|(records, next)| Response::Replayed { records, next }),
        arb_lines().prop_map(|text| Response::Metrics { text }),
        arb_lines().prop_map(|text| Response::PlanText { text }),
        (
            arb_field(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            arb_field(),
            any::<bool>(),
        )
            .prop_map(|(version, epoch, accepted, applied, wal, follower)| {
                Response::Info {
                    version,
                    epoch,
                    accepted,
                    applied,
                    wal,
                    follower,
                }
            }),
        Just(Response::Bye),
        arb_field().prop_map(|message| Response::Err { message }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Any line over the alphabet is answered with `Ok` or `Err`: neither
    /// parser panics.
    #[test]
    fn hostile_lines_never_panic(line in arb_line()) {
        let _ = Request::parse(&line);
        let _ = Response::parse(&line);
    }

    #[test]
    fn requests_round_trip_through_render(request in arb_request()) {
        let line = request.render();
        prop_assert_eq!(Request::parse(&line), Ok(request), "line `{}`", line);
    }

    #[test]
    fn responses_round_trip_through_render(response in arb_response()) {
        let line = response.render();
        prop_assert_eq!(Response::parse(&line), Ok(response), "line `{}`", line);
    }
}
