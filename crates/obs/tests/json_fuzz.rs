//! Seeded fuzz of `Json::parse` over real payloads: bit flips, truncations
//! and splices of `muse serve` WAL records and `question_json` payloads.
//! The parser must never panic, must answer bad input with a structured
//! `JsonError` (a message and an offset inside the input), and whatever it
//! accepts must round-trip: `parse(render(v)) == v` whenever every number
//! in `v` is finite (`render` writes non-finite floats as `null`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use muse_obs::{Json, Rng};

/// Golden wire transcripts of `muse serve`: every `question_json` payload
/// of a Mondial and a TPC-H session, with the create and answer bodies.
const WIRE: [&str; 2] = [
    include_str!("../../serve/tests/golden/wire_mondial.json"),
    include_str!("../../serve/tests/golden/wire_tpch.json"),
];

/// The corpus: each question payload, and the WAL records the server
/// writes for the sessions (`create`, `answer`, and `snapshot` records
/// carrying a question payload), each rendered compactly as the log
/// stores it.
fn corpus() -> Vec<String> {
    let mut docs = Vec::new();
    for (w, text) in WIRE.iter().enumerate() {
        let wire = Json::parse(text).expect("golden transcript parses");
        let session = Json::Int(w as i64 + 1);
        docs.push(
            Json::obj(vec![
                ("rec", Json::str("create")),
                ("session", session.clone()),
                ("cfg", wire.get("create_request").unwrap().clone()),
            ])
            .render(),
        );
        let mut questions = vec![wire
            .get("create_response")
            .and_then(|r| r.get("question"))
            .unwrap()
            .clone()];
        for (i, ex) in wire
            .get("exchanges")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .enumerate()
        {
            docs.push(
                Json::obj(vec![
                    ("rec", Json::str("answer")),
                    ("session", session.clone()),
                    ("answer", ex.get("request").unwrap().clone()),
                ])
                .render(),
            );
            if let Some(q) = ex.get("response").and_then(|r| r.get("question")) {
                questions.push(q.clone());
                docs.push(
                    Json::obj(vec![
                        ("rec", Json::str("snapshot")),
                        ("session", session.clone()),
                        ("answers", Json::Int(i as i64 + 1)),
                        ("state", Json::str("open")),
                        ("payload", q.clone()),
                    ])
                    .render(),
                );
            }
        }
        docs.extend(questions.iter().map(Json::render));
    }
    docs
}

fn finite(v: &Json) -> bool {
    match v {
        Json::Num(f) => f.is_finite(),
        Json::Arr(items) => items.iter().all(finite),
        Json::Obj(fields) => fields.iter().all(|(_, v)| finite(v)),
        _ => true,
    }
}

/// Parse `input` and check the contract. Returns whether it parsed.
fn check(input: &str, what: &str) -> bool {
    let parsed = catch_unwind(AssertUnwindSafe(|| Json::parse(input)))
        .unwrap_or_else(|_| panic!("{what}: parse panicked on {:?}", head(input)));
    match parsed {
        Ok(v) => {
            if finite(&v) {
                assert_eq!(Json::parse(&v.render()).as_ref(), Ok(&v), "{what}: render");
                assert_eq!(
                    Json::parse(&v.render_pretty()).as_ref(),
                    Ok(&v),
                    "{what}: render_pretty"
                );
            }
            true
        }
        Err(e) => {
            assert!(
                e.at <= input.len(),
                "{what}: offset {} past the input",
                e.at
            );
            assert!(!e.message.is_empty(), "{what}: empty message");
            assert!(e.to_string().contains(&e.message));
            false
        }
    }
}

fn head(s: &str) -> String {
    s.chars().take(120).collect()
}

/// Bytes back to text: the parser takes `&str`, so invalid sequences a
/// mutation made become U+FFFD, which is itself a mutation.
fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn corpus_round_trips_and_every_prefix_is_rejected() {
    let docs = corpus();
    assert!(docs.len() > 30, "corpus of {} documents", docs.len());
    for doc in &docs {
        assert!(check(doc, "original"));
    }
    // Every strict prefix of a compact object is incomplete. Exhaustive on
    // the smaller records, sampled on the rest.
    let mut rng = Rng::new(7);
    for (d, doc) in docs.iter().enumerate() {
        let cuts: Vec<usize> = if doc.len() <= 400 {
            (0..doc.len()).collect()
        } else {
            (0..64).map(|_| rng.index(doc.len())).collect()
        };
        for cut in cuts {
            let prefix = text(&doc.as_bytes()[..cut]);
            assert!(
                !check(&prefix, &format!("doc {d} cut at {cut}")),
                "doc {d}: prefix of {cut} bytes parsed"
            );
        }
    }
}

#[test]
fn seeded_bit_flips_never_panic() {
    let docs = corpus();
    let mut parsed = 0;
    for seed in 0..1500u64 {
        let mut rng = Rng::new(seed);
        let mut bytes = rng.pick(&docs).as_bytes().to_vec();
        for _ in 0..1 + rng.index(3) {
            let at = rng.index(bytes.len());
            bytes[at] ^= 1 << rng.index(8);
        }
        if check(&text(&bytes), &format!("flip seed {seed}")) {
            parsed += 1;
        }
    }
    // Most single flips land inside string contents and stay valid; the
    // rest must have been rejected, not waved through.
    assert!(
        parsed > 0 && parsed < 1500,
        "{parsed} of 1500 flipped documents parsed"
    );
}

#[test]
fn seeded_splices_and_truncations_never_panic() {
    let docs = corpus();
    for seed in 0..1500u64 {
        let mut rng = Rng::new(1 << 32 | seed);
        let a = rng.pick(&docs).as_bytes();
        let b = rng.pick(&docs).as_bytes();
        // Replace a range of `a` with a range of `b`.
        let (a0, a1) = sorted(rng.index(a.len() + 1), rng.index(a.len() + 1));
        let (b0, b1) = sorted(rng.index(b.len() + 1), rng.index(b.len() + 1));
        let mut spliced = a[..a0].to_vec();
        spliced.extend_from_slice(&b[b0..b1]);
        spliced.extend_from_slice(&a[a1..]);
        check(&text(&spliced), &format!("splice seed {seed}"));
        // And cut the splice short.
        let cut = rng.index(spliced.len() + 1);
        check(
            &text(&spliced[..cut]),
            &format!("truncated splice seed {seed}"),
        );
    }
}

fn sorted(x: usize, y: usize) -> (usize, usize) {
    (x.min(y), x.max(y))
}
