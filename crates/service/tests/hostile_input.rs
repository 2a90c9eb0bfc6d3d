//! Nothing a client sends and no bytes on disk may panic the server: the
//! request parser ([`json::parse`]) and the durable decoders
//! ([`frame::decode_frame`], [`frame::decode_wal_record`],
//! [`frame::decode_instance`]) return errors on hostile input, never
//! unwind. Each of those properties feeds arbitrary input and only
//! requires that the call returns.
//!
//! The last property sends well-formed request lines whose values sit at
//! the edges of their ranges through the whole server ([`handle_line`]):
//! each reply must be a structured error or a usable answer.

use proptest::prelude::*;
use std::sync::Arc;
use wgrap_core::prelude::{Instance, Scoring};
use wgrap_core::topic::TopicVector;
use wgrap_service::durable::frame::{self, Dec, Enc};
use wgrap_service::json::{self, Json, MAX_DEPTH};
use wgrap_service::server::handle_line;
use wgrap_service::{Frontend, Service, Update};

/// JSON-flavoured fragments: structure, escapes (including broken
/// surrogates), number edge cases, multi-byte characters and controls.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "\\udc00",
    "\\u12",
    "\\x",
    "\\n",
    "null",
    "nul",
    "true",
    "fals",
    "-",
    "0",
    "1e309",
    "-0.0e-5",
    ".",
    "e",
    "+",
    " ",
    "\n",
    "\t",
    "\u{1}",
    "é",
    "€",
    "\u{10FFFF}",
    "a",
    "\"op\"",
    "9007199254740993",
];

/// Arbitrary text: token soup, optionally wrapped in `MAX_DEPTH ± 2`
/// levels of nesting, or raw bytes decoded lossily.
fn hostile_text() -> impl Strategy<Value = String> {
    (
        0usize..3,
        proptest::collection::vec(0usize..TOKENS.len(), 0..40),
        0usize..5,
        proptest::collection::vec(0u32..256, 0..64),
    )
        .prop_map(|(kind, tokens, depth, bytes)| {
            let soup: String = tokens.iter().map(|&i| TOKENS[i]).collect();
            match kind {
                0 => soup,
                1 => {
                    let levels = MAX_DEPTH - 2 + depth;
                    let open: String =
                        (0..levels).map(|i| if i % 3 == 2 { "{\"k\":" } else { "[" }).collect();
                    let close: String =
                        (0..levels).rev().map(|i| if i % 3 == 2 { "}" } else { "]" }).collect();
                    format!("{open}{soup}{close}")
                }
                _ => {
                    let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
                    String::from_utf8_lossy(&raw).into_owned()
                }
            }
        })
}

fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u32..256, len).prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

fn topics(dim: usize) -> impl Strategy<Value = TopicVector> {
    proptest::collection::vec(0.0..1.0f64, dim).prop_map(TopicVector::new)
}

/// A valid WAL record payload over a few updates of every kind.
fn wal_record() -> impl Strategy<Value = Vec<u8>> {
    (any::<u64>(), proptest::collection::vec((0usize..4, topics(3), 0u32..10, any::<bool>()), 0..4))
        .prop_map(|(epoch, specs)| {
            let updates: Vec<Update> = specs
                .into_iter()
                .map(|(kind, v, id, named)| {
                    let name = named.then(|| format!("n{id}"));
                    match kind {
                        0 => Update::AddPaper { name, topics: v, coi: vec![id] },
                        1 => Update::AddReviewer { name, expertise: v },
                        2 => Update::RetireReviewer { reviewer: id },
                        _ => Update::PatchScores { reviewer: id, expertise: v },
                    }
                })
                .collect();
            frame::encode_wal_record(epoch, &updates)
        })
}

/// A valid checkpoint body: a small named instance with a COI.
fn instance_body() -> impl Strategy<Value = Vec<u8>> {
    (proptest::collection::vec(topics(3), 1..3), proptest::collection::vec(topics(3), 2..4))
        .prop_map(|(papers, reviewers)| {
            let (np, nr) = (papers.len(), reviewers.len());
            let mut inst = Instance::new(papers, reviewers, 1, np).expect("valid").with_names(
                (0..np).map(|p| format!("p{p}")).collect(),
                (0..nr).map(|r| format!("r{r}")).collect(),
            );
            inst.add_coi(0, 0);
            let mut e = Enc::new();
            frame::encode_instance(&mut e, &inst);
            e.into_bytes()
        })
}

/// Flip one byte of `buf` (if any) by a non-zero mask.
fn mutate(mut buf: Vec<u8>, at: usize, mask: u32) -> Vec<u8> {
    if !buf.is_empty() {
        let i = at % buf.len();
        buf[i] ^= (mask % 255 + 1) as u8;
    }
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_parse_never_panics(text in hostile_text()) {
        let _ = json::parse(&text);
    }

    /// Arbitrary bytes at any offset, including offsets past the end and
    /// near `usize::MAX`.
    #[test]
    fn frame_decoders_never_panic_on_arbitrary_bytes(
        buf in bytes(0..96),
        offset in 0usize..100,
        far in any::<bool>(),
    ) {
        let offset = if far { usize::MAX - offset } else { offset };
        if let Some((payload, next)) = frame::decode_frame(&buf, offset) {
            prop_assert!(next <= buf.len());
            let _ = frame::decode_wal_record(payload);
        }
        let _ = frame::decode_wal_record(&buf);
        let _ = frame::decode_instance(&mut Dec::new(&buf));
    }

    /// Valid frames and payloads with one byte changed: the frame check
    /// rejects or passes them, and the payload decoders see them either way.
    #[test]
    fn frame_decoders_never_panic_on_one_byte_mutations(
        record in wal_record(),
        body in instance_body(),
        at in any::<usize>(),
        mask in 0u32..256,
    ) {
        let framed = frame::encode_frame(&record);
        prop_assert!(frame::decode_frame(&framed, 0).is_some());
        prop_assert!(frame::decode_wal_record(&record).is_ok());
        let mutated = mutate(framed, at, mask);
        if let Some((payload, _)) = frame::decode_frame(&mutated, 0) {
            let _ = frame::decode_wal_record(payload);
        }
        let _ = frame::decode_wal_record(&mutate(record, at, mask));
        let _ = frame::decode_instance(&mut Dec::new(&mutate(body, at, mask)));
    }
}

/// Topics of the instances the hostile-values property serves.
const T: usize = 3;

/// The reviewer count the property's instances never exceed: BBA's work
/// grows exponentially as `delta_p` approaches `R`.
const MAX_R: usize = 12;

/// Topic weights at the edges of `f64`: both zeros, the smallest
/// subnormal, a tiny normal, a plain value and a near-overflow one.
const EDGE_WEIGHTS: [f64; 6] = [0.0, -0.0, 5e-324, 1e-300, 0.5, 1e308];

/// A tiny instance: 1–3 papers and 3–8 reviewers over [`T`] topics,
/// `delta_p` 1–3.
fn tiny_instance() -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec(topics(T), 1..4),
        proptest::collection::vec(topics(T), 3..9),
        1usize..4,
    )
        .prop_map(|(papers, reviewers, delta_p)| {
            let delta_r = Instance::minimal_delta_r(papers.len(), reviewers.len(), delta_p) + 2;
            Instance::new(papers, reviewers, delta_p, delta_r).expect("valid")
        })
}

/// One request line's draws: its kind, four indexes into
/// [`Shape::edge`], one index into [`EDGE_WEIGHTS`] per topic, and bits
/// that pick the optional members.
type LineDraw = (usize, Vec<usize>, Vec<usize>, u32);

fn line_draw() -> impl Strategy<Value = LineDraw> {
    (
        0usize..8,
        proptest::collection::vec(0usize..8, 4),
        proptest::collection::vec(0usize..EDGE_WEIGHTS.len(), T),
        any::<u32>(),
    )
}

/// The served instance's `delta_p` and current reviewer count.
struct Shape {
    delta_p: usize,
    reviewers: usize,
}

impl Shape {
    /// The `i`-th of {0, 1, δp, R−1, R, R+1, 2³¹, u32::MAX}.
    fn edge(&self, i: usize) -> Json {
        let r = self.reviewers;
        let edges = [0, 1, self.delta_p, r - 1, r, r + 1, 1 << 31, u32::MAX as usize];
        Json::Num(edges[i] as f64)
    }
}

fn weights(draws: &[usize]) -> Json {
    Json::nums(draws.iter().map(|&i| EDGE_WEIGHTS[i]))
}

/// The members of one JRA query (a `jra` line, or one `batch` entry).
fn query(shape: &Shape, ints: &[usize], draws: &[usize], bits: u32) -> Json {
    let mut members = vec![if bits & 1 == 0 {
        ("paper", weights(draws))
    } else {
        ("paper_id", shape.edge(ints[0]))
    }];
    if bits & 2 != 0 {
        members.push(("delta_p", shape.edge(ints[1])));
    }
    if bits & 4 != 0 {
        members.push(("top_k", shape.edge(ints[2])));
    }
    if bits & 8 != 0 {
        members.push(("exclude", Json::Arr(vec![shape.edge(ints[3])])));
    }
    if bits & 16 != 0 {
        let pruning = ["exact", "auto", "topk:2"][(bits >> 5) as usize % 3];
        members.push(("pruning", Json::Str(pruning.into())));
    }
    Json::obj(members)
}

/// Render one drawn request line: its op and its text.
fn request(shape: &Shape, (kind, ints, draws, bits): &LineDraw) -> (&'static str, String) {
    let kind_of = |name: &str| ("kind", Json::Str(name.into()));
    let (op, mut members) = match kind {
        0..=2 => {
            let Json::Obj(members) = query(shape, ints, draws, *bits) else { unreachable!() };
            ("jra", members)
        }
        3 | 4 => {
            let swapped: Vec<usize> = ints.iter().rev().copied().collect();
            let entries =
                [query(shape, ints, draws, *bits), query(shape, &swapped, draws, bits >> 8)];
            ("batch", vec![("queries".to_string(), Json::Arr(entries.to_vec()))])
        }
        5 | 6 => {
            let update = match (bits >> 8) % 4 {
                0 => vec![
                    kind_of("add_paper"),
                    ("topics", weights(draws)),
                    ("coi", Json::Arr(vec![shape.edge(ints[0])])),
                ],
                1 if shape.reviewers < MAX_R => {
                    vec![kind_of("add_reviewer"), ("expertise", weights(draws))]
                }
                2 => vec![kind_of("retire_reviewer"), ("reviewer", shape.edge(ints[0]))],
                _ => vec![
                    kind_of("patch_scores"),
                    ("reviewer", shape.edge(ints[0])),
                    ("expertise", weights(draws)),
                ],
            };
            ("update", vec![("updates".to_string(), Json::Arr(vec![Json::obj(update)]))])
        }
        _ => {
            let method =
                (bits & 1 != 0).then(|| ("method".to_string(), Json::Str("greedy".into())));
            ("assign", method.into_iter().collect())
        }
    };
    members.insert(0, ("op".to_string(), Json::Str(op.into())));
    if bits & (1 << 30) != 0 {
        members.insert(0, ("v".to_string(), Json::Num(2.0)));
    }
    (op, Json::Obj(members).to_string())
}

/// Does `results` hold at least one group, each with a finite score?
fn groups_ok(results: Option<&Json>) -> bool {
    results.and_then(Json::as_arr).is_some_and(|groups| {
        !groups.is_empty()
            && groups
                .iter()
                .all(|g| g.get("score").and_then(Json::as_f64).is_some_and(f64::is_finite))
    })
}

/// A structured error, or an answer whose every JRA result holds at least
/// one group and whose every score and coverage is finite.
fn reply_ok(op: &str, reply: &Json) -> bool {
    let ok = |v: &Json| v.get("ok").and_then(Json::as_bool);
    let failed = |v: &Json| ok(v) == Some(false) && v.get("error").and_then(Json::as_str).is_some();
    match ok(reply) {
        Some(false) => failed(reply),
        Some(true) => match op {
            "jra" => groups_ok(reply.get("results")),
            "batch" => reply.get("results").and_then(Json::as_arr).is_some_and(|entries| {
                entries
                    .iter()
                    .all(|e| failed(e) || (ok(e) == Some(true) && groups_ok(e.get("results"))))
            }),
            "assign" => reply.get("coverage").and_then(Json::as_f64).is_some_and(f64::is_finite),
            _ => true,
        },
        None => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Well-formed `jra`, `batch`, `update` and `assign` lines whose integer
    /// members are drawn from {0, 1, δp, R−1, R, R+1, 2³¹, u32::MAX} and
    /// whose weights from [`EDGE_WEIGHTS`], through the whole server. Every
    /// reply parses back as rendered and passes [`reply_ok`], and a closing
    /// `stats` still answers.
    #[test]
    fn hostile_values_get_answers_or_structured_errors(
        inst in tiny_instance(),
        lines in proptest::collection::vec(line_draw(), 1..10),
    ) {
        let mut shape = Shape { delta_p: inst.delta_p(), reviewers: inst.num_reviewers() };
        let service = Service::new(inst, Scoring::WeightedCoverage, 0);
        let frontend = Frontend::with_defaults(Arc::new(service));
        for draw in &lines {
            let (op, line) = request(&shape, draw);
            let reply = handle_line(&frontend, &line);
            prop_assert!(reply_ok(op, &reply), "{line}\n -> {reply:?}");
            let text = reply.to_string();
            prop_assert!(json::parse(&text).is_ok_and(|back| back == reply), "{text}");
            if op == "update" {
                if let Some(r) = reply.get("reviewers").and_then(Json::as_usize) {
                    shape.reviewers = r;
                }
            }
        }
        let stats = handle_line(&frontend, r#"{"op":"stats"}"#);
        prop_assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    }
}
