//! Nothing a client sends and no bytes on disk may panic the server: the
//! request parser ([`json::parse`]) and the durable decoders
//! ([`frame::decode_frame`], [`frame::decode_wal_record`],
//! [`frame::decode_instance`]) return errors on hostile input, never
//! unwind. Each property feeds arbitrary input and only requires that the
//! call returns.

use proptest::prelude::*;
use wgrap_core::prelude::Instance;
use wgrap_core::topic::TopicVector;
use wgrap_service::durable::frame::{self, Dec, Enc};
use wgrap_service::json::{self, MAX_DEPTH};
use wgrap_service::Update;

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
