//! Plain-text instance and assignment files, so the library can be driven
//! with real conference data without writing Rust.
//!
//! # Instance format (`.wgrap`)
//!
//! Line-oriented UTF-8; `#` starts a comment; blank lines are ignored.
//!
//! ```text
//! topics 3
//! delta_p 2
//! delta_r 3
//! reviewer alice  0.7 0.2 0.1
//! reviewer bob    0.1 0.8 0.1
//! reviewer carol  0.2 0.2 0.6
//! paper p-17      0.5 0.4 0.1
//! paper p-23      0.0 0.3 0.7
//! coi alice p-17
//! ```
//!
//! Weights must be finite and non-negative, and each line's weights must
//! sum to 0 or a finite normal number; names must be unique per kind and
//! contain no whitespace. The `topics`/`delta_p`/`delta_r` headers must
//! appear before the first `reviewer`/`paper` line.
//!
//! # Assignment format
//!
//! One line per pair, `paper <TAB> reviewer`, sorted by paper.

use crate::assignment::Assignment;
use crate::error::{Error, Result};
use crate::problem::Instance;
use crate::topic::TopicVector;
use std::collections::HashMap;
use std::fmt::Write as _;

fn parse_err(line_no: usize, msg: impl Into<String>) -> Error {
    Error::InvalidInstance(format!("line {line_no}: {}", msg.into()))
}

/// Parse an instance from the text format above.
pub fn parse_instance(text: &str) -> Result<Instance> {
    let mut topics: Option<usize> = None;
    let mut delta_p: Option<usize> = None;
    let mut delta_r: Option<usize> = None;
    // Names borrow `text` until the instance takes its own copies.
    let mut reviewers: Vec<(&str, TopicVector)> = Vec::new();
    let mut papers: Vec<(&str, TopicVector)> = Vec::new();
    let mut cois: Vec<(&str, &str, usize)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().expect("non-empty line has a first token");
        match keyword {
            "topics" | "delta_p" | "delta_r" => {
                let value: usize = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| parse_err(line_no, format!("{keyword} needs an integer")))?;
                if parts.next().is_some() {
                    return Err(parse_err(line_no, "trailing tokens after header"));
                }
                let slot = match keyword {
                    "topics" => &mut topics,
                    "delta_p" => &mut delta_p,
                    _ => &mut delta_r,
                };
                if slot.replace(value).is_some() {
                    return Err(parse_err(line_no, format!("duplicate {keyword} header")));
                }
            }
            "reviewer" | "paper" => {
                let t =
                    topics.ok_or_else(|| parse_err(line_no, "topics header must come first"))?;
                let name = parts
                    .next()
                    .ok_or_else(|| parse_err(line_no, format!("{keyword} needs a name")))?;
                // A line holds at most one weight per byte, which bounds
                // the reservation whatever the header claims.
                let mut weights = Vec::with_capacity(t.min(line.len()));
                for w in parts {
                    // Most weights of a sparse vector are a bare `0`; every
                    // other spelling (`0.0`, `-0`, ...) goes to the float
                    // parser, which keeps the sign of `-0`.
                    weights.push(match w {
                        "0" => 0.0,
                        _ => w
                            .parse::<f64>()
                            .map_err(|_| parse_err(line_no, format!("bad weight '{w}'")))?,
                    });
                }
                if weights.len() != t {
                    return Err(parse_err(
                        line_no,
                        format!("expected {t} weights, got {}", weights.len()),
                    ));
                }
                if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
                    return Err(parse_err(line_no, "weights must be finite and >= 0"));
                }
                let entry = (name, TopicVector::new(weights));
                if keyword == "reviewer" {
                    reviewers.push(entry);
                } else {
                    papers.push(entry);
                }
            }
            "coi" => {
                let r = parts
                    .next()
                    .ok_or_else(|| parse_err(line_no, "coi needs <reviewer> <paper>"))?;
                let p = parts
                    .next()
                    .ok_or_else(|| parse_err(line_no, "coi needs <reviewer> <paper>"))?;
                cois.push((r, p, line_no));
            }
            other => return Err(parse_err(line_no, format!("unknown keyword '{other}'"))),
        }
    }

    let delta_p = delta_p.ok_or_else(|| Error::InvalidInstance("missing delta_p".into()))?;
    let delta_r = delta_r.ok_or_else(|| Error::InvalidInstance("missing delta_r".into()))?;

    let (reviewer_names, reviewers): (Vec<&str>, Vec<TopicVector>) = reviewers.into_iter().unzip();
    let (paper_names, papers): (Vec<&str>, Vec<TopicVector>) = papers.into_iter().unzip();
    let r_index = name_index(&reviewer_names, "reviewer")?;
    let p_index = name_index(&paper_names, "paper")?;

    let owned = |names: &[&str]| names.iter().map(|&n| n.to_string()).collect();
    let mut inst = Instance::new(papers, reviewers, delta_p, delta_r)?
        .with_names(owned(&paper_names), owned(&reviewer_names));
    for (r, p, line_no) in cois {
        let ri = *r_index
            .get(r)
            .ok_or_else(|| parse_err(line_no, format!("unknown reviewer '{r}' in coi")))?;
        let pi = *p_index
            .get(p)
            .ok_or_else(|| parse_err(line_no, format!("unknown paper '{p}' in coi")))?;
        inst.add_coi(ri, pi);
    }
    Ok(inst)
}

/// Each of `names` mapped to its position; fails on a repeated name.
fn name_index<'t>(names: &[&'t str], kind: &str) -> Result<HashMap<&'t str, usize>> {
    let mut map = HashMap::with_capacity(names.len());
    for (i, &name) in names.iter().enumerate() {
        if map.insert(name, i).is_some() {
            return Err(Error::InvalidInstance(format!("duplicate {kind} name '{name}'")));
        }
    }
    Ok(map)
}

/// Serialise an instance to the text format (round-trips with
/// [`parse_instance`] up to float formatting).
pub fn write_instance(inst: &Instance) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# wgrap instance");
    let _ = writeln!(out, "topics {}", inst.num_topics());
    let _ = writeln!(out, "delta_p {}", inst.delta_p());
    let _ = writeln!(out, "delta_r {}", inst.delta_r());
    for r in 0..inst.num_reviewers() {
        let _ = write!(out, "reviewer {}", inst.reviewer_name(r));
        for w in inst.reviewer(r).as_slice() {
            let _ = write!(out, " {w}");
        }
        out.push('\n');
    }
    for p in 0..inst.num_papers() {
        let _ = write!(out, "paper {}", inst.paper_name(p));
        for w in inst.paper(p).as_slice() {
            let _ = write!(out, " {w}");
        }
        out.push('\n');
    }
    for p in 0..inst.num_papers() {
        // `conflicts(p)` is ascending: lines come in reviewer-id order.
        for &r in inst.conflicts(p) {
            let _ = writeln!(out, "coi {} {}", inst.reviewer_name(r as usize), inst.paper_name(p));
        }
    }
    out
}

/// Serialise an assignment as `paper <TAB> reviewer` lines.
pub fn write_assignment(inst: &Instance, a: &Assignment) -> String {
    let mut out = String::new();
    for p in 0..a.num_papers() {
        for &r in a.group(p) {
            let _ = writeln!(out, "{}\t{}", inst.paper_name(p), inst.reviewer_name(r));
        }
    }
    out
}

/// Parse an assignment produced by [`write_assignment`] back against an
/// instance (names must resolve; group sizes are *not* enforced here — call
/// [`Assignment::validate`] for that).
pub fn parse_assignment(inst: &Instance, text: &str) -> Result<Assignment> {
    let r_index: HashMap<String, usize> =
        (0..inst.num_reviewers()).map(|r| (inst.reviewer_name(r), r)).collect();
    let p_index: HashMap<String, usize> =
        (0..inst.num_papers()).map(|p| (inst.paper_name(p), p)).collect();
    let mut a = Assignment::empty(inst.num_papers());
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(pn), Some(rn), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(parse_err(idx + 1, "expected 'paper reviewer'"));
        };
        let p =
            *p_index.get(pn).ok_or_else(|| parse_err(idx + 1, format!("unknown paper '{pn}'")))?;
        let r = *r_index
            .get(rn)
            .ok_or_else(|| parse_err(idx + 1, format!("unknown reviewer '{rn}'")))?;
        if a.group(p).contains(&r) {
            return Err(parse_err(idx + 1, format!("duplicate pair '{pn} {rn}'")));
        }
        a.assign(r, p);
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::Scoring;

    const SAMPLE: &str = "\
# demo
topics 3
delta_p 2
delta_r 3
reviewer alice 0.7 0.2 0.1
reviewer bob   0.1 0.8 0.1
reviewer carol 0.2 0.2 0.6
paper p-17 0.5 0.4 0.1
paper p-23 0.0 0.3 0.7
coi alice p-17
";

    #[test]
    fn parses_sample() {
        let inst = parse_instance(SAMPLE).unwrap();
        assert_eq!(inst.num_topics(), 3);
        assert_eq!(inst.num_reviewers(), 3);
        assert_eq!(inst.num_papers(), 2);
        assert_eq!(inst.delta_p(), 2);
        assert_eq!(inst.reviewer_name(1), "bob");
        assert!(inst.is_coi(0, 0));
        assert!(!inst.is_coi(1, 0));
        assert!((inst.paper(1)[2] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn roundtrip_instance() {
        let inst = parse_instance(SAMPLE).unwrap();
        let text = write_instance(&inst);
        let again = parse_instance(&text).unwrap();
        assert_eq!(again.num_reviewers(), inst.num_reviewers());
        assert_eq!(again.paper(0).as_slice(), inst.paper(0).as_slice());
        assert!(again.is_coi(0, 0));
    }

    #[test]
    fn roundtrip_assignment() {
        let inst = parse_instance(SAMPLE).unwrap();
        let a = crate::cra::CraAlgorithm::Sdga.run(&inst, Scoring::WeightedCoverage, 0).unwrap();
        let text = write_assignment(&inst, &a);
        let back = parse_assignment(&inst, &text).unwrap();
        for p in 0..inst.num_papers() {
            let mut x = a.group(p).to_vec();
            let mut y = back.group(p).to_vec();
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y);
        }
    }

    #[test]
    fn rejects_malformed_inputs() {
        let cases = [
            ("topics 3\ndelta_p 1\ndelta_r 1\nreviewer a 0.1 0.2\n", "expected 3 weights"),
            ("reviewer a 0.5\n", "topics header must come first"),
            ("topics x\n", "needs an integer"),
            ("topics 1\ntopics 1\n", "duplicate topics"),
            ("topics 1\ndelta_p 1\ndelta_r 1\nbanana a 1.0\n", "unknown keyword"),
            (
                "topics 1\ndelta_p 1\ndelta_r 1\nreviewer a 1.0\nreviewer a 1.0\npaper p 1.0\n",
                "duplicate reviewer",
            ),
            (
                "topics 1\ndelta_p 1\ndelta_r 1\nreviewer a 1.0\npaper p 1.0\ncoi b p\n",
                "unknown reviewer",
            ),
            ("topics 1\ndelta_p 1\ndelta_r 1\nreviewer a -1.0\n", "must be finite"),
            (
                "topics 3\ndelta_p 1\ndelta_r 1\nreviewer a 1 0 0\npaper p 5e-324 5e-324 0\n",
                "paper 0 weights must sum to 0 or a finite normal number",
            ),
            ("topics 1 2\n", "line 1: trailing tokens after header"),
            ("topics 1\nreviewer\n", "line 2: reviewer needs a name"),
            ("topics 2\nreviewer a 0 0,5\n", "line 2: bad weight '0,5'"),
            ("topics 2\npaper p 0 -0 0\n", "line 2: expected 2 weights, got 3"),
            ("topics 1\nreviewer a inf\n", "line 2: weights must be finite and >= 0"),
            ("topics 1\ndelta_p 1\ndelta_r 1\ncoi a\n", "line 4: coi needs <reviewer> <paper>"),
            (
                "topics 1\ndelta_p 1\ndelta_r 1\nreviewer a 1\npaper p 1\npaper p 0\n",
                "duplicate paper name 'p'",
            ),
            (
                "topics 1\ndelta_p 1\ndelta_r 1\nreviewer a 1\npaper p 1\ncoi a q\n",
                "line 6: unknown paper 'q' in coi",
            ),
            ("topics 1\ndelta_r 1\nreviewer a 1\n", "missing delta_p"),
        ];
        for (text, needle) in cases {
            let err = parse_instance(text).unwrap_err().to_string();
            assert!(err.contains(needle), "'{text}' gave '{err}', wanted '{needle}'");
        }
    }

    #[test]
    fn zero_spellings_parse_to_the_float_parsers_bits() {
        let tokens = ["0", "0.0", "-0", "-0.0", "+0", "00", "1e-320", "0.5"];
        let text = format!(
            "topics {}\ndelta_p 1\ndelta_r 1\nreviewer a {}\npaper p {}\n",
            tokens.len(),
            tokens.join(" "),
            tokens.join(" "),
        );
        let inst = parse_instance(&text).unwrap();
        for v in [inst.reviewer(0), inst.paper(0)] {
            for (&got, tok) in v.as_slice().iter().zip(tokens) {
                let want: f64 = tok.parse().unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "token '{tok}'");
            }
        }
        // BBA orders a topic's zero tail by sign, so `-0` must stay negative.
        assert!(inst.reviewer(0)[2].is_sign_negative());
        assert!(inst.reviewer(0)[0].is_sign_positive());
    }

    #[test]
    fn negative_zero_weights_survive_a_round_trip() {
        let text = "topics 3\ndelta_p 1\ndelta_r 1\nreviewer a -0.0 1 0\npaper p 0.5 -0 0.5\n";
        let inst = parse_instance(text).unwrap();
        let again = parse_instance(&write_instance(&inst)).unwrap();
        for (a, b) in [(inst.reviewer(0), again.reviewer(0)), (inst.paper(0), again.paper(0))] {
            let bits =
                |v: &TopicVector| v.as_slice().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
        assert!(again.reviewer(0)[0].is_sign_negative());
        assert!(again.paper(0)[1].is_sign_negative());
    }

    #[test]
    fn coi_lines_match_a_scan_of_every_pair() {
        let mut inst = parse_instance(SAMPLE).unwrap();
        inst.push_reviewer(Some("dave".into()), TopicVector::new(vec![0.3, 0.3, 0.4])).unwrap();
        inst.push_paper(Some("p-31".into()), TopicVector::new(vec![0.2, 0.2, 0.6])).unwrap();
        for (r, p) in [(3, 1), (0, 1), (2, 0), (3, 2), (1, 1), (0, 2), (3, 1)] {
            inst.add_coi(r, p);
        }
        let out = write_instance(&inst);
        // The reference: probe every (paper, reviewer) pair.
        let mut want: String =
            out.lines().filter(|l| !l.starts_with("coi ")).map(|l| format!("{l}\n")).collect();
        for p in 0..inst.num_papers() {
            for r in 0..inst.num_reviewers() {
                if inst.is_coi(r, p) {
                    let _ = writeln!(want, "coi {} {}", inst.reviewer_name(r), inst.paper_name(p));
                }
            }
        }
        assert_eq!(out, want);
        assert_eq!(out.lines().filter(|l| l.starts_with("coi ")).count(), 7);
    }

    #[test]
    fn missing_headers_rejected() {
        let err = parse_instance("topics 2\ndelta_p 1\nreviewer a 0.5 0.5\npaper p 1 0\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("missing delta_r"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text =
            "\n# c\ntopics 1\n\ndelta_p 1 # inline\ndelta_r 2\nreviewer a 1.0\npaper p 0.5\n";
        let inst = parse_instance(text).unwrap();
        assert_eq!(inst.delta_r(), 2);
    }
}
