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
    let mut reviewers: Vec<(String, TopicVector)> = Vec::new();
    let mut papers: Vec<(String, TopicVector)> = Vec::new();
    let mut cois: Vec<(String, String, usize)> = Vec::new();

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
                    .ok_or_else(|| parse_err(line_no, format!("{keyword} needs a name")))?
                    .to_string();
                let weights: Vec<f64> = parts
                    .map(|w| {
                        w.parse::<f64>()
                            .map_err(|_| parse_err(line_no, format!("bad weight '{w}'")))
                    })
                    .collect::<Result<_>>()?;
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
                cois.push((r.to_string(), p.to_string(), line_no));
            }
            other => return Err(parse_err(line_no, format!("unknown keyword '{other}'"))),
        }
    }

    let delta_p = delta_p.ok_or_else(|| Error::InvalidInstance("missing delta_p".into()))?;
    let delta_r = delta_r.ok_or_else(|| Error::InvalidInstance("missing delta_r".into()))?;

    let index_of =
        |items: &[(String, TopicVector)], kind: &str| -> Result<HashMap<String, usize>> {
            let mut map = HashMap::new();
            for (i, (name, _)) in items.iter().enumerate() {
                if map.insert(name.clone(), i).is_some() {
                    return Err(Error::InvalidInstance(format!("duplicate {kind} name '{name}'")));
                }
            }
            Ok(map)
        };
    let r_index = index_of(&reviewers, "reviewer")?;
    let p_index = index_of(&papers, "paper")?;

    let mut inst = Instance::new(
        papers.iter().map(|(_, v)| v.clone()).collect(),
        reviewers.iter().map(|(_, v)| v.clone()).collect(),
        delta_p,
        delta_r,
    )?
    .with_names(
        papers.iter().map(|(n, _)| n.clone()).collect(),
        reviewers.iter().map(|(n, _)| n.clone()).collect(),
    );
    for (r, p, line_no) in cois {
        let ri = *r_index
            .get(&r)
            .ok_or_else(|| parse_err(line_no, format!("unknown reviewer '{r}' in coi")))?;
        let pi = *p_index
            .get(&p)
            .ok_or_else(|| parse_err(line_no, format!("unknown paper '{p}' in coi")))?;
        inst.add_coi(ri, pi);
    }
    Ok(inst)
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
        for r in 0..inst.num_reviewers() {
            if inst.is_coi(r, p) {
                let _ = writeln!(out, "coi {} {}", inst.reviewer_name(r), inst.paper_name(p));
            }
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
        ];
        for (text, needle) in cases {
            let err = parse_instance(text).unwrap_err().to_string();
            assert!(err.contains(needle), "'{text}' gave '{err}', wanted '{needle}'");
        }
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
