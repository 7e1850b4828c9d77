//! EXPERIMENTS.md against the claims table it is generated from.
//!
//! The Headline, Compiler pipeline, Performance, Energy, Ablations and
//! Optimizer tables of EXPERIMENTS.md sit between the
//! `nachos-claims:begin`/`end` markers: one table per section of
//! `nachos_bench::claims::figures`, one `Claim::row` per claim, over one
//! evidence run. The committed bytes must equal the regenerated ones,
//! every claim without a deviation note must hold its shape, and every
//! deviation note must name a paragraph of DESIGN §8.
//!
//! After a deliberate change, rewrite the block with
//! `NACHOS_BLESS_GOLDENS=1 cargo test --test claims` and review the diff.

use nachos_bench::claims::{figures, Check, Evidence, Figure};
use std::path::PathBuf;
use std::sync::OnceLock;

const BEGIN: &str = "<!-- nachos-claims:begin -->";
const END: &str = "<!-- nachos-claims:end -->";

/// The generated block: one claim table per section, in figure order.
fn markdown(figures: &[Figure], e: &Evidence) -> String {
    let mut out = String::new();
    let mut section = "";
    for f in figures {
        if f.section != section {
            section = f.section;
            out += &format!("\n## {section}\n\n| Exp. | Claim | Paper | Measured | Check |\n");
            out += "|---|---|---|---|---|\n";
        }
        for c in &f.claims {
            out += &c.row(f.id, e);
        }
    }
    out
}

/// `doc` with the text between the markers replaced by `block`, or
/// `None` when a marker is missing.
fn splice(doc: &str, block: &str) -> Option<String> {
    let start = doc.find(BEGIN)? + BEGIN.len();
    let end = start + doc[start..].find(END)?;
    let (head, tail) = (&doc[..start], &doc[end..]);
    Some(format!("{head}\n{}\n\n{tail}", block.trim()))
}

fn evidence() -> &'static Evidence {
    static EVIDENCE: OnceLock<Evidence> = OnceLock::new();
    EVIDENCE.get_or_init(|| Evidence::build().expect("every run matches the reference executor"))
}

fn doc(name: &str) -> (PathBuf, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path).expect("reading the committed document");
    (path, text)
}

#[test]
fn experiments_md_matches_the_claims_table() {
    let (path, committed) = doc("EXPERIMENTS.md");
    let block = markdown(&figures(), evidence());
    let fresh = splice(&committed, &block).expect("EXPERIMENTS.md carries both claim markers");
    if std::env::var_os("NACHOS_BLESS_GOLDENS").is_some() {
        std::fs::write(&path, &fresh).expect("writing EXPERIMENTS.md");
        return;
    }
    for (i, (got, want)) in fresh.lines().zip(committed.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "EXPERIMENTS.md line {} drifted from the claims table; after a deliberate \
             change rerun with NACHOS_BLESS_GOLDENS=1",
            i + 1
        );
    }
    assert_eq!(fresh, committed, "EXPERIMENTS.md length drifted");
}

#[test]
fn every_claim_holds_or_names_its_deviation() {
    let (_, design) = doc("DESIGN.md");
    let deviations = design
        .split("## 8. ")
        .nth(1)
        .and_then(|s| s.split("\n## ").next())
        .expect("DESIGN.md has a §8");
    let mut ids = Vec::new();
    for figure in figures() {
        for claim in &figure.claims {
            match claim.check {
                Check::Deviation(p) => assert!(
                    deviations.contains(&format!("**({p})")),
                    "{}: DESIGN §8 has no paragraph ({p})",
                    claim.id
                ),
                _ => assert_eq!(
                    claim.verdict(evidence()),
                    "holds",
                    "{}: measured {}, paper {}",
                    claim.id,
                    (claim.measured)(evidence()),
                    claim.paper
                ),
            }
            ids.push(claim.id);
        }
    }
    let count = ids.len();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), count, "claim ids are unique");
}
