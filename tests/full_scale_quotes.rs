//! EXPERIMENTS.md quotes full-scale output, and this test holds it to
//! the committed copy. Every block fenced as ` ```full-scale ` must appear
//! verbatim in `bench_full_output.txt`, the stdout of `bench all
//! endurance` at full scale that CI regenerates and diffs. A re-bless
//! that moves a quoted number and forgets the document fails here. The
//! test runs no experiment.

use std::path::Path;

/// The bodies of the blocks of `doc` fenced as ` ```full-scale `.
fn full_scale_blocks(doc: &str) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut open: Option<Vec<&str>> = None;
    for line in doc.lines() {
        match open.as_mut() {
            None if line.trim_end() == "```full-scale" => open = Some(Vec::new()),
            None => {}
            Some(body) if line.trim_end() == "```" => {
                blocks.push(body.join("\n") + "\n");
                open = None;
            }
            Some(body) => body.push(line),
        }
    }
    assert!(open.is_none(), "a full-scale block is never closed");
    blocks
}

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_full_scale_quote_is_in_the_committed_output() {
    let (doc, output) = (read("EXPERIMENTS.md"), read("bench_full_output.txt"));
    let quotes = full_scale_blocks(&doc);
    assert!(quotes.len() >= 2, "{} full-scale blocks", quotes.len());
    for quote in &quotes {
        assert!(
            output.contains(quote.as_str()),
            "EXPERIMENTS.md quotes a block bench_full_output.txt does not hold:\n{quote}"
        );
    }
    // A one-digit edit of a quote is caught.
    let quote = &quotes[0];
    let at = quote.find(|c: char| c.is_ascii_digit()).unwrap();
    let digit = quote.as_bytes()[at];
    let edited = format!(
        "{}{}{}",
        &quote[..at],
        char::from(b'0' + (digit - b'0' + 1) % 10),
        &quote[at + 1..]
    );
    assert!(!output.contains(edited.as_str()), "{edited}");
}

#[test]
fn a_full_scale_fence_holds_its_lines_verbatim() {
    let doc =
        "text\n```full-scale\n  a  1\n---\n```\n```\nnot quoted\n```\n```full-scale\nb\n```\n";
    assert_eq!(full_scale_blocks(doc), ["  a  1\n---\n", "b\n"]);
}
