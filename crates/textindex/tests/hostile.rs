//! `FoldedDoc::verify_batch` on hostile citations: bounded work.
//!
//! Checking every row on its cited line alone would read that line once per
//! row. Here 20 000 distinct absent rows all cite one 1 MiB line, which
//! without the per-batch byte budget reads about 20 GB (over a minute in a
//! debug build). The case asserts the answers, not a time.

use aipan_textindex::FoldedDoc;

#[test]
fn rows_citing_one_huge_line_cost_at_most_two_reads_of_the_document() {
    let line = "we collect your email address ".repeat((1 << 20) / 30);
    let doc = FoldedDoc::from_lines([line.as_str()]);
    let absent: Vec<String> = (0..20_000).map(|i| format!("postal code {i}")).collect();
    let mut rows: Vec<(usize, &str)> = vec![(1, "email address")];
    rows.extend(absent.iter().map(|needle| (1, needle.as_str())));
    rows.push((1, "your email"));
    let got = doc.verify_batch(rows.iter().copied());
    assert_eq!(got.len(), rows.len());
    assert!(got[0], "the first row is found on its cited line");
    assert!(
        got[rows.len() - 1],
        "a row past the budget is found by the scan"
    );
    assert!(
        got[1..rows.len() - 1].iter().all(|&present| !present),
        "no absent row is reported present"
    );
}
