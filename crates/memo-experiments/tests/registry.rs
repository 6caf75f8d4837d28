//! `runner::ARTIFACTS` is the one list of the reproduction's artifacts:
//! every row has a committed render under `docs/outputs` and a paper-scale
//! one under `docs/outputs/paper` (CI diffs fresh renders against both),
//! every committed render has a row, and the names and words the command
//! line and the benchmark key on are unique.

use std::collections::HashSet;
use std::path::Path;

use memo_experiments::runner::{artifact, experiments, ARTIFACTS};

#[test]
fn every_row_has_a_committed_output_and_every_output_a_row() {
    for dir in ["docs/outputs", "docs/outputs/paper"] {
        let outputs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(dir);
        let mut stems: HashSet<String> = std::fs::read_dir(&outputs)
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|entry| entry.expect("readable directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
            .map(|path| path.file_stem().expect("a file name").to_string_lossy().into_owned())
            .collect();
        for row in &ARTIFACTS {
            assert!(stems.remove(row.cli), "no {dir}/{}.txt for {:?}", row.cli, row.name);
        }
        assert!(stems.is_empty(), "committed outputs in {dir} without a row: {stems:?}");
    }
}

#[test]
fn names_and_words_are_unique_and_all_and_sweep_stay_free() {
    let names: HashSet<_> = ARTIFACTS.iter().map(|row| row.name).collect();
    let words: HashSet<_> = ARTIFACTS.iter().map(|row| row.cli).collect();
    assert_eq!(names.len(), ARTIFACTS.len(), "duplicate registry name");
    assert_eq!(words.len(), ARTIFACTS.len(), "duplicate word");
    assert!(!words.contains("all") && !words.contains("sweep"));
    for row in &ARTIFACTS {
        assert_eq!(artifact(row.cli).map(|found| found.name), Some(row.name));
    }
    assert!(artifact("all").is_none());
}

#[test]
fn experiments_yields_the_rows_in_order() {
    let names: Vec<_> = experiments().into_iter().map(|(name, _)| name).collect();
    let rows: Vec<_> = ARTIFACTS.iter().map(|row| row.name).collect();
    assert_eq!(names, rows);
}
