//! The report's artifact table and the committed `results/*.txt` files
//! must name the same set: a new artifact without a committed file
//! fails, and so does a leftover file that no artifact writes.

use std::collections::BTreeSet;
use std::path::Path;

use toto_bench::report::ARTIFACTS;

#[test]
fn artifact_names_are_unique_and_match_the_committed_files() {
    let names: BTreeSet<String> = ARTIFACTS.iter().map(|(name, _)| name.to_string()).collect();
    assert_eq!(names.len(), ARTIFACTS.len(), "duplicate artifact name");

    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let committed: BTreeSet<String> = std::fs::read_dir(&results)
        .expect("read results/")
        .map(|entry| entry.expect("results/ entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| {
            let stem = path.file_stem().expect("file stem");
            stem.to_string_lossy().into_owned()
        })
        .collect();
    assert_eq!(names, committed);
}
