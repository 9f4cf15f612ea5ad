//! Lint fixture: a test file that calls into `crates/orphan`.
//! Never compiled — scanned by the lint self-test.

// Naming planted_orphan in a comment does not make it called.
fn main() {
    assert_eq!(orphan::called_from_tests(), 1);
}
