//! Lint fixture: plants exactly one `orphan-pub` violation.
//! Never compiled — scanned by the lint self-test.

// pub fn commented_out() is a comment line, not a definition.

/// Named by no other file: the planted violation.
pub fn planted_orphan() -> u32 {
    called_from_tests() + private_helper()
}

/// Named by `tests/uses.rs`, so it has a caller.
pub fn called_from_tests() -> u32 {
    1
}

pub(crate) fn private_helper() -> u32 {
    2
}
