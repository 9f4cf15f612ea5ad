//! Lint fixture: plants exactly one `dist-clock` violation.
//! Never compiled — scanned by the lint self-test.

fn bad_clock() -> u64 {
    let t = std::time::Instant::now();
    t.elapsed().as_nanos() as u64
}
