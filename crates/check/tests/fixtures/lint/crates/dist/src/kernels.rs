//! Lint fixture: plants exactly one `kernels-libm` violation.
//! Never compiled — scanned by the lint self-test.
//! A doc mention of .floor() and .ceil() must NOT count (comment line).

fn bad_floor(x: f64) -> usize {
    x.floor() as usize
}
