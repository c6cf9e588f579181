//! Per-benchmark locking parameters, copied from the paper's tables.
//!
//! `k` is the number of keys, `ki` the bits per key value — the
//! "Benchmark and Locking Information" columns of Tables III and IV.

/// `(circuit, k, ki)` rows of Table III (Cute-Lock-Beh on Synthezza).
///
/// The paper's `alf` row reports `0` keys (an unlocked control row); we
/// keep it runnable by locking with the minimal `k = 2`.
pub const TABLE3: &[(&str, usize, usize)] = &[
    // Small.
    ("bcomp", 6, 18),
    ("bech", 6, 18),
    ("bridge", 5, 16),
    ("cat", 3, 11),
    ("checker9", 3, 10),
    ("cpu", 4, 14),
    ("dmac", 2, 7),
    ("e10", 3, 10),
    ("e15", 4, 13),
    ("e16", 4, 13),
    ("e161", 5, 16),
    ("e17", 2, 8),
    // Medium.
    ("acdl", 5, 16),
    ("alf", 2, 31),
    ("amtz", 7, 23),
    ("ball", 4, 44),
    ("bens", 7, 21),
    ("berg", 7, 21),
    ("bib", 7, 21),
    ("big", 6, 18),
    ("bs", 6, 19),
    ("codec", 2, 4),
    ("codec1", 9, 28),
    ("cow", 6, 49),
    ("cyr", 6, 20),
    ("dav", 6, 18),
    ("doron", 7, 22),
    // Large.
    ("absurd", 21, 65),
    ("bulln", 20, 61),
    ("camel", 19, 59),
    ("exxm", 15, 47),
    ("lion", 18, 55),
    ("tiger", 17, 51),
];

/// `(circuit, k, ki)` rows of Table IV, ISCAS'89 section.
pub const TABLE4_ISCAS: &[(&str, usize, usize)] = &[
    ("s1196", 4, 14),
    ("s13207", 8, 31),
    ("s1488", 2, 8),
    ("s15850", 4, 14),
    ("s298", 2, 3),
    ("s349", 4, 9),
    ("s35932", 8, 35),
    ("s510", 8, 19),
    ("s5378", 8, 35),
    ("s641", 8, 35),
    ("s713", 8, 35),
    ("s832", 8, 18),
    ("s9234", 8, 19),
    ("s953", 4, 15),
];

/// `(circuit, k, ki)` rows of Table IV, ITC'99 section.
pub const TABLE4_ITC: &[(&str, usize, usize)] = &[
    ("b01", 2, 2),
    ("b02", 2, 2),
    ("b03", 2, 4),
    ("b04", 4, 11),
    ("b05", 2, 2),
    ("b06", 2, 1),
    ("b07", 2, 2),
    ("b08", 4, 9),
    ("b09", 2, 1),
    ("b10", 4, 11),
    ("b11", 2, 7),
    ("b12", 2, 5),
    ("b14", 8, 32),
    ("b15", 16, 36),
    ("b17", 16, 37),
    ("b18", 16, 37),
    ("b19", 8, 24),
    ("b20", 8, 32),
    ("b21", 8, 32),
    ("b22", 8, 32),
];

/// ITC'99 circuits of Table V (removal attacks) in table order.
pub const TABLE5: &[&str] = &[
    "b01", "b02", "b03", "b04", "b05", "b06", "b07", "b08", "b09", "b10", "b11", "b12", "b14",
    "b15", "b17", "b18", "b19", "b20", "b21", "b22",
];

/// Fig. 4 test-run configurations: `(label, keys, key_bits_or_n)` where a
/// `key_bits` of 0 means "`n` — the circuit's input count" (Test Run 1).
pub const FIG4_RUNS: &[(&str, usize, usize)] = &[
    ("TestRun1 (k=2, ki=n)", 2, 0),
    ("TestRun2 (k=4, ki=3)", 4, 3),
    ("TestRun3 (k=16, ki=5)", 16, 5),
];

/// The subset used by `--quick` runs: small/medium circuits that finish in
/// seconds.
pub(crate) const QUICK_SET: &[&str] = &[
    "bcomp", "cat", "dmac", "e17", "codec", // Synthezza
    "s27", "s298", "s349", "s832", // ISCAS'89
    "b01", "b02", "b06", "b08", "b10", // ITC'99
];

/// True when `name` belongs to the quick subset.
pub(crate) fn in_quick_set(name: &str) -> bool {
    QUICK_SET.contains(&name)
}
