//! Modulo-`k` counter insertion.
//!
//! Both Cute-Lock variants synchronize the key schedule with a free-running
//! counter that counts `0, 1, …, k-1, 0, …`. This module splices such a
//! counter into an existing netlist and exposes per-time *decode* nets
//! (`cnt_is_t`), which the locking transforms use to select the scheduled
//! key and to steer the MUX tree.

use cutelock_netlist::{GateKind, NetId, Netlist, NetlistError};

/// Handles into an inserted counter.
#[derive(Debug, Clone)]
pub(crate) struct CounterNets {
    /// Flip-flop indices of the counter bits, LSB first.
    pub ffs: Vec<usize>,
    /// One decode net per counter time: `is_time[t]` is 1 exactly when the
    /// counter reads `t` (for `t` in `0..k`).
    pub is_time: Vec<NetId>,
}

/// Inserts a modulo-`k` up-counter (reset state 0) into `nl`.
///
/// Uses `⌈log2(k)⌉` flip-flops, a ripple increment, and a synchronous wrap
/// from `k-1` back to 0, so non-power-of-two `k` (common in the paper's
/// tables: 3, 5, 6, 7, 21 keys) works too. All nets are prefixed with
/// `prefix` to avoid collisions.
///
/// # Errors
///
/// Propagates netlist construction failures (name collisions with `prefix`).
///
/// # Panics
///
/// Panics if `k == 0`.
pub(crate) fn insert_mod_counter(
    nl: &mut Netlist,
    k: usize,
    prefix: &str,
) -> Result<CounterNets, NetlistError> {
    assert!(k > 0, "counter needs at least one time slot");
    let bits = if k <= 1 {
        1
    } else {
        (usize::BITS - (k - 1).leading_zeros()) as usize
    };

    // State bits.
    let mut q = Vec::with_capacity(bits);
    for j in 0..bits {
        q.push(nl.add_net(format!("{prefix}_q{j}"))?);
    }
    let mut q_n = Vec::with_capacity(bits);
    for (j, &qj) in q.iter().enumerate() {
        q_n.push(nl.add_gate(GateKind::Not, format!("{prefix}_qn{j}"), &[qj])?);
    }

    // is_last = (q == k-1).
    let last = (k - 1) as u64;
    let last_terms: Vec<NetId> = (0..bits)
        .map(|j| if last >> j & 1 == 1 { q[j] } else { q_n[j] })
        .collect();
    let is_last = if last_terms.len() == 1 {
        nl.add_gate(GateKind::Buf, format!("{prefix}_last"), &last_terms)?
    } else {
        nl.add_gate(GateKind::And, format!("{prefix}_last"), &last_terms)?
    };
    let not_last = nl.add_gate(GateKind::Not, format!("{prefix}_nlast"), &[is_last])?;

    // Ripple increment: sum_j = q_j XOR carry_j, carry_{j+1} = q_j AND carry_j,
    // carry_0 = 1. Wrap: next_j = sum_j AND not_last.
    let mut ffs = Vec::with_capacity(bits);
    let mut carry: Option<NetId> = None; // None = constant 1
    for j in 0..bits {
        let sum = match carry {
            None => q_n[j], // q XOR 1 = !q
            Some(c) => nl.add_gate(GateKind::Xor, format!("{prefix}_sum{j}"), &[q[j], c])?,
        };
        let next = nl.add_gate(GateKind::And, format!("{prefix}_d{j}"), &[sum, not_last])?;
        let idx = nl.add_dff(format!("{prefix}_ff{j}"), next, q[j])?;
        nl.set_dff_init(idx, Some(false));
        ffs.push(idx);
        carry = Some(match carry {
            None => q[j], // q AND 1 = q
            Some(c) => nl.add_gate(GateKind::And, format!("{prefix}_c{j}"), &[q[j], c])?,
        });
    }

    // Per-time decodes.
    let mut is_time = Vec::with_capacity(k);
    for t in 0..k {
        let terms: Vec<NetId> = (0..bits)
            .map(|j| {
                if (t as u64) >> j & 1 == 1 {
                    q[j]
                } else {
                    q_n[j]
                }
            })
            .collect();
        let dec = if terms.len() == 1 {
            nl.add_gate(GateKind::Buf, format!("{prefix}_is{t}"), &terms)?
        } else {
            nl.add_gate(GateKind::And, format!("{prefix}_is{t}"), &terms)?
        };
        is_time.push(dec);
    }

    Ok(CounterNets { ffs, is_time })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutelock_sim::{Logic, Simulator};

    fn counter_harness(k: usize) -> (Netlist, CounterNets) {
        let mut nl = Netlist::new(format!("cnt{k}"));
        nl.add_input("dummy").unwrap();
        let c = insert_mod_counter(&mut nl, k, "cnt").unwrap();
        for &t in &c.is_time {
            nl.mark_output(t).unwrap();
        }
        nl.validate().unwrap();
        (nl, c)
    }

    fn run_counter(k: usize, cycles: usize) -> Vec<usize> {
        let (nl, _c) = counter_harness(k);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.reset();
        let mut times = Vec::new();
        for _ in 0..cycles {
            let outs = sim.cycle_with(&[Logic::Zero]);
            let active: Vec<usize> = outs
                .iter()
                .enumerate()
                .filter(|(_, &v)| v == Logic::One)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(active.len(), 1, "decode must be one-hot, got {outs:?}");
            times.push(active[0]);
        }
        times
    }

    #[test]
    fn power_of_two_counter_wraps() {
        let times = run_counter(4, 10);
        assert_eq!(times, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn non_power_of_two_counter_wraps() {
        let times = run_counter(6, 14);
        assert_eq!(times, vec![0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0, 1]);
        let times3 = run_counter(3, 7);
        assert_eq!(times3, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn k_one_is_always_time_zero() {
        let times = run_counter(1, 5);
        assert_eq!(times, vec![0; 5]);
    }

    #[test]
    fn k_two_toggles() {
        let times = run_counter(2, 6);
        assert_eq!(times, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn counter_uses_expected_ff_count() {
        let (nl, c) = counter_harness(21);
        assert_eq!(c.ffs.len(), 5); // ceil(log2(21))
        assert_eq!(nl.dff_count(), 5);
        assert_eq!(c.is_time.len(), 21);
        let times = run_counter(21, 43);
        let expect: Vec<usize> = (0..43).map(|i| i % 21).collect();
        assert_eq!(times, expect);
    }
}
