//! Criterion benchmarks of the CDCL solver and the unified circuit encoder
//! — the kernels underneath every oracle-guided attack timing in Tables
//! III–IV.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cutelock_circuits::itc99;
use cutelock_netlist::unroll::scan_view;
use cutelock_sat::{Binding, CircuitEncoder, Lit, MiterBuilder, PortVals, Solver, Var};

/// Pigeonhole PHP(n+1, n): compact, reliably hard UNSAT instances.
fn pigeonhole(holes: usize) -> Solver {
    let pigeons = holes + 1;
    let mut s = Solver::new();
    let vars: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var()).collect())
        .collect();
    for p in vars.iter() {
        let clause: Vec<Lit> = p.iter().map(|&v| Lit::positive(v)).collect();
        s.add_clause(&clause);
    }
    for h in 0..holes {
        let column: Vec<Lit> = vars.iter().map(|p| Lit::negative(p[h])).collect();
        for (i, &l1) in column.iter().enumerate() {
            for &l2 in column.iter().skip(i + 1) {
                s.add_clause(&[l1, l2]);
            }
        }
    }
    s
}

fn bench_pigeonhole(c: &mut Criterion) {
    let mut group = c.benchmark_group("cdcl_pigeonhole_unsat");
    for holes in [5usize, 6, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(holes), &holes, |b, &h| {
            b.iter(|| {
                let mut s = pigeonhole(h);
                s.solve()
            })
        });
    }
    group.finish();
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit_encode");
    for name in ["b04", "b12"] {
        let circuit = itc99(name).expect("exists");
        let sv = scan_view(&circuit.netlist).expect("scan view");
        group.bench_with_input(BenchmarkId::from_parameter(name), &sv, |b, sv| {
            b.iter(|| {
                let mut enc = CircuitEncoder::new();
                enc.encode(&sv.netlist, &Binding::new()).expect("encodes")
            })
        });
    }
    group.finish();
}

fn bench_unroll_and_solve(c: &mut Criterion) {
    let circuit = itc99("b03").expect("exists");
    c.bench_function("unroll_b03_x8_and_sat", |b| {
        b.iter(|| {
            // Eight frames threaded from the all-zero state.
            let mut m = MiterBuilder::new(scan_view(&circuit.netlist).expect("scan view"), &[]);
            let keys = m.fresh_keys();
            let mut state = m.enc.lits_const(&vec![false; circuit.netlist.dff_count()]);
            let mut outputs = Vec::new();
            for _ in 0..8 {
                let f = m
                    .frame(&keys, PortVals::Shared(&state), PortVals::Fresh)
                    .expect("encodes");
                state = f.next_state;
                outputs = f.outputs;
            }
            // Satisfy with one output pinned — exercises propagation.
            m.enc.pin_lit(outputs[0], true);
            m.enc.solver.solve()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5));
    targets = bench_pigeonhole, bench_encode, bench_unroll_and_solve
}
criterion_main!(benches);
