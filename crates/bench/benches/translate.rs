//! B7 — relational and hierarchical schema translation throughput.

use sit_bench::harness::Bench;
use sit_translate::{HierSchema, RecordType, RelSchema, Table};

fn relational(tables: usize) -> RelSchema {
    let mut r = RelSchema::new("synth");
    for i in 0..tables {
        let mut t = Table::new(format!("t{i}"))
            .col_pk(format!("t{i}_id"), "int")
            .col(format!("t{i}_data"), "char");
        if i > 0 {
            t = t.col_fk(
                format!("t{}_ref", i - 1),
                "int",
                format!("t{}", i - 1),
                format!("t{}_id", i - 1),
            );
        }
        r.table(t);
    }
    r
}

fn hierarchy(records: usize) -> HierSchema {
    let mut h = HierSchema::new("synth");
    h.record(RecordType::root("r0").seq_field("r0_id", "int"));
    for i in 1..records {
        let parent = format!("r{}", (i - 1) / 2);
        h.record(RecordType::child(format!("r{i}"), parent).seq_field(format!("r{i}_id"), "int"));
    }
    h
}

fn main() {
    let mut bench = Bench::new("translate").with_counts(2, 20);
    for n in [10usize, 50, 200] {
        let rel = relational(n);
        bench.run(format!("relational/{n}"), || rel.to_ecr().unwrap());
        let hier = hierarchy(n);
        bench.run(format!("hierarchical/{n}"), || hier.to_ecr().unwrap());
    }
    bench.finish().expect("write BENCH_translate.json");
}
