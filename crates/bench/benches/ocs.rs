//! B5 — ACS→OCS derivation cost: the dense matrix and the ranked
//! candidate list, both from one walk over the equivalence classes.

use sit_bench::harness::Bench;
use sit_bench::{drive_session, Phase2Strategy, Phase3Strategy};
use sit_core::catalog::GObj;
use sit_core::resemblance::ocs_matrix;
use sit_datagen::oracle::GroundTruthOracle;
use sit_datagen::GeneratorConfig;

fn main() {
    let mut bench = Bench::new("ocs").with_counts(2, 20);
    for objects in [8usize, 16, 32] {
        let pair = GeneratorConfig {
            objects_per_schema: objects,
            overlap: 0.5,
            seed: 3,
            ..Default::default()
        }
        .generate_pair();
        let mut oracle = GroundTruthOracle::new(&pair.truth);
        let driven = drive_session(
            &pair,
            &mut oracle,
            Phase2Strategy::Exhaustive,
            Phase3Strategy::Ranked,
        );
        let (sa, sb) = driven.ids;
        bench.run(format!("derive/{objects}"), || {
            ocs_matrix(
                driven.session.catalog(),
                driven.session.equivalences(),
                sa,
                sb,
            )
        });
        bench.run(format!("ranked_pairs/{objects}"), || {
            driven.session.candidates::<GObj>(sa, sb)
        });
    }
    bench.finish().expect("write BENCH_ocs.json");
}
