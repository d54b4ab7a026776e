//! B2 — cost of the ranking heuristics (quality numbers come from the
//! `report` binary): attribute-ratio ranking vs weighted matcher
//! suggestion.

use sit_bench::harness::Bench;
use sit_bench::{drive_session, Phase2Strategy, Phase3Strategy};
use sit_core::catalog::GObj;
use sit_core::session::Session;
use sit_datagen::oracle::GroundTruthOracle;
use sit_datagen::GeneratorConfig;
use sit_matcher::suggest::suggest_equivalences;
use sit_matcher::WeightedResemblance;

fn main() {
    let mut bench = Bench::new("heuristic_quality").with_counts(2, 20);
    for objects in [8usize, 16, 32] {
        let pair = GeneratorConfig {
            objects_per_schema: objects,
            overlap: 0.5,
            seed: 42,
            ..Default::default()
        }
        .generate_pair();
        // Ranking after a full phase 2.
        let mut oracle = GroundTruthOracle::new(&pair.truth);
        let driven = drive_session(
            &pair,
            &mut oracle,
            Phase2Strategy::Exhaustive,
            Phase3Strategy::Ranked,
        );
        bench.run(format!("attribute_ratio_rank/{objects}"), || {
            driven
                .session
                .candidates::<GObj>(driven.ids.0, driven.ids.1)
        });
        // Matcher suggestion sweep over all attribute pairs.
        let mut session = Session::new();
        let sa = session.add_schema(pair.a.clone()).unwrap();
        let sb = session.add_schema(pair.b.clone()).unwrap();
        let w = WeightedResemblance::default();
        bench.run(format!("matcher_suggest/{objects}"), || {
            suggest_equivalences(session.catalog(), &w, sa, sb, 0.55)
        });
    }
    bench.finish().expect("write BENCH_heuristic_quality.json");
}
