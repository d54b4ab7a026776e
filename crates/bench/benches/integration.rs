//! B4 — full integration (phase 4) cost over size and overlap, plus the
//! mappings a session's `integrate` verb also builds and describes.

use sit_bench::harness::Bench;
use sit_bench::{drive_session, Phase2Strategy, Phase3Strategy};
use sit_core::integrate::IntegrationOptions;
use sit_core::mapping::Mappings;
use sit_datagen::oracle::GroundTruthOracle;
use sit_datagen::GeneratorConfig;

fn main() {
    let mut bench = Bench::new("integration").with_counts(2, 20);
    // Paper scale (6 objects and 2 relationship sets per schema, the
    // benchmark workload's pairs) first, then the size/overlap sweep.
    for (objects, rels, overlap) in [
        (6usize, 2usize, 0.5),
        (8, 3, 0.5),
        (16, 3, 0.5),
        (16, 3, 0.25),
        (16, 3, 0.75),
    ] {
        let pair = GeneratorConfig {
            objects_per_schema: objects,
            relationships_per_schema: rels,
            overlap,
            seed: 11,
            ..Default::default()
        }
        .generate_pair();
        let mut oracle = GroundTruthOracle::new(&pair.truth);
        let driven = drive_session(
            &pair,
            &mut oracle,
            Phase2Strategy::Exhaustive,
            Phase3Strategy::RankedWithClosure,
        );
        let (session, (sa, sb)) = (&driven.session, driven.ids);
        let id = if objects == 6 {
            format!("paper_{objects}obj_{rels}rel")
        } else {
            format!("{objects}obj_{overlap}ov")
        };
        bench.run(format!("integrate/{id}"), || {
            session
                .integrate(sa, sb, &IntegrationOptions::default())
                .unwrap()
        });
        // Ablation: pull-up of common attributes to derived superclasses.
        let options = IntegrationOptions {
            pull_up_common_attrs: true,
            ..Default::default()
        };
        bench.run(format!("integrate_pull_up/{id}"), || {
            session.integrate(sa, sb, &options).unwrap()
        });
        // What the `integrate` verb computes with `mappings: true`.
        bench.run(format!("integrate+mappings+describe/{id}"), || {
            let integrated = session
                .integrate(sa, sb, &IntegrationOptions::default())
                .unwrap();
            Mappings::new(session.catalog(), &integrated).describe()
        });
    }
    bench.finish().expect("write BENCH_integration.json");
}
