//! Schema-pair and schema-family generators with ground truth.
//!
//! [`GeneratorConfig::generate_pair`] builds two component schemas that
//! share a controlled fraction of underlying concepts. Shared concepts are
//! rendered in both schemas (with independent perturbations), and each
//! shared concept is assigned a *true relation*:
//!
//! * most render plainly in both → **equals**;
//! * a configured fraction render in the second schema as a
//!   specialization (`Senior_…`) → the first schema's class **contains**
//!   the second's;
//! * another fraction render as an overlapping variant (`Part_time_…`) →
//!   **may be** (overlap).
//!
//! Unshared concepts are unrelated across schemas (implicitly disjoint and
//! non-integrable). The returned [`GroundTruth`] lists every true object
//! assertion and every true attribute equivalence, which the oracles
//! answer from and the benchmarks score against.

use sit_prng::Xoshiro256pp;

use sit_core::assertion::Assertion;
use sit_ecr::{Cardinality, Schema, SchemaBuilder};

use crate::concepts::ConceptPool;
use crate::ground_truth::{GroundTruth, TrueAssertion};
use crate::perturb::{Perturber, Rendering};

/// Knobs of the workload generator.
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// RNG seed — everything is deterministic per seed.
    pub seed: u64,
    /// Object classes per generated schema.
    pub objects_per_schema: usize,
    /// Fraction of each schema's concepts shared with the other
    /// (`0.0..=1.0`).
    pub overlap: f64,
    /// Of the shared concepts, the fraction rendered as a specialization
    /// in the second schema (true assertion: *contains*).
    pub contained_frac: f64,
    /// Of the shared concepts, the fraction rendered as an overlapping
    /// variant (true assertion: *may be*).
    pub mayby_frac: f64,
    /// Of the plainly shared (*equals*) concepts, the fraction that also
    /// sprout a specialized *category* in the second schema. Those
    /// categories make the closure engine earn its keep: the relation of
    /// `(A.X, B.Senior_X)` is derivable from `A.X ≡ B.X` plus the
    /// intra-schema edge `B.Senior_X ⊂ B.X`, so a ranked-with-closure DDA
    /// is never asked about it.
    pub category_frac: f64,
    /// Naming/attribute perturbations.
    pub perturber: Perturber,
    /// Binary relationship sets generated within each schema.
    pub relationships_per_schema: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            seed: 0xEC12,
            objects_per_schema: 8,
            overlap: 0.5,
            contained_frac: 0.2,
            mayby_frac: 0.1,
            category_frac: 0.0,
            perturber: Perturber::default(),
            relationships_per_schema: 3,
        }
    }
}

/// A generated pair with its truth.
#[derive(Clone, Debug)]
pub struct GeneratedPair {
    /// First component schema.
    pub a: Schema,
    /// Second component schema.
    pub b: Schema,
    /// What truly corresponds.
    pub truth: GroundTruth,
}

/// A generated family of `n` schemas for n-ary workloads, with pairwise
/// truth between consecutive and non-consecutive members alike.
#[derive(Clone, Debug)]
pub struct SchemaFamily {
    /// The component schemas.
    pub schemas: Vec<Schema>,
    /// `truths[i][j]` (i < j): ground truth between schemas `i` and `j`.
    pub truths: Vec<Vec<GroundTruth>>,
}

impl GeneratorConfig {
    /// Generate one schema pair plus ground truth.
    pub fn generate_pair(&self) -> GeneratedPair {
        let mut rng = Xoshiro256pp::seed_from_u64(self.seed);
        let mut pool = ConceptPool::builtin();
        let shared = ((self.objects_per_schema as f64) * self.overlap).round() as usize;
        let shared = shared.min(self.objects_per_schema);
        let unique = self.objects_per_schema - shared;
        pool.ensure(shared + 2 * unique);

        // Concept indexes: shared, then A's uniques, then B's uniques.
        let a_concepts: Vec<usize> = (0..shared).chain(shared..shared + unique).collect();
        let b_concepts: Vec<usize> = (0..shared)
            .chain(shared + unique..shared + 2 * unique)
            .collect();

        let mut truth = GroundTruth::default();
        let mut builder_a = NamedBuilder::new("gen_a");
        let mut builder_b = NamedBuilder::new("gen_b");

        // Render A side first.
        let mut renderings_a: Vec<Rendering> = Vec::new();
        for &ci in &a_concepts {
            let r = self.perturber.render(pool.get(ci), &mut rng);
            renderings_a.push(r);
        }
        for r in &mut renderings_a {
            builder_a.add_object(r);
        }

        // Render B side with per-concept relation decisions for the shared
        // prefix.
        let mut renderings_b: Vec<Rendering> = Vec::new();
        let mut relations: Vec<Option<Assertion>> = Vec::new();
        for (pos, &ci) in b_concepts.iter().enumerate() {
            if pos < shared {
                let roll: f64 = rng.gen_f64();
                let (rendering, assertion) = if roll < self.contained_frac {
                    (
                        self.perturber
                            .render_specialization(pool.get(ci), "Senior", &mut rng),
                        Assertion::Contains, // A contains B
                    )
                } else if roll < self.contained_frac + self.mayby_frac {
                    (
                        self.perturber
                            .render_specialization(pool.get(ci), "Part_time", &mut rng),
                        Assertion::MayBe,
                    )
                } else {
                    (
                        self.perturber.render(pool.get(ci), &mut rng),
                        Assertion::Equal,
                    )
                };
                renderings_b.push(rendering);
                relations.push(Some(assertion));
            } else {
                renderings_b.push(self.perturber.render(pool.get(ci), &mut rng));
                relations.push(None);
            }
        }
        for r in &mut renderings_b {
            builder_b.add_object(r);
        }

        // In-place category specializations on the equals-shared prefix.
        let mut extra_truth: Vec<(usize, Rendering)> = Vec::new();
        for pos in 0..shared {
            if relations[pos] == Some(Assertion::Equal) && rng.gen_bool(self.category_frac) {
                let ci = b_concepts[pos];
                let cat = self
                    .perturber
                    .render_specialization(pool.get(ci), "Senior", &mut rng);
                extra_truth.push((pos, cat));
            }
        }
        for (pos, cat) in &mut extra_truth {
            let parent = renderings_b[*pos].name.clone();
            builder_b.add_category(cat, &parent);
        }

        // Ground truth from the shared prefix.
        for pos in 0..shared {
            let ra = &renderings_a[pos];
            let rb = &renderings_b[pos];
            let assertion = relations[pos].expect("shared prefix has relations");
            truth.assertions.push(TrueAssertion {
                a: ra.name.clone(),
                b: rb.name.clone(),
                assertion,
            });
            // Attribute truth: same prototype rendered on both sides.
            for aa in &ra.attrs {
                let Some(pa) = aa.proto else { continue };
                for ab in &rb.attrs {
                    if ab.proto == Some(pa) {
                        truth.attr_pairs.push((
                            ra.name.clone(),
                            aa.attr.name.clone(),
                            rb.name.clone(),
                            ab.attr.name.clone(),
                        ));
                    }
                }
            }
        }

        // Truth for the in-place categories: A's rendering contains them,
        // and their surviving prototype attributes correspond.
        for (pos, cat) in &extra_truth {
            let ra = &renderings_a[*pos];
            truth.assertions.push(TrueAssertion {
                a: ra.name.clone(),
                b: cat.name.clone(),
                assertion: Assertion::Contains,
            });
            for aa in &ra.attrs {
                let Some(pa) = aa.proto else { continue };
                for ab in &cat.attrs {
                    if ab.proto == Some(pa) {
                        truth.attr_pairs.push((
                            ra.name.clone(),
                            aa.attr.name.clone(),
                            cat.name.clone(),
                            ab.attr.name.clone(),
                        ));
                    }
                }
            }
        }

        // Intra-schema relationships.
        builder_a.add_relationships(self.relationships_per_schema, &mut rng);
        builder_b.add_relationships(self.relationships_per_schema, &mut rng);

        GeneratedPair {
            a: builder_a.build(),
            b: builder_b.build(),
            truth,
        }
    }

    /// Generate a family of `n` schemas sharing one concept core. Every
    /// schema renders shared concepts (related by *equals*) plus its own
    /// unique tail; pairwise ground truth is derived from concept
    /// identity. With `hetero`, schemas in the second half of the family
    /// share only half the core, making some pairs much more resemblant
    /// than others — the workload of the fold-order experiment.
    pub fn generate_family_with(&self, n: usize, hetero: bool) -> SchemaFamily {
        assert!(n >= 2);
        let mut rng = Xoshiro256pp::seed_from_u64(self.seed ^ 0xFA417);
        let mut pool = ConceptPool::builtin();
        let shared = ((self.objects_per_schema as f64) * self.overlap).round() as usize;
        let shared = shared.min(self.objects_per_schema);
        let shared_of = |s: usize| -> usize {
            if hetero && s >= n / 2 {
                shared / 2
            } else {
                shared
            }
        };
        pool.ensure(shared + n * self.objects_per_schema);

        let mut all_renderings: Vec<Vec<Rendering>> = Vec::with_capacity(n);
        let mut schemas = Vec::with_capacity(n);
        for s in 0..n {
            let mut builder = NamedBuilder::new(format!("fam_{s}"));
            let mut renderings = Vec::new();
            let s_shared = shared_of(s);
            for ci in 0..s_shared {
                renderings.push(self.perturber.render(pool.get(ci), &mut rng));
            }
            // Pad the schema back to full size with unique concepts.
            let fill = self.objects_per_schema - s_shared;
            for u in 0..fill {
                let ci = shared + s * self.objects_per_schema + u;
                renderings.push(self.perturber.render(pool.get(ci), &mut rng));
            }
            for r in &mut renderings {
                builder.add_object(r);
            }
            builder.add_relationships(self.relationships_per_schema, &mut rng);
            schemas.push(builder.build());
            all_renderings.push(renderings);
        }

        let mut truths: Vec<Vec<GroundTruth>> = vec![vec![GroundTruth::default(); n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let common = shared_of(i).min(shared_of(j));
                let mut gt = GroundTruth::default();
                for (ra, rb) in all_renderings[i][..common]
                    .iter()
                    .zip(&all_renderings[j][..common])
                {
                    gt.assertions.push(TrueAssertion {
                        a: ra.name.clone(),
                        b: rb.name.clone(),
                        assertion: Assertion::Equal,
                    });
                    for aa in &ra.attrs {
                        let Some(pa) = aa.proto else { continue };
                        for ab in &rb.attrs {
                            if ab.proto == Some(pa) {
                                gt.attr_pairs.push((
                                    ra.name.clone(),
                                    aa.attr.name.clone(),
                                    rb.name.clone(),
                                    ab.attr.name.clone(),
                                ));
                            }
                        }
                    }
                }
                truths[i][j] = gt;
            }
        }
        SchemaFamily { schemas, truths }
    }

    /// Homogeneous family: every schema shares the full core.
    pub fn generate_family(&self, n: usize) -> SchemaFamily {
        self.generate_family_with(n, false)
    }
}

/// Schema assembly with object-name uniquification (alternate-name
/// collisions get numeric suffixes, and the rendering is updated so
/// ground truth uses the final name) and attribute-name dedup per object.
struct NamedBuilder {
    builder: SchemaBuilder,
    used: Vec<String>,
}

impl NamedBuilder {
    fn new(name: impl Into<String>) -> Self {
        Self {
            builder: SchemaBuilder::new(name),
            used: Vec::new(),
        }
    }

    fn add_object(&mut self, r: &mut Rendering) {
        self.add_structure(r, None);
    }

    fn add_category(&mut self, r: &mut Rendering, parent: &str) {
        self.add_structure(r, Some(parent.to_owned()));
    }

    fn add_structure(&mut self, r: &mut Rendering, parent: Option<String>) {
        let mut name = r.name.clone();
        let mut n = 1;
        while self.used.contains(&name) {
            n += 1;
            name = format!("{}_{n}", r.name);
        }
        self.used.push(name.clone());
        r.name = name.clone();

        let mut ob = match parent {
            Some(p) => self
                .builder
                .category_of(name, &[p.as_str()])
                .expect("parent was added before its categories"),
            None => self.builder.entity_set(name),
        };
        let mut attr_names: Vec<String> = Vec::new();
        for ra in &mut r.attrs {
            let mut aname = ra.attr.name.clone();
            let mut k = 1;
            while attr_names.contains(&aname) {
                k += 1;
                aname = format!("{}_{k}", ra.attr.name);
            }
            attr_names.push(aname.clone());
            ra.attr.name = aname.clone();
            ob = if ra.attr.is_key() {
                ob.attr_key(aname, ra.attr.domain.clone())
            } else {
                ob.attr(aname, ra.attr.domain.clone())
            };
        }
        ob.finish();
    }

    fn add_relationships(&mut self, count: usize, rng: &mut Xoshiro256pp) {
        let n = self.used.len();
        if n < 2 {
            return;
        }
        for i in 0..count {
            let x = rng.gen_range(0..n);
            let mut y = rng.gen_range(0..n);
            if x == y {
                y = (y + 1) % n;
            }
            let ox = self.builder.object_by_name(&self.used[x]).expect("added");
            let oy = self.builder.object_by_name(&self.used[y]).expect("added");
            self.builder
                .relationship(format!("rel_{i}_{x}_{y}"))
                .participant(ox, Cardinality::MANY)
                .participant(oy, Cardinality::MANY)
                .finish();
        }
    }

    fn build(self) -> Schema {
        self.builder.build().expect("generated schemas are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_generation_is_deterministic_and_valid() {
        let config = GeneratorConfig::default();
        let p1 = config.generate_pair();
        let p2 = config.generate_pair();
        assert_eq!(p1.a, p2.a);
        assert_eq!(p1.b, p2.b);
        assert_eq!(p1.a.object_count(), config.objects_per_schema);
        assert_eq!(p1.b.object_count(), config.objects_per_schema);
        assert_eq!(p1.a.relationship_count(), config.relationships_per_schema);
    }

    #[test]
    fn generation_is_stable_across_processes() {
        // Cross-run determinism: the default pair's DDL hashes to a pinned
        // value, so a change to the PRNG sequence or to rendering order is
        // caught even between separate `cargo test` invocations (the
        // in-process `p1 == p2` check above can't see that).
        let pair = GeneratorConfig::default().generate_pair();
        let text = format!(
            "{}\n{}",
            sit_ecr::ddl::print(&pair.a),
            sit_ecr::ddl::print(&pair.b)
        );
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(
            hash, 15_024_438_975_518_843_854,
            "generated schemas changed; re-pin this FNV-1a hash if the change is intentional"
        );
    }

    #[test]
    fn truth_matches_overlap_fraction() {
        let config = GeneratorConfig {
            objects_per_schema: 10,
            overlap: 0.6,
            ..Default::default()
        };
        let p = config.generate_pair();
        assert_eq!(p.truth.pair_count(), 6);
        // All truth names exist in their schemas.
        for t in &p.truth.assertions {
            assert!(p.a.object_by_name(&t.a).is_some(), "{}", t.a);
            assert!(p.b.object_by_name(&t.b).is_some(), "{}", t.b);
        }
        for (oa, aa, ob, ab) in &p.truth.attr_pairs {
            let o = p.a.object(p.a.object_by_name(oa).unwrap());
            assert!(o.attr_by_name(aa).is_some(), "{oa}.{aa}");
            let o = p.b.object(p.b.object_by_name(ob).unwrap());
            assert!(o.attr_by_name(ab).is_some(), "{ob}.{ab}");
        }
    }

    #[test]
    fn zero_overlap_means_no_truth() {
        let config = GeneratorConfig {
            overlap: 0.0,
            ..Default::default()
        };
        let p = config.generate_pair();
        assert_eq!(p.truth.pair_count(), 0);
        assert!(p.truth.attr_pairs.is_empty());
    }

    #[test]
    fn full_overlap_relates_every_object() {
        let config = GeneratorConfig {
            overlap: 1.0,
            contained_frac: 0.0,
            mayby_frac: 0.0,
            ..Default::default()
        };
        let p = config.generate_pair();
        assert_eq!(p.truth.pair_count(), config.objects_per_schema);
        assert!(p
            .truth
            .assertions
            .iter()
            .all(|t| t.assertion == Assertion::Equal));
    }

    #[test]
    fn contained_fraction_generates_contains_assertions() {
        let config = GeneratorConfig {
            objects_per_schema: 20,
            overlap: 1.0,
            contained_frac: 1.0,
            mayby_frac: 0.0,
            ..Default::default()
        };
        let p = config.generate_pair();
        assert!(p
            .truth
            .assertions
            .iter()
            .all(|t| t.assertion == Assertion::Contains));
        // Specializations carry the Senior_ prefix.
        assert!(p
            .truth
            .assertions
            .iter()
            .all(|t| t.b.starts_with("Senior_")));
    }

    #[test]
    fn family_generation_shares_a_core() {
        let config = GeneratorConfig {
            objects_per_schema: 6,
            overlap: 0.5,
            ..Default::default()
        };
        let fam = config.generate_family(4);
        assert_eq!(fam.schemas.len(), 4);
        for s in &fam.schemas {
            assert_eq!(s.object_count(), 6);
        }
        // Pairwise truth: 3 shared concepts each.
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_eq!(fam.truths[i][j].pair_count(), 3, "({i},{j})");
            }
        }
    }

    #[test]
    fn large_scale_generation_stays_valid() {
        let config = GeneratorConfig {
            objects_per_schema: 120,
            overlap: 0.4,
            relationships_per_schema: 20,
            ..Default::default()
        };
        let p = config.generate_pair();
        assert_eq!(p.a.object_count(), 120);
        assert!(sit_ecr::validate(&p.a).is_empty());
        assert!(sit_ecr::validate(&p.b).is_empty());
    }
}
