//! Naming and attribute perturbations: how the same concept ends up
//! looking different in two independently designed schemas.

use sit_prng::Xoshiro256pp;

use crate::concepts::{Concept, ConceptAttr};

/// Applies designer-style perturbations to concept renderings.
#[derive(Clone, Debug)]
pub struct Perturber {
    /// Probability that a rendered name uses an alternate instead of the
    /// canonical name.
    pub rename_prob: f64,
    /// Probability that a prototypical non-key attribute is dropped.
    pub drop_attr_prob: f64,
    /// Probability of adding a schema-local extra attribute.
    pub extra_attr_prob: f64,
}

impl Default for Perturber {
    fn default() -> Self {
        Self {
            rename_prob: 0.4,
            drop_attr_prob: 0.2,
            extra_attr_prob: 0.3,
        }
    }
}

/// A concept as rendered in one schema, plus which prototype attributes
/// survived (by index) so ground truth can align renderings.
#[derive(Clone, Debug)]
pub struct Rendering {
    /// The object class name used in this schema.
    pub name: String,
    /// Rendered attributes: `(prototype index or None for extras, name,
    /// attribute)`.
    pub attrs: Vec<RenderedAttr>,
}

/// One rendered attribute.
#[derive(Clone, Debug)]
pub struct RenderedAttr {
    /// Index of the prototype attribute this renders (`None` = extra).
    pub proto: Option<usize>,
    /// The rendered attribute.
    pub attr: sit_ecr::Attribute,
}

impl Perturber {
    /// Render `concept` for one schema.
    pub fn render(&self, concept: &Concept, rng: &mut Xoshiro256pp) -> Rendering {
        let name = self.pick_name(&concept.name, &concept.alternates, rng);
        let mut attrs = Vec::new();
        for (i, proto) in concept.attrs.iter().enumerate() {
            if !proto.key && rng.gen_bool(self.drop_attr_prob) {
                continue;
            }
            attrs.push(RenderedAttr {
                proto: Some(i),
                attr: self.render_attr(proto, rng),
            });
        }
        if rng.gen_bool(self.extra_attr_prob) {
            let extra_no: u32 = rng.gen_range(0u32..1000);
            attrs.push(RenderedAttr {
                proto: None,
                attr: sit_ecr::Attribute::new(format!("note_{extra_no}"), sit_ecr::Domain::Char),
            });
        }
        Rendering { name, attrs }
    }

    /// Render a specialized (subset) variant of a concept: prefixed name,
    /// the prototype's key, and a couple of subset-specific attributes.
    pub fn render_specialization(
        &self,
        concept: &Concept,
        prefix: &str,
        rng: &mut Xoshiro256pp,
    ) -> Rendering {
        let base = self.pick_name(&concept.name, &concept.alternates, rng);
        let mut attrs = Vec::new();
        for (i, proto) in concept.attrs.iter().enumerate() {
            // Specializations keep the key and roughly half the rest.
            if proto.key || rng.gen_bool(0.5) {
                attrs.push(RenderedAttr {
                    proto: Some(i),
                    attr: self.render_attr(proto, rng),
                });
            }
        }
        let extra_no: u32 = rng.gen_range(0u32..1000);
        attrs.push(RenderedAttr {
            proto: None,
            attr: sit_ecr::Attribute::new(
                format!("{}_only_{extra_no}", prefix.to_lowercase()),
                sit_ecr::Domain::Char,
            ),
        });
        Rendering {
            name: format!("{prefix}_{base}"),
            attrs,
        }
    }

    fn render_attr(&self, proto: &ConceptAttr, rng: &mut Xoshiro256pp) -> sit_ecr::Attribute {
        let name = self.pick_name(&proto.name, &proto.alternates, rng);
        sit_ecr::Attribute {
            name,
            domain: proto.domain.clone(),
            key: proto.key.into(),
        }
    }

    fn pick_name(&self, canonical: &str, alternates: &[String], rng: &mut Xoshiro256pp) -> String {
        if !alternates.is_empty() && rng.gen_bool(self.rename_prob) {
            alternates[rng.gen_range(0..alternates.len())].clone()
        } else {
            canonical.to_owned()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concepts::ConceptPool;

    #[test]
    fn render_keeps_keys_and_tracks_prototypes() {
        let pool = ConceptPool::builtin();
        let p = Perturber {
            drop_attr_prob: 0.9,
            ..Default::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for c in pool.concepts() {
            let r = p.render(c, &mut rng);
            // The key always survives.
            assert!(
                r.attrs.iter().any(|a| a.attr.is_key()),
                "{} kept its key",
                c.name
            );
            // Every prototype index is in range.
            for ra in &r.attrs {
                if let Some(i) = ra.proto {
                    assert!(i < c.attrs.len());
                }
            }
        }
    }

    #[test]
    fn rename_prob_zero_uses_canonical_names() {
        let pool = ConceptPool::builtin();
        let p = Perturber {
            rename_prob: 0.0,
            drop_attr_prob: 0.0,
            extra_attr_prob: 0.0,
        };
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let r = p.render(pool.get(0), &mut rng);
        assert_eq!(r.name, pool.get(0).name);
        assert_eq!(r.attrs.len(), pool.get(0).attrs.len());
    }

    #[test]
    fn rename_prob_one_uses_alternates() {
        let pool = ConceptPool::builtin();
        let p = Perturber {
            rename_prob: 1.0,
            drop_attr_prob: 0.0,
            extra_attr_prob: 0.0,
        };
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let c = pool.get(0);
        let r = p.render(c, &mut rng);
        assert!(c.alternates.contains(&r.name), "{}", r.name);
    }

    #[test]
    fn specialization_is_prefixed_and_has_extra() {
        let pool = ConceptPool::builtin();
        let p = Perturber {
            rename_prob: 0.0,
            ..Default::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let r = p.render_specialization(pool.get(0), "Senior", &mut rng);
        assert!(r.name.starts_with("Senior_"));
        assert!(
            r.attrs.iter().any(|a| a.proto.is_none()),
            "subset-specific attr"
        );
        assert!(r.attrs.iter().any(|a| a.attr.is_key()));
    }

    #[test]
    fn rendering_is_deterministic_per_seed() {
        let pool = ConceptPool::builtin();
        let p = Perturber::default();
        let mut r1 = Xoshiro256pp::seed_from_u64(42);
        let mut r2 = Xoshiro256pp::seed_from_u64(42);
        let a = p.render(pool.get(3), &mut r1);
        let b = p.render(pool.get(3), &mut r2);
        assert_eq!(a.name, b.name);
        assert_eq!(a.attrs.len(), b.attrs.len());
    }
}
