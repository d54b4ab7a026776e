//! Schema-level resemblance and binary integration ordering.
//!
//! "The resemblance function among objects could be possibly extended to
//! derive a resemblance function \[for\] schemas which could be particularly
//! useful in picking similar schemas for integration in a binary approach."
//! (paper §4)
//!
//! [`schema_resemblance`] lifts the weighted object resemblance to whole
//! schemas (average best-match over the smaller schema's object classes);
//! [`best_integration_order`] greedily picks the fold order for n-ary
//! integration: start from the most similar pair, then repeatedly fold in
//! the schema most similar to the accumulated set — the ordering the
//! `nary_order` benchmark evaluates against arbitrary orders.

use sit_ecr::Schema;

use crate::weighted::WeightedResemblance;

/// Resemblance of two schemas in `[0, 1]`: the symmetric mean of each
/// side's average best-match object score.
pub fn schema_resemblance(w: &WeightedResemblance, a: &Schema, b: &Schema) -> f64 {
    if a.object_count() == 0 || b.object_count() == 0 {
        return 0.0;
    }
    (directed(w, a, b) + directed(w, b, a)) / 2.0
}

fn directed(w: &WeightedResemblance, from: &Schema, to: &Schema) -> f64 {
    let mut total = 0.0;
    for (_, so) in from.objects() {
        let best = to
            .objects()
            .map(|(_, lo)| w.object_score(&so.name, &so.attributes, &lo.name, &lo.attributes))
            .fold(0.0f64, f64::max);
        total += best;
    }
    total / from.object_count() as f64
}

/// Greedy fold order over `schemas` (indexes into the slice): the most
/// resemblant pair first, then always the schema most resemblant to any
/// already-chosen schema.
pub fn best_integration_order(w: &WeightedResemblance, schemas: &[&Schema]) -> Vec<usize> {
    let n = schemas.len();
    if n <= 2 {
        return (0..n).collect();
    }
    let mut sim = vec![vec![0.0f64; n]; n];
    for (i, si) in schemas.iter().enumerate() {
        for (j, sj) in schemas.iter().enumerate().skip(i + 1) {
            let s = schema_resemblance(w, si, sj);
            sim[i][j] = s;
            sim[j][i] = s;
        }
    }
    // Seed with the best pair.
    let (mut bi, mut bj, mut best) = (0, 1, f64::MIN);
    for (i, row) in sim.iter().enumerate() {
        for (j, &s) in row.iter().enumerate().skip(i + 1) {
            if s > best {
                best = s;
                bi = i;
                bj = j;
            }
        }
    }
    let mut order = vec![bi, bj];
    let mut remaining: Vec<usize> = (0..n).filter(|&k| k != bi && k != bj).collect();
    while !remaining.is_empty() {
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .map(|(pos, &k)| {
                let attach = order.iter().map(|&o| sim[o][k]).fold(f64::MIN, f64::max);
                (pos, attach)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty");
        order.push(remaining.remove(pos));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use sit_ecr::ddl::parse;

    fn uni_a() -> Schema {
        parse("schema ua { entity Student { name: char key; gpa: real; } entity Department { dname: char key; } }").unwrap()
    }

    fn uni_b() -> Schema {
        parse("schema ub { entity Pupil { name: char key; grade: real; } entity Dept { dept_name: char key; } }").unwrap()
    }

    fn shop() -> Schema {
        parse("schema shop { entity Invoice { inv_no: int key; total: real; } entity Sku { sku_code: char key; } }").unwrap()
    }

    #[test]
    fn similar_domains_score_higher() {
        let w = WeightedResemblance::default();
        let (a, b, c) = (uni_a(), uni_b(), shop());
        let uni_uni = schema_resemblance(&w, &a, &b);
        let uni_shop = schema_resemblance(&w, &a, &c);
        assert!(uni_uni > uni_shop, "{uni_uni} vs {uni_shop}");
        // Symmetry and bounds.
        assert!((schema_resemblance(&w, &b, &a) - uni_uni).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&uni_uni));
    }

    #[test]
    fn self_resemblance_is_maximal_among_candidates() {
        let w = WeightedResemblance::default();
        let a = uni_a();
        let self_sim = schema_resemblance(&w, &a, &a);
        assert!(self_sim > 0.9, "{self_sim}");
    }

    #[test]
    fn order_puts_similar_schemas_first() {
        let w = WeightedResemblance::default();
        let (a, b, c) = (uni_a(), uni_b(), shop());
        let order = best_integration_order(&w, &[&a, &c, &b]);
        // The two university schemas (indexes 0 and 2) come first.
        assert_eq!(order.len(), 3);
        assert!(
            order[..2].contains(&0) && order[..2].contains(&2),
            "{order:?}"
        );
        assert_eq!(order[2], 1);
    }

    #[test]
    fn degenerate_orders() {
        let w = WeightedResemblance::default();
        let a = uni_a();
        assert_eq!(best_integration_order(&w, &[&a]), vec![0]);
        let b = uni_b();
        assert_eq!(best_integration_order(&w, &[&a, &b]), vec![0, 1]);
    }
}
