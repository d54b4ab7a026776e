//! String-matching heuristics for attribute and object names.
//!
//! These are the "syntactic processing enhancements" of the paper's
//! future-work section: scores in `[0, 1]` measuring how alike two
//! identifiers are, robust to the naming conventions schema designers
//! actually use (case, underscores, abbreviation).

/// Classic Levenshtein edit distance (insert/delete/substitute, unit
/// costs), O(|a|·|b|) time, O(min) space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let (short, long) = if a.len() <= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Levenshtein scaled into a similarity: `1 - dist / max_len` (1.0 for two
/// empty strings).
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    let max = a.chars().count().max(b.chars().count());
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max as f64
}

/// Jaccard similarity of character trigram sets (with `^`/`$` padding so
/// short names still produce trigrams).
pub fn jaccard_trigrams(a: &str, b: &str) -> f64 {
    let ta = trigrams(a);
    let tb = trigrams(b);
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    let inter = ta.iter().filter(|t| tb.contains(*t)).count();
    let union = ta.len() + tb.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

fn trigrams(s: &str) -> Vec<[char; 3]> {
    let padded: Vec<char> = std::iter::once('^')
        .chain(s.chars())
        .chain(std::iter::once('$'))
        .collect();
    let mut out: Vec<[char; 3]> = padded.windows(3).map(|w| [w[0], w[1], w[2]]).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Split an identifier into lowercase tokens at underscores, hyphens and
/// case boundaries (`Grad_student` → `["grad", "student"]`,
/// `deptNo` → `["dept", "no"]`).
pub fn tokens(name: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut prev_lower = false;
    for c in name.chars() {
        if c == '_' || c == '-' || c == ' ' {
            if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
            prev_lower = false;
            continue;
        }
        if c.is_uppercase() && prev_lower && !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
        prev_lower = c.is_lowercase() || c.is_ascii_digit();
        cur.extend(c.to_lowercase());
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// `true` when `short` abbreviates `long`: at least three characters,
/// same initial, and `short` is an ordered subsequence of `long`
/// (`dept` ⊑ `department`, `qty` ⊑ `quantity`).
pub fn is_abbreviation(short: &str, long: &str) -> bool {
    if short.chars().count() < 3 || short.len() >= long.len() {
        return false;
    }
    let mut sc = short.chars();
    let mut lc = long.chars();
    match (sc.next(), lc.next()) {
        (Some(s0), Some(l0)) if s0 == l0 => {}
        _ => return false,
    }
    let mut need = sc.peekable();
    for c in lc {
        if need.peek() == Some(&c) {
            need.next();
        }
    }
    need.peek().is_none()
}

/// Composite name similarity: the maximum of normalized edit similarity,
/// trigram Jaccard, and token overlap (Dice), all computed on the
/// lowercased forms. Also credits abbreviation: if one token abbreviates
/// the other (`dept`/`department`), that token pair counts as a match.
pub fn name_similarity(a: &str, b: &str) -> f64 {
    let la = a.to_lowercase();
    let lb = b.to_lowercase();
    if la == lb {
        return 1.0;
    }
    let lev = normalized_levenshtein(&la, &lb);
    let tri = jaccard_trigrams(&la, &lb);
    let ta = tokens(a);
    let tb = tokens(b);
    let dice = if ta.is_empty() || tb.is_empty() {
        0.0
    } else {
        let matched = ta
            .iter()
            .filter(|x| {
                tb.iter()
                    .any(|y| x == &y || is_abbreviation(x, y) || is_abbreviation(y, x))
            })
            .count();
        2.0 * matched as f64 / (ta.len() + tb.len()) as f64
    };
    lev.max(tri).max(dice)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "ab"), 2);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("same", "same"), 0);
        // Symmetric.
        assert_eq!(
            levenshtein("abcdef", "azced"),
            levenshtein("azced", "abcdef")
        );
    }

    #[test]
    fn normalized_levenshtein_range() {
        assert_eq!(normalized_levenshtein("", ""), 1.0);
        assert_eq!(normalized_levenshtein("a", "a"), 1.0);
        assert_eq!(normalized_levenshtein("abc", "xyz"), 0.0);
        let v = normalized_levenshtein("name", "fname");
        assert!(v > 0.7 && v < 1.0, "{v}");
    }

    #[test]
    fn trigram_similarity() {
        assert_eq!(jaccard_trigrams("", ""), 1.0);
        assert!(jaccard_trigrams("department", "departament") > 0.5);
        assert!(jaccard_trigrams("salary", "office") < 0.2);
    }

    #[test]
    fn tokenization() {
        assert_eq!(tokens("Grad_student"), vec!["grad", "student"]);
        assert_eq!(tokens("deptNo"), vec!["dept", "no"]);
        assert_eq!(tokens("SSN"), vec!["ssn"]);
        assert_eq!(tokens("birth-date"), vec!["birth", "date"]);
        assert!(tokens("").is_empty());
    }

    #[test]
    fn abbreviation_subsequence_check() {
        assert!(is_abbreviation("dept", "department"));
        assert!(is_abbreviation("qty", "quantity"));
        assert!(!is_abbreviation("dept", "separate"), "initials differ");
        assert!(!is_abbreviation("no", "number"), "too short");
        assert!(!is_abbreviation("department", "dept"), "short side first");
        assert!(!is_abbreviation("dxz", "department"), "not a subsequence");
    }

    #[test]
    fn name_similarity_recognizes_conventions() {
        assert_eq!(name_similarity("Name", "name"), 1.0);
        assert!(name_similarity("dept_no", "DeptNo") > 0.9);
        // Abbreviation credit.
        assert!(name_similarity("dept_name", "department_name") > 0.8);
        assert!(name_similarity("GPA", "Salary") < 0.3);
        // Symmetric.
        let ab = name_similarity("student_name", "name_of_student");
        let ba = name_similarity("name_of_student", "student_name");
        assert!((ab - ba).abs() < 1e-12);
    }
}
