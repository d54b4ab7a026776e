//! The five integration assertions and their underlying domain-relation
//! algebra.
//!
//! An *assertion* specifies the relationship between the (real-world)
//! domains of two object classes from different schemas (paper §2). The
//! user-facing vocabulary — with the numeric codes of Screens 8 and 9 — is:
//!
//! | code | assertion | domain relation |
//! |------|-----------|-----------------|
//! | 1 | equals | identical domains |
//! | 2 | contained in | dom(a) ⊂ dom(b) |
//! | 3 | contains | dom(a) ⊃ dom(b) |
//! | 4 | disjoint but integrable | dom(a) ∩ dom(b) = ∅, derived superclass wanted |
//! | 5 | may be integrable | domains overlap, neither contains the other |
//! | 0 | disjoint & non-integrable | dom(a) ∩ dom(b) = ∅, kept separate |
//!
//! Semantically these collapse onto the five jointly-exhaustive,
//! mutually-exclusive relations between two non-empty sets — exactly the
//! RCC5 base relations ([`Rel5`]): equal, proper part, inverse proper part,
//! partial overlap, and disjoint. The paper's "rules of transitive
//! composition of assertions (such as if a ⊆ b and b ⊆ c then a ⊆ c)" are
//! the RCC5 composition table; we implement it in full, over *sets* of
//! possible relations ([`Rel5Set`]), which also powers the consistency
//! check: a group of assertions is contradictory exactly when propagation
//! empties some pair's possible-relation set.

use std::fmt;

/// The five base relations between two non-empty sets.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Rel5 {
    /// Identical domains (`EQ`).
    Eq = 0,
    /// `a` is a proper subset of `b` (`PP`).
    Pp = 1,
    /// `a` is a proper superset of `b` (`PPi`).
    Ppi = 2,
    /// Partial overlap: intersect, neither contains the other (`PO`).
    Po = 3,
    /// Disjoint (`DR`).
    Dr = 4,
}

impl Rel5 {
    /// All five relations, in bit order.
    pub const ALL: [Rel5; 5] = [Rel5::Eq, Rel5::Pp, Rel5::Ppi, Rel5::Po, Rel5::Dr];

    /// The converse relation: `R(a,b)` holds iff `conv(R)(b,a)` holds.
    pub fn converse(self) -> Rel5 {
        match self {
            Rel5::Pp => Rel5::Ppi,
            Rel5::Ppi => Rel5::Pp,
            other => other,
        }
    }

    /// Bit within a [`Rel5Set`].
    #[inline]
    const fn bit(self) -> u8 {
        1 << (self as u8)
    }

    /// Short name (`EQ`, `PP`, `PPi`, `PO`, `DR`).
    pub fn tag(self) -> &'static str {
        match self {
            Rel5::Eq => "EQ",
            Rel5::Pp => "PP",
            Rel5::Ppi => "PPi",
            Rel5::Po => "PO",
            Rel5::Dr => "DR",
        }
    }
}

impl fmt::Display for Rel5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// RCC5 composition table: `COMPOSE[r][s]` is the set of relations possible
/// between `a` and `c` given `r(a,b)` and `s(b,c)`, assuming all domains
/// are non-empty. Rows/columns follow [`Rel5`]'s discriminant order
/// (EQ, PP, PPi, PO, DR).
const COMPOSE: [[u8; 5]; 5] = {
    const EQ: u8 = 1 << 0;
    const PP: u8 = 1 << 1;
    const PPI: u8 = 1 << 2;
    const PO: u8 = 1 << 3;
    const DR: u8 = 1 << 4;
    const ALL: u8 = EQ | PP | PPI | PO | DR;
    [
        // r = EQ
        [EQ, PP, PPI, PO, DR],
        // r = PP
        [PP, PP, ALL, DR | PO | PP, DR],
        // r = PPi
        [PPI, EQ | PP | PPI | PO, PPI, PO | PPI, DR | PO | PPI],
        // r = PO
        [PO, PO | PP, DR | PO | PPI, ALL, DR | PO | PPI],
        // r = DR
        [DR, DR | PO | PP, DR, DR | PO | PP, ALL],
    ]
};

/// [`COMPOSE`] lifted to sets: `COMPOSE_SETS[x][y]` is the union of
/// `COMPOSE[r][s]` over every `r` in bit set `x` and `s` in bit set `y`.
/// Built at compile time so [`Rel5Set::compose`] is one load.
const COMPOSE_SETS: [[u8; 32]; 32] = {
    let mut table = [[0u8; 32]; 32];
    let mut x = 0;
    while x < 32 {
        let mut y = 0;
        while y < 32 {
            let mut out = 0u8;
            let mut r = 0;
            while r < 5 {
                let mut s = 0;
                while s < 5 {
                    if x & (1 << r) != 0 && y & (1 << s) != 0 {
                        out |= COMPOSE[r][s];
                    }
                    s += 1;
                }
                r += 1;
            }
            table[x][y] = out;
            y += 1;
        }
        x += 1;
    }
    table
};

/// `CONVERSE_SETS[x]` is bit set `x` with `PP` and `PPi` swapped — the
/// only pair of [`Rel5`] relations that are not their own converse.
const CONVERSE_SETS: [u8; 32] = {
    let mut table = [0u8; 32];
    let mut x = 0;
    while x < 32 {
        let pp = (x as u8 >> 1) & 1;
        let ppi = (x as u8 >> 2) & 1;
        table[x] = (x as u8 & 0b11001) | (pp << 2) | (ppi << 1);
        x += 1;
    }
    table
};

/// A set of possible [`Rel5`] relations between a fixed ordered pair,
/// represented as a 5-bit mask. The constraint network refines these sets;
/// an empty set signals a contradiction.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rel5Set(u8);

impl Rel5Set {
    /// No relation possible — a contradiction.
    pub const EMPTY: Rel5Set = Rel5Set(0);
    /// All five relations possible — no information.
    pub const ALL: Rel5Set = Rel5Set(0b11111);

    /// Singleton set.
    pub const fn only(r: Rel5) -> Rel5Set {
        Rel5Set(r.bit())
    }

    /// From raw bits (masked to the low five).
    pub const fn from_bits(bits: u8) -> Rel5Set {
        Rel5Set(bits & 0b11111)
    }

    /// Raw bits.
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Membership test.
    pub const fn contains(self, r: Rel5) -> bool {
        self.0 & r.bit() != 0
    }

    /// Set intersection (constraint conjunction).
    pub const fn intersect(self, other: Rel5Set) -> Rel5Set {
        Rel5Set(self.0 & other.0)
    }

    /// Set union (constraint disjunction).
    pub const fn union(self, other: Rel5Set) -> Rel5Set {
        Rel5Set(self.0 | other.0)
    }

    /// `true` when no relation remains possible.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// `true` when every relation remains possible (vacuous constraint).
    pub const fn is_universal(self) -> bool {
        self.0 == 0b11111
    }

    /// The single remaining relation, if the set is a singleton.
    pub fn singleton(self) -> Option<Rel5> {
        if self.0.count_ones() == 1 {
            Rel5::ALL.into_iter().find(|r| self.contains(*r))
        } else {
            None
        }
    }

    /// Number of possible relations.
    pub const fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// `true` when the set is empty (alias of [`Rel5Set::is_empty`] for
    /// clippy's `len`/`is_empty` pairing).
    pub const fn is_len_zero(self) -> bool {
        self.is_empty()
    }

    /// Converse of every member: the constraint seen from the swapped pair.
    #[inline]
    pub const fn converse(self) -> Rel5Set {
        Rel5Set(CONVERSE_SETS[(self.0 & 0b11111) as usize])
    }

    /// Composition lifted to sets: all relations possible between `a` and
    /// `c` given the possible relations `self` between `(a,b)` and `other`
    /// between `(b,c)`.
    #[inline]
    pub const fn compose(self, other: Rel5Set) -> Rel5Set {
        Rel5Set(COMPOSE_SETS[(self.0 & 0b11111) as usize][(other.0 & 0b11111) as usize])
    }

    /// Iterate members.
    pub fn iter(self) -> impl Iterator<Item = Rel5> {
        Rel5::ALL.into_iter().filter(move |r| self.contains(*r))
    }
}

impl fmt::Debug for Rel5Set {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for r in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Rel5Set {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The user-facing assertion vocabulary of Screens 8 and 9.
///
/// `DisjointIntegrable` and `DisjointNonIntegrable` share the same domain
/// relation (`DR`); whether a derived superclass is generated is the DDA's
/// utility judgment, not a fact about the domains (paper §2, items 4–5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Assertion {
    /// Code 1: identical domains — merge into one `E_` object class.
    Equal,
    /// Code 2: `dom(a) ⊂ dom(b)` — `a` becomes a category of `b`.
    ContainedIn,
    /// Code 3: `dom(a) ⊃ dom(b)` — `b` becomes a category of `a`.
    Contains,
    /// Code 4: disjoint domains, integrate under a derived `D_` superclass.
    DisjointIntegrable,
    /// Code 5: overlapping domains — derived `D_` superclass with both as
    /// categories.
    MayBe,
    /// Code 0: disjoint domains, kept separate.
    DisjointNonIntegrable,
}

impl Assertion {
    /// Every assertion, in menu order (1, 2, 3, 4, 5, 0) as printed at the
    /// bottom of Screen 8.
    pub const MENU: [Assertion; 6] = [
        Assertion::Equal,
        Assertion::ContainedIn,
        Assertion::Contains,
        Assertion::DisjointIntegrable,
        Assertion::MayBe,
        Assertion::DisjointNonIntegrable,
    ];

    /// The numeric code the DDA types on Screen 8.
    pub fn code(self) -> u8 {
        match self {
            Assertion::Equal => 1,
            Assertion::ContainedIn => 2,
            Assertion::Contains => 3,
            Assertion::DisjointIntegrable => 4,
            Assertion::MayBe => 5,
            Assertion::DisjointNonIntegrable => 0,
        }
    }

    /// Parse a Screen 8 code.
    pub fn from_code(code: u8) -> Option<Assertion> {
        Assertion::MENU.into_iter().find(|a| a.code() == code)
    }

    /// The domain relation the assertion pins down.
    pub fn rel(self) -> Rel5 {
        match self {
            Assertion::Equal => Rel5::Eq,
            Assertion::ContainedIn => Rel5::Pp,
            Assertion::Contains => Rel5::Ppi,
            Assertion::MayBe => Rel5::Po,
            Assertion::DisjointIntegrable | Assertion::DisjointNonIntegrable => Rel5::Dr,
        }
    }

    /// Whether the pair participates in integration (everything but
    /// disjoint-non-integrable).
    pub fn integrable(self) -> bool {
        !matches!(self, Assertion::DisjointNonIntegrable)
    }

    /// The assertion as seen from the swapped pair.
    pub fn converse(self) -> Assertion {
        match self {
            Assertion::ContainedIn => Assertion::Contains,
            Assertion::Contains => Assertion::ContainedIn,
            other => other,
        }
    }
}

impl fmt::Display for Assertion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Assertion::Equal => "equals",
            Assertion::ContainedIn => "contained in",
            Assertion::Contains => "contains",
            Assertion::DisjointIntegrable => "disjoint integrable",
            Assertion::MayBe => "may be integrable",
            Assertion::DisjointNonIntegrable => "disjoint non-integrable",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for a in Assertion::MENU {
            assert_eq!(Assertion::from_code(a.code()), Some(a));
        }
        assert_eq!(Assertion::from_code(9), None);
    }

    #[test]
    fn converse_is_involution() {
        for a in Assertion::MENU {
            assert_eq!(a.converse().converse(), a);
        }
        for r in Rel5::ALL {
            assert_eq!(r.converse().converse(), r);
        }
    }

    #[test]
    fn paper_transitivity_example() {
        // "if a ⊆ b and b ⊆ c then a ⊆ c"
        let pp = Rel5Set::only(Rel5::Pp);
        assert_eq!(pp.compose(pp), pp);
    }

    #[test]
    fn eq_is_identity_of_composition() {
        let eq = Rel5Set::only(Rel5::Eq);
        for r in Rel5::ALL {
            let s = Rel5Set::only(r);
            assert_eq!(eq.compose(s), s, "EQ ∘ {r}");
            assert_eq!(s.compose(eq), s, "{r} ∘ EQ");
        }
    }

    #[test]
    fn subset_of_disjoint_is_disjoint() {
        // a ⊂ b, b ∩ c = ∅  ⇒  a ∩ c = ∅ (the Screen 9 derivation engine
        // rests on this row of the table).
        let out = Rel5Set::only(Rel5::Pp).compose(Rel5Set::only(Rel5::Dr));
        assert_eq!(out, Rel5Set::only(Rel5::Dr));
        // a ∩ b = ∅, b ⊃ c ⇒ a ∩ c = ∅
        let out = Rel5Set::only(Rel5::Dr).compose(Rel5Set::only(Rel5::Ppi));
        assert_eq!(out, Rel5Set::only(Rel5::Dr));
    }

    #[test]
    fn composition_table_respects_converse_symmetry() {
        // conv(r ∘ s) == conv(s) ∘ conv(r) — a structural identity every
        // relation algebra satisfies; catches table typos.
        for r in Rel5::ALL {
            for s in Rel5::ALL {
                let lhs = Rel5Set::only(r).compose(Rel5Set::only(s)).converse();
                let rhs = Rel5Set::only(s.converse()).compose(Rel5Set::only(r.converse()));
                assert_eq!(lhs, rhs, "converse symmetry at ({r},{s})");
            }
        }
    }

    #[test]
    fn composition_table_contains_witnessed_relation() {
        // Identity check: r(a,b) ∧ s(b,c) ⇒ the actual relation between a
        // and c is in COMPOSE[r][s]. Exhaustively verify with small
        // concrete sets over a 4-element universe.
        fn relate(a: u8, b: u8) -> Rel5 {
            if a == b {
                Rel5::Eq
            } else if a & b == 0 {
                Rel5::Dr
            } else if a & b == a {
                Rel5::Pp
            } else if a & b == b {
                Rel5::Ppi
            } else {
                Rel5::Po
            }
        }
        // All non-empty subsets of {0,1,2,3} as bitmasks 1..=15.
        for a in 1u8..=15 {
            for b in 1u8..=15 {
                for c in 1u8..=15 {
                    let r = relate(a, b);
                    let s = relate(b, c);
                    let t = relate(a, c);
                    let possible = Rel5Set::only(r).compose(Rel5Set::only(s));
                    assert!(
                        possible.contains(t),
                        "witness ({a:04b},{b:04b},{c:04b}): {r} ∘ {s} must allow {t}, got {possible}"
                    );
                }
            }
        }
    }

    #[test]
    fn composition_table_is_tight_for_witnessable_entries() {
        // Every relation the table allows should be witnessable by some
        // concrete triple (over a large enough universe). Use subsets of
        // an 8-element universe.
        fn relate(a: u16, b: u16) -> Rel5 {
            if a == b {
                Rel5::Eq
            } else if a & b == 0 {
                Rel5::Dr
            } else if a & b == a {
                Rel5::Pp
            } else if a & b == b {
                Rel5::Ppi
            } else {
                Rel5::Po
            }
        }
        let mut witnessed = [[0u8; 5]; 5];
        for a in 1u16..256 {
            for b in 1u16..256 {
                let r = relate(a, b);
                for c in 1u16..256 {
                    let s = relate(b, c);
                    let t = relate(a, c);
                    witnessed[r as usize][s as usize] |= Rel5Set::only(t).bits();
                }
            }
        }
        for r in Rel5::ALL {
            for s in Rel5::ALL {
                assert_eq!(
                    COMPOSE[r as usize][s as usize], witnessed[r as usize][s as usize],
                    "table entry ({r},{s}) is not tight"
                );
            }
        }
    }

    #[test]
    fn set_tables_match_memberwise_definition() {
        // Every one of the 32 x 32 set pairs against the definition:
        // compose is the union of COMPOSE over members, converse maps
        // each member to its converse.
        for x in 0u8..32 {
            let xs = Rel5Set::from_bits(x);
            let mut converse = Rel5Set::EMPTY;
            for r in xs.iter() {
                converse = converse.union(Rel5Set::only(r.converse()));
            }
            assert_eq!(xs.converse(), converse, "converse of {xs}");
            for y in 0u8..32 {
                let ys = Rel5Set::from_bits(y);
                let mut composed = 0u8;
                for r in xs.iter() {
                    for s in ys.iter() {
                        composed |= COMPOSE[r as usize][s as usize];
                    }
                }
                assert_eq!(xs.compose(ys).bits(), composed, "{xs} ∘ {ys}");
            }
        }
    }

    #[test]
    fn set_operations() {
        let s = Rel5Set::only(Rel5::Pp).union(Rel5Set::only(Rel5::Dr));
        assert_eq!(s.len(), 2);
        assert!(s.contains(Rel5::Pp));
        assert!(!s.contains(Rel5::Eq));
        assert_eq!(
            s.intersect(Rel5Set::only(Rel5::Dr)),
            Rel5Set::only(Rel5::Dr)
        );
        assert!(s.singleton().is_none());
        assert_eq!(Rel5Set::only(Rel5::Po).singleton(), Some(Rel5::Po));
        assert!(Rel5Set::EMPTY.is_empty());
        assert!(Rel5Set::ALL.is_universal());
        assert_eq!(format!("{s}"), "{PP,DR}");
        assert_eq!(
            s.converse(),
            Rel5Set::only(Rel5::Ppi).union(Rel5Set::only(Rel5::Dr))
        );
    }

    #[test]
    fn assertion_rel_mapping() {
        assert_eq!(Assertion::Equal.rel(), Rel5::Eq);
        assert_eq!(Assertion::ContainedIn.rel(), Rel5::Pp);
        assert_eq!(Assertion::Contains.rel(), Rel5::Ppi);
        assert_eq!(Assertion::MayBe.rel(), Rel5::Po);
        assert_eq!(Assertion::DisjointIntegrable.rel(), Rel5::Dr);
        assert_eq!(Assertion::DisjointNonIntegrable.rel(), Rel5::Dr);
        assert!(Assertion::DisjointIntegrable.integrable());
        assert!(!Assertion::DisjointNonIntegrable.integrable());
    }
}
