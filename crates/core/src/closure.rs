//! Transitive derivation of assertions and conflict detection.
//!
//! Screen 9 of the paper shows the two behaviours this module implements:
//!
//! * **Derivation** — "Some of the assertions may be specified by the user;
//!   the rest may be derived using rules of transitive composition of
//!   assertions (such as if a ⊆ b and b ⊆ c then a ⊆ c)." We run
//!   path-consistency over the RCC5 algebra of [`crate::assertion`], so
//!   every sound consequence of the asserted facts is derived, not just
//!   chains of ⊆.
//! * **Conflict detection** — "At the same time assertions are derived, the
//!   tool also checks for consistency of a newly defined or derived
//!   assertion with the previously defined or derived assertion." A
//!   conflict is a pair whose possible-relation set becomes empty; the
//!   [`ConflictReport`] carries the *derivation provenance* — "all the
//!   relevant assertions used in the derivation" — that the Assertion
//!   Conflict Resolution Screen displays.
//!
//! The engine is generic over the node type. A session holds one engine
//! per [`crate::Element`] kind, object classes ([`crate::GObj`]) and
//! relationship sets ([`crate::GRel`]), and reaches both through one
//! generic path (`Session::assert`, `Session::retract`), so the kinds
//! derive, conflict and repair alike. The session seeds intra-schema
//! facts from schema structure: a category is a proper part of each
//! single parent, distinct root entity sets of one schema are disjoint
//! ("a given entity can be a member of only one entity set"), and so are
//! distinct relationship sets of one schema. That is exactly how Screen
//! 9's line 4 (`sc4.Grad_student ⊆ sc4.Student`) enters the derivation.
//!
//! # Representation
//!
//! The engine stores the paper's Entity Assertion matrix literally. Each
//! node is interned once, in order of first mention, to a row/column
//! index of a dense row-major matrix of [`Rel5Set`]s that holds both
//! orientations of every pair (`R(j,i)` is always the converse of
//! `R(i,j)`), so propagation neither normalizes pairs nor converts
//! constraints. The matrix doubles when it fills; it costs one byte per
//! cell, n² bytes for n nodes. A per-row bitset of non-universal cells
//! lists each node's neighbours, so a propagation step visits only the
//! triangles that can tighten.
//!
//! Provenance is an append-only support log: a refinement that tightens
//! a pair appends one fixed-size entry (the stating fact, or the premise
//! pairs' latest entries, plus the pair's previous one), and a packed
//! lower-triangular array beside the matrix holds each pair's latest
//! entry, n(n-1)/2 of them. Provenance is a query: writing records the
//! support and derives nothing from it, and a pair's provenance, the fact
//! ids reachable from its latest entry, is walked only when a conflict
//! report or [`AssertionEngine::support`] reads it. A relation set
//! tightens at most five times, so a pair has at most five entries, where
//! a stored fact list grows with its derivation: about n³/6 ids for a
//! category chain of n. The node index and the integrability marks hash
//! with the in-crate Fx hasher instead of std's SipHash.
//!
//! A schema's structure is seeded in one pass
//! ([`AssertionEngine::seed_structure`]): its facts are a contiguous run
//! over nodes nothing constrains yet, whose closure is known in closed
//! form — each category is a proper part of its ancestors, and
//! everything under one root entity set is disjoint from everything
//! under another — so the run's pinned pairs and their provenance are
//! written straight into the matrix, in time linear in their number,
//! instead of propagating each of the n²/2 disjointness facts of n
//! roots. The rebuild behind `retract` and conflict rollback replays such
//! a run the same way and propagates only the other facts, the user's
//! assertions among them.
//!
//! Propagation is a FIFO worklist that visits a popped pair's neighbours
//! in ascending index order. The derivation, provenance and conflict
//! reports included, is therefore a function of the fact sequence alone:
//! replaying the same fact sequence (another server, or a journal-only
//! replay) gives byte-identical answers. One-pass seeding keeps this: it
//! records the same facts, interns the same nodes in the same order and
//! leaves the same closure and provenance as seeding the run fact by
//! fact ([`AssertionEngine::seed`]), which `tests/seed_structure.rs`
//! checks against random category forests. A different sequence with the
//! same active facts need not give the same answers: a snapshot written
//! by `script::save` keeps only the active user assertions and puts every
//! schema's seeds first, so a session recovered from a snapshot can
//! number its facts, intern its nodes and order its provenance
//! differently.
//!
//! The engine itself does not bound n; `Session` limits the object
//! classes and relationship sets one session may register.

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;

use crate::assertion::{Assertion, Rel5, Rel5Set};
use crate::fxhash::{FxHashMap, FxHashSet};

/// Index of a recorded fact (user assertion or structural seed).
pub type FactId = usize;

/// One recorded input fact.
#[derive(Clone, Debug)]
pub struct Fact<N> {
    /// First node of the ordered pair.
    pub a: N,
    /// Second node of the ordered pair.
    pub b: N,
    /// The relation as stated.
    pub rel: Rel5,
    /// The user-facing assertion when the DDA specified the fact (Screen
    /// 8 / menu option 3 or 5); `None` for a structural seed (category
    /// edge, entity-set disjointness).
    pub assertion: Option<Assertion>,
    /// Whether a later `retract` removed it.
    pub active: bool,
}

/// A pair the engine pinned to a single relation. Its provenance is read
/// by [`AssertionEngine::support`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DerivedFact<N> {
    /// First node.
    pub a: N,
    /// Second node.
    pub b: N,
    /// The single derived relation `R(a,b)`.
    pub rel: Rel5,
}

/// Everything the Assertion Conflict Resolution Screen needs to display.
#[derive(Clone, Debug, PartialEq)]
pub struct ConflictReport {
    /// Display names of the conflicting pair (`schema.Object`).
    pub pair: (String, String),
    /// The constraint already in force for the pair (possibly derived),
    /// before the rejected assertion.
    pub existing: Rel5Set,
    /// The rejected new assertion.
    pub rejected: Assertion,
    /// The input facts ("relevant assertions used in the derivation") that
    /// support the existing constraint, as display rows:
    /// `(name_a, name_b, assertion_code_or_tag, from_user)`.
    pub supports: Vec<ConflictSupport>,
}

/// One supporting row of a conflict report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictSupport {
    /// Display name of the first node.
    pub a: String,
    /// Display name of the second node.
    pub b: String,
    /// The assertion code as shown on Screen 9 (`2`, `0`, ...), or the
    /// RCC5 tag for structural seeds.
    pub label: String,
    /// `true` for DDA-specified assertions, `false` for structural seeds.
    pub from_user: bool,
}

impl fmt::Display for ConflictReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}` vs `{}`: existing constraint {} contradicts new assertion `{}` (code {}); derived from:",
            self.pair.0,
            self.pair.1,
            self.existing,
            self.rejected,
            self.rejected.code()
        )?;
        for s in &self.supports {
            write!(f, "\n  {} ~ {} : {}", s.a, s.b, s.label)?;
        }
        Ok(())
    }
}

/// Ordered pair key with normalized orientation (`a < b`), plus whether the
/// caller's orientation was flipped to normalize.
fn norm<N: Ord + Copy>(a: N, b: N) -> ((N, N), bool) {
    if a <= b {
        ((a, b), false)
    } else {
        ((b, a), true)
    }
}

/// Interned node index: a row/column of the constraint matrix.
type Ix = u32;

/// Unordered pair of interned nodes, stored `(low, high)`.
type Pair = (Ix, Ix);

fn pair(i: Ix, j: Ix) -> Pair {
    if i <= j {
        (i, j)
    } else {
        (j, i)
    }
}

/// Why a pair is being tightened.
#[derive(Clone, Copy)]
enum Support {
    /// One input fact states the constraint.
    Fact(FactId),
    /// The composition of two pairs' constraints implies it.
    Compose(Pair, Pair),
}

/// No support-log entry: a universal pair's head, or a link left unset.
const NONE: u32 = u32::MAX;

/// One refinement of one pair; every link points at an earlier entry.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// The stating fact's id when `right` is [`NONE`]; else the first
    /// premise pair's head entry when the refinement was made.
    left: u32,
    /// The second premise pair's head entry then, or [`NONE`].
    right: u32,
    /// The pair's previous head entry, or [`NONE`].
    prev: u32,
}

/// The constraint network: a dense row-major `cap × cap` matrix of
/// possible-relation sets over interned node indices, and its support log.
#[derive(Clone, Debug, Default)]
struct Network {
    /// Matrix side: a power of two, at least `len`.
    cap: usize,
    /// Interned nodes.
    len: usize,
    /// `cells[i * cap + j]` is `R(i, j)`. Both orientations are stored,
    /// each the converse of the other, so propagation never converts; the
    /// diagonal is `EQ`.
    cells: Vec<Rel5Set>,
    /// Per row, `cap.div_ceil(64)` words flagging the off-diagonal cells
    /// that are not universal: the nodes the row's node is constrained
    /// against.
    live: Vec<u64>,
    /// `heads[j * (j - 1) / 2 + i]`, `i < j`: pair `(i, j)`'s latest log
    /// entry ([`NONE`] while universal), packed lower-triangular so that
    /// interning node `j` appends its `j` pairs with lower nodes.
    heads: Vec<u32>,
    /// Append-only support log, one entry per refinement.
    log: Vec<Entry>,
}

impl Network {
    fn words(&self) -> usize {
        self.cap.div_ceil(64)
    }

    /// `R(i, j)`.
    #[inline]
    fn get(&self, i: Ix, j: Ix) -> Rel5Set {
        self.cells[i as usize * self.cap + j as usize]
    }

    /// Position of pair `p` (`p.0 < p.1`) in `heads`.
    fn tri(p: Pair) -> usize {
        let (i, j) = (p.0 as usize, p.1 as usize);
        debug_assert!(i < j, "a pair of distinct nodes, low first");
        j * (j - 1) / 2 + i
    }

    /// The head entry of pair `p`.
    fn head(&self, p: Pair) -> u32 {
        self.heads[Self::tri(p)]
    }

    /// Input facts supporting pair `p`'s current constraint, ascending:
    /// the fact ids reachable from its head. Links point at earlier
    /// entries, so popping a max-heap reaches every link to an entry
    /// before the entry itself, and the copies of one entry pop in a row.
    fn roots(&self, p: Pair) -> Vec<FactId> {
        let mut facts = Vec::new();
        let mut todo = BinaryHeap::new();
        let mut last = NONE;
        let mut next = self.head(p);
        while next != NONE {
            if next != last {
                last = next;
                let Entry { left, right, prev } = self.log[next as usize];
                if right == NONE {
                    facts.push(left as FactId);
                } else {
                    todo.extend([left, right]);
                }
                if prev != NONE {
                    todo.push(prev);
                }
            }
            next = todo.pop().unwrap_or(NONE);
        }
        // A fact states one entry, so the ids are distinct.
        facts.sort_unstable();
        facts
    }

    /// Whether node `i` is constrained against no other node.
    fn is_unconstrained(&self, i: Ix) -> bool {
        let words = self.words();
        let row = i as usize * words;
        self.live[row..row + words].iter().all(|&w| w == 0)
    }

    /// Add a node unconstrained against every other, doubling the matrix
    /// when it is full.
    fn push_node(&mut self) -> Ix {
        if self.len == self.cap {
            let cap = (self.cap * 2).max(8);
            let (words, old_words) = (cap.div_ceil(64), self.words());
            let mut cells = vec![Rel5Set::ALL; cap * cap];
            let mut live = vec![0u64; cap * words];
            for i in 0..self.len {
                let (old, new) = (i * self.cap, i * cap);
                cells[new..new + self.len].copy_from_slice(&self.cells[old..old + self.len]);
                live[i * words..i * words + old_words]
                    .copy_from_slice(&self.live[i * old_words..(i + 1) * old_words]);
            }
            self.cap = cap;
            self.cells = cells;
            self.live = live;
            self.heads
                .reserve_exact(cap * (cap - 1) / 2 - self.heads.len());
        }
        let i = self.len;
        self.cells[i * self.cap + i] = Rel5Set::only(Rel5::Eq);
        self.heads.resize(self.heads.len() + i, NONE);
        self.len += 1;
        Ix::try_from(i).expect("node count fits the matrix index type")
    }

    /// Forget every constraint and its provenance; nodes stay interned.
    fn clear(&mut self) {
        self.cells.fill(Rel5Set::ALL);
        for i in 0..self.len {
            self.cells[i * self.cap + i] = Rel5Set::only(Rel5::Eq);
        }
        self.live.fill(0);
        self.heads.fill(NONE);
        self.log.clear();
    }

    /// Intersect `R(a, b)` with `set`, as stated by input fact `fact`, and
    /// propagate to path consistency. Pairs newly pinned to a singleton
    /// are pushed onto `pinned`. On contradiction, returns the pair that
    /// became empty (the network is then inconsistent and must be
    /// rebuilt).
    ///
    /// The worklist is FIFO and the neighbours of a popped pair are
    /// visited in ascending index order, so the derivation — provenance
    /// included — is a function of the fact sequence alone.
    fn constrain(
        &mut self,
        a: Ix,
        b: Ix,
        set: Rel5Set,
        fact: FactId,
        pinned: &mut Vec<Pair>,
    ) -> Result<(), Pair> {
        let mut queue = VecDeque::new();
        self.refine(a, b, set, Support::Fact(fact), &mut queue, pinned)?;
        let words = self.words();
        while let Some((x, y)) = queue.pop_front() {
            let xy = self.get(x, y);
            // Every triangle through (x, y): the third node k is
            // constrained against x or y. Refining (x, k) or (k, y) only
            // sets bit k in these rows, so reading a word once is exact.
            for w in 0..words {
                let mut bits =
                    self.live[x as usize * words + w] | self.live[y as usize * words + w];
                while bits != 0 {
                    let k = (w * 64) as Ix + bits.trailing_zeros();
                    bits &= bits - 1;
                    if k == x || k == y {
                        continue;
                    }
                    // (x,k) refined by (x,y) ∘ (y,k)
                    let yk = self.get(y, k);
                    if !yk.is_universal() {
                        let why = Support::Compose((x, y), pair(y, k));
                        self.refine(x, k, xy.compose(yk), why, &mut queue, pinned)?;
                    }
                    // (k,y) refined by (k,x) ∘ (x,y)
                    let kx = self.get(k, x);
                    if !kx.is_universal() {
                        let why = Support::Compose(pair(k, x), (x, y));
                        self.refine(k, y, kx.compose(xy), why, &mut queue, pinned)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Intersect `R(a, b)` with `set`; when that tightens it, record the
    /// support and queue the pair for propagation.
    fn refine(
        &mut self,
        a: Ix,
        b: Ix,
        set: Rel5Set,
        why: Support,
        queue: &mut VecDeque<Pair>,
        pinned: &mut Vec<Pair>,
    ) -> Result<(), Pair> {
        if a == b {
            // Self-pairs are always EQ; a constraint excluding EQ on a
            // self-pair cannot arise from valid input.
            return if set.contains(Rel5::Eq) {
                Ok(())
            } else {
                Err((a, b))
            };
        }
        let current = self.get(a, b);
        let new = current.intersect(set);
        if new == current {
            return Ok(());
        }
        let key = self.write(a, b, new, why);
        if new.is_empty() {
            return Err(key);
        }
        if new.singleton().is_some() {
            pinned.push(key);
        }
        queue.push_back(key);
        Ok(())
    }

    /// Write `R(a, b) = set`, mark the pair live and append `why` to its
    /// support; returns the pair.
    fn write(&mut self, a: Ix, b: Ix, set: Rel5Set, why: Support) -> Pair {
        let (ai, bi, cap) = (a as usize, b as usize, self.cap);
        self.cells[ai * cap + bi] = set;
        self.cells[bi * cap + ai] = set.converse();
        let words = self.words();
        self.live[ai * words + bi / 64] |= 1 << (bi % 64);
        self.live[bi * words + ai / 64] |= 1 << (ai % 64);
        let (left, right) = match why {
            Support::Fact(id) => (u32::try_from(id).expect("fact id fits a log link"), NONE),
            Support::Compose(p, q) => (self.head(p), self.head(q)),
        };
        let key = pair(a, b);
        let entry = u32::try_from(self.log.len()).expect("support log fits its links");
        let prev = std::mem::replace(&mut self.heads[Self::tri(key)], entry);
        self.log.push(Entry { left, right, prev });
        key
    }

    /// Write the closure of one structural block straight into the
    /// matrix: what [`Network::constrain`] derives from the block's facts
    /// in fact order, provenance included, without propagating.
    ///
    /// Every node of the block is unconstrained when it starts, so the
    /// facts touch only pairs inside it. Its `PP` edges form a forest
    /// and its `DR` facts relate distinct roots of that forest, and the
    /// closure of such facts has exactly two kinds of pinned pair: a node
    /// is `PP` each of its ancestors, resting on the edges of the path
    /// between them; and two nodes under distinct disjoint roots are `DR`,
    /// resting on both paths up to those roots and the roots' own `DR`
    /// fact. Every other pair of the block stays universal (siblings,
    /// cousins, two nodes under one root). Propagation pins each such pair
    /// in one step from universal to the singleton, so its provenance is
    /// that of the first derivation to reach it — and every derivation of
    /// it rests on exactly those paths.
    /// Nodes are visited by depth, so each pinned pair's one log entry
    /// can compose through the node's parent, whose pairs come first.
    fn seed_block(&mut self, block: &SeedBlock) {
        // Parent and edge fact of each child, by matrix index.
        let mut up: Vec<Option<(Ix, FactId)>> = vec![None; self.len];
        let mut nodes: Vec<Ix> = Vec::with_capacity(2 * block.edges.len() + block.roots.len());
        for (k, &(child, parent)) in block.edges.iter().enumerate() {
            up[child as usize] = Some((parent, block.first + k));
            nodes.extend([child, parent]);
        }
        nodes.extend(&block.roots);
        nodes.sort_unstable();
        nodes.dedup();
        nodes.sort_by_cached_key(|&x| {
            std::iter::successors(up[x as usize], |&(p, _)| up[p as usize]).count()
        });
        // Position in `block.roots` of the disjoint root each node is
        // under, once visited.
        let mut under = vec![NONE; self.len];
        for (t, &r) in block.roots.iter().enumerate() {
            under[r as usize] = t as u32;
        }
        let (m, dr) = (block.roots.len(), block.first + block.edges.len());
        let mut members: Vec<Vec<Ix>> = vec![Vec::new(); m];
        for &x in &nodes {
            if let Some((parent, fact)) = up[x as usize] {
                self.write(x, parent, Rel5Set::only(Rel5::Pp), Support::Fact(fact));
                let mut top = parent;
                while let Some((k, _)) = up[top as usize] {
                    let why = Support::Compose(pair(x, parent), pair(parent, k));
                    self.write(x, k, Rel5Set::only(Rel5::Pp), why);
                    top = k;
                }
                under[x as usize] = under[parent as usize];
            }
            let t = under[x as usize] as usize;
            if t >= m {
                // Under no disjoint root.
                continue;
            }
            for (s, earlier) in members.iter().enumerate().filter(|&(s, _)| s != t) {
                for &y in earlier {
                    let why = match up[x as usize] {
                        Some((parent, _)) => Support::Compose(pair(x, parent), pair(parent, y)),
                        // Both are roots: their own fact, the DR facts
                        // running over root pairs (i, j), i < j, row-major.
                        None => {
                            let (i, j) = (s.min(t), s.max(t));
                            Support::Fact(dr + i * (2 * m - i - 1) / 2 + j - i - 1)
                        }
                    };
                    self.write(x, y, Rel5Set::only(Rel5::Dr), why);
                }
            }
            members[t].push(x);
        }
    }
}

/// One schema's structural facts, recorded by
/// [`AssertionEngine::seed_structure`] as one contiguous run: its `PP`
/// edges in order, then a `DR` fact for every pair of distinct disjoint
/// roots in index order. Replayed as a block by the rebuild.
#[derive(Clone, Debug)]
struct SeedBlock {
    /// Fact id of the block's first fact.
    first: FactId,
    /// `(child, parent)` matrix indices of the `PP` edges.
    edges: Vec<(Ix, Ix)>,
    /// Matrix indices of the pairwise-disjoint roots; empty when fewer
    /// than two (no `DR` fact then).
    roots: Vec<Ix>,
}

impl SeedBlock {
    /// Number of facts the block recorded.
    fn fact_count(&self) -> usize {
        let m = self.roots.len();
        self.edges.len() + m * m.saturating_sub(1) / 2
    }
}

/// An engine's constraints among one sorted node universe, indexed by
/// position in it: what phase 4's clusters, equals-merging and pairwise
/// classification read (see [`AssertionEngine::view`]). It borrows the
/// engine's matrix, so it costs one index per position plus the marked
/// pairs.
#[derive(Clone, Debug)]
pub(crate) struct ConstraintView<'e> {
    network: &'e Network,
    /// Matrix index of each position; `None` for a node no fact mentions.
    ix: Vec<Option<Ix>>,
    /// Position pairs `(i, j)`, `i < j`, marked disjoint but integrable,
    /// sorted.
    integrable: Vec<(usize, usize)>,
}

impl ConstraintView<'_> {
    /// Constraint between positions `i` and `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Rel5Set {
        match (self.ix[i], self.ix[j]) {
            // The network's own diagonal is `EQ`.
            (Some(a), Some(b)) => self.network.get(a, b),
            _ if i == j => Rel5Set::only(Rel5::Eq),
            _ => Rel5Set::ALL,
        }
    }

    /// The single relation pinned between positions `i` and `j`, if any.
    #[inline]
    pub fn known(&self, i: usize, j: usize) -> Option<Rel5> {
        self.get(i, j).singleton()
    }

    /// Whether the pair was marked disjoint-but-integrable.
    pub fn is_integrable_dr(&self, i: usize, j: usize) -> bool {
        let pair = if i < j { (i, j) } else { (j, i) };
        self.integrable.binary_search(&pair).is_ok()
    }

    /// [`AssertionEngine::effective`] between positions `i` and `j`.
    pub fn effective(&self, i: usize, j: usize) -> Option<Assertion> {
        let rel = self.known(i, j)?;
        Some(effective(rel, || self.is_integrable_dr(i, j)))
    }
}

/// The assertion a pinned relation reads as; `integrable` is asked only
/// of a disjoint pair.
fn effective(rel: Rel5, integrable: impl FnOnce() -> bool) -> Assertion {
    match rel {
        Rel5::Eq => Assertion::Equal,
        Rel5::Pp => Assertion::ContainedIn,
        Rel5::Ppi => Assertion::Contains,
        Rel5::Po => Assertion::MayBe,
        Rel5::Dr if integrable() => Assertion::DisjointIntegrable,
        Rel5::Dr => Assertion::DisjointNonIntegrable,
    }
}

/// The assertion/derivation engine over nodes of type `N`.
///
/// `N` is any small copyable id ([`crate::GObj`], [`crate::GRel`]). Node
/// display names for conflict reports are provided through a naming
/// closure at assertion time, keeping the engine independent of the
/// catalog.
#[derive(Clone, Debug)]
pub struct AssertionEngine<N> {
    facts: Vec<Fact<N>>,
    /// Node → matrix index, assigned in order of first mention.
    index: FxHashMap<N, Ix>,
    /// Matrix index → node.
    nodes: Vec<N>,
    network: Network,
    /// Pairs the DDA marked disjoint-but-integrable.
    integrable_dr: FxHashSet<(N, N)>,
    /// The runs of facts [`AssertionEngine::seed_structure`] recorded in
    /// one pass, in fact order.
    blocks: Vec<SeedBlock>,
}

impl<N: Copy + Eq + Ord + Hash + fmt::Debug> Default for AssertionEngine<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: Copy + Eq + Ord + Hash + fmt::Debug> AssertionEngine<N> {
    /// Empty engine.
    pub fn new() -> Self {
        Self {
            facts: Vec::new(),
            index: FxHashMap::default(),
            nodes: Vec::new(),
            network: Network::default(),
            integrable_dr: FxHashSet::default(),
            blocks: Vec::new(),
        }
    }

    /// Number of recorded input facts (active and retracted).
    pub fn fact_count(&self) -> usize {
        self.facts.len()
    }

    /// The recorded facts.
    pub fn facts(&self) -> &[Fact<N>] {
        &self.facts
    }

    /// All nodes mentioned so far, in order of first mention.
    pub fn nodes(&self) -> impl Iterator<Item = N> + '_ {
        self.nodes.iter().copied()
    }

    /// Current constraint for a pair (universal when nothing is known).
    pub fn constraint(&self, a: N, b: N) -> Rel5Set {
        if a == b {
            return Rel5Set::only(Rel5::Eq);
        }
        match (self.index.get(&a), self.index.get(&b)) {
            (Some(&i), Some(&j)) => self.network.get(i, j),
            _ => Rel5Set::ALL,
        }
    }

    /// The single known relation for a pair, if pinned down.
    pub fn known(&self, a: N, b: N) -> Option<Rel5> {
        self.constraint(a, b).singleton()
    }

    /// Whether the pair was marked disjoint-but-integrable.
    pub fn is_integrable_dr(&self, a: N, b: N) -> bool {
        let ((x, y), _) = norm(a, b);
        self.integrable_dr.contains(&(x, y))
    }

    /// The constraints among `universe`, read by position: one lookup per
    /// node here instead of two per pair at every read. `universe` must
    /// be sorted; phase 4 builds one view per kind and integration.
    pub(crate) fn view(&self, universe: &[N]) -> ConstraintView<'_> {
        debug_assert!(universe.windows(2).all(|w| w[0] < w[1]), "sorted universe");
        let ix = universe
            .iter()
            .map(|u| self.index.get(u).copied())
            .collect();
        let mut integrable: Vec<(usize, usize)> = self
            .integrable_dr
            .iter()
            .filter_map(|&(a, b)| {
                let (i, j) = (
                    universe.binary_search(&a).ok()?,
                    universe.binary_search(&b).ok()?,
                );
                Some((i.min(j), i.max(j)))
            })
            .collect();
        integrable.sort_unstable();
        ConstraintView {
            network: &self.network,
            ix,
            integrable,
        }
    }

    /// The *effective assertion* for a pair, combining the pinned relation
    /// with the integrability mark: `None` when the relation is not pinned.
    pub fn effective(&self, a: N, b: N) -> Option<Assertion> {
        let rel = self.known(a, b)?;
        Some(effective(rel, || self.is_integrable_dr(a, b)))
    }

    /// Seed a structural (intra-schema) fact. Contradictory seeds indicate
    /// an invalid schema and are reported like assertion conflicts.
    pub fn seed(
        &mut self,
        a: N,
        b: N,
        rel: Rel5,
        name: impl Fn(N) -> String,
    ) -> Result<Vec<DerivedFact<N>>, ConflictReport> {
        self.apply(a, b, rel, None, &name)
    }

    /// Seed one schema's structure in one pass: each `(child, parent)` of
    /// `edges` is a proper part of its parent (`PP`), then every two
    /// distinct nodes of `disjoint` are disjoint (`DR`), pair by pair in
    /// index order. The engine ends exactly as [`AssertionEngine::seed`]
    /// over those facts in that order would leave it — the same facts,
    /// the same node interning order, the same closure and provenance —
    /// but the closure is written straight into the matrix, in time
    /// linear in the pairs it pins instead of a propagation per fact.
    ///
    /// That holds when the edges form a forest, the disjoint nodes are
    /// distinct roots of it, and no node is constrained yet: the shape of
    /// a fresh schema's single-parent categories and root entity sets (or
    /// of its relationship sets, with no edges). Any other input is
    /// seeded fact by fact through [`AssertionEngine::seed`], which also
    /// reports its conflicts; the one-pass path cannot conflict.
    pub fn seed_structure(
        &mut self,
        edges: &[(N, N)],
        disjoint: &[N],
        name: impl Fn(N) -> String,
    ) -> Result<(), ConflictReport> {
        // One disjoint node states no fact and mentions nothing.
        let disjoint = if disjoint.len() < 2 { &[] } else { disjoint };
        if !self.is_fresh_forest(edges, disjoint) {
            for &(child, parent) in edges {
                self.seed(child, parent, Rel5::Pp, &name)?;
            }
            for (i, &a) in disjoint.iter().enumerate() {
                for &b in &disjoint[i + 1..] {
                    self.seed(a, b, Rel5::Dr, &name)?;
                }
            }
            return Ok(());
        }
        let first = self.facts.len();
        let m = disjoint.len();
        self.facts
            .reserve(edges.len() + m * m.saturating_sub(1) / 2);
        let fact = |a, b, rel| Fact {
            a,
            b,
            rel,
            assertion: None,
            active: true,
        };
        self.facts.extend(
            edges
                .iter()
                .map(|&(child, parent)| fact(child, parent, Rel5::Pp)),
        );
        for (i, &a) in disjoint.iter().enumerate() {
            self.facts
                .extend(disjoint[i + 1..].iter().map(|&b| fact(a, b, Rel5::Dr)));
        }
        // Intern in order of first mention, as fact-by-fact seeding does.
        let edges: Vec<(Ix, Ix)> = edges
            .iter()
            .map(|&(child, parent)| (self.intern(child), self.intern(parent)))
            .collect();
        let roots: Vec<Ix> = disjoint.iter().map(|&r| self.intern(r)).collect();
        let block = SeedBlock {
            first,
            edges,
            roots,
        };
        self.network.seed_block(&block);
        self.blocks.push(block);
        Ok(())
    }

    /// Whether `edges` and `disjoint` have the shape
    /// [`AssertionEngine::seed_structure`] seeds in one pass: each child
    /// has one parent and no ancestor cycle, the disjoint nodes are
    /// distinct and parentless, and every node is unconstrained so far.
    fn is_fresh_forest(&self, edges: &[(N, N)], disjoint: &[N]) -> bool {
        let mut up = edges.to_vec();
        up.sort_unstable();
        let parent = |n: &N| {
            up.binary_search_by(|(child, _)| child.cmp(n))
                .ok()
                .map(|i| up[i].1)
        };
        let one_parent = up.windows(2).all(|w| w[0].0 != w[1].0);
        // A walk up from any child ends within `edges.len()` steps unless
        // it cycles.
        let acyclic = edges.iter().all(|&(child, _)| {
            let mut top = child;
            (0..=edges.len()).any(|_| match parent(&top) {
                Some(p) => {
                    top = p;
                    false
                }
                None => true,
            })
        });
        let mut roots = disjoint.to_vec();
        roots.sort_unstable();
        let distinct_roots = roots.windows(2).all(|w| w[0] != w[1]);
        let unconstrained = |n: &N| match self.index.get(n) {
            Some(&i) => self.network.is_unconstrained(i),
            None => true,
        };
        one_parent
            && acyclic
            && distinct_roots
            && roots.iter().all(|r| parent(r).is_none())
            && edges
                .iter()
                .all(|(c, p)| unconstrained(c) && unconstrained(p))
            && roots.iter().all(unconstrained)
    }

    /// Record a DDA assertion for a pair. On success, returns the pairs the
    /// propagation *newly pinned to a singleton* (the derived assertions
    /// the tool displays); [`AssertionEngine::support`] reads what each
    /// rests on. On contradiction, nothing is changed and the conflict
    /// report is returned.
    pub fn assert(
        &mut self,
        a: N,
        b: N,
        assertion: Assertion,
        name: impl Fn(N) -> String,
    ) -> Result<Vec<DerivedFact<N>>, ConflictReport> {
        let _span = sit_obs::trace::span("closure.assert");
        let result = self.apply(a, b, assertion.rel(), Some(assertion), &name)?;
        if assertion == Assertion::DisjointIntegrable {
            let ((x, y), _) = norm(a, b);
            self.integrable_dr.insert((x, y));
        }
        Ok(result)
    }

    /// Retract the most recent active user assertion between `a` and `b`
    /// and rebuild the derivation state from the remaining facts (the
    /// repair path the Assertion Conflict Resolution Screen offers: "the
    /// DDA is asked to change the assertions so that they do not
    /// conflict"). Returns `true` when a fact was found and removed.
    pub fn retract(&mut self, a: N, b: N) -> bool {
        let ((x, y), _) = norm(a, b);
        let found = self
            .facts
            .iter()
            .rposition(|f| {
                f.active && f.assertion.is_some() && {
                    let ((fx, fy), _) = norm(f.a, f.b);
                    (fx, fy) == (x, y)
                }
            })
            .map(|i| {
                self.facts[i].active = false;
            })
            .is_some();
        if found {
            self.rebuild();
        }
        found
    }

    /// Every pair whose relation is pinned to a singleton — user-specified
    /// pairs included. Ordered by node pair.
    pub fn pinned(&self) -> Vec<DerivedFact<N>> {
        let n = self.nodes.len() as Ix;
        let mut out: Vec<DerivedFact<N>> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .filter_map(|p| self.pinned_fact(p))
            .collect();
        out.sort_by_key(|d| (d.a, d.b));
        out
    }

    /// Matrix index of `n`, interning it on first mention.
    fn intern(&mut self, n: N) -> Ix {
        if let Some(&i) = self.index.get(&n) {
            return i;
        }
        let i = self.network.push_node();
        self.index.insert(n, i);
        self.nodes.push(n);
        i
    }

    /// Input facts supporting the current constraint between `a` and `b`,
    /// ascending ids, the same for either orientation: the "relevant
    /// assertions used in the derivation" of Screen 9. Empty for a pair
    /// nothing constrains. Walks the support log from the pair's latest
    /// entry, so it costs time in the size of the derivation.
    pub fn support(&self, a: N, b: N) -> Vec<FactId> {
        match (self.index.get(&a), self.index.get(&b)) {
            (Some(&i), Some(&j)) if i != j => self.network.roots(pair(i, j)),
            _ => Vec::new(),
        }
    }

    /// Pair `p` as nodes in normalized orientation (`a < b`), with its
    /// relation when pinned.
    fn pinned_fact(&self, p: Pair) -> Option<DerivedFact<N>> {
        let (i, j) = if self.nodes[p.0 as usize] <= self.nodes[p.1 as usize] {
            p
        } else {
            (p.1, p.0)
        };
        self.network.get(i, j).singleton().map(|rel| DerivedFact {
            a: self.nodes[i as usize],
            b: self.nodes[j as usize],
            rel,
        })
    }

    fn rebuild(&mut self) {
        self.network.clear();
        // Integrability marks are user intent attached to facts; rebuild
        // them from the facts that survive so retracting a later
        // assertion cannot erase the mark of an earlier one.
        self.integrable_dr = self
            .facts
            .iter()
            .filter(|f| f.active && f.assertion == Some(Assertion::DisjointIntegrable))
            .map(|f| norm(f.a, f.b).0)
            .collect();
        // Each structural block is written in one pass; only the facts
        // outside them (user assertions, single seeds) propagate.
        let mut blocks = self.blocks.iter().peekable();
        let mut id = 0;
        while let Some(f) = self.facts.get(id) {
            if let Some(block) = blocks.next_if(|b| b.first == id) {
                self.network.seed_block(block);
                id += block.fact_count();
                continue;
            }
            if f.active {
                let (i, j) = (self.index[&f.a], self.index[&f.b]);
                // Re-applying previously consistent facts cannot conflict.
                let set = Rel5Set::only(f.rel);
                let _ = self.network.constrain(i, j, set, id, &mut Vec::new());
            }
            id += 1;
        }
    }

    fn apply(
        &mut self,
        a: N,
        b: N,
        rel: Rel5,
        assertion: Option<Assertion>,
        name: &impl Fn(N) -> String,
    ) -> Result<Vec<DerivedFact<N>>, ConflictReport> {
        let (existing, set) = (self.constraint(a, b), Rel5Set::only(rel));
        if existing.intersect(set).is_empty() {
            // Contradiction: report without mutating.
            let roots = self.support(a, b);
            return Err(self.conflict_report(a, b, existing, assertion, roots, name));
        }
        let fact_id = self.facts.len();
        self.facts.push(Fact {
            a,
            b,
            rel,
            assertion,
            active: true,
        });
        let (i, j) = (self.intern(a), self.intern(b));
        let mut pinned_now: Vec<Pair> = Vec::new();
        match self.network.constrain(i, j, set, fact_id, &mut pinned_now) {
            Ok(()) => {
                // Newly pinned singletons (excluding the asserted pair),
                // collected during propagation; a pair is pinned once.
                let target = pair(i, j);
                let mut derived: Vec<DerivedFact<N>> = pinned_now
                    .into_iter()
                    .filter(|&p| p != target)
                    .filter_map(|p| self.pinned_fact(p))
                    .collect();
                derived.sort_by_key(|d| (d.a, d.b));
                Ok(derived)
            }
            Err(p) => {
                // Propagation emptied pair p: undo by rebuilding without
                // the new fact, then report. The rejected fact itself is
                // excluded from the support list — Screen 9 shows it as
                // the <new> row, not as a premise.
                self.facts[fact_id].active = false;
                let mut roots_of_conflict = self.network.roots(p);
                roots_of_conflict.retain(|&id| id != fact_id);
                self.rebuild();
                let ((x, y), _) = norm(self.nodes[p.0 as usize], self.nodes[p.1 as usize]);
                let existing = self.constraint(x, y);
                let report =
                    self.conflict_report(x, y, existing, assertion, roots_of_conflict, name);
                // Remove the dead fact record entirely (it never held).
                self.facts.pop();
                Err(report)
            }
        }
    }

    fn conflict_report(
        &self,
        a: N,
        b: N,
        existing: Rel5Set,
        rejected: Option<Assertion>,
        roots: Vec<FactId>,
        name: &impl Fn(N) -> String,
    ) -> ConflictReport {
        let supports = roots
            .into_iter()
            .filter_map(|id| self.facts.get(id))
            .map(|f| ConflictSupport {
                a: name(f.a),
                b: name(f.b),
                label: match f.assertion {
                    Some(assertion) => assertion.code().to_string(),
                    None => f.rel.tag().to_owned(),
                },
                from_user: f.assertion.is_some(),
            })
            .collect();
        ConflictReport {
            pair: (name(a), name(b)),
            existing,
            rejected: rejected.unwrap_or(Assertion::DisjointNonIntegrable),
            supports,
        }
    }
}

/// Naive path consistency: recompute from scratch over all node triples
/// until a fixpoint — the textbook algorithm the incremental worklist
/// engine is benchmarked against (the ⚗ ablation of DESIGN.md §6.3).
/// Returns the non-universal constraints, or the pair that became empty.
///
/// Results agree with [`AssertionEngine`] on the same input facts (both
/// compute the path-consistent closure), which the tests verify.
pub fn naive_path_consistency<N>(
    facts: &[(N, N, Rel5Set)],
) -> std::result::Result<HashMap<(N, N), Rel5Set>, (N, N)>
where
    N: Copy + Eq + Ord + Hash,
{
    let mut nodes: Vec<N> = facts.iter().flat_map(|&(a, b, _)| [a, b]).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut cons: HashMap<(N, N), Rel5Set> = HashMap::new();
    fn get<N: Copy + Eq + Ord + Hash>(cons: &HashMap<(N, N), Rel5Set>, a: N, b: N) -> Rel5Set {
        if a == b {
            return Rel5Set::only(Rel5::Eq);
        }
        let ((x, y), flipped) = norm(a, b);
        let set = cons.get(&(x, y)).copied().unwrap_or(Rel5Set::ALL);
        if flipped {
            set.converse()
        } else {
            set
        }
    }
    fn put<N: Copy + Eq + Ord + Hash>(
        cons: &mut HashMap<(N, N), Rel5Set>,
        a: N,
        b: N,
        set: Rel5Set,
    ) -> bool {
        let ((x, y), flipped) = norm(a, b);
        let set = if flipped { set.converse() } else { set };
        let entry = cons.entry((x, y)).or_insert(Rel5Set::ALL);
        let new = entry.intersect(set);
        let changed = new != *entry;
        *entry = new;
        changed
    }
    for &(a, b, set) in facts {
        if a == b {
            if !set.contains(Rel5::Eq) {
                return Err((a, b));
            }
            continue;
        }
        put(&mut cons, a, b, set);
        if get(&cons, a, b).is_empty() {
            return Err(norm(a, b).0);
        }
    }
    // Fixpoint over all triples.
    loop {
        let mut changed = false;
        for &i in &nodes {
            for &j in &nodes {
                if i == j {
                    continue;
                }
                for &k in &nodes {
                    if k == i || k == j {
                        continue;
                    }
                    let ik = get(&cons, i, k);
                    let kj = get(&cons, k, j);
                    if ik.is_universal() && kj.is_universal() {
                        continue;
                    }
                    let composed = ik.compose(kj);
                    changed |= put(&mut cons, i, j, composed);
                    if get(&cons, i, j).is_empty() {
                        return Err(norm(i, j).0);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    cons.retain(|_, set| !set.is_universal());
    Ok(cons)
}

#[cfg(test)]
mod tests {
    use super::*;

    type E = AssertionEngine<u32>;

    fn nm(n: u32) -> String {
        format!("n{n}")
    }

    #[test]
    fn transitive_containment_is_derived() {
        // Screen 9's derivation: Instructor ⊆ Grad ∧ Grad ⊆ Student
        //   ⇒ Instructor ⊆ Student.
        let mut e = E::new();
        e.assert(0, 1, Assertion::ContainedIn, nm).unwrap();
        let derived = e.assert(1, 2, Assertion::ContainedIn, nm).unwrap();
        assert_eq!(e.known(0, 2), Some(Rel5::Pp));
        assert!(derived
            .iter()
            .any(|d| (d.a, d.b, d.rel) == (0, 2, Rel5::Pp)));
        // And the converse orientation reads as Contains.
        assert_eq!(e.known(2, 0), Some(Rel5::Ppi));
        assert_eq!(e.effective(0, 2), Some(Assertion::ContainedIn));
    }

    #[test]
    fn paper_intro_conflict_example() {
        // "if Employee is equivalent to Person, and Person is equivalent to
        //  Worker, then Worker cannot be a subset of Employee."
        let mut e = E::new();
        e.assert(0, 1, Assertion::Equal, nm).unwrap(); // Employee ≡ Person
        e.assert(1, 2, Assertion::Equal, nm).unwrap(); // Person ≡ Worker
        let err = e.assert(2, 0, Assertion::ContainedIn, nm).unwrap_err();
        assert_eq!(err.rejected, Assertion::ContainedIn);
        assert_eq!(err.existing, Rel5Set::only(Rel5::Eq));
        assert_eq!(err.supports.len(), 2);
        // State unchanged: the pair still reads EQ, facts still 2.
        assert_eq!(e.known(2, 0), Some(Rel5::Eq));
        assert_eq!(e.facts().iter().filter(|f| f.active).count(), 2);
    }

    #[test]
    fn screen9_conflict_has_derivation_chain() {
        // sc3.Instructor(0) ⊆ sc4.Grad_student(1) [user],
        // sc4.Grad_student(1) ⊆ sc4.Student(2)    [intra-schema seed],
        // then the DDA asserts Instructor disjoint Student → conflict,
        // with both supporting facts listed.
        let mut e = E::new();
        e.seed(1, 2, Rel5::Pp, nm).unwrap();
        e.assert(0, 1, Assertion::ContainedIn, nm).unwrap();
        let err = e
            .assert(0, 2, Assertion::DisjointNonIntegrable, nm)
            .unwrap_err();
        assert_eq!(err.existing, Rel5Set::only(Rel5::Pp));
        assert_eq!(err.supports.len(), 2);
        let labels: Vec<&str> = err.supports.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"2"), "user assertion code 2: {labels:?}");
        assert!(labels.contains(&"PP"), "structural seed: {labels:?}");
    }

    #[test]
    fn indirect_conflict_detected_during_propagation() {
        // 0 ⊆ 1, 2 ⊇ 1 asserted; then 0 DR 2 is impossible
        // (0 ⊆ 1 ⊆ 2 forces 0 ⊆ 2).
        let mut e = E::new();
        e.assert(0, 1, Assertion::ContainedIn, nm).unwrap();
        e.assert(2, 1, Assertion::Contains, nm).unwrap();
        assert_eq!(e.known(0, 2), Some(Rel5::Pp));
        let err = e
            .assert(0, 2, Assertion::DisjointNonIntegrable, nm)
            .unwrap_err();
        assert!(!err.supports.is_empty());
        // Engine state must be intact after the rejected assertion.
        assert_eq!(e.known(0, 2), Some(Rel5::Pp));
    }

    #[test]
    fn retract_reopens_the_pair() {
        let mut e = E::new();
        e.assert(0, 1, Assertion::ContainedIn, nm).unwrap();
        e.assert(1, 2, Assertion::ContainedIn, nm).unwrap();
        assert_eq!(e.known(0, 2), Some(Rel5::Pp));
        assert!(e.retract(0, 1));
        assert_eq!(e.known(0, 2), None, "derivation gone with its premise");
        assert_eq!(e.known(1, 2), Some(Rel5::Pp), "other fact survives");
        assert!(!e.retract(0, 1), "nothing left to retract");
        // Now the previously conflicting assertion is accepted.
        e.assert(0, 2, Assertion::DisjointNonIntegrable, nm)
            .unwrap();
        assert_eq!(e.known(0, 2), Some(Rel5::Dr));
    }

    #[test]
    fn disjoint_propagates_down_containment() {
        // a ⊆ b, b DR c ⇒ a DR c (PP ∘ DR = DR).
        let mut e = E::new();
        e.assert(0, 1, Assertion::ContainedIn, nm).unwrap();
        let derived = e
            .assert(1, 2, Assertion::DisjointNonIntegrable, nm)
            .unwrap();
        assert!(derived
            .iter()
            .any(|d| (d.a, d.b, d.rel) == (0, 2, Rel5::Dr)));
    }

    #[test]
    fn overlap_composes_to_disjunctions_not_singletons() {
        // a PO b, b PO c pins nothing about (a, c).
        let mut e = E::new();
        e.assert(0, 1, Assertion::MayBe, nm).unwrap();
        let derived = e.assert(1, 2, Assertion::MayBe, nm).unwrap();
        assert!(derived.is_empty());
        assert_eq!(e.constraint(0, 2), Rel5Set::ALL);
    }

    #[test]
    fn integrability_mark_tracked_for_dr_pairs() {
        let mut e = E::new();
        e.assert(0, 1, Assertion::DisjointIntegrable, nm).unwrap();
        assert!(e.is_integrable_dr(0, 1));
        assert!(e.is_integrable_dr(1, 0));
        assert_eq!(e.effective(0, 1), Some(Assertion::DisjointIntegrable));
        e.assert(2, 3, Assertion::DisjointNonIntegrable, nm)
            .unwrap();
        assert_eq!(e.effective(2, 3), Some(Assertion::DisjointNonIntegrable));
    }

    #[test]
    fn pinned_derived_facts_record_their_premises() {
        let mut e = E::new();
        e.assert(0, 1, Assertion::ContainedIn, nm).unwrap();
        e.assert(1, 2, Assertion::ContainedIn, nm).unwrap();
        let pinned = e.pinned();
        assert_eq!(pinned.len(), 3);
        let d = &pinned[1];
        assert_eq!((d.a, d.b, d.rel), (0, 2, Rel5::Pp));
        assert_eq!(e.support(0, 2), [0, 1], "both premises recorded");
        assert_eq!(e.support(2, 0), [0, 1], "either orientation");
        assert!(e.support(0, 3).is_empty(), "unconstrained pair");
    }

    #[test]
    fn equality_merges_constraint_views() {
        // 0 ≡ 1 and 1 ⊆ 2 ⇒ 0 ⊆ 2.
        let mut e = E::new();
        e.assert(0, 1, Assertion::Equal, nm).unwrap();
        e.assert(1, 2, Assertion::ContainedIn, nm).unwrap();
        assert_eq!(e.known(0, 2), Some(Rel5::Pp));
    }

    #[test]
    fn long_chain_propagates() {
        let mut e = E::new();
        for i in 0..10u32 {
            e.assert(i, i + 1, Assertion::ContainedIn, nm).unwrap();
        }
        assert_eq!(e.known(0, 10), Some(Rel5::Pp));
        let err = e.assert(10, 0, Assertion::ContainedIn, nm).unwrap_err();
        assert_eq!(err.existing, Rel5Set::only(Rel5::Ppi));
    }

    #[test]
    fn naive_and_incremental_closures_agree() {
        // A mixed fact set with chains, merges and disjointness.
        let facts: Vec<(u32, u32, Rel5Set)> = vec![
            (0, 1, Rel5Set::only(Rel5::Pp)),
            (1, 2, Rel5Set::only(Rel5::Pp)),
            (3, 2, Rel5Set::only(Rel5::Eq)),
            (4, 2, Rel5Set::only(Rel5::Dr)),
            (5, 0, Rel5Set::only(Rel5::Po)),
        ];
        let naive = naive_path_consistency(&facts).expect("consistent");
        let mut engine = E::new();
        for &(a, b, set) in &facts {
            let rel = set.singleton().unwrap();
            engine.seed(a, b, rel, nm).unwrap();
        }
        for &a in &[0u32, 1, 2, 3, 4, 5] {
            for &b in &[0u32, 1, 2, 3, 4, 5] {
                if a >= b {
                    continue;
                }
                let from_naive = naive.get(&(a, b)).copied().unwrap_or(Rel5Set::ALL);
                assert_eq!(
                    engine.constraint(a, b),
                    from_naive,
                    "({a},{b}) incremental vs naive"
                );
            }
        }
        // Both reject the same contradiction.
        let mut bad = facts.clone();
        bad.push((0, 2, Rel5Set::only(Rel5::Dr)));
        assert!(naive_path_consistency(&bad).is_err());
        assert!(engine
            .assert(0, 2, Assertion::DisjointNonIntegrable, nm)
            .is_err());
    }

    #[test]
    fn conflict_supports_exclude_the_rejected_fact() {
        // 0 ⊆ 1 asserted; asserting 1 ⊆ 0 conflicts *via propagation*
        // on the (0,1) pair itself... use a third-party pair: 0 ≡ 1 and
        // 1 ≡ 2, then 0 DR 2 empties (0,2) during propagation. The report
        // must cite only the two premises, never the rejected fact.
        let mut e = E::new();
        e.assert(0, 1, Assertion::Equal, nm).unwrap();
        e.assert(1, 2, Assertion::Equal, nm).unwrap();
        let err = e
            .assert(0, 2, Assertion::DisjointNonIntegrable, nm)
            .unwrap_err();
        assert_eq!(err.supports.len(), 2, "{err}");
        assert!(err.supports.iter().all(|s| s.label == "1"), "{err}");
    }

    #[test]
    fn retract_preserves_earlier_integrability_mark() {
        let mut e = E::new();
        e.assert(0, 1, Assertion::DisjointIntegrable, nm).unwrap();
        e.assert(0, 1, Assertion::DisjointNonIntegrable, nm)
            .unwrap();
        // Retract the later (non-integrable) assertion: the earlier
        // integrable intent must survive the rebuild.
        assert!(e.retract(0, 1));
        assert!(e.is_integrable_dr(0, 1));
        assert_eq!(e.effective(0, 1), Some(Assertion::DisjointIntegrable));
        // Retracting the remaining fact clears it.
        assert!(e.retract(0, 1));
        assert!(!e.is_integrable_dr(0, 1));
    }

    #[test]
    fn self_assertion_constraint() {
        let e = E::new();
        assert_eq!(e.constraint(3, 3), Rel5Set::only(Rel5::Eq));
    }
}
