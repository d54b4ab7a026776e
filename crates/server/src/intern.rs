//! The service-wide schema table: each `add_schema` DDL text is lexed,
//! parsed and validated once, and every session that loads the same
//! text shares the parsed schemas.
//!
//! In the paper's federated use many designers integrate one fixed set
//! of component schemas, so the same `ddl` text arrives again and again
//! — from different sessions, and from the log when recovery replays
//! their records. The table is keyed by the exact decoded text (not a
//! hash of it: equal keys are equal texts) and holds the parsed,
//! validated blocks as `Arc`s; a session registers `Arc` clones.
//!
//! * **Errors are not kept.** A text that does not parse is parsed again
//!   the next time it arrives and fails the same way: parsing is a pure
//!   function of the text. So is a hit, which is why a reply, a log
//!   record and a recovered session are the same whether the text was a
//!   hit or a miss.
//! * **Bounded by a fixed budget** ([`BUDGET`]). Each entry is charged
//!   its text bytes plus [`PARSED_BYTES_PER_TEXT_BYTE`] times as many
//!   for the parsed schemas ([`charge`]); entries leave in insertion
//!   order once a new one would go over, and a text whose charge alone
//!   is over the budget is parsed and never kept. Sessions own their
//!   `Arc`s, so eviction never changes what a session holds; it only
//!   means the next arrival of that text is parsed again.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use sit_ecr::{ddl, EcrError, Schema};
use sit_obs::metrics::{prom_counter, Counter};
use sit_obs::sync::lock_recover;

/// Most charged bytes the table keeps, 4 MiB: about a thousand
/// paper-scale schema texts (692 bytes each, so about 4 KiB charged).
pub const BUDGET: usize = 4 << 20;

/// Heap bytes charged for the parsed schemas per byte of text. A
/// paper-scale `sit-datagen` schema of 692 DDL bytes parses into 2,222
/// heap bytes in 40 blocks; with the allocator's per-block overhead and
/// the `Arc` that is about four and a half times its text.
pub const PARSED_BYTES_PER_TEXT_BYTE: usize = 5;

/// The parsed blocks of one DDL text, in text order.
pub type Schemas = Arc<[Arc<Schema>]>;

/// What keeping `text` costs against [`BUDGET`]: the text plus its
/// parsed schemas' estimated size.
pub fn charge(text: &str) -> usize {
    text.len().saturating_mul(1 + PARSED_BYTES_PER_TEXT_BYTE)
}

/// Content-addressed table of parsed DDL texts, shared by every session
/// of a service.
#[derive(Default)]
pub struct SchemaTable {
    state: Mutex<State>,
    hits: Counter,
    misses: Counter,
}

#[derive(Default)]
struct State {
    by_text: HashMap<Arc<str>, Schemas>,
    /// Keys in insertion order: the eviction order.
    order: VecDeque<Arc<str>>,
    /// Charged bytes of the entries held.
    charged: usize,
}

impl SchemaTable {
    /// An empty table.
    pub fn new() -> SchemaTable {
        SchemaTable::default()
    }

    /// The schemas of `text`: from the table if it holds the text (a
    /// hit), else parsed and validated by [`ddl::parse_many`] outside the
    /// lock and then kept if it parsed, has at least one block and fits
    /// the budget (a miss). Either way the result is the one
    /// `ddl::parse_many(text)` gives.
    pub fn parse(&self, text: &str) -> Result<Schemas, EcrError> {
        if let Some(found) = lock_recover(&self.state).by_text.get(text) {
            self.hits.inc();
            return Ok(Arc::clone(found));
        }
        self.misses.inc();
        let parsed: Schemas = ddl::parse_many(text)?.into_iter().map(Arc::new).collect();
        let cost = charge(text);
        if parsed.is_empty() || cost > BUDGET {
            return Ok(parsed);
        }
        let mut state = lock_recover(&self.state);
        // Another session may have parsed the same text meanwhile: share
        // its copy, so the table and the sessions hold one.
        if let Some(found) = state.by_text.get(text) {
            return Ok(Arc::clone(found));
        }
        while state.charged + cost > BUDGET {
            let Some(oldest) = state.order.pop_front() else {
                break;
            };
            state.by_text.remove(&oldest);
            state.charged -= charge(&oldest);
        }
        let key: Arc<str> = Arc::from(text);
        state.by_text.insert(Arc::clone(&key), Arc::clone(&parsed));
        state.order.push_back(key);
        state.charged += cost;
        Ok(parsed)
    }

    /// Lookups answered from the table.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that parsed, failed parses included.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Texts held.
    pub fn entries(&self) -> usize {
        lock_recover(&self.state).order.len()
    }

    /// Charged bytes of the texts held (at most [`BUDGET`]).
    pub fn bytes(&self) -> usize {
        lock_recover(&self.state).charged
    }

    /// Append the `sit_schema_intern_*` Prometheus series.
    pub fn prometheus(&self, out: &mut String) {
        for (name, kind, value) in [
            ("sit_schema_intern_hits_total", "counter", self.hits()),
            ("sit_schema_intern_misses_total", "counter", self.misses()),
            ("sit_schema_intern_entries", "gauge", self.entries() as u64),
            ("sit_schema_intern_bytes", "gauge", self.bytes() as u64),
        ] {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
            prom_counter(out, name, "", value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_leave_in_insertion_order_within_the_budget() {
        let table = SchemaTable::new();
        // Each text is charged just over a third of the budget, so a
        // third evicts the first.
        let pad = BUDGET / 3 / (1 + PARSED_BYTES_PER_TEXT_BYTE) + 1;
        let text = |name: &str| {
            format!("schema {name} {{ entity X {{ k: int key; }} }}") + &" ".repeat(pad)
        };
        let (a, b, c) = (text("a"), text("b"), text("c"));
        for t in [&a, &b, &c] {
            table.parse(t).unwrap();
        }
        assert_eq!(table.entries(), 2);
        assert!(table.bytes() <= BUDGET);
        table.parse(&b).unwrap();
        table.parse(&c).unwrap();
        assert_eq!(table.hits(), 2);
        table.parse(&a).unwrap();
        assert_eq!(table.misses(), 4);
    }

    #[test]
    fn a_text_without_blocks_is_not_kept() {
        let table = SchemaTable::new();
        assert!(table.parse("# nothing here").unwrap().is_empty());
        assert_eq!(table.entries(), 0);
    }
}
