#![warn(missing_docs)]
//! # sit-tui — the interactive schema-integration tool
//!
//! The paper's tool "is written in C and runs on Apollo in the UNIX
//! environment. The tool is interactive; the user interface of the tool is
//! menu and form based and largely terminal independent. All screen and
//! cursor movements are performed using a UNIX library package called
//! curses. Each screen is made up of multiple windows, some of which can
//! be scrolled ..." (§3.1)
//!
//! This crate reproduces that tool as a *deterministic, scriptable*
//! terminal UI (see DESIGN.md's substitution table: the dialogue structure
//! is the contribution, not the curses calls):
//!
//! * [`screen`] — a terminal-independent frame/window engine (the curses
//!   substitute): an 80×24 character grid with boxes, centered titles,
//!   column layout and scrolling windows.
//! * [`event`] — the input alphabet: single keys (menu choices) and typed
//!   lines (form fields).
//! * [`app`] — the tool itself: a state machine over the thirteen screens
//!   of the paper (main menu + Screens 2–12), driving a
//!   [`sit_core::session::Session`] underneath. Its viewer follows the
//!   screen control flow of the paper's Figure 6 (checked by the
//!   `screen_flow_graph` test).
//! * [`session`] — the scripted runner: feed a list of events, get every
//!   rendered frame back, ready for golden-file comparison.
//!
//! ```
//! use sit_tui::app::App;
//! use sit_tui::event::Event;
//!
//! let mut app = App::new();
//! // The main menu is on screen; entering '1' opens Schema Collection.
//! let frame = app.render();
//! assert!(frame.to_string().contains("SCHEMA INTEGRATION TOOL"));
//! app.handle(Event::Key('1'));
//! assert!(app.render().to_string().contains("Schema Name Collection"));
//! ```

pub mod app;
pub mod event;
pub mod screen;
pub mod screens;
pub mod session;

pub use app::App;
pub use event::Event;
pub use screen::Frame;
pub use session::{run_script, Capture};
