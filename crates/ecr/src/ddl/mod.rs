//! A textual data-description language for ECR schemas.
//!
//! The paper notes the ECR model comes with "its data description language";
//! the tool's Schema Collection screens are form-based entry for the same
//! information. This module provides the batch equivalent: a compact text
//! format, so component schemas can live in files, fixtures, and tests.
//!
//! ## Grammar
//!
//! ```text
//! schema    := "schema" IDENT "{" element* "}"
//! element   := entity | category | relationship
//! entity    := "entity" IDENT "{" attr* "}"
//! category  := "category" IDENT "of" IDENT ("," IDENT)* "{" attr* "}"
//! relationship := "relationship" IDENT "{" (leg | attr)* "}"
//! leg       := IDENT "(" NUM "," (NUM | "n") ")" ("role" IDENT)? ";"
//! attr      := IDENT ":" DOMAIN ("key")? ";"
//! DOMAIN    := "char" | "int" | "real" | "bool" | "date"
//!            | "enum" "{" IDENT ("," IDENT)* "}" | IDENT
//! ```
//!
//! Comments run from `#` to end of line.
//!
//! ```
//! let text = r#"
//! schema sc1 {
//!   entity Student { Name: char key; GPA: real; }
//!   entity Department { Dname: char key; }
//!   relationship Majors {
//!     Student (0,1);
//!     Department (0,n);
//!   }
//! }
//! "#;
//! let schema = sit_ecr::ddl::parse(text).unwrap();
//! assert_eq!(schema.name(), "sc1");
//! let round = sit_ecr::ddl::print(&schema);
//! assert_eq!(sit_ecr::ddl::parse(&round).unwrap(), schema);
//! ```

mod lexer;
mod parser;
mod printer;

pub use lexer::{Lexer, Token, TokenKind};
pub use parser::{parse, parse_many};
pub use printer::{print, print_into};
