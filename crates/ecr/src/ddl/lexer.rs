//! Tokenizer for the ECR DDL.

use crate::error::{EcrError, Result};

/// Kinds of token the DDL grammar uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenKind<'a> {
    /// Identifier or keyword (`schema`, `entity`, names, ...), borrowed
    /// from the source. Keywords are distinguished by the parser so names
    /// like `key` can still appear as identifiers where unambiguous.
    Ident(&'a str),
    /// Unsigned integer literal (used in cardinalities).
    Num(u32),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// Human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("`{s}`"),
            TokenKind::Num(n) => format!("`{n}`"),
            TokenKind::LBrace => "`{`".to_owned(),
            TokenKind::RBrace => "`}`".to_owned(),
            TokenKind::LParen => "`(`".to_owned(),
            TokenKind::RParen => "`)`".to_owned(),
            TokenKind::Colon => "`:`".to_owned(),
            TokenKind::Semi => "`;`".to_owned(),
            TokenKind::Comma => "`,`".to_owned(),
            TokenKind::Eof => "end of input".to_owned(),
        }
    }
}

/// A token with its source position (1-based line and column).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Token<'a> {
    /// What was lexed.
    pub kind: TokenKind<'a>,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// Hand-rolled single-pass lexer.
pub struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    /// Lex over `src`.
    pub fn new(src: &'a str) -> Self {
        Self {
            text: src,
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// Tokenize the whole input (the final token is always
    /// [`TokenKind::Eof`]).
    pub fn tokenize(mut self) -> Result<Vec<Token<'a>>> {
        // About one token per four source bytes in practice: one
        // allocation instead of a doubling series.
        let mut out = Vec::with_capacity(self.src.len() / 4 + 1);
        loop {
            let tok = self.next_token()?;
            let done = tok.kind == TokenKind::Eof;
            out.push(tok);
            if done {
                return Ok(out);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) {
        while let Some(c) = self.peek() {
            if c.is_ascii_whitespace() {
                self.bump();
            } else if c == b'#' {
                while let Some(c) = self.peek() {
                    if c == b'\n' {
                        break;
                    }
                    self.bump();
                }
            } else {
                break;
            }
        }
    }

    fn next_token(&mut self) -> Result<Token<'a>> {
        self.skip_trivia();
        let (line, col) = (self.line, self.col);
        let mk = |kind| Token { kind, line, col };
        let Some(c) = self.peek() else {
            return Ok(mk(TokenKind::Eof));
        };
        let kind = match c {
            b'{' => {
                self.bump();
                TokenKind::LBrace
            }
            b'}' => {
                self.bump();
                TokenKind::RBrace
            }
            b'(' => {
                self.bump();
                TokenKind::LParen
            }
            b')' => {
                self.bump();
                TokenKind::RParen
            }
            b':' => {
                self.bump();
                TokenKind::Colon
            }
            b';' => {
                self.bump();
                TokenKind::Semi
            }
            b',' => {
                self.bump();
                TokenKind::Comma
            }
            b'0'..=b'9' => {
                let mut n: u64 = 0;
                while let Some(d) = self.peek() {
                    if d.is_ascii_digit() {
                        n = n * 10 + u64::from(d - b'0');
                        if n > u64::from(u32::MAX) {
                            return Err(EcrError::Parse {
                                line,
                                col,
                                msg: "number too large".to_owned(),
                            });
                        }
                        self.bump();
                    } else {
                        break;
                    }
                }
                TokenKind::Num(n as u32)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while let Some(d) = self.peek() {
                    if d.is_ascii_alphanumeric() || d == b'_' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                // Identifier bytes are ASCII, so both ends are char
                // boundaries.
                TokenKind::Ident(&self.text[start..self.pos])
            }
            _ => {
                // Every byte consumed so far closed an ASCII token or
                // trivia run, so `pos` is a char boundary: name the whole
                // character, not its first UTF-8 byte.
                let other = self.text[self.pos..].chars().next().unwrap_or('?');
                return Err(EcrError::Parse {
                    line,
                    col,
                    msg: format!("unexpected character `{other}`"),
                });
            }
        };
        Ok(mk(kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_punctuation_and_idents() {
        assert_eq!(
            kinds("schema sc1 { }"),
            vec![
                TokenKind::Ident("schema"),
                TokenKind::Ident("sc1"),
                TokenKind::LBrace,
                TokenKind::RBrace,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_cardinality() {
        assert_eq!(
            kinds("(0,17)"),
            vec![
                TokenKind::LParen,
                TokenKind::Num(0),
                TokenKind::Comma,
                TokenKind::Num(17),
                TokenKind::RParen,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn skips_comments_and_tracks_positions() {
        let toks = Lexer::new("# header\n  x").tokenize().unwrap();
        assert_eq!(toks[0].kind, TokenKind::Ident("x"));
        assert_eq!((toks[0].line, toks[0].col), (2, 3));
    }

    #[test]
    fn rejects_stray_characters() {
        let err = Lexer::new("a @ b").tokenize().unwrap_err();
        assert!(err.to_string().contains("unexpected character `@`"));
    }

    #[test]
    fn names_a_non_ascii_character_whole() {
        let err = Lexer::new("entity Café").tokenize().unwrap_err();
        assert!(
            err.to_string().contains("unexpected character `é`"),
            "{err}"
        );
        let err = crate::ddl::parse("schema s { entity Café { x: char key; } }").unwrap_err();
        assert!(
            err.to_string().contains("unexpected character `é`"),
            "{err}"
        );
    }

    #[test]
    fn rejects_huge_numbers() {
        let err = Lexer::new("99999999999").tokenize().unwrap_err();
        assert!(err.to_string().contains("number too large"));
    }
}
