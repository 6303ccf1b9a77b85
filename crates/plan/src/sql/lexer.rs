//! SQL lexer.
//!
//! Tokenizes the engine's SQL dialect: identifiers (optionally
//! double-quoted), integer/float literals, single-quoted strings with `''`
//! escapes, operators and punctuation. Keywords are recognized later, by the
//! parser, so that identifiers like a column named `state` never clash.

use std::fmt;

/// A lexical token.
#[derive(Clone, PartialEq, Debug)]
pub enum Token {
    /// Bare or quoted identifier (case preserved; matching is
    /// case-insensitive).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (quotes stripped, escapes resolved).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `;`
    Semicolon,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::Star => write!(f, "*"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Semicolon => write!(f, ";"),
        }
    }
}

/// A lexing failure with byte position.
#[derive(Clone, PartialEq, Debug)]
pub struct LexError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub position: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.position)
    }
}

impl std::error::Error for LexError {}

/// Tokenize `input`.
pub fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(LexError {
                        message: "unexpected `!`".into(),
                        position: i,
                    });
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::Le);
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(LexError {
                            message: "unterminated string literal".into(),
                            position: start,
                        });
                    }
                    if bytes[i] == b'\'' {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        // Keep multi-byte UTF-8 intact.
                        let ch_len = utf8_len(bytes[i]);
                        s.push_str(&input[i..i + ch_len]);
                        i += ch_len;
                    }
                }
                tokens.push(Token::Str(s));
            }
            '"' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                while i < bytes.len() && bytes[i] != b'"' {
                    let ch_len = utf8_len(bytes[i]);
                    s.push_str(&input[i..i + ch_len]);
                    i += ch_len;
                }
                if i >= bytes.len() {
                    return Err(LexError {
                        message: "unterminated quoted identifier".into(),
                        position: start,
                    });
                }
                i += 1;
                tokens.push(Token::Ident(s));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i + 1 < bytes.len()
                    && bytes[i] == b'.'
                    && (bytes[i + 1] as char).is_ascii_digit()
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &input[start..i];
                if is_float {
                    tokens.push(Token::Float(text.parse().map_err(|_| LexError {
                        message: format!("invalid float literal `{text}`"),
                        position: start,
                    })?));
                } else {
                    tokens.push(Token::Int(text.parse().map_err(|_| LexError {
                        message: format!("invalid integer literal `{text}`"),
                        position: start,
                    })?));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(input[start..i].to_string()));
            }
            other => {
                return Err(LexError {
                    message: format!("unexpected character `{other}`"),
                    position: i,
                });
            }
        }
    }
    Ok(tokens)
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b >> 5 == 0b110 => 2,
        b if b >> 4 == 0b1110 => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokens() {
        let toks = lex("SELECT a.b, 'it''s', 3.5 FROM t WHERE x <= 10").unwrap();
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert!(toks.contains(&Token::Str("it's".into())));
        assert!(toks.contains(&Token::Float(3.5)));
        assert!(toks.contains(&Token::Le));
    }

    #[test]
    fn operators() {
        let toks = lex("a <> b != c >= d <= e < f > g = h").unwrap();
        let ops: Vec<&Token> = toks
            .iter()
            .filter(|t| !matches!(t, Token::Ident(_)))
            .collect();
        assert_eq!(
            ops,
            vec![
                &Token::Ne,
                &Token::Ne,
                &Token::Ge,
                &Token::Le,
                &Token::Lt,
                &Token::Gt,
                &Token::Eq
            ]
        );
    }

    #[test]
    fn comments_and_quoted_identifiers() {
        let toks = lex("SELECT \"Weird Col\" -- trailing comment\nFROM t").unwrap();
        assert_eq!(toks[1], Token::Ident("Weird Col".into()));
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn numbers() {
        let toks = lex("1 2.5 1e3 7").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(1),
                Token::Float(2.5),
                Token::Float(1000.0),
                Token::Int(7)
            ]
        );
    }

    #[test]
    fn negative_handled_by_parser() {
        // `-` lexes as Minus; unary minus is a parser concern.
        let toks = lex("-5").unwrap();
        assert_eq!(toks, vec![Token::Minus, Token::Int(5)]);
    }

    #[test]
    fn errors() {
        assert!(lex("'unterminated").is_err());
        assert!(lex("a ! b").is_err());
        assert!(lex("€").is_err());
    }
}
