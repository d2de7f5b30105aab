//! Lexer for the hybrid mini-language.

use std::fmt;

/// Token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Tok {
    Ident(String),
    Int(i64),
    // Punctuation.
    LBrace,
    RBrace,
    LParen,
    RParen,
    Semi,
    Comma,
    Colon,
    DotDot,
    // Operators.
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Bang,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::Semi => write!(f, ";"),
            Tok::Comma => write!(f, ","),
            Tok::Colon => write!(f, ":"),
            Tok::DotDot => write!(f, ".."),
            Tok::Assign => write!(f, "="),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::Percent => write!(f, "%"),
            Tok::EqEq => write!(f, "=="),
            Tok::NotEq => write!(f, "!="),
            Tok::Lt => write!(f, "<"),
            Tok::Le => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::Ge => write!(f, ">="),
            Tok::AndAnd => write!(f, "&&"),
            Tok::OrOr => write!(f, "||"),
            Tok::Bang => write!(f, "!"),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// Lexer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Offending character.
    pub ch: char,
    /// 1-based line.
    pub line: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unexpected character {:?} on line {}",
            self.ch, self.line
        )
    }
}

impl std::error::Error for LexError {}

/// Tokenize `src`. Supports `//` line comments.
pub(crate) fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let mut out = Vec::new();
    let mut line: u32 = 1;
    let mut chars = src.chars().peekable();

    macro_rules! push {
        ($t:expr) => {
            out.push(Token { tok: $t, line })
        };
    }

    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '/' => {
                chars.next();
                if chars.peek() == Some(&'/') {
                    // Line comment.
                    for c in chars.by_ref() {
                        if c == '\n' {
                            line += 1;
                            break;
                        }
                    }
                } else {
                    push!(Tok::Slash);
                }
            }
            c if c.is_ascii_digit() => {
                let mut v: i64 = 0;
                while let Some(&d) = chars.peek() {
                    if let Some(digit) = d.to_digit(10) {
                        v = v * 10 + digit as i64;
                        chars.next();
                    } else {
                        break;
                    }
                }
                push!(Tok::Int(v));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                push!(Tok::Ident(s));
            }
            '{' => {
                chars.next();
                push!(Tok::LBrace);
            }
            '}' => {
                chars.next();
                push!(Tok::RBrace);
            }
            '(' => {
                chars.next();
                push!(Tok::LParen);
            }
            ')' => {
                chars.next();
                push!(Tok::RParen);
            }
            ';' => {
                chars.next();
                push!(Tok::Semi);
            }
            ',' => {
                chars.next();
                push!(Tok::Comma);
            }
            ':' => {
                chars.next();
                push!(Tok::Colon);
            }
            '.' => {
                chars.next();
                if chars.peek() == Some(&'.') {
                    chars.next();
                    push!(Tok::DotDot);
                } else {
                    return Err(LexError { ch: '.', line });
                }
            }
            '+' => {
                chars.next();
                push!(Tok::Plus);
            }
            '-' => {
                chars.next();
                push!(Tok::Minus);
            }
            '*' => {
                chars.next();
                push!(Tok::Star);
            }
            '%' => {
                chars.next();
                push!(Tok::Percent);
            }
            '=' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    push!(Tok::EqEq);
                } else {
                    push!(Tok::Assign);
                }
            }
            '!' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    push!(Tok::NotEq);
                } else {
                    push!(Tok::Bang);
                }
            }
            '<' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    push!(Tok::Le);
                } else {
                    push!(Tok::Lt);
                }
            }
            '>' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    push!(Tok::Ge);
                } else {
                    push!(Tok::Gt);
                }
            }
            '&' => {
                chars.next();
                if chars.peek() == Some(&'&') {
                    chars.next();
                    push!(Tok::AndAnd);
                } else {
                    return Err(LexError { ch: '&', line });
                }
            }
            '|' => {
                chars.next();
                if chars.peek() == Some(&'|') {
                    chars.next();
                    push!(Tok::OrOr);
                } else {
                    return Err(LexError { ch: '|', line });
                }
            }
            other => return Err(LexError { ch: other, line }),
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        line,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("x = 42;"),
            vec![
                Tok::Ident("x".into()),
                Tok::Assign,
                Tok::Int(42),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("== != <= >= < > && || ! .."),
            vec![
                Tok::EqEq,
                Tok::NotEq,
                Tok::Le,
                Tok::Ge,
                Tok::Lt,
                Tok::Gt,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Bang,
                Tok::DotDot,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped_and_lines_counted() {
        let tokens = lex("a // comment\nb").unwrap();
        assert_eq!(tokens[0].line, 1);
        assert_eq!(tokens[1].line, 2);
        assert_eq!(tokens[1].tok, Tok::Ident("b".into()));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let tokens = lex("a\n\nb\nc").unwrap();
        let lines: Vec<u32> = tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 3, 4, 4]);
    }

    #[test]
    fn bad_character_errors() {
        let e = lex("a @ b").unwrap_err();
        assert_eq!(e.ch, '@');
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("'@'"));
    }

    #[test]
    fn lone_dot_and_amp_error() {
        assert!(lex("a.b").is_err());
        assert!(lex("a & b").is_err());
        assert!(lex("a | b").is_err());
    }
}
