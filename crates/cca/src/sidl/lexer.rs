//! Tokenizer for the SIDL subset.

/// SIDL tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// Identifier or keyword (may contain dots: `gov.cca.Port`) or a
    /// version number (`0.1`).
    Word(String),
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `<`.
    Lt,
    /// `>`.
    Gt,
    /// `[`.
    LBracket,
    /// `]`.
    RBracket,
    /// `,`.
    Comma,
    /// `;`.
    Semi,
}

/// Tokenize SIDL source; `//` and `/* */` comments are skipped.
pub fn tokenize(src: &str) -> Result<Vec<Token>, String> {
    let mut out = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let n = bytes.len();
    while i < n {
        let c = bytes[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                while i < n && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                i += 2;
                while i + 1 < n && !(bytes[i] == '*' && bytes[i + 1] == '/') {
                    i += 1;
                }
                if i + 1 >= n {
                    return Err("unterminated block comment".into());
                }
                i += 2;
            }
            '{' => {
                out.push(Token::LBrace);
                i += 1;
            }
            '}' => {
                out.push(Token::RBrace);
                i += 1;
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            '<' => {
                out.push(Token::Lt);
                i += 1;
            }
            '>' => {
                out.push(Token::Gt);
                i += 1;
            }
            '[' => {
                out.push(Token::LBracket);
                i += 1;
            }
            ']' => {
                out.push(Token::RBracket);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            ';' => {
                out.push(Token::Semi);
                i += 1;
            }
            c if c.is_alphanumeric() || c == '_' => {
                let start = i;
                while i < n
                    && (bytes[i].is_alphanumeric()
                        || bytes[i] == '_'
                        || (bytes[i] == '.' && i + 1 < n && bytes[i + 1].is_alphanumeric()))
                {
                    i += 1;
                }
                out.push(Token::Word(bytes[start..i].iter().collect()));
            }
            other => return Err(format!("unexpected character '{other}'")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_symbols_and_words() {
        let toks =
            tokenize("interface Foo extends gov.cca.Port { int f(in rarray<double,1> x(n)); }")
                .unwrap();
        assert_eq!(toks[0], Token::Word("interface".into()));
        assert_eq!(toks[3], Token::Word("gov.cca.Port".into()));
        assert!(toks.contains(&Token::Lt));
        assert!(toks.contains(&Token::Semi));
    }

    #[test]
    fn versions_lex_as_single_words() {
        let toks = tokenize("package lisi version 0.1").unwrap();
        assert_eq!(toks.last(), Some(&Token::Word("0.1".into())));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("int /* block */ x; // line\nint y;").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Word("int".into()),
                Token::Word("x".into()),
                Token::Semi,
                Token::Word("int".into()),
                Token::Word("y".into()),
                Token::Semi
            ]
        );
        assert!(tokenize("/* open").is_err());
    }

    #[test]
    fn stray_characters_error() {
        assert!(tokenize("int $x;").is_err());
    }

    #[test]
    fn trailing_dot_does_not_join() {
        // A dot not followed by an alphanumeric stays outside the word.
        let r = tokenize("a. b");
        assert!(r.is_err(), "bare dot is not a token in this subset");
    }
}
