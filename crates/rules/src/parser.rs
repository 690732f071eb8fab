//! A textual syntax for structuredness rules.
//!
//! The concrete syntax mirrors the paper's notation closely:
//!
//! ```text
//! val(c) = 1                              # val(c) = 1
//! prop(c1) = prop(c2)                     # column equality
//! prop(c) != <http://ex/deathDate>        # sugar for not(prop(c) = <...>)
//! c1 = c2, subj(c1) = subj(c2)            # cell / row equality
//! not (...), ... and ..., ... or ...      # Boolean structure
//! ϕ1 -> ϕ2                                # the rule arrow
//! ```
//!
//! Operator precedence is `not` > `and` > `or`, and `!=` is syntactic sugar
//! for a negated equality. Example — the σ_Sim rule of Section 3.2:
//!
//! ```text
//! not (c1 = c2) and prop(c1) = prop(c2) and val(c1) = 1 -> val(c2) = 1
//! ```

use crate::ast::{Atom, Formula, Rule, Var};
use crate::error::RuleError;

/// The deepest formula the parser accepts. Every `(`, every `not` and every
/// `and`/`or` of a chain counts as one level. Printing, evaluating and
/// [`Rule::new`] recurse over the formula tree, so deeper text is refused
/// here rather than overflowing a thread's stack later; the server parses
/// rules on its event-loop thread.
pub const MAX_FORMULA_DEPTH: usize = 256;

/// Parses the textual form of a rule.
pub fn parse_rule(input: &str) -> Result<Rule, RuleError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let antecedent = parser.parse_formula()?;
    parser.expect(TokenKind::Arrow)?;
    let consequent = parser.parse_formula()?;
    if parser.pos != parser.tokens.len() {
        return Err(parser.error_here("unexpected trailing input"));
    }
    Rule::new(antecedent, consequent)
}

/// Parses a single formula (useful for building rules programmatically from
/// textual fragments).
pub fn parse_formula(input: &str) -> Result<Formula, RuleError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser { tokens, pos: 0 };
    let formula = parser.parse_formula()?;
    if parser.pos != parser.tokens.len() {
        return Err(parser.error_here("unexpected trailing input"));
    }
    Ok(formula)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum TokenKind {
    Val,
    Prop,
    Subj,
    Not,
    And,
    Or,
    LParen,
    RParen,
    Eq,
    Neq,
    Arrow,
    Zero,
    One,
    Iri(String),
    Ident(String),
}

#[derive(Debug, Clone)]
struct Token {
    kind: TokenKind,
    position: usize,
}

fn tokenize(input: &str) -> Result<Vec<Token>, RuleError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let b = bytes[pos];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => {
                pos += 1;
            }
            b'#' => {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    position: pos,
                });
                pos += 1;
            }
            b')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    position: pos,
                });
                pos += 1;
            }
            b'=' => {
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    position: pos,
                });
                pos += 1;
            }
            b'!' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Neq,
                        position: pos,
                    });
                    pos += 2;
                } else {
                    return Err(RuleError::Parse {
                        position: pos,
                        message: "expected '!=' after '!'".into(),
                    });
                }
            }
            b'-' => {
                if bytes.get(pos + 1) == Some(&b'>') {
                    tokens.push(Token {
                        kind: TokenKind::Arrow,
                        position: pos,
                    });
                    pos += 2;
                } else {
                    return Err(RuleError::Parse {
                        position: pos,
                        message: "expected '->' after '-'".into(),
                    });
                }
            }
            b'<' => {
                let start = pos + 1;
                let mut end = start;
                while end < bytes.len() && bytes[end] != b'>' {
                    end += 1;
                }
                if end == bytes.len() {
                    return Err(RuleError::Parse {
                        position: pos,
                        message: "unterminated IRI (missing '>')".into(),
                    });
                }
                tokens.push(Token {
                    kind: TokenKind::Iri(input[start..end].to_owned()),
                    position: pos,
                });
                pos = end + 1;
            }
            b'0' => {
                tokens.push(Token {
                    kind: TokenKind::Zero,
                    position: pos,
                });
                pos += 1;
            }
            b'1' => {
                tokens.push(Token {
                    kind: TokenKind::One,
                    position: pos,
                });
                pos += 1;
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_')
                {
                    pos += 1;
                }
                let word = &input[start..pos];
                let kind = match word.to_ascii_lowercase().as_str() {
                    "val" => TokenKind::Val,
                    "prop" => TokenKind::Prop,
                    "subj" => TokenKind::Subj,
                    "not" => TokenKind::Not,
                    "and" => TokenKind::And,
                    "or" => TokenKind::Or,
                    _ => TokenKind::Ident(word.to_owned()),
                };
                tokens.push(Token {
                    kind,
                    position: start,
                });
            }
            other => {
                return Err(RuleError::Parse {
                    position: pos,
                    message: format!("unexpected character '{}'", other as char),
                });
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// The left-hand side of an atomic comparison.
enum Lhs {
    Val(Var),
    Prop(Var),
    Subj(Var),
    Variable(Var),
}

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn position(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|t| t.position)
            .unwrap_or_else(|| self.tokens.last().map(|t| t.position + 1).unwrap_or(0))
    }

    fn error_here(&self, message: impl Into<String>) -> RuleError {
        RuleError::Parse {
            position: self.position(),
            message: message.into(),
        }
    }

    fn advance(&mut self) -> Option<TokenKind> {
        let kind = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if kind.is_some() {
            self.pos += 1;
        }
        kind
    }

    fn expect(&mut self, expected: TokenKind) -> Result<(), RuleError> {
        match self.peek() {
            Some(kind) if *kind == expected => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.error_here(format!("expected {expected:?}"))),
        }
    }

    fn parse_formula(&mut self) -> Result<Formula, RuleError> {
        self.parse_or(0).map(|(formula, _)| formula)
    }

    /// Returns `height` if a formula `height` levels tall fits below
    /// `depth` enclosing levels, and a parse error otherwise.
    fn capped(&self, depth: usize, height: usize) -> Result<usize, RuleError> {
        if depth + height > MAX_FORMULA_DEPTH {
            return Err(self.error_here(format!(
                "formula nested deeper than {MAX_FORMULA_DEPTH} levels"
            )));
        }
        Ok(height)
    }

    /// Parses a disjunction under `depth` enclosing levels, returning it
    /// with its height (the levels it adds).
    fn parse_or(&mut self, depth: usize) -> Result<(Formula, usize), RuleError> {
        let (mut left, mut height) = self.parse_and(depth)?;
        while self.peek() == Some(&TokenKind::Or) {
            self.pos += 1;
            let (right, right_height) = self.parse_and(depth)?;
            height = self.capped(depth, height.max(right_height) + 1)?;
            left = Formula::or(left, right);
        }
        Ok((left, height))
    }

    fn parse_and(&mut self, depth: usize) -> Result<(Formula, usize), RuleError> {
        let (mut left, mut height) = self.parse_unary(depth)?;
        while self.peek() == Some(&TokenKind::And) {
            self.pos += 1;
            let (right, right_height) = self.parse_unary(depth)?;
            height = self.capped(depth, height.max(right_height) + 1)?;
            left = Formula::and(left, right);
        }
        Ok((left, height))
    }

    fn parse_unary(&mut self, depth: usize) -> Result<(Formula, usize), RuleError> {
        match self.peek() {
            Some(TokenKind::Not) => {
                self.capped(depth, 1)?;
                self.pos += 1;
                let (inner, height) = self.parse_unary(depth + 1)?;
                Ok((Formula::not(inner), height + 1))
            }
            Some(TokenKind::LParen) => {
                self.capped(depth, 1)?;
                self.pos += 1;
                let inner = self.parse_or(depth + 1)?;
                self.expect(TokenKind::RParen)?;
                Ok(inner)
            }
            _ => Ok((self.parse_atom()?, 0)),
        }
    }

    fn parse_var(&mut self) -> Result<Var, RuleError> {
        match self.advance() {
            Some(TokenKind::Ident(name)) => Ok(Var::new(name)),
            _ => Err(self.error_here("expected a variable name")),
        }
    }

    fn parse_lhs(&mut self) -> Result<Lhs, RuleError> {
        match self.peek() {
            Some(TokenKind::Val) => {
                self.pos += 1;
                self.expect(TokenKind::LParen)?;
                let var = self.parse_var()?;
                self.expect(TokenKind::RParen)?;
                Ok(Lhs::Val(var))
            }
            Some(TokenKind::Prop) => {
                self.pos += 1;
                self.expect(TokenKind::LParen)?;
                let var = self.parse_var()?;
                self.expect(TokenKind::RParen)?;
                Ok(Lhs::Prop(var))
            }
            Some(TokenKind::Subj) => {
                self.pos += 1;
                self.expect(TokenKind::LParen)?;
                let var = self.parse_var()?;
                self.expect(TokenKind::RParen)?;
                Ok(Lhs::Subj(var))
            }
            Some(TokenKind::Ident(_)) => Ok(Lhs::Variable(self.parse_var()?)),
            _ => Err(self.error_here("expected val(...), prop(...), subj(...) or a variable")),
        }
    }

    fn parse_atom(&mut self) -> Result<Formula, RuleError> {
        let lhs = self.parse_lhs()?;
        let negated = match self.advance() {
            Some(TokenKind::Eq) => false,
            Some(TokenKind::Neq) => true,
            _ => return Err(self.error_here("expected '=' or '!='")),
        };
        let atom = match lhs {
            Lhs::Val(var) => match self.peek().cloned() {
                Some(TokenKind::Zero) => {
                    self.pos += 1;
                    Atom::ValEqConst(var, false)
                }
                Some(TokenKind::One) => {
                    self.pos += 1;
                    Atom::ValEqConst(var, true)
                }
                Some(TokenKind::Val) => {
                    self.pos += 1;
                    self.expect(TokenKind::LParen)?;
                    let other = self.parse_var()?;
                    self.expect(TokenKind::RParen)?;
                    Atom::ValEqVal(var, other)
                }
                _ => return Err(self.error_here("expected 0, 1 or val(...) after 'val(..) ='")),
            },
            Lhs::Prop(var) => match self.peek().cloned() {
                Some(TokenKind::Iri(iri)) => {
                    self.pos += 1;
                    Atom::PropEqConst(var, iri)
                }
                Some(TokenKind::Prop) => {
                    self.pos += 1;
                    self.expect(TokenKind::LParen)?;
                    let other = self.parse_var()?;
                    self.expect(TokenKind::RParen)?;
                    Atom::PropEqProp(var, other)
                }
                _ => return Err(self.error_here("expected <iri> or prop(...) after 'prop(..) ='")),
            },
            Lhs::Subj(var) => match self.peek().cloned() {
                Some(TokenKind::Iri(iri)) => {
                    self.pos += 1;
                    Atom::SubjEqConst(var, iri)
                }
                Some(TokenKind::Subj) => {
                    self.pos += 1;
                    self.expect(TokenKind::LParen)?;
                    let other = self.parse_var()?;
                    self.expect(TokenKind::RParen)?;
                    Atom::SubjEqSubj(var, other)
                }
                _ => return Err(self.error_here("expected <iri> or subj(...) after 'subj(..) ='")),
            },
            Lhs::Variable(var) => {
                let other = self.parse_var()?;
                Atom::VarEq(var, other)
            }
        };
        let formula = Formula::atom(atom);
        Ok(if negated {
            Formula::not(formula)
        } else {
            formula
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_cov_rule() {
        let rule = parse_rule("c = c -> val(c) = 1").unwrap();
        assert_eq!(rule.to_string(), "c = c -> val(c) = 1");
        assert_eq!(rule.variables().len(), 1);
    }

    #[test]
    fn parses_the_sim_rule() {
        let rule =
            parse_rule("not (c1 = c2) and prop(c1) = prop(c2) and val(c1) = 1 -> val(c2) = 1")
                .unwrap();
        assert_eq!(rule.variables().len(), 2);
        assert!(rule.antecedent().is_conjunctive());
    }

    #[test]
    fn parses_dependency_rules_with_iris() {
        let rule = parse_rule(
            "subj(c1) = subj(c2) and prop(c1) = <http://ex/deathPlace> and \
             prop(c2) = <http://ex/deathDate> and val(c1) = 1 -> val(c2) = 1",
        )
        .unwrap();
        assert_eq!(rule.variables().len(), 2);
        assert!(rule.to_string().contains("http://ex/deathPlace"));
    }

    #[test]
    fn neq_sugar_expands_to_negation() {
        let formula = parse_formula("prop(c) != <http://ex/p>").unwrap();
        assert_eq!(
            formula,
            Formula::not(Formula::atom(Atom::PropEqConst(
                Var::new("c"),
                "http://ex/p".into(),
            )))
        );
    }

    #[test]
    fn or_binds_weaker_than_and() {
        let formula = parse_formula("val(a) = 1 and val(b) = 1 or val(a) = 0").unwrap();
        match formula {
            Formula::Or(_, _) => {}
            other => panic!("expected top-level Or, got {other:?}"),
        }
    }

    #[test]
    fn parenthesised_disjunction_in_antecedent() {
        let rule = parse_rule(
            "subj(c1) = subj(c2) and (val(c1) = 1 or val(c2) = 1) -> val(c1) = 1 and val(c2) = 1",
        )
        .unwrap();
        assert!(!rule.antecedent().is_conjunctive());
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let rule =
            parse_rule("# the coverage rule\n  c = c  # all cells\n -> val(c) = 1\n").unwrap();
        assert_eq!(rule.to_string(), "c = c -> val(c) = 1");
    }

    #[test]
    fn error_cases_report_positions() {
        assert!(matches!(parse_rule("c = c"), Err(RuleError::Parse { .. })));
        assert!(matches!(
            parse_rule("val(c) = 2 -> val(c) = 1"),
            Err(RuleError::Parse { .. })
        ));
        assert!(matches!(
            parse_rule("c = c -> val(d) = 1"),
            Err(RuleError::UnboundConsequentVariable(name)) if name == "d"
        ));
        assert!(matches!(
            parse_rule("prop(c) = 1 -> val(c) = 1"),
            Err(RuleError::Parse { .. })
        ));
        assert!(matches!(
            parse_rule("val(c) = 1 -> val(c) = 1 trailing"),
            Err(RuleError::Parse { .. })
        ));
        assert!(matches!(
            parse_rule("val(c) = <http://unterminated -> val(c) = 1"),
            Err(RuleError::Parse { .. })
        ));
    }

    /// A rule whose antecedent nests `levels` deep in each shape the cap
    /// counts: parentheses, negations, and `and`/`or` chains.
    fn nested_rules(levels: usize) -> [String; 4] {
        let atom = "val(c) = 1";
        [
            format!(
                "{}{atom}{} -> {atom}",
                "(".repeat(levels),
                ")".repeat(levels)
            ),
            format!("{}{atom} -> {atom}", "not ".repeat(levels)),
            format!("{atom}{} -> {atom}", format!(" and {atom}").repeat(levels)),
            format!("{atom}{} -> {atom}", format!(" or {atom}").repeat(levels)),
        ]
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let view = strudel_rdf::signature::SignatureView::from_counts(
            vec!["http://ex/p".into()],
            vec![(vec![0], 2), (vec![], 1)],
        )
        .unwrap();
        for text in nested_rules(MAX_FORMULA_DEPTH) {
            let rule = parse_rule(&text).unwrap_or_else(|err| panic!("{err}: {text:.40}"));
            assert!(rule.to_string().contains(" -> "));
            crate::eval::Evaluator::new(&view).sigma(&rule).unwrap();
        }
        for levels in [MAX_FORMULA_DEPTH + 1, 100_000] {
            for text in nested_rules(levels) {
                match parse_rule(&text) {
                    Err(RuleError::Parse { message, .. }) => {
                        assert!(message.contains("nested deeper"), "{message}")
                    }
                    other => panic!("{levels} levels of {text:.40}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn display_of_parsed_rule_reparses_to_same_ast() {
        let text = "not (c1 = c2) and prop(c1) = prop(c2) and val(c1) = 1 -> val(c2) = 1";
        let rule = parse_rule(text).unwrap();
        let reparsed = parse_rule(&rule.to_string()).unwrap();
        assert_eq!(rule, reparsed);
    }
}
