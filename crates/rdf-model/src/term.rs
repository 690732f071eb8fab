//! RDF terms and the interning dictionary.
//!
//! The paper assumes two countably infinite disjoint sets **U** (URIs) and
//! **L** (literals); an RDF triple is `(s, p, o) ∈ U × U × (U ∪ L)`.
//! Subjects and properties are always URIs, objects may be URIs or literals.
//!
//! Working with owned strings everywhere would make the property-structure
//! view needlessly heavy, so a [`Dictionary`] interns every IRI and literal
//! once and hands out small copyable ids ([`IriId`], [`LiteralId`]).
//!
//! Each distinct term is stored once: the id vector and the lookup map share
//! one `Arc<str>` per IRI and one `Arc<Literal>` per literal. Interning a
//! term the dictionary already holds is one map lookup by `&str` (or
//! `&Literal`) and allocates nothing, which is what lets the N-Triples parser
//! hand it slices of the input line.

use std::fmt;
use std::sync::Arc;

use crate::fxhash::FxHashMap;

/// An interned IRI (element of the set **U** in the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IriId(pub(crate) u32);

/// An interned literal (element of the set **L** in the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LiteralId(pub(crate) u32);

impl IriId {
    /// The raw index of this IRI inside its dictionary.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LiteralId {
    /// The raw index of this literal inside its dictionary.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for IriId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IriId({})", self.0)
    }
}

impl fmt::Debug for LiteralId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LiteralId({})", self.0)
    }
}

/// An RDF literal: a lexical form plus an optional datatype IRI or language tag.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Literal {
    /// The lexical form (the text between the quotes in N-Triples).
    pub lexical: String,
    /// Optional datatype IRI (`"5"^^<http://www.w3.org/2001/XMLSchema#integer>`).
    pub datatype: Option<String>,
    /// Optional language tag (`"chat"@en`). Mutually exclusive with `datatype`.
    pub language: Option<String>,
}

impl Literal {
    /// A plain string literal without datatype or language tag.
    pub fn simple(lexical: impl Into<String>) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: None,
            language: None,
        }
    }

    /// A typed literal.
    pub fn typed(lexical: impl Into<String>, datatype: impl Into<String>) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: Some(datatype.into()),
            language: None,
        }
    }

    /// A language-tagged literal.
    pub fn lang(lexical: impl Into<String>, language: impl Into<String>) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: None,
            language: Some(language.into()),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", self.lexical)?;
        if let Some(lang) = &self.language {
            write!(f, "@{lang}")?;
        } else if let Some(dt) = &self.datatype {
            write!(f, "^^<{dt}>")?;
        }
        Ok(())
    }
}

/// The object position of a triple: either an IRI or a literal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Object {
    /// An IRI object.
    Iri(IriId),
    /// A literal object.
    Literal(LiteralId),
}

/// An interning dictionary mapping IRIs and literals to dense ids.
///
/// Ids are stable for the lifetime of the dictionary and dense (`0..len`),
/// which lets downstream structures use them directly as vector indexes.
#[derive(Clone, Default, Debug)]
pub struct Dictionary {
    // Fields drop in declaration order, so the maps go first and only
    // release their references; the vectors then free each term in the
    // order it was allocated. The other order frees every term in
    // hash-table order, which made dropping a parsed graph markedly slower.
    iri_ids: FxHashMap<Arc<str>, IriId>,
    literal_ids: FxHashMap<Arc<Literal>, LiteralId>,
    iris: Vec<Arc<str>>,
    literals: Vec<Arc<Literal>>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an IRI, returning its id (existing id if already interned).
    pub fn intern_iri(&mut self, iri: &str) -> IriId {
        if let Some(&id) = self.iri_ids.get(iri) {
            return id;
        }
        let id = IriId(u32::try_from(self.iris.len()).expect("more than u32::MAX IRIs interned"));
        let iri: Arc<str> = Arc::from(iri);
        self.iris.push(Arc::clone(&iri));
        self.iri_ids.insert(iri, id);
        id
    }

    /// Interns a literal, returning its id.
    pub fn intern_literal(&mut self, literal: Literal) -> LiteralId {
        if let Some(&id) = self.literal_ids.get(&literal) {
            return id;
        }
        let id = LiteralId(
            u32::try_from(self.literals.len()).expect("more than u32::MAX literals interned"),
        );
        let literal = Arc::new(literal);
        self.literals.push(Arc::clone(&literal));
        self.literal_ids.insert(literal, id);
        id
    }

    /// Looks up an already-interned IRI.
    pub fn iri_id(&self, iri: &str) -> Option<IriId> {
        self.iri_ids.get(iri).copied()
    }

    /// Returns the string form of an interned IRI.
    pub fn iri(&self, id: IriId) -> &str {
        &self.iris[id.index()]
    }

    /// Returns an interned literal.
    pub fn literal(&self, id: LiteralId) -> &Literal {
        &self.literals[id.index()]
    }

    /// Number of distinct IRIs interned so far.
    pub fn iri_count(&self) -> usize {
        self.iris.len()
    }

    /// Number of distinct literals interned so far.
    pub fn literal_count(&self) -> usize {
        self.literals.len()
    }

    /// Iterates over all interned IRIs in id order.
    pub fn iris(&self) -> impl Iterator<Item = (IriId, &str)> {
        self.iris
            .iter()
            .enumerate()
            .map(|(i, s)| (IriId(i as u32), &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut dict = Dictionary::new();
        let a = dict.intern_iri("http://example.org/a");
        let b = dict.intern_iri("http://example.org/b");
        let a_again = dict.intern_iri("http://example.org/a");
        assert_eq!(a, a_again);
        assert_ne!(a, b);
        assert_eq!(dict.iri_count(), 2);
        assert_eq!(dict.iri(a), "http://example.org/a");
        assert_eq!(dict.iri_id("http://example.org/b"), Some(b));
        assert_eq!(dict.iri_id("http://example.org/zzz"), None);
    }

    #[test]
    fn literal_interning_distinguishes_forms() {
        let mut dict = Dictionary::new();
        let plain = dict.intern_literal(Literal::simple("5"));
        let typed = dict.intern_literal(Literal::typed(
            "5",
            "http://www.w3.org/2001/XMLSchema#integer",
        ));
        let lang = dict.intern_literal(Literal::lang("five", "en"));
        assert_ne!(plain, typed);
        assert_ne!(plain, lang);
        assert_eq!(dict.literal_count(), 3);
        assert_eq!(dict.literal(plain).lexical, "5");
        let plain_again = dict.intern_literal(Literal::simple("5"));
        assert_eq!(plain, plain_again);
    }

    #[test]
    fn literal_display_forms() {
        assert_eq!(Literal::simple("x").to_string(), "\"x\"");
        assert_eq!(
            Literal::typed("5", "http://t").to_string(),
            "\"5\"^^<http://t>"
        );
        assert_eq!(Literal::lang("chat", "fr").to_string(), "\"chat\"@fr");
    }

    #[test]
    fn iris_iterates_in_id_order() {
        let mut dict = Dictionary::new();
        dict.intern_iri("http://b");
        dict.intern_iri("http://a");
        let listed: Vec<&str> = dict.iris().map(|(_, s)| s).collect();
        assert_eq!(listed, vec!["http://b", "http://a"]);
    }
}
