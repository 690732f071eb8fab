//! Signatures and the signature view (Definition 4.1 and Section 6.1).
//!
//! The *signature* of a subject is the 0/1 pattern of its row in the
//! property-structure view; a *signature set* is the set of all subjects
//! sharing a signature. Because sort refinements must be closed under
//! signatures, signature sets — not individual subjects — are the atomic
//! units every algorithm in this toolkit moves around. Collapsing DBpedia
//! Persons' 790 703 subjects to its 64 signatures is precisely the size
//! reduction that makes the ILP formulation practical (Section 7).

use std::collections::BTreeMap;

use crate::bitset::BitSet;
use crate::error::ModelError;
use crate::matrix::PropertyStructureView;

/// A signature together with the number of subjects (its multiplicity) and a
/// few representative subject labels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignatureEntry {
    /// The property pattern: bit `i` is set iff subjects with this signature
    /// have the property in column `i`.
    pub signature: BitSet,
    /// The size of the signature set (number of subjects sharing the pattern).
    pub count: usize,
    /// Up to a handful of example subject labels, for reporting.
    pub examples: Vec<String>,
}

impl SignatureEntry {
    /// The support of the signature: the set of property columns it uses
    /// (`supp(µ)` in Section 6.1).
    pub fn support(&self) -> Vec<usize> {
        self.signature.iter().collect()
    }
}

/// The signature view of a dataset: its property columns plus one
/// [`SignatureEntry`] per distinct signature, sorted by descending size.
///
/// This is the "view of our input data that still maintains all the
/// properties of the data in terms of their fitness characteristics, yet
/// occupies substantially less space" promised in the paper's introduction.
#[derive(Clone, Debug)]
pub struct SignatureView {
    properties: Vec<String>,
    entries: Vec<SignatureEntry>,
}

impl SignatureView {
    /// Maximum number of example subjects retained per signature.
    const MAX_EXAMPLES: usize = 3;

    /// Builds the signature view of a property-structure matrix.
    pub fn from_matrix(view: &PropertyStructureView) -> Self {
        let mut groups: BTreeMap<BitSet, (usize, Vec<String>)> = BTreeMap::new();
        for (row_idx, subject) in view.subjects().iter().enumerate() {
            let row = view.row(row_idx).clone();
            let entry = groups.entry(row).or_insert_with(|| (0, Vec::new()));
            entry.0 += 1;
            if entry.1.len() < Self::MAX_EXAMPLES {
                entry.1.push(subject.clone());
            }
        }
        let mut entries: Vec<SignatureEntry> = groups
            .into_iter()
            .map(|(signature, (count, examples))| SignatureEntry {
                signature,
                count,
                examples,
            })
            .collect();
        entries.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| a.signature.cmp(&b.signature))
        });
        SignatureView {
            properties: view.properties().to_vec(),
            entries,
        }
    }

    /// Builds a signature view directly from `(property-index list, count)`
    /// pairs. Intended for synthetic datasets where materialising every
    /// subject row would be wasteful.
    ///
    /// Refuses, with [`ModelError::CountOverflow`], counts outside the
    /// range in which σ's closed forms are exact: a subject total `|S|`
    /// past `usize::MAX`, or one for which `|P| · |S|²` (σ_Sim's largest
    /// term) does not fit in `i128`.
    pub fn from_counts(
        properties: Vec<String>,
        signatures: Vec<(Vec<usize>, usize)>,
    ) -> Result<Self, ModelError> {
        let n_props = properties.len();
        let overflow = ModelError::CountOverflow {
            properties: n_props,
        };
        let mut groups: BTreeMap<BitSet, usize> = BTreeMap::new();
        let mut subjects = 0usize;
        for (indexes, count) in signatures {
            if let Some(&max) = indexes.iter().max() {
                if max >= n_props {
                    return Err(ModelError::DimensionMismatch {
                        context: "signature property index",
                        expected: n_props,
                        actual: max + 1,
                    });
                }
            }
            if count == 0 {
                continue;
            }
            subjects = subjects.checked_add(count).ok_or(overflow.clone())?;
            // A merged count is part of the total, so it fits too.
            let bits = BitSet::from_indexes(n_props, &indexes);
            *groups.entry(bits).or_insert(0) += count;
        }
        let largest_term = (n_props as u128)
            .checked_mul(subjects as u128 * subjects as u128)
            .filter(|&term| term <= i128::MAX as u128);
        if largest_term.is_none() {
            return Err(overflow);
        }
        let mut entries: Vec<SignatureEntry> = groups
            .into_iter()
            .map(|(signature, count)| SignatureEntry {
                signature,
                count,
                examples: Vec::new(),
            })
            .collect();
        entries.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| a.signature.cmp(&b.signature))
        });
        Ok(SignatureView {
            properties,
            entries,
        })
    }

    /// The property labels in column order.
    pub fn properties(&self) -> &[String] {
        &self.properties
    }

    /// Number of property columns.
    pub fn property_count(&self) -> usize {
        self.properties.len()
    }

    /// The column index of a property label, if present.
    pub fn property_index(&self, property: &str) -> Option<usize> {
        self.properties.iter().position(|p| p == property)
    }

    /// The signature entries, largest signature set first.
    pub fn entries(&self) -> &[SignatureEntry] {
        &self.entries
    }

    /// Number of distinct signatures, `|Λ(D)|`.
    pub fn signature_count(&self) -> usize {
        self.entries.len()
    }

    /// Total number of subjects across all signature sets, `|S(D)|`.
    ///
    /// The sum cannot overflow: [`from_counts`](Self::from_counts) refuses
    /// a total past `usize::MAX`, and a view built from a matrix counts rows
    /// held in memory.
    pub fn subject_count(&self) -> usize {
        self.entries.iter().map(|e| e.count).sum()
    }

    /// Number of subjects that have the property in column `col`
    /// (the column sum of the full matrix).
    pub fn property_subject_count(&self, col: usize) -> usize {
        self.entries
            .iter()
            .filter(|e| e.signature.contains(col))
            .map(|e| e.count)
            .sum()
    }

    /// Total number of 1-cells across the dataset (`Σ_µ |supp(µ)| · count(µ)`).
    pub fn ones(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.signature.len() * e.count)
            .sum()
    }

    /// The union of the supports of the given signature entries: the set of
    /// property columns used by a candidate implicit sort (`U_{i,p}` in the
    /// ILP formulation).
    pub fn used_properties(&self, entry_indexes: &[usize]) -> BitSet {
        let mut used = BitSet::new(self.property_count());
        for &idx in entry_indexes {
            used.union_with(&self.entries[idx].signature);
        }
        used
    }

    /// Builds the sub-view consisting only of the given signature entries
    /// (an implicit sort). Property columns are retained so column indexes
    /// stay comparable across sub-views; columns unused by the subset simply
    /// have zero subjects.
    pub fn subset(&self, entry_indexes: &[usize]) -> SignatureView {
        let entries = entry_indexes
            .iter()
            .map(|&idx| self.entries[idx].clone())
            .collect();
        SignatureView {
            properties: self.properties.clone(),
            entries,
        }
    }

    /// A stable 128-bit content hash of the view (FNV-1a over the property
    /// labels and the `(signature, count)` entries).
    ///
    /// Two views with the same properties in the same column order and the
    /// same signature entries hash identically whether they were built with
    /// `from_matrix` or `from_counts`, because both keep entries in a
    /// canonical order (example subject labels are deliberately excluded:
    /// they carry no refinement-relevant content). The hash is independent of the
    /// process, platform, and release, so it can key persistent or remote
    /// caches of solved refinement instances (the `strudel-server` result
    /// cache keys on it).
    ///
    /// FNV-1a is not collision-resistant against an adversary; the 128-bit
    /// width makes *accidental* collisions negligible (birthday bound
    /// ≈ 2⁶⁴ distinct views), which is the right trade for a result cache
    /// whose clients are trusted to send their own views. Do not use it to
    /// authenticate untrusted content.
    pub fn cache_key(&self) -> u128 {
        const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
        const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
        let mut hash = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u128::from(b);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        };
        eat(&(self.properties.len() as u64).to_le_bytes());
        for property in &self.properties {
            eat(&(property.len() as u64).to_le_bytes());
            eat(property.as_bytes());
        }
        eat(&(self.entries.len() as u64).to_le_bytes());
        for entry in &self.entries {
            eat(&(entry.count as u64).to_le_bytes());
            eat(&(entry.signature.len() as u64).to_le_bytes());
            for col in entry.signature.iter() {
                eat(&(col as u64).to_le_bytes());
            }
        }
        hash
    }

    /// Expands the signature view back into a full property-structure view
    /// with synthetic subject labels. Useful for tests and for the naive
    /// evaluation oracle; avoid on large datasets.
    pub fn to_matrix(&self) -> PropertyStructureView {
        let mut subjects = Vec::with_capacity(self.subject_count());
        let mut rows = Vec::with_capacity(self.subject_count());
        for (sig_idx, entry) in self.entries.iter().enumerate() {
            for copy in 0..entry.count {
                subjects.push(format!("urn:sig{sig_idx}:subject{copy}"));
                rows.push(entry.signature.clone());
            }
        }
        PropertyStructureView::from_rows(self.properties.clone(), subjects, rows)
            .expect("signature view expansion is dimension-consistent by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::term::Literal;

    fn view_from_graph() -> SignatureView {
        let mut g = Graph::new();
        for (subject, props) in [
            ("http://ex/a", vec!["name", "birthDate"]),
            ("http://ex/b", vec!["name", "birthDate"]),
            ("http://ex/c", vec!["name"]),
            ("http://ex/d", vec!["name", "deathDate", "birthDate"]),
        ] {
            for p in props {
                g.insert_literal_triple(subject, &format!("http://ex/{p}"), Literal::simple("v"));
            }
        }
        let matrix = PropertyStructureView::from_graph(&g, true);
        SignatureView::from_matrix(&matrix)
    }

    #[test]
    fn groups_identical_rows() {
        let view = view_from_graph();
        assert_eq!(view.signature_count(), 3);
        assert_eq!(view.subject_count(), 4);
        // Largest signature set first.
        assert_eq!(view.entries()[0].count, 2);
        assert!(view.entries()[0].examples.len() <= 2);
    }

    #[test]
    fn property_counts_are_column_sums() {
        let view = view_from_graph();
        let name = view.property_index("http://ex/name").unwrap();
        let birth = view.property_index("http://ex/birthDate").unwrap();
        let death = view.property_index("http://ex/deathDate").unwrap();
        assert_eq!(view.property_subject_count(name), 4);
        assert_eq!(view.property_subject_count(birth), 3);
        assert_eq!(view.property_subject_count(death), 1);
        assert_eq!(view.ones(), 2 * 2 + 1 + 3);
    }

    #[test]
    fn from_counts_validates_and_merges() {
        let view = SignatureView::from_counts(
            vec!["p".into(), "q".into()],
            vec![(vec![0], 5), (vec![0, 1], 2), (vec![0], 3), (vec![1], 0)],
        )
        .unwrap();
        // The two (vec![0], _) groups merge; the zero-count group disappears.
        assert_eq!(view.signature_count(), 2);
        assert_eq!(view.subject_count(), 10);
        assert_eq!(view.entries()[0].count, 8);

        let err = SignatureView::from_counts(vec!["p".into()], vec![(vec![1], 1)]).unwrap_err();
        assert!(matches!(err, ModelError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_counts_refuses_counts_beyond_exact_sigma_arithmetic() {
        let two = || vec!["http://ex/a".to_owned(), "http://ex/b".to_owned()];
        // 2·(2⁶³ − 1) + 2 = 2⁶⁴ subjects: a `usize` total wraps to 0.
        let half = usize::MAX / 2;
        let err = SignatureView::from_counts(
            two(),
            vec![(vec![0], half), (vec![0, 1], half), (vec![1], 2)],
        )
        .unwrap_err();
        assert_eq!(err, ModelError::CountOverflow { properties: 2 });
        // Equal signatures whose merged count overflows `usize`, with and
        // without columns.
        let err = SignatureView::from_counts(two(), vec![(vec![0], half), (vec![0], half + 2)])
            .unwrap_err();
        assert_eq!(err, ModelError::CountOverflow { properties: 2 });
        let err = SignatureView::from_counts(Vec::new(), vec![(vec![], usize::MAX), (vec![], 1)])
            .unwrap_err();
        assert_eq!(err, ModelError::CountOverflow { properties: 0 });

        // Just inside the bound: |S| = 2⁶³ − 1, so 2·|S|² < 2¹²⁷ − 1.
        let view = SignatureView::from_counts(
            two(),
            vec![(vec![0], 1 << 62), (vec![0, 1], (1 << 62) - 1)],
        )
        .unwrap();
        assert_eq!(view.subject_count(), half);
        // One subject more: 2·(2⁶³)² = 2¹²⁷ does not fit.
        let err =
            SignatureView::from_counts(two(), vec![(vec![0], 1 << 62), (vec![0, 1], 1 << 62)])
                .unwrap_err();
        assert_eq!(err, ModelError::CountOverflow { properties: 2 });
    }

    #[test]
    fn subset_and_used_properties() {
        let view = view_from_graph();
        let death = view.property_index("http://ex/deathDate").unwrap();
        // Find the index of the signature that uses deathDate.
        let with_death: Vec<usize> = view
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.signature.contains(death))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(with_death.len(), 1);
        let used = view.used_properties(&with_death);
        assert!(used.contains(death));
        let sub = view.subset(&with_death);
        assert_eq!(sub.subject_count(), 1);
        assert_eq!(sub.property_count(), view.property_count());
    }

    #[test]
    fn cache_key_is_content_addressed() {
        let view = view_from_graph();
        // Independent construction paths with identical content agree.
        let rebuilt = SignatureView::from_matrix(&view.to_matrix());
        assert_eq!(view.cache_key(), rebuilt.cache_key());
        // Any content difference changes the key.
        let other = SignatureView::from_counts(
            view.properties().to_vec(),
            vec![(vec![0], 2), (vec![0, 1], 2)],
        )
        .unwrap();
        assert_ne!(view.cache_key(), other.cache_key());
        // Property labels participate, not just the bit patterns.
        let relabeled = SignatureView::from_counts(
            view.properties().iter().map(|p| format!("{p}X")).collect(),
            view.entries()
                .iter()
                .map(|e| (e.support(), e.count))
                .collect(),
        )
        .unwrap();
        assert_ne!(view.cache_key(), relabeled.cache_key());
    }

    #[test]
    fn to_matrix_round_trips_counts() {
        let view = view_from_graph();
        let matrix = view.to_matrix();
        assert_eq!(matrix.subject_count(), view.subject_count());
        assert_eq!(matrix.property_count(), view.property_count());
        let back = SignatureView::from_matrix(&matrix);
        assert_eq!(back.signature_count(), view.signature_count());
        assert_eq!(back.subject_count(), view.subject_count());
        let counts_a: Vec<usize> = view.entries().iter().map(|e| e.count).collect();
        let counts_b: Vec<usize> = back.entries().iter().map(|e| e.count).collect();
        assert_eq!(counts_a, counts_b);
    }
}
