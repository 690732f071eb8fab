//! A synthetic stand-in for the **DBpedia Persons** dataset (Section 7.1).
//!
//! The real dump (534 MB, 4 504 173 triples) is not shipped with this
//! repository; instead this module constructs, deterministically and without
//! randomness, a signature view calibrated to every statistic the paper
//! publishes about the dataset:
//!
//! * 790 703 subjects, 8 properties, 64 signatures (exactly all combinations
//!   of the non-`name` properties once `givenName`⇔`surName` are tied),
//! * per-property subject counts from Section 1 (name 790 703, birthDate
//!   420 242, birthPlace 323 368, both 241 156, deathDate 173 507, deathPlace
//!   90 246, ≈40 000 without a surname),
//! * σ_Cov ≈ 0.54 and σ_Sim ≈ 0.77 (Figure 2),
//! * σ_SymDep[deathPlace, deathDate] ≈ 0.39 (Section 7.1) and the
//!   death-implies-everything-else dependency pattern of Table 1.
//!
//! Because every algorithm in the paper consumes only the signature view,
//! matching these quantities preserves the behaviour the experiments measure.

use strudel_rdf::signature::SignatureView;

/// DBpedia property IRIs in the order used throughout the experiments.
pub mod properties {
    /// `dbpedia:deathPlace`
    pub const DEATH_PLACE: &str = "http://dbpedia.org/ontology/deathPlace";
    /// `dbpedia:birthPlace`
    pub const BIRTH_PLACE: &str = "http://dbpedia.org/ontology/birthPlace";
    /// `dbpedia:description`
    pub const DESCRIPTION: &str = "http://purl.org/dc/elements/1.1/description";
    /// `foaf:name`
    pub const NAME: &str = "http://xmlns.com/foaf/0.1/name";
    /// `dbpedia:deathDate`
    pub const DEATH_DATE: &str = "http://dbpedia.org/ontology/deathDate";
    /// `dbpedia:birthDate`
    pub const BIRTH_DATE: &str = "http://dbpedia.org/ontology/birthDate";
    /// `foaf:givenName`
    pub const GIVEN_NAME: &str = "http://xmlns.com/foaf/0.1/givenName";
    /// `foaf:surname`
    pub const SUR_NAME: &str = "http://xmlns.com/foaf/0.1/surname";

    /// All eight properties in the paper's column order (Figure 2).
    pub const ALL: [&str; 8] = [
        DEATH_PLACE,
        BIRTH_PLACE,
        DESCRIPTION,
        NAME,
        DEATH_DATE,
        BIRTH_DATE,
        GIVEN_NAME,
        SUR_NAME,
    ];
}

/// The `foaf:Person` sort IRI.
pub const PERSON_SORT: &str = "http://xmlns.com/foaf/0.1/Person";

/// Column indexes in the view returned by [`dbpedia_persons`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PersonColumns {
    /// deathPlace column index.
    pub death_place: usize,
    /// birthPlace column index.
    pub birth_place: usize,
    /// description column index.
    pub description: usize,
    /// name column index.
    pub name: usize,
    /// deathDate column index.
    pub death_date: usize,
    /// birthDate column index.
    pub birth_date: usize,
    /// givenName column index.
    pub given_name: usize,
    /// surname column index.
    pub sur_name: usize,
}

/// Resolves the well-known column indexes of a DBpedia-Persons-shaped view.
pub fn person_columns(view: &SignatureView) -> PersonColumns {
    let col = |p: &str| {
        view.property_index(p)
            .unwrap_or_else(|| panic!("view is missing DBpedia property {p}"))
    };
    PersonColumns {
        death_place: col(properties::DEATH_PLACE),
        birth_place: col(properties::BIRTH_PLACE),
        description: col(properties::DESCRIPTION),
        name: col(properties::NAME),
        death_date: col(properties::DEATH_DATE),
        birth_date: col(properties::BIRTH_DATE),
        given_name: col(properties::GIVEN_NAME),
        sur_name: col(properties::SUR_NAME),
    }
}

/// Death-status groups of the hierarchical construction.
const DEATH_GROUPS: [(bool, bool, u64); 4] = [
    // (has deathDate, has deathPlace, subjects)
    (true, true, 74_000),
    (true, false, 99_507),
    (false, true, 16_246),
    (false, false, 600_950),
];

/// For each death group, the birth-status breakdown
/// (both, birthDate only, birthPlace only, neither).
const BIRTH_BREAKDOWN: [[u64; 4]; 4] = [
    // death both: calibrated so deathPlace strongly implies birth data (Table 1).
    [57_000, 3_000, 11_000, 3_000],
    // deathDate only.
    [15_000, 65_200, 3_800, 15_507],
    // deathPlace only.
    [14_000, 200, 2_000, 46],
    // alive.
    [155_156, 110_686, 65_412, 269_696],
];

/// Number of subjects with neither given name nor surname (≈ the "40 000
/// people for whom we do not even know their last name" of Section 1).
const NO_NAMES: u64 = 40_000;

/// Number of subjects with a description.
const WITH_DESCRIPTION: u64 = 115_068;

/// Builds the calibrated DBpedia Persons signature view
/// (790 703 subjects, 8 properties, 64 signatures).
pub fn dbpedia_persons() -> SignatureView {
    build(1)
}

/// Builds a proportionally scaled-down DBpedia Persons view: every signature
/// count is divided by `factor` (rounded up so no signature disappears).
/// Ratios — and therefore σ values — are approximately preserved; use this
/// for fast tests and examples.
pub fn dbpedia_persons_scaled(factor: u64) -> SignatureView {
    build(factor.max(1))
}

fn build(scale: u64) -> SignatureView {
    let property_names: Vec<String> = properties::ALL.iter().map(|p| (*p).to_string()).collect();
    let idx = |p: &str| properties::ALL.iter().position(|q| *q == p).unwrap();
    let death_place = idx(properties::DEATH_PLACE);
    let birth_place = idx(properties::BIRTH_PLACE);
    let description = idx(properties::DESCRIPTION);
    let name = idx(properties::NAME);
    let death_date = idx(properties::DEATH_DATE);
    let birth_date = idx(properties::BIRTH_DATE);
    let given_name = idx(properties::GIVEN_NAME);
    let sur_name = idx(properties::SUR_NAME);

    // 16 (death × birth) groups -> split into GS present/absent ->
    // split into description present/absent = 64 cells.
    let mut cells: Vec<(Vec<usize>, u64)> = Vec::with_capacity(64);

    // First pass: compute group sizes.
    let mut groups: Vec<(bool, bool, bool, bool, u64)> = Vec::with_capacity(16);
    for (death_idx, &(has_dd, has_dp, death_count)) in DEATH_GROUPS.iter().enumerate() {
        let breakdown = BIRTH_BREAKDOWN[death_idx];
        debug_assert_eq!(breakdown.iter().sum::<u64>(), death_count);
        let birth_status = [
            (true, true, breakdown[0]),
            (true, false, breakdown[1]),
            (false, true, breakdown[2]),
            (false, false, breakdown[3]),
        ];
        for (has_bd, has_bp, count) in birth_status {
            groups.push((has_dd, has_dp, has_bd, has_bp, count));
        }
    }

    // Distribute the "no given/surname" subjects: a token amount in every
    // group (so all 64 signatures exist), the bulk in the sparsest group
    // (alive, no birth data).
    let sparse_group = groups
        .iter()
        .position(|&(dd, dp, bd, bp, _)| !dd && !dp && !bd && !bp)
        .expect("the alive/no-birth group exists");
    let token_no_names: u64 = 200;
    let mut no_names_per_group = vec![0u64; groups.len()];
    let mut remaining_no_names = NO_NAMES;
    for (group_idx, &(_, _, _, _, count)) in groups.iter().enumerate() {
        if group_idx == sparse_group {
            continue;
        }
        let take = token_no_names.min(count / 2).min(remaining_no_names);
        no_names_per_group[group_idx] = take;
        remaining_no_names -= take;
    }
    no_names_per_group[sparse_group] = remaining_no_names;

    // Distribute descriptions proportionally to cell size, keeping at least
    // one subject on each side of the split so that every one of the 64
    // signature combinations is populated. The description total is therefore
    // approximate (it does not influence any of the exactly-calibrated
    // statistics).
    let total_subjects: u64 = groups.iter().map(|g| g.4).sum();
    let proportional = |cell: u64| -> u64 {
        let share =
            (u128::from(WITH_DESCRIPTION) * u128::from(cell) / u128::from(total_subjects)) as u64;
        share.clamp(1, cell.saturating_sub(1).max(1))
    };

    for (group_idx, &(has_dd, has_dp, has_bd, has_bp, count)) in groups.iter().enumerate() {
        let without_names = no_names_per_group[group_idx];
        let with_names = count - without_names;
        let desc_with = proportional(with_names);
        let desc_without = proportional(without_names);

        let mut base = vec![name];
        if has_dd {
            base.push(death_date);
        }
        if has_dp {
            base.push(death_place);
        }
        if has_bd {
            base.push(birth_date);
        }
        if has_bp {
            base.push(birth_place);
        }

        let with_names_props: Vec<usize> =
            base.iter().copied().chain([given_name, sur_name]).collect();

        // Four cells: (GS, desc), (GS, no desc), (no GS, desc), (no GS, no desc).
        let mut push = |props: Vec<usize>, count: u64| {
            if count > 0 {
                cells.push((props, count));
            }
        };
        push(
            with_names_props
                .iter()
                .copied()
                .chain([description])
                .collect(),
            desc_with,
        );
        push(with_names_props.clone(), with_names - desc_with);
        push(
            base.iter().copied().chain([description]).collect(),
            desc_without,
        );
        push(base.clone(), without_names - desc_without);
    }

    let scaled: Vec<(Vec<usize>, usize)> = cells
        .into_iter()
        .map(|(props, count)| (props, usize::try_from(count.div_ceil(scale)).unwrap()))
        .collect();

    SignatureView::from_counts(property_names, scaled)
        .expect("DBpedia construction uses valid property indexes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use strudel_rules::prelude::*;

    #[test]
    fn matches_published_dataset_statistics() {
        let view = dbpedia_persons();
        assert_eq!(view.property_count(), 8);
        assert_eq!(view.subject_count(), 790_703);
        assert_eq!(view.signature_count(), 64);
    }

    #[test]
    fn matches_published_property_counts() {
        let view = dbpedia_persons();
        let cols = person_columns(&view);
        assert_eq!(view.property_subject_count(cols.name), 790_703);
        assert_eq!(view.property_subject_count(cols.birth_date), 420_242);
        assert_eq!(view.property_subject_count(cols.birth_place), 323_368);
        let with_both: usize = view
            .entries()
            .iter()
            .filter(|e| e.signature.contains(cols.birth_date))
            .filter(|e| e.signature.contains(cols.birth_place))
            .map(|e| e.count)
            .sum();
        assert_eq!(with_both, 241_156);
        assert_eq!(view.property_subject_count(cols.death_date), 173_507);
        assert_eq!(view.property_subject_count(cols.death_place), 90_246);
        assert_eq!(view.property_subject_count(cols.sur_name), 750_703);
        assert_eq!(
            view.property_subject_count(cols.given_name),
            view.property_subject_count(cols.sur_name),
            "givenName and surName are tied (the most correlated pair in Table 2)"
        );
    }

    #[test]
    fn matches_published_structuredness_values() {
        let view = dbpedia_persons();
        let cov = sigma_cov(&view).to_f64();
        let sim = sigma_sim(&view).to_f64();
        assert!((cov - 0.54).abs() < 0.01, "σCov = {cov}");
        assert!((sim - 0.77).abs() < 0.01, "σSim = {sim}");

        let cols = person_columns(&view);
        let symdep = sigma_sym_dep(&view, cols.death_place, cols.death_date).to_f64();
        assert!((symdep - 0.39).abs() < 0.03, "σSymDep[dP,dD] = {symdep}");
    }

    #[test]
    fn death_place_implies_other_properties() {
        // Table 1, first row: knowing the deathPlace implies high probability
        // of knowing everything else.
        let view = dbpedia_persons();
        let cols = person_columns(&view);
        for other in [cols.birth_place, cols.death_date, cols.birth_date] {
            let dep = sigma_dep(&view, cols.death_place, other).to_f64();
            assert!(dep > 0.7, "Dep[deathPlace, {other}] = {dep}");
        }
        // The reverse direction is much weaker (second row of Table 1).
        let reverse = sigma_dep(&view, cols.birth_place, cols.death_date).to_f64();
        assert!(reverse < 0.5, "Dep[birthPlace, deathDate] = {reverse}");
    }

    #[test]
    fn scaled_view_preserves_ratios() {
        let full = dbpedia_persons();
        let small = dbpedia_persons_scaled(1000);
        assert_eq!(small.signature_count(), full.signature_count());
        assert!(small.subject_count() < 1_000 + 64);
        let cov_full = sigma_cov(&full).to_f64();
        let cov_small = sigma_cov(&small).to_f64();
        assert!((cov_full - cov_small).abs() < 0.05);
    }
}
