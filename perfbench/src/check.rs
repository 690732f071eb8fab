//! The certificate check every returned refinement must pass.

use strudel_core::sigma::SigmaSpec;
use strudel_rdf::signature::SignatureView;
use strudel_rules::prelude::Ratio;

/// Checks that `sorts` (lists of signature-entry indexes of `view`) is a
/// refinement with at most `k` non-empty sorts whose every sort reaches
/// `theta` under `spec`: the sorts partition the signatures, and
/// `SigmaSpec::evaluate` on each sort's sub-view is at least `theta`.
pub fn certificate(
    view: &SignatureView,
    spec: &SigmaSpec,
    k: usize,
    theta: Ratio,
    sorts: &[Vec<usize>],
) -> Result<(), String> {
    let mut seen = vec![false; view.signature_count()];
    for sort in sorts {
        for &sig in sort {
            match seen.get_mut(sig) {
                None => return Err(format!("signature {sig} is not in the view")),
                Some(true) => return Err(format!("signature {sig} is in two sorts")),
                Some(slot) => *slot = true,
            }
        }
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(format!("signature {missing} is in no sort"));
    }
    let used = sorts.iter().filter(|sort| !sort.is_empty()).count();
    if used > k {
        return Err(format!("{used} non-empty sorts, more than k = {k}"));
    }
    for sort in sorts.iter().filter(|sort| !sort.is_empty()) {
        let sigma = spec
            .evaluate(&view.subset(sort))
            .map_err(|err| format!("σ evaluation failed: {err}"))?;
        if sigma < theta {
            return Err(format!("a sort has σ = {sigma} below θ = {theta}"));
        }
    }
    Ok(())
}
