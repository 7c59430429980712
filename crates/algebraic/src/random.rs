//! Random structured descriptions for the differential fuzzer.
//!
//! Given a many-sorted [`AlgSignature`] (typically built from an
//! `eclectic-rpr` domain shape), [`random_descriptions`] draws a complete
//! §4.2 input — an [`InitialState`] plus exactly one
//! [`StructuredDescription`] per state-taking update — from a deterministic
//! [`Rng`] stream. The output always satisfies the synthesis contract
//! (every description validates, every update is covered, every
//! description has at least one effect), so
//! [`synthesize`](crate::synthesize) on the result is total: the fuzzer's
//! generator can never be killed by its own randomness.

use eclectic_kernel::Rng;
use eclectic_logic::{Formula, SortId, Term, VarId};

use crate::error::{AlgError, Result};
use crate::signature::AlgSignature;
use crate::structured::{Effect, InitialState, StructuredDescription};

/// Picks a term of `sort`: a description parameter variable of that sort
/// when one exists (biased towards variables, which exercise the frame
/// disequalities), otherwise a parameter constant.
fn term_of_sort(sig: &AlgSignature, rng: &mut Rng, params: &[VarId], sort: SortId) -> Result<Term> {
    let vars: Vec<VarId> = params
        .iter()
        .copied()
        .filter(|&v| sig.logic().var(v).sort == sort)
        .collect();
    let consts = sig.param_names(sort);
    let use_var = !vars.is_empty() && (consts.is_empty() || rng.chance(3, 4));
    if use_var {
        Ok(Term::Var(vars[rng.below(vars.len())]))
    } else if !consts.is_empty() {
        Ok(Term::constant(consts[rng.below(consts.len())]))
    } else {
        Err(AlgError::BadDescription(format!(
            "sort `{}` has neither parameter variables nor constants",
            sig.logic().sort_name(sort)
        )))
    }
}

/// A random atomic precondition: `q(ā, U) = True/False` for a random query.
fn random_precondition(sig: &AlgSignature, rng: &mut Rng, params: &[VarId]) -> Result<Formula> {
    let queries: Vec<_> = sig.queries().collect();
    if queries.is_empty() || rng.chance(1, 3) {
        return Ok(Formula::True);
    }
    let q = queries[rng.below(queries.len())];
    let mut args = Vec::new();
    for s in sig.query_params(q)? {
        args.push(term_of_sort(sig, rng, params, s)?);
    }
    args.push(Term::Var(sig.state_var()));
    let value = if rng.chance(1, 2) {
        sig.true_term()
    } else {
        sig.false_term()
    };
    Ok(Formula::Eq(Term::App(q, args), value))
}

/// Draws an initial state and one structured description per state-taking
/// update, entirely from the `rng` stream.
///
/// # Errors
/// Returns [`AlgError::BadDescription`] when the signature cannot support
/// the methodology at all: no non-state-taking update to serve as the
/// initial state constant, or a parameter sort with neither variables nor
/// constants to instantiate query arguments with.
pub fn random_descriptions(
    sig: &mut AlgSignature,
    rng: &mut Rng,
) -> Result<(InitialState, Vec<StructuredDescription>)> {
    let updates: Vec<_> = sig.updates().collect();
    let initiate = updates
        .iter()
        .copied()
        .find(|&u| matches!(sig.update_takes_state(u), Ok(false)))
        .ok_or_else(|| {
            AlgError::BadDescription(
                "random domain needs a non-state-taking update as the initial state".into(),
            )
        })?;

    let defaults = sig
        .queries()
        .collect::<Vec<_>>()
        .into_iter()
        .map(|q| {
            let v = if rng.chance(1, 4) {
                sig.true_term()
            } else {
                // Bias towards False: sparsely populated initial states keep
                // reachability exploration small and give inserts work to do.
                sig.false_term()
            };
            (q, v)
        })
        .collect();
    let initial = InitialState {
        update: initiate,
        defaults,
    };

    let mut descriptions = Vec::new();
    for u in updates {
        if u == initiate || !sig.update_takes_state(u)? {
            continue;
        }
        let uname = sig.logic().func(u).name.clone();
        let mut params = Vec::new();
        for (i, s) in sig.update_params(u)?.into_iter().enumerate() {
            let hint = format!(
                "{}{i}",
                sig.logic().sort_name(s).chars().next().unwrap_or('x')
            );
            params.push(sig.logic_mut().fresh_var(&hint, s));
        }
        let precondition = random_precondition(sig, rng, &params)?;

        let queries: Vec<_> = sig.queries().collect();
        if queries.is_empty() {
            return Err(AlgError::BadDescription(
                "random domain needs at least one query to describe effects on".into(),
            ));
        }
        let n_effects = rng.range(1, 2);
        let mut effects = Vec::new();
        for _ in 0..n_effects {
            let q = queries[rng.below(queries.len())];
            let mut args = Vec::new();
            for s in sig.query_params(q)? {
                args.push(term_of_sort(sig, rng, &params, s)?);
            }
            let value = if rng.chance(1, 2) {
                sig.true_term()
            } else {
                sig.false_term()
            };
            effects.push(Effect {
                query: q,
                args,
                value,
            });
        }

        descriptions.push(StructuredDescription {
            update: u,
            comment: format!("randomly derived behaviour of `{uname}`"),
            params,
            precondition,
            effects,
            side_effects: vec![],
        });
    }

    initial.validate(sig)?;
    for d in &descriptions {
        d.validate(sig)?;
    }
    Ok((initial, descriptions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AlgSpec;
    use crate::synthesis::synthesize;

    fn shape_signature() -> AlgSignature {
        let mut a = AlgSignature::new().unwrap();
        let s0 = a.add_param_sort("gadget", &["g0", "g1"]).unwrap();
        let s1 = a.add_param_sort("widget", &["w0"]).unwrap();
        a.add_query("owns", &[s0, s1], None).unwrap();
        a.add_query("live", &[s1], None).unwrap();
        a.add_update("initiate", &[], false).unwrap();
        a.add_update("grab", &[s0, s1], true).unwrap();
        a.add_update("drop", &[s1], true).unwrap();
        a
    }

    #[test]
    fn random_descriptions_synthesize_into_a_spec() {
        for seed in 0..24 {
            let mut sig = shape_signature();
            let mut rng = Rng::new(seed);
            let (initial, descs) = random_descriptions(&mut sig, &mut rng).unwrap();
            assert_eq!(descs.len(), 2, "one description per state-taking update");
            assert!(descs.iter().all(|d| !d.effects.is_empty()));
            let eqs = synthesize(&mut sig, &initial, &descs).unwrap();
            AlgSpec::new(sig, eqs).unwrap();
        }
    }

    #[test]
    fn same_seed_same_descriptions() {
        let draw = |seed| {
            let mut sig = shape_signature();
            let mut rng = Rng::new(seed);
            let (i, d) = random_descriptions(&mut sig, &mut rng).unwrap();
            format!("{i:?} {d:?}")
        };
        assert_eq!(draw(11), draw(11));
        let distinct: std::collections::BTreeSet<_> = (0..16).map(draw).collect();
        assert!(distinct.len() > 1, "seeds should vary the descriptions");
    }

    #[test]
    fn missing_initial_constant_is_an_error() {
        let mut a = AlgSignature::new().unwrap();
        let s0 = a.add_param_sort("gadget", &["g0"]).unwrap();
        a.add_query("live", &[s0], None).unwrap();
        a.add_update("touch", &[s0], true).unwrap();
        let mut rng = Rng::new(0);
        assert!(random_descriptions(&mut a, &mut rng).is_err());
    }
}
