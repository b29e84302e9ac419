//! Step-body sharing for unrolled recurrent networks.
//!
//! [`Net::unroll`](crate::dsl::Net::unroll) clones every ensemble once
//! per time step, so an unrolled LSTM compiles `T` copies of identical
//! per-step IR whose only difference is the `@t{k}` suffix in buffer
//! names. This pass detects those clone families *after* the whole
//! optimization pipeline has run (so tiling and fusion have already had
//! their say — a step that fused differently simply fails the
//! equivalence check) and marks every later member with a
//! [`StepShare`] annotation naming the first member and the `@t` offset
//! between them. The runtime's lowering then compiles one body per
//! family and rebinds buffers through the rename instead of re-lowering
//! each step, making plan construction for a length-`T` unroll cost
//! O(1) step bodies instead of O(T).
//!
//! The equivalence check is exact, not structural: a candidate is
//! shared only when the representative's printed statements, with every
//! `@t{j}` buffer occurrence shifted by the step delta, are *textually
//! identical* to the candidate's printed statements. Boundary steps
//! (step 0 reads `@init` ensembles instead of a previous step) fail the
//! check and become representatives of their own, which is what makes
//! the middle of the unroll — the part that grows with `T` — the shared
//! region.

use std::collections::HashMap;

use latte_ir::print_stmts;

use crate::program::{CompileStats, Group, StepShare};

/// Extracts the uniform `@t{k}` step index of a group, if every
/// ensemble the group computes carries the same one.
fn group_step(group: &Group) -> Option<usize> {
    let mut step = None;
    for ens in &group.ensembles {
        let at = ens.rfind("@t")?;
        let k: usize = ens[at + 2..].parse().ok()?;
        match step {
            None => step = Some(k),
            Some(s) if s == k => {}
            Some(_) => return None,
        }
    }
    step
}

/// The family key: the group's ensembles with their step suffix
/// replaced by a placeholder, joined in order.
fn family_key(group: &Group, step: usize) -> String {
    let suffix = format!("@t{step}");
    group
        .ensembles
        .iter()
        .map(|e| e.replace(&suffix, "@t#"))
        .collect::<Vec<_>>()
        .join("+")
}

/// Rewrites every `@t{j}` occurrence in `text` to `@t{j + delta}`.
/// Returns `None` when any resulting index would be negative (the
/// rename would name a step that does not exist).
fn shift_steps(text: &str, delta: i64) -> Option<String> {
    let mut out = String::with_capacity(text.len());
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(at) = text[i..].find("@t") {
        let at = i + at;
        let digits_start = at + 2;
        let mut digits_end = digits_start;
        while digits_end < bytes.len() && bytes[digits_end].is_ascii_digit() {
            digits_end += 1;
        }
        if digits_end == digits_start {
            // "@t" without digits (not a step suffix — e.g. `@tile`).
            out.push_str(&text[i..digits_end]);
            i = digits_end;
            continue;
        }
        let j: i64 = text[digits_start..digits_end].parse().ok()?;
        let shifted = j + delta;
        if shifted < 0 {
            return None;
        }
        out.push_str(&text[i..digits_start]);
        out.push_str(&shifted.to_string());
        i = digits_end;
    }
    out.push_str(&text[i..]);
    Some(out)
}

/// Annotates α-equivalent unrolled step groups within one phase's
/// groups (must be in execution order). See the module docs for the
/// sharing rule. Counts the groups it annotated, and the statements
/// inside them, into `stats`.
pub fn share_steps(groups: &mut [Group], stats: &mut CompileStats) {
    // Family key → (rep index, rep step). The representative is the
    // earliest group in execution order that later members match.
    let mut families: HashMap<String, (usize, usize)> = HashMap::new();
    // Printed bodies, computed lazily and cached by group index.
    let mut printed: Vec<Option<String>> = vec![None; groups.len()];
    for gi in 0..groups.len() {
        let Some(step) = group_step(&groups[gi]) else {
            continue;
        };
        let key = family_key(&groups[gi], step);
        let Some(&(rep_idx, rep_step)) = families.get(&key) else {
            families.insert(key, (gi, step));
            continue;
        };
        let delta = step as i64 - rep_step as i64;
        if printed[rep_idx].is_none() {
            printed[rep_idx] = Some(print_stmts(&groups[rep_idx].stmts));
        }
        if printed[gi].is_none() {
            printed[gi] = Some(print_stmts(&groups[gi].stmts));
        }
        let equivalent = groups[gi].barrier == groups[rep_idx].barrier
            && shift_steps(printed[rep_idx].as_ref().unwrap(), delta).as_deref()
                == Some(printed[gi].as_ref().unwrap().as_str());
        if equivalent {
            groups[gi].meta.share_body_with = Some(StepShare {
                group: groups[rep_idx].name.clone(),
                delta,
            });
            stats.step_groups_shared += 1;
            stats.step_stmts_deduped += groups[gi].stmt_count();
        } else {
            // Boundary step (e.g. `@init` reads) — it becomes the
            // representative later steps are compared against.
            families.insert(key, (gi, step));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_steps_rewrites_all_occurrences() {
        assert_eq!(
            shift_steps("lstm_h@t3.value += x@t3$in0 * h@t2", 2).as_deref(),
            Some("lstm_h@t5.value += x@t5$in0 * h@t4")
        );
        assert_eq!(shift_steps("h@t1 reads h@t0", -1), None);
    }

    #[test]
    fn shift_steps_negative_index_is_none() {
        assert_eq!(shift_steps("h@t0.value", -1), None);
    }

    #[test]
    fn shift_steps_ignores_non_step_at_t() {
        assert_eq!(
            shift_steps("x@tile + y@t2", 1).as_deref(),
            Some("x@tile + y@t3")
        );
    }
}
