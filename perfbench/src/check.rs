//! Answer checks: set equality against a full-scan reference, and the
//! live handle's prefix contract under a concurrent writer.

use coax_data::RowId;

/// `ids` sorted ascending.
pub fn sorted(ids: &[RowId]) -> Vec<RowId> {
    let mut v = ids.to_vec();
    v.sort_unstable();
    v
}

/// `true` when `result` holds exactly the ids of `reference` (ascending),
/// each once.
pub fn same_set(result: &[RowId], reference: &[RowId]) -> bool {
    result.len() == reference.len() && sorted(result) == reference
}

/// Checks one read taken while rows were being inserted against the
/// prefix contract: the result holds every matching row whose insert was
/// acknowledged before the read started (`acked_before`: row ids below
/// it), and no row whose insert had not begun when the read ended (ids
/// at or above `issued_after`). Every id must match the query and appear
/// once. Row `i` of the stream carries id `i`; `matches(i)` evaluates the
/// query on that row.
pub fn check_prefix(
    result: &[RowId],
    acked_before: RowId,
    issued_after: RowId,
    matches: impl Fn(RowId) -> bool,
) -> Result<(), String> {
    let ids = sorted(result);
    if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("row {} returned twice", w[0]));
    }
    if let Some(&id) = ids.iter().find(|&&id| id >= issued_after) {
        return Err(format!(
            "row {id} returned before its insert began ({issued_after} issued)"
        ));
    }
    if let Some(&id) = ids.iter().find(|&&id| !matches(id)) {
        return Err(format!("row {id} does not match the query"));
    }
    let returned_below = ids.partition_point(|&id| id < acked_before);
    let expected_below = (0..acked_before).filter(|&id| matches(id)).count();
    if returned_below != expected_below {
        return Err(format!(
            "{} of {expected_below} matching rows acknowledged before the read are missing",
            expected_below - returned_below
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows 0..20; the query matches the even ones.
    fn even(id: RowId) -> bool {
        id % 2 == 0 && id < 20
    }

    #[test]
    fn set_equality_ignores_order_but_not_duplicates() {
        assert!(same_set(&[3, 1, 2], &[1, 2, 3]));
        assert!(!same_set(&[1, 1, 2], &[1, 2, 3]));
        assert!(!same_set(&[1, 2], &[1, 2, 3]));
    }

    #[test]
    fn a_consistent_prefix_passes() {
        // Acked 0..10 before the read, 0..14 issued by its end: rows 10
        // and 12 may or may not be visible.
        let base = [0, 2, 4, 6, 8];
        assert_eq!(check_prefix(&base, 10, 14, even), Ok(()));
        assert_eq!(check_prefix(&[0, 2, 4, 6, 8, 10, 12], 10, 14, even), Ok(()));
        assert_eq!(check_prefix(&[8, 6, 4, 2, 0, 10], 10, 14, even), Ok(()));
    }

    #[test]
    fn a_torn_result_is_rejected() {
        // Missing an acknowledged row (a hole in the prefix).
        let err = check_prefix(&[0, 2, 6, 8, 10], 10, 14, even).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        // A row whose insert had not begun when the read ended.
        let err = check_prefix(&[0, 2, 4, 6, 8, 14], 10, 14, even).unwrap_err();
        assert!(err.contains("before its insert began"), "{err}");
        // A row that does not match, and a duplicate.
        assert!(check_prefix(&[0, 2, 4, 6, 8, 9], 10, 14, even).is_err());
        assert!(check_prefix(&[0, 2, 4, 6, 8, 8], 10, 14, even).is_err());
    }
}
