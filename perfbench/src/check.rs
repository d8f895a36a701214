//! Output checks against independent oracles, each with a negative
//! self-test: a check that accepts an answer must reject the same answer
//! with one value perturbed.

use cusha_core::Value;

/// Accepted PageRank error against the f64 power-iteration oracle is
/// `PAGERANK_ATOL + PAGERANK_RTOL * |oracle|` per vertex. The engine stops
/// once no rank changes by more than 1e-3 in a sweep, so small ranks keep
/// an absolute error near 1e-3 (measured up to 9.98e-4 at rmat 14, seeds
/// 1-3); large ranks (up to ~227 there) accumulate asynchronous f32
/// updates into a relative error up to 7.8e-4. A purely absolute bound
/// sized for tiny graphs rejects that correct output; a purely relative
/// one rejects the small ranks.
pub const PAGERANK_ATOL: f64 = 2e-3;
/// See [`PAGERANK_ATOL`].
pub const PAGERANK_RTOL: f64 = 2e-3;

/// Bit-exact comparison against an oracle.
pub fn exact<V: PartialEq + std::fmt::Debug>(got: &[V], oracle: &[V]) -> Result<(), String> {
    if got.len() != oracle.len() {
        return Err(format!("{} values, oracle has {}", got.len(), oracle.len()));
    }
    match got.iter().zip(oracle).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "vertex {i}: got {:?}, oracle {:?}",
            got[i], oracle[i]
        )),
    }
}

/// PageRank check: every rank within `PAGERANK_ATOL + PAGERANK_RTOL *
/// |oracle|` of the oracle.
pub fn pagerank(got: &[f32], oracle: &[f32]) -> Result<(), String> {
    if got.len() != oracle.len() {
        return Err(format!("{} values, oracle has {}", got.len(), oracle.len()));
    }
    for (i, (&g, &o)) in got.iter().zip(oracle).enumerate() {
        let (g, o) = (g as f64, o as f64);
        let share = (g - o).abs() / (PAGERANK_ATOL + PAGERANK_RTOL * o.abs());
        if share.is_nan() || share > 1.0 {
            return Err(format!("vertex {i}: rank {g}, oracle {o}"));
        }
    }
    Ok(())
}

/// The service's answer checksum: `integrity::checksum` over the answer's
/// value bits, as the service computes it for every `ok` response.
pub fn answer_checksum(values: &[u32]) -> u64 {
    let bits: Vec<u64> = values.iter().map(|&v| v.to_bits()).collect();
    cusha_core::integrity::checksum(&bits)
}

/// One-value perturbation of an integer answer at `i`.
pub fn perturb_u32(values: &[u32], i: usize) -> Vec<u32> {
    let mut v = values.to_vec();
    v[i] = v[i].wrapping_add(1);
    v
}

/// One-value perturbation of a rank vector at `i` by twice its bound.
pub fn perturb_rank(values: &[f32], i: usize) -> Vec<f32> {
    let mut v = values.to_vec();
    let r = v[i] as f64;
    v[i] = (r + 2.0 * (PAGERANK_ATOL + PAGERANK_RTOL * r.abs())) as f32;
    v
}

/// Runs the negative self-test of a check: `Ok` when the check rejects the
/// perturbed answer.
pub fn rejects(check: Result<(), String>, what: &str) -> Result<(), String> {
    match check {
        Err(_) => Ok(()),
        Ok(_) => Err(format!("{what} check accepted a one-value perturbation")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pagerank_check_is_relative_with_a_floor() {
        let oracle = vec![200.0f32, 0.2];
        // 0.3 absolute on a rank of 200 is 1.5e-3 relative: accepted.
        assert!(pagerank(&[200.3, 0.2], &oracle).is_ok());
        assert!(pagerank(&[200.0, 0.2015], &oracle).is_ok());
        assert!(pagerank(&[201.0, 0.2], &oracle).is_err());
        for i in 0..2 {
            assert!(rejects(pagerank(&perturb_rank(&oracle, i), &oracle), "pr").is_ok());
        }
        assert!(pagerank(&[f32::NAN, 0.2], &oracle).is_err());
    }

    #[test]
    fn exact_and_checksum_reject_one_value() {
        let a = vec![0u32, 3, u32::MAX];
        assert!(exact(&a, &a).is_ok());
        assert!(exact(&perturb_u32(&a, 2), &a).is_err());
        assert_ne!(answer_checksum(&a), answer_checksum(&perturb_u32(&a, 1)));
    }
}
