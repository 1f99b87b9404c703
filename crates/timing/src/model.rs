//! The phase-dependent timing cost of Eq. (2) in the paper.
//!
//! The four-phase AC excitation zigzags across the rows: in some phases the
//! clock sweeps left-to-right, in others right-to-left, and in the remaining
//! phases the relevant distance is measured from the layer boundary. A
//! connection whose sink lies "downstream" of the clock sweep enjoys extra
//! margin; one whose sink lies upstream loses margin. Eq. (2) captures this
//! with a per-phase signed horizontal distance raised to the power α.

/// Signed horizontal distance of a connection under the zigzag clocking
/// scheme (the inner term of Eq. 2, before the exponent).
///
/// * `phase % 4 == 0` — clock sweeps with increasing x: distance is
///   `x_end − x_start`;
/// * `phase % 4 == 1` — the return path charges from the row edge:
///   `x_end + x_start`;
/// * `phase % 4 == 2` — clock sweeps with decreasing x: `x_start − x_end`;
/// * `phase % 4 == 3` — return path from the far edge: `2·Ŵ − x_end − x_start`,
///   where `Ŵ` is the layer (row) width.
#[inline]
pub fn signed_phase_distance(phase: usize, x_start: f64, x_end: f64, layer_width: f64) -> f64 {
    match phase % 4 {
        0 => x_end - x_start,
        1 => x_end + x_start,
        2 => x_start - x_end,
        _ => 2.0 * layer_width - x_end - x_start,
    }
}

/// The timing cost `T(e_i)` of Eq. (2): the signed phase distance raised to
/// the exponent `alpha` (the paper uses α = 2), preserving the sign so that
/// favourable placements (negative distance) reduce the cost.
///
/// With α = 2 the cost is `d·|d|`, i.e. a signed quadratic: smooth,
/// monotonic in the distance, and strongly penalizing long upstream hops —
/// which is what the analytical placer needs for its gradient.
pub fn phase_timing_cost(
    phase: usize,
    x_start: f64,
    x_end: f64,
    layer_width: f64,
    alpha: f64,
) -> f64 {
    let d = signed_phase_distance(phase, x_start, x_end, layer_width);
    d.signum() * d.abs().powf(alpha)
}

/// Derivative of [`phase_timing_cost`] with respect to `x_start`, used by the
/// analytical global placer.
pub fn phase_timing_cost_grad_start(
    phase: usize,
    x_start: f64,
    x_end: f64,
    layer_width: f64,
    alpha: f64,
) -> f64 {
    let d = signed_phase_distance(phase, x_start, x_end, layer_width);
    let dd_dstart = match phase % 4 {
        0 => -1.0,
        1 => 1.0,
        2 => 1.0,
        _ => -1.0,
    };
    alpha * d.abs().powf(alpha - 1.0) * dd_dstart
}

/// Derivative of [`phase_timing_cost`] with respect to `x_end`.
pub fn phase_timing_cost_grad_end(
    phase: usize,
    x_start: f64,
    x_end: f64,
    layer_width: f64,
    alpha: f64,
) -> f64 {
    let d = signed_phase_distance(phase, x_start, x_end, layer_width);
    let dd_dend = match phase % 4 {
        0 => 1.0,
        1 => 1.0,
        2 => -1.0,
        _ => -1.0,
    };
    alpha * d.abs().powf(alpha - 1.0) * dd_dend
}

/// Both derivatives of [`phase_timing_cost`] from one distance:
/// `(∂T/∂x_start, ∂T/∂x_end)`, bit-identical to
/// [`phase_timing_cost_grad_start`] and [`phase_timing_cost_grad_end`].
///
/// `|d|^(α−1)` is computed once, and at the paper's α = 2 it is `|d|`
/// itself: `powf(x, 1.0)` is exact, so skipping it changes no bit. Other
/// exponents still go through `powf`.
#[inline]
pub fn phase_timing_cost_grads(
    phase: usize,
    x_start: f64,
    x_end: f64,
    layer_width: f64,
    alpha: f64,
) -> (f64, f64) {
    let d = signed_phase_distance(phase, x_start, x_end, layer_width);
    let exponent = alpha - 1.0;
    let magnitude = if exponent == 1.0 { d.abs() } else { d.abs().powf(exponent) };
    let slope = alpha * magnitude;
    match phase % 4 {
        0 => (-slope, slope),
        1 => (slope, slope),
        2 => (slope, -slope),
        _ => (-slope, -slope),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn phase_distances_follow_the_zigzag() {
        let w = 1000.0;
        assert_eq!(signed_phase_distance(0, 100.0, 300.0, w), 200.0);
        assert_eq!(signed_phase_distance(1, 100.0, 300.0, w), 400.0);
        assert_eq!(signed_phase_distance(2, 100.0, 300.0, w), -200.0);
        assert_eq!(signed_phase_distance(3, 100.0, 300.0, w), 2.0 * w - 400.0);
        // The pattern repeats every four phases.
        assert_eq!(
            signed_phase_distance(4, 10.0, 20.0, w),
            signed_phase_distance(0, 10.0, 20.0, w)
        );
    }

    #[test]
    fn cost_is_signed_quadratic_for_alpha_two() {
        let cost = phase_timing_cost(0, 0.0, 30.0, 1000.0, 2.0);
        assert!((cost - 900.0).abs() < 1e-9);
        let cost = phase_timing_cost(2, 0.0, 30.0, 1000.0, 2.0);
        assert!((cost + 900.0).abs() < 1e-9, "upstream hop in phase 2 is favourable");
    }

    #[test]
    fn gradients_match_finite_differences() {
        let (w, alpha) = (800.0, 2.0);
        let eps = 1e-4;
        for phase in 0..4 {
            for (xs, xe) in [(100.0, 400.0), (350.0, 20.0), (0.0, 0.0)] {
                let g_start = phase_timing_cost_grad_start(phase, xs, xe, w, alpha);
                let num_start = (phase_timing_cost(phase, xs + eps, xe, w, alpha)
                    - phase_timing_cost(phase, xs - eps, xe, w, alpha))
                    / (2.0 * eps);
                assert!(
                    (g_start - num_start).abs() < 1e-2,
                    "phase {phase} start grad {g_start} vs {num_start}"
                );
                let g_end = phase_timing_cost_grad_end(phase, xs, xe, w, alpha);
                let num_end = (phase_timing_cost(phase, xs, xe + eps, w, alpha)
                    - phase_timing_cost(phase, xs, xe - eps, w, alpha))
                    / (2.0 * eps);
                assert!(
                    (g_end - num_end).abs() < 1e-2,
                    "phase {phase} end grad {g_end} vs {num_end}"
                );
            }
        }
    }

    #[test]
    fn combined_gradients_are_bit_identical_to_the_powf_formulas() {
        // A seeded sweep of distances: fixed edge cases, then random bit
        // patterns (every exponent) and random magnitudes up to 10^6.
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut sweep =
            vec![0.0, -0.0, f64::MIN_POSITIVE / 3.0, -5e-324, 1e-300, -1e-300, 1e6, -1e6];
        while sweep.len() < 4_000 {
            let bits = next();
            let d = f64::from_bits(bits);
            if d.is_finite() {
                sweep.push(d);
            }
            let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
            sweep.push((unit - 0.5) * 2e6);
        }

        let w = 1_000.0;
        for &d in &sweep {
            // Phase 0 with x_start = 0 puts `d` itself in the exponent.
            let alpha = 2.0;
            let (start, end) = phase_timing_cost_grads(0, 0.0, d, w, alpha);
            let expected = |sign: f64| alpha * d.abs().powf(alpha - 1.0) * sign;
            assert_eq!(start.to_bits(), expected(-1.0).to_bits(), "start at d = {d:e}");
            assert_eq!(end.to_bits(), expected(1.0).to_bits(), "end at d = {d:e}");

            // Every phase, at α = 2 and on the `powf` path, against the
            // one-derivative functions.
            for phase in 0..4 {
                for alpha in [2.0, 1.5] {
                    let (x_start, x_end) = (d.abs().min(w), w / 3.0);
                    let (start, end) = phase_timing_cost_grads(phase, x_start, x_end, w, alpha);
                    let start_ref = phase_timing_cost_grad_start(phase, x_start, x_end, w, alpha);
                    let end_ref = phase_timing_cost_grad_end(phase, x_start, x_end, w, alpha);
                    assert_eq!(start.to_bits(), start_ref.to_bits(), "phase {phase}, α {alpha}");
                    assert_eq!(end.to_bits(), end_ref.to_bits(), "phase {phase}, α {alpha}");
                }
            }
        }
    }

    #[test]
    fn moving_sink_downstream_reduces_phase0_cost() {
        let w = 1000.0;
        let near = phase_timing_cost(0, 500.0, 520.0, w, 2.0);
        let far = phase_timing_cost(0, 500.0, 900.0, w, 2.0);
        assert!(near < far);
    }
}
