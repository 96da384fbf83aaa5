//! Numerical integration methods and their companion-model coefficients.
//!
//! Reactive elements are discretised per time step into a Norton companion:
//! a capacitor becomes `i = geq * u + ieq_terms(history)`, an inductor's
//! branch equation becomes `u - leq * i = rhs(history)`. The coefficients
//! depend on the method and the (possibly unequal) last two step sizes.

/// Implicit integration method used for the transient analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Backward Euler: order 1, L-stable, dissipative. Used automatically
    /// for the first step after a discontinuity.
    BackwardEuler,
    /// Trapezoidal rule: order 2, A-stable, energy-preserving. SPICE default.
    #[default]
    Trapezoidal,
    /// Second-order Gear (BDF2) with variable-step coefficients: order 2,
    /// L-stable, mildly dissipative.
    Gear2,
}

impl Method {
    /// Order of accuracy of the method.
    pub fn order(self) -> usize {
        match self {
            Method::BackwardEuler => 1,
            Method::Trapezoidal | Method::Gear2 => 2,
        }
    }

    /// Magnitude of the local-truncation-error constant in
    /// `LTE ~= C * h^(k+1) * x^(k+1)(xi)` (equal-step value).
    pub(crate) fn error_constant(self) -> f64 {
        match self {
            Method::BackwardEuler => 0.5,
            Method::Trapezoidal => 1.0 / 12.0,
            Method::Gear2 => 2.0 / 9.0,
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Method::BackwardEuler => write!(f, "be"),
            Method::Trapezoidal => write!(f, "trap"),
            Method::Gear2 => write!(f, "gear2"),
        }
    }
}

/// Discretisation coefficients for one transient step.
///
/// For a state derivative `dq/dt` at the new time point:
///
/// `dq/dt ~= a0*q_new + a1*q_prev + a2*q_prev2 + b1*dq_prev`
///
/// where `dq_prev` is the derivative at the previous point (used only by the
/// trapezoidal rule) and `q_prev2` only by Gear2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegCoeffs {
    /// The method these coefficients belong to.
    pub method: Method,
    /// Step being taken, `t_new - t_prev`.
    pub h: f64,
    /// Coefficient of the new state.
    pub a0: f64,
    /// Coefficient of the previous state.
    pub a1: f64,
    /// Coefficient of the state before that (Gear2 only, else 0).
    pub a2: f64,
    /// Coefficient of the previous derivative (trapezoidal only, else 0).
    pub b1: f64,
}

impl IntegCoeffs {
    /// Computes coefficients for a step of size `h` following a step of size
    /// `h_prev` (only Gear2 uses `h_prev`; pass `h` when no history exists).
    ///
    /// # Panics
    ///
    /// Panics if `h <= 0` or `h_prev <= 0`.
    pub fn new(method: Method, h: f64, h_prev: f64) -> Self {
        assert!(h > 0.0, "step must be positive, got {h}");
        assert!(h_prev > 0.0, "previous step must be positive, got {h_prev}");
        match method {
            Method::BackwardEuler => {
                IntegCoeffs { method, h, a0: 1.0 / h, a1: -1.0 / h, a2: 0.0, b1: 0.0 }
            }
            Method::Trapezoidal => {
                IntegCoeffs { method, h, a0: 2.0 / h, a1: -2.0 / h, a2: 0.0, b1: -1.0 }
            }
            Method::Gear2 => {
                // Variable-step BDF2:
                //   x'(t_new) ~= a0 x_new + a1 x_prev + a2 x_prev2
                // with tau = h, taup = h_prev:
                let tau = h;
                let taup = h_prev;
                let a0 = (2.0 * tau + taup) / (tau * (tau + taup));
                let a1 = -(tau + taup) / (tau * taup);
                let a2 = tau / (taup * (tau + taup));
                IntegCoeffs { method, h, a0, a1, a2, b1: 0.0 }
            }
        }
    }

    /// Evaluates the discretised derivative for the given state history.
    ///
    /// `q_new`, `q_prev`, `q_prev2` are the state at the new and previous two
    /// points; `dq_prev` is the derivative at the previous point.
    pub(crate) fn derivative(&self, q_new: f64, q_prev: f64, q_prev2: f64, dq_prev: f64) -> f64 {
        self.a0 * q_new + self.a1 * q_prev + self.a2 * q_prev2 + self.b1 * dq_prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders() {
        assert_eq!(Method::BackwardEuler.order(), 1);
        assert_eq!(Method::Trapezoidal.order(), 2);
        assert_eq!(Method::Gear2.order(), 2);
    }

    #[test]
    fn be_coefficients() {
        let c = IntegCoeffs::new(Method::BackwardEuler, 0.5, 0.5);
        assert_eq!(c.a0, 2.0);
        assert_eq!(c.a1, -2.0);
        assert_eq!(c.a2, 0.0);
        assert_eq!(c.b1, 0.0);
    }

    #[test]
    fn trap_coefficients() {
        let c = IntegCoeffs::new(Method::Trapezoidal, 0.25, 0.25);
        assert_eq!(c.a0, 8.0);
        assert_eq!(c.a1, -8.0);
        assert_eq!(c.b1, -1.0);
    }

    #[test]
    fn gear2_equal_steps_reduces_to_constant_bdf2() {
        let h = 0.1;
        let c = IntegCoeffs::new(Method::Gear2, h, h);
        assert!((c.a0 - 1.5 / h).abs() < 1e-12);
        assert!((c.a1 + 2.0 / h).abs() < 1e-12);
        assert!((c.a2 - 0.5 / h).abs() < 1e-12);
    }

    #[test]
    fn gear2_coefficients_annihilate_constants() {
        let c = IntegCoeffs::new(Method::Gear2, 0.3, 0.7);
        assert!((c.a0 + c.a1 + c.a2).abs() < 1e-12, "derivative of a constant must be 0");
    }

    #[test]
    fn gear2_exact_for_linear_states() {
        // x(t) = 3t + 1 sampled at unequal steps must give x' = 3 exactly.
        let (h, hp) = (0.2, 0.5);
        let t_new = 1.0;
        let t_prev = t_new - h;
        let t_prev2 = t_prev - hp;
        let x = |t: f64| 3.0 * t + 1.0;
        let c = IntegCoeffs::new(Method::Gear2, h, hp);
        let d = c.derivative(x(t_new), x(t_prev), x(t_prev2), 0.0);
        assert!((d - 3.0).abs() < 1e-10, "d = {d}");
    }

    #[test]
    fn gear2_exact_for_quadratics() {
        // BDF2 is order 2: exact derivative for x(t) = t^2 at the new point.
        let (h, hp) = (0.25, 0.4);
        let t_new = 2.0;
        let t_prev = t_new - h;
        let t_prev2 = t_prev - hp;
        let x = |t: f64| t * t;
        let c = IntegCoeffs::new(Method::Gear2, h, hp);
        let d = c.derivative(x(t_new), x(t_prev), x(t_prev2), 0.0);
        assert!((d - 2.0 * t_new).abs() < 1e-9, "d = {d}");
    }

    #[test]
    fn trap_derivative_matches_identity() {
        // Trapezoid: (q_new - q_prev) * 2/h - dq_prev.
        let c = IntegCoeffs::new(Method::Trapezoidal, 0.5, 0.5);
        let d = c.derivative(2.0, 1.0, 0.0, 3.0);
        assert!((d - (4.0 - 3.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_panics() {
        let _ = IntegCoeffs::new(Method::Trapezoidal, 0.0, 1.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Method::Trapezoidal.to_string(), "trap");
        assert_eq!(Method::Gear2.to_string(), "gear2");
        assert_eq!(Method::BackwardEuler.to_string(), "be");
    }
}
