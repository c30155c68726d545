"""Self-similar blow-up profiles of u_t = (u^m)_xx + |x|^sigma u^m.

Library + CLI for computing, classifying and verifying the compactly
supported blow-up profiles of the weighted reaction-diffusion equation:
phase-space critical-point catalog, interface shooting, good-profile
multiplicity scans, and the non-existence bounds for large sigma.
"""

from .model import (BackwardShot, ForwardShot, Params, Profile,
                    explicit_interface_F0, explicit_profile_F0,
                    hyperbola_equilibrium, hyperbola_phi_max,
                    integral_identity_residual)
from .integrate import (Event, EventKind, EventRecord, IntegrationError,
                        IntegrationResult, IntegratorConfig, MaxStepsExceeded,
                        NonFiniteState, StepUnderflow, integrate)
from .phase import (CriticalPoint, NormalFormCoeffs, PhaseState,
                    critical_points, cylinder_flux, cylinder_value,
                    from_phase, invariant_K, jacobian_main, normal_form_p3,
                    p3_spiral_diagnostic, to_phase, vf_main)
from .shooting import (Diverged, Exhausted, GapBounds, GoodProfile, Interface,
                       ReachedOrigin, ShotOutcome, SlopeUnreliable,
                       VerticalSlope, classify_vanish, count_maxima,
                       find_good_profiles, multiplicity_scan,
                       nonexistence_gap, shoot_backward, shoot_forward,
                       slope_fn)
from .analysis import (cylinder_invariance_check, interface_origin_check,
                       monotone_exclusion_check, phi_extremum)

__version__ = "0.1.0"

__all__ = [
    "Params", "Profile", "ForwardShot", "BackwardShot",
    "explicit_profile_F0", "explicit_interface_F0", "hyperbola_equilibrium",
    "hyperbola_phi_max", "integral_identity_residual",
    "Event", "EventKind", "EventRecord", "IntegratorConfig",
    "IntegrationResult", "IntegrationError", "MaxStepsExceeded",
    "StepUnderflow", "NonFiniteState", "integrate", "classify_vanish",
    "PhaseState", "CriticalPoint", "NormalFormCoeffs",
    "vf_main", "to_phase", "from_phase", "jacobian_main",
    "critical_points", "cylinder_value", "cylinder_flux", "invariant_K",
    "normal_form_p3", "p3_spiral_diagnostic",
    "ShotOutcome", "Interface", "VerticalSlope", "ReachedOrigin", "Diverged",
    "Exhausted", "GoodProfile", "GapBounds", "SlopeUnreliable",
    "shoot_forward", "shoot_backward", "slope_fn", "find_good_profiles",
    "count_maxima", "multiplicity_scan", "nonexistence_gap",
    "cylinder_invariance_check", "interface_origin_check", "phi_extremum",
    "monotone_exclusion_check",
    "__version__",
]
