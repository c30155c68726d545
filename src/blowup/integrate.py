"""Adaptive explicit integration with event location.

The package's own stepper, Dormand-Prince 8(5,3) with scipy's DOP853
tableau (Dormand & Prince 1980, J. Comput. Appl. Math. 6; Hairer, Norsett &
Wanner, Solving ODEs I, II.4 and II.10), run on tuples of Python floats: the
systems integrated here have two or three components, where array
arithmetic costs more than it saves.  12 stages with the last stage
rhs(t + h, y_new) reused as the next first one, the 5th-order error estimate
damped by the 3rd-order one, a minimum step of 10 ulp of t, and Hairer's
initial-step selection, all as in DOP853.

The step size follows Gustafsson's predictive controller (1994, ACM TOMS
20(4); Hairer & Wanner, Solving ODEs II, IV.8).  After an accepted step n
with error norm err_n the next step is h_n times

    max(0.2, min(fac_I, fac_P)),
    fac_I = min(10, 0.9 err_n^(-1/8)),
    fac_P = 0.9 (h_n / h_(n-1)) (err_(n-1) / err_n^2)^(1/8),

with the stored err_(n-1) floored at 1e-2 as in RADAU5; on the first
accepted step fac_I alone, and no growth right after a rejected step, which
shrinks h by max(0.2, 0.9 err^(-1/8)).  fac_I alone (DOP853's rule) reads
only the current error, so an error that rises steadily from step to step,
as on an orbit blowing up in finite time or toward the axis where the weight
|x|^sigma is not smooth, fails on about every other step; fac_P follows the
trend.  The controller's state lives in one integrate call.  Dense output
is the method's 7th-order continuous extension, which costs three more rhs
calls on each step that reads it.

Around the stepper sits the loop the shooting experiments need: (i) event
bracketing on several dense-output subsamples per accepted step (the
profile ODE produces closely spaced crossings), (ii) a hard cap on the
number of steps with typed failures, and (iii) optional uniformly spaced
dense samples merged into the returned trajectory so that quadrature over
stored samples is accurate.  Each step records the abscissae of its samples
(one vector of sequential sums) and its interpolant coefficients; the
samples are evaluated in one numpy pass and interleaved with the step ends
when the trajectory is returned, at the end, at a terminal event or with a
failure's partial trajectory.

Events are screened before they are sampled.  An event may carry a
certificate (Event.one_sign) that proves from a range bound of the step's
interpolant (_dense_box) that its function keeps one strict sign over the
whole step; such a step costs the event one call, at the step end.  Only
when no certificate clears a step are the event's signs read on
EVENT_SAMPLES equal subintervals of it, and a sign change refined by
bisection on the dense output until the event function is below
EVENT_TOL (bisection rather than Newton: near the degenerate interface
the relevant functions are extremely flat).  A certificate clears only
steps on which the sampling finds no sign change, so the screen changes no
result.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "EventKind",
    "Event",
    "off_level",
    "EventRecord",
    "IntegratorConfig",
    "IntegrationResult",
    "IntegrationError",
    "MaxStepsExceeded",
    "StepUnderflow",
    "NonFiniteState",
    "integrate",
]

#: dense-output subintervals per accepted step on which event signs are read
EVENT_SAMPLES = 8
#: event bisection stops once the event function is below this in magnitude
EVENT_TOL = 1e-12
#: integrate raises MaxStepsExceeded after this many accepted steps
MAX_STEPS = 10_000_000

# Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, Solving ODEs I, II.10),
# nonzero entries only, 1-based as in Hairer's DOP853: stage i is
# rhs(t + C_i h, y + h sum_j A_i_j k_j).  Stages 1-12 make the step, with the
# 8th-order weights B; stage 13 is rhs(t + h, y_new), the next step's first
# stage; stages 14-16 serve only the 7th-order dense output, whose upper
# coefficients are the rows D3-D6.  The error estimates are ER (5th order)
# and B minus BHH (3rd order).  C_12 = C_13 = 1.
#
# The numbers are copied from scipy/integrate/_ivp/dop853_coefficients.py:
#   Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
#   All rights reserved.  Redistribution and use in source and binary forms,
#   with or without modification, are permitted provided that the following
#   conditions are met: 1. Redistributions of source code must retain the
#   above copyright notice, this list of conditions and the following
#   disclaimer.  2. Redistributions in binary form must reproduce the above
#   copyright notice, this list of conditions and the following disclaimer in
#   the documentation and/or other materials provided with the distribution.
#   3. Neither the name of the copyright holder nor the names of its
#   contributors may be used to endorse or promote products derived from this
#   software without specific prior written permission.
#   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS
#   IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO,
#   THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR
#   PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT OWNER OR
#   CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL,
#   EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO,
#   PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR
#   PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF
#   LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING
#   NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE OF THIS
#   SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
(_C2, _C3, _C4, _C5, _C6) = (
    0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333)
(_C7, _C8, _C9, _C10) = (
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
    0.6)
(_C11, _C14, _C15, _C16) = (
    0.857142857142857142857142857142, 0.1, 0.2,
    0.777777777777777777777777777778)
_A2_1 = 5.26001519587677318785587544488e-2
(_A3_1, _A3_2) = (
    1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2)
(_A4_1, _A4_3) = (
    2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2)
(_A5_1, _A5_3, _A5_4) = (
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1)
(_A6_1, _A6_4, _A6_5) = (
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1)
(_A7_1, _A7_4, _A7_5, _A7_6) = (
    3.7109375e-2, 1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2, -1.7578125e-2)
(_A8_1, _A8_4, _A8_5, _A8_6, _A8_7) = (
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3)
(_A9_1, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8) = (
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1)
(_A10_1, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9) = (
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2)
(_A11_1, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10) = (
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022)
(_A12_1, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10, _A12_11) = (
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1)
(_A14_1, _A14_7, _A14_8, _A14_9, _A14_10, _A14_11, _A14_12, _A14_13) = (
    5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3, -8.298e-3)
(_A15_1, _A15_6, _A15_7, _A15_8, _A15_11, _A15_12, _A15_13, _A15_14) = (
    3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1)
(_A16_1, _A16_6, _A16_7, _A16_8, _A16_9, _A16_13, _A16_14, _A16_15) = (
    -4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
    7.68342119606259904184240953878, 4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149, -9.15095847217987001081870187138)
(_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12, _BHH1, _BHH9, _BHH12) = (
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
    0.244094488188976377952755905512, 0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1)
(_ER1, _ER6, _ER7, _ER8, _ER9, _ER10, _ER11, _ER12) = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
(_D3_1, _D3_6, _D3_7, _D3_8, _D3_9, _D3_10, _D3_11, _D3_12, _D3_13, _D3_14,
 _D3_15, _D3_16) = (
    -0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
    -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
    0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
    0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
    -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
    -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1)
(_D4_1, _D4_6, _D4_7, _D4_8, _D4_9, _D4_10, _D4_11, _D4_12, _D4_13, _D4_14,
 _D4_15, _D4_16) = (
    0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
    0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
    -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
    -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
    0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
    -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2)
(_D5_1, _D5_6, _D5_7, _D5_8, _D5_9, _D5_10, _D5_11, _D5_12, _D5_13, _D5_14,
 _D5_15, _D5_16) = (
    0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
    -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
    -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
    -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
    -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
    0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2)
(_D6_1, _D6_6, _D6_7, _D6_8, _D6_9, _D6_10, _D6_11, _D6_12, _D6_13, _D6_14,
 _D6_15, _D6_16) = (
    -0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
    -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
    0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
    0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
    -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
    -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3)
_E3_1, _E3_9, _E3_12 = _B1 - _BHH1, _B9 - _BHH9, _B12 - _BHH12

# step control
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 8          # -1/(error estimator order + 1)
_MIN_PREV_ERROR = 1e-2            # floor on the stored error, as in RADAU5
_MIN_REL_TOL = 100 * sys.float_info.epsilon


class EventKind(enum.Enum):
    GZERO = "g_zero"
    DG_ZERO = "dg_zero"
    HYP_PHI_MAX_CROSS = "hyperbola_phi_max_cross"
    STATE_BOUND = "state_bound"
    SECTION_CROSS = "section_cross"


@dataclass(frozen=True)
class Event:
    """A scalar event function fn(t, y) -> float, tracked along the flow.

    direction: +1 fires on -/+ crossings, -1 on +/-, 0 on both, always read
    along the direction of integration.  fn is called once per point, with a
    float t and the state y as a tuple of floats.

    one_sign, when given, is a certificate one_sign(t_a, t_b, boxes) -> bool
    read once per accepted step before the event is sampled: t_a and t_b are
    the step's ends, and boxes holds one (lo, hi) pair per component that
    encloses the float values of the step's interpolant.  It may return True
    only if the float value of fn is nonzero, not NaN, and of one sign for
    every t between t_a and t_b and every state in the boxes; in doubt, or
    on NaN bounds, it returns False and the step is sampled.  A wrong True
    silently drops the event's crossings on that step.
    """

    kind: EventKind
    fn: Callable
    direction: int = 0
    terminal: bool = False
    one_sign: Optional[Callable] = None


def off_level(i: int, level: float) -> Callable:
    """one_sign certificate of an event fn = y[i] - level or level - y[i].

    A float subtraction is zero only between equal operands and otherwise
    has the sign of the exact difference, so fn keeps one strict sign while
    the box of component i lies strictly on one side of level.  fn must
    subtract this same float level.
    """

    def one_sign(t_a: float, t_b: float, boxes: Sequence[tuple]) -> bool:
        lo, hi = boxes[i]
        return lo > level or hi < level

    return one_sign


@dataclass(frozen=True)
class EventRecord:
    kind: EventKind
    t: float
    y: np.ndarray
    terminal: bool = False


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: Union[float, np.ndarray] = 1e-12
    first_step: Optional[float] = None
    dense_dx: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or np.any(np.asarray(self.abs_tol) <= 0):
            raise ValueError("tolerances must be positive")
        if self.dense_dx and not self.dense_dx > 0:   # 0 or None: no samples
            raise ValueError("dense_dx must be positive")


@dataclass
class IntegrationResult:
    t: np.ndarray                     # trajectory abscissae, integration order
    y: np.ndarray                     # shape (len(t), dim)
    events: List[EventRecord] = field(default_factory=list)
    reason: str = "completed"         # "completed" | "terminal_event"
    n_steps: int = 0                  # accepted steps
    n_rejected: int = 0               # rejected step attempts

    @property
    def terminal_event(self) -> Optional[EventRecord]:
        for rec in reversed(self.events):
            if rec.terminal:
                return rec
        return None


class IntegrationError(RuntimeError):
    """Base class; carries the partial trajectory for post-mortems."""

    def __init__(self, message: str, partial: Optional[IntegrationResult] = None):
        super().__init__(message)
        self.partial = partial


class MaxStepsExceeded(IntegrationError):
    pass


class StepUnderflow(IntegrationError):
    pass


class NonFiniteState(IntegrationError):
    pass


# --------------------------------------------------------------------------
# the Dormand-Prince 8(5,3) stepper
# --------------------------------------------------------------------------

def _rms(values: Sequence[float]) -> float:
    return math.sqrt(sum([v * v for v in values])) / len(values) ** 0.5


def _dp_step(rhs: Callable, t: float, y: tuple, k1: Sequence[float],
             h: float) -> Tuple[tuple, tuple]:
    """One step of size h from (t, y), where k1 = rhs(t, y).

    Returns the 8th-order state at t + h and the twelve stages.
    """
    k2 = rhs(t + _C2 * h, tuple([u + h * (_A2_1 * s1)
                                 for u, s1 in zip(y, k1)]))
    k3 = rhs(t + _C3 * h, tuple([u + h * (_A3_1 * s1 + _A3_2 * s2)
                                 for u, s1, s2 in zip(y, k1, k2)]))
    k4 = rhs(t + _C4 * h, tuple([u + h * (_A4_1 * s1 + _A4_3 * s3)
                                 for u, s1, s3 in zip(y, k1, k3)]))
    k5 = rhs(t + _C5 * h, tuple([u + h * (_A5_1 * s1 + _A5_3 * s3 + _A5_4 * s4)
                                 for u, s1, s3, s4 in zip(y, k1, k3, k4)]))
    k6 = rhs(t + _C6 * h, tuple([u + h * (_A6_1 * s1 + _A6_4 * s4 + _A6_5 * s5)
                                 for u, s1, s4, s5 in zip(y, k1, k4, k5)]))
    k7 = rhs(t + _C7 * h, tuple([u + h * (_A7_1 * s1 + _A7_4 * s4 + _A7_5 * s5
                                          + _A7_6 * s6)
                                 for u, s1, s4, s5, s6
                                 in zip(y, k1, k4, k5, k6)]))
    k8 = rhs(t + _C8 * h, tuple([u + h * (_A8_1 * s1 + _A8_4 * s4 + _A8_5 * s5
                                          + _A8_6 * s6 + _A8_7 * s7)
                                 for u, s1, s4, s5, s6, s7
                                 in zip(y, k1, k4, k5, k6, k7)]))
    k9 = rhs(t + _C9 * h, tuple([u + h * (_A9_1 * s1 + _A9_4 * s4 + _A9_5 * s5
                                          + _A9_6 * s6 + _A9_7 * s7
                                          + _A9_8 * s8)
                                 for u, s1, s4, s5, s6, s7, s8
                                 in zip(y, k1, k4, k5, k6, k7, k8)]))
    k10 = rhs(t + _C10 * h, tuple([u + h * (_A10_1 * s1 + _A10_4 * s4
                                            + _A10_5 * s5 + _A10_6 * s6
                                            + _A10_7 * s7 + _A10_8 * s8
                                            + _A10_9 * s9)
                                   for u, s1, s4, s5, s6, s7, s8, s9
                                   in zip(y, k1, k4, k5, k6, k7, k8, k9)]))
    k11 = rhs(t + _C11 * h, tuple([u + h * (_A11_1 * s1 + _A11_4 * s4
                                            + _A11_5 * s5 + _A11_6 * s6
                                            + _A11_7 * s7 + _A11_8 * s8
                                            + _A11_9 * s9 + _A11_10 * s10)
                                   for u, s1, s4, s5, s6, s7, s8, s9, s10
                                   in zip(y, k1, k4, k5, k6, k7, k8, k9,
                                          k10)]))
    k12 = rhs(t + h, tuple([u + h * (_A12_1 * s1 + _A12_4 * s4 + _A12_5 * s5
                                     + _A12_6 * s6 + _A12_7 * s7 + _A12_8 * s8
                                     + _A12_9 * s9 + _A12_10 * s10
                                     + _A12_11 * s11)
                            for u, s1, s4, s5, s6, s7, s8, s9, s10, s11
                            in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)]))
    y_new = tuple([u + h * (_B1 * s1 + _B6 * s6 + _B7 * s7 + _B8 * s8
                            + _B9 * s9 + _B10 * s10 + _B11 * s11 + _B12 * s12)
                   for u, s1, s6, s7, s8, s9, s10, s11, s12
                   in zip(y, k1, k6, k7, k8, k9, k10, k11, k12)])
    return y_new, (k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12)


def _error_norm(h: float, y: tuple, y_new: tuple, stages: tuple,
                atol: Sequence[float], rtol: float) -> float:
    """DOP853's error norm: the 5th-order estimate e5 damped by the
    3rd-order one e3, |h| |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) n), both
    scaled by atol + max(|y|, |y_new|) rtol."""
    k1, _, _, _, _, k6, k7, k8, k9, k10, k11, k12 = stages
    sq5 = sq3 = 0.0
    for u, v, tol, s1, s6, s7, s8, s9, s10, s11, s12 in zip(
            y, y_new, atol, k1, k6, k7, k8, k9, k10, k11, k12):
        scale = tol + (abs(u) if abs(u) > abs(v) else abs(v)) * rtol
        e5 = (_ER1 * s1 + _ER6 * s6 + _ER7 * s7 + _ER8 * s8 + _ER9 * s9
              + _ER10 * s10 + _ER11 * s11 + _ER12 * s12) / scale
        e3 = (_E3_1 * s1 + _B6 * s6 + _B7 * s7 + _B8 * s8 + _E3_9 * s9
              + _B10 * s10 + _B11 * s11 + _E3_12 * s12) / scale
        sq5 += e5 * e5
        sq3 += e3 * e3
    if sq5 == 0.0 and sq3 == 0.0:
        return 0.0
    return abs(h) * sq5 / math.sqrt((sq5 + 0.01 * sq3) * len(y))


def _initial_step(rhs: Callable, t0: float, y0: tuple, f0: Sequence[float],
                  t_bound: float, direction: float,
                  rtol: float, atol: Sequence[float]) -> float:
    """Hairer's starting step (Solving ODEs I, II.4), costing one rhs call."""
    interval = abs(t_bound - t0)
    scale = [tol + abs(u) * rtol for u, tol in zip(y0, atol)]
    d0 = _rms([u / s for u, s in zip(y0, scale)])
    d1 = _rms([a / s for a, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    y1 = tuple([u + h0 * direction * a for u, a in zip(y0, f0)])
    f1 = rhs(t0 + h0 * direction, y1)
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100 * h0, h1, interval)


def _interpolant(rhs: Callable, t_old: float, h: float, y_old: tuple,
                 y_new: tuple, stages: tuple, f_new: Sequence[float]
                 ) -> List[tuple]:
    """Coefficients of the 7th-order dense output on the step
    [t_old, t_old + h], at the cost of the three extra stages 14-16: one
    tuple (y_old, F0, ..., F6) per component, with F0 = y_new - y_old,
    F1 = h k1 - F0, F2 = 2 F0 - h (k1 + k13) and F3..F6 = h D K.  See
    _dense_poly for the polynomial.
    """
    k1, _, _, _, _, k6, k7, k8, k9, k10, k11, k12 = stages
    k13 = f_new
    k14 = rhs(t_old + _C14 * h, tuple([
        u + h * (_A14_1 * s1 + _A14_7 * s7 + _A14_8 * s8 + _A14_9 * s9
                 + _A14_10 * s10 + _A14_11 * s11 + _A14_12 * s12
                 + _A14_13 * s13)
        for u, s1, s7, s8, s9, s10, s11, s12, s13
        in zip(y_old, k1, k7, k8, k9, k10, k11, k12, k13)]))
    k15 = rhs(t_old + _C15 * h, tuple([
        u + h * (_A15_1 * s1 + _A15_6 * s6 + _A15_7 * s7 + _A15_8 * s8
                 + _A15_11 * s11 + _A15_12 * s12 + _A15_13 * s13
                 + _A15_14 * s14)
        for u, s1, s6, s7, s8, s11, s12, s13, s14
        in zip(y_old, k1, k6, k7, k8, k11, k12, k13, k14)]))
    k16 = rhs(t_old + _C16 * h, tuple([
        u + h * (_A16_1 * s1 + _A16_6 * s6 + _A16_7 * s7 + _A16_8 * s8
                 + _A16_9 * s9 + _A16_13 * s13 + _A16_14 * s14
                 + _A16_15 * s15)
        for u, s1, s6, s7, s8, s9, s13, s14, s15
        in zip(y_old, k1, k6, k7, k8, k9, k13, k14, k15)]))
    q = [(u, v - u, h * s1 - (v - u), 2.0 * (v - u) - h * (s1 + s13),
          h * (_D3_1 * s1 + _D3_6 * s6 + _D3_7 * s7 + _D3_8 * s8 + _D3_9 * s9
               + _D3_10 * s10 + _D3_11 * s11 + _D3_12 * s12 + _D3_13 * s13
               + _D3_14 * s14 + _D3_15 * s15 + _D3_16 * s16),
          h * (_D4_1 * s1 + _D4_6 * s6 + _D4_7 * s7 + _D4_8 * s8 + _D4_9 * s9
               + _D4_10 * s10 + _D4_11 * s11 + _D4_12 * s12 + _D4_13 * s13
               + _D4_14 * s14 + _D4_15 * s15 + _D4_16 * s16),
          h * (_D5_1 * s1 + _D5_6 * s6 + _D5_7 * s7 + _D5_8 * s8 + _D5_9 * s9
               + _D5_10 * s10 + _D5_11 * s11 + _D5_12 * s12 + _D5_13 * s13
               + _D5_14 * s14 + _D5_15 * s15 + _D5_16 * s16),
          h * (_D6_1 * s1 + _D6_6 * s6 + _D6_7 * s7 + _D6_8 * s8 + _D6_9 * s9
               + _D6_10 * s10 + _D6_11 * s11 + _D6_12 * s12 + _D6_13 * s13
               + _D6_14 * s14 + _D6_15 * s15 + _D6_16 * s16))
         for u, v, s1, s6, s7, s8, s9, s10, s11, s12, s13, s14, s15, s16
         in zip(y_old, y_new, k1, k6, k7, k8, k9, k10, k11, k12, k13, k14,
                k15, k16)]
    return q


def _dense_poly(x, q):
    """The dense-output polynomial at x = (t - t_old)/h, from the
    coefficients q = (y_old, F0, ..., F6) of one step:

        y_old + x (F0 + (1-x) (F1 + x (F2 + (1-x) (F3 + x (F4 + (1-x)
              (F5 + x F6)))))).

    The one definition of the interpolant.  On floats (event subsamples and
    bisection) it runs as plain float arithmetic; on numpy arrays (the
    batched samples, x broadcasting against each coefficient) it performs
    the same operations in the same order, so both give the same bits.
    """
    u, f0, f1, f2, f3, f4, f5, f6 = q
    return u + x * (f0 + (1.0 - x) * (f1 + x * (f2 + (1.0 - x) * (
        f3 + x * (f4 + (1.0 - x) * (f5 + x * f6))))))


def _dense_box(c: tuple) -> Tuple[float, float]:
    """Bounds (lo, hi) on the float values of _dense_poly(x, c) for x in
    [0, 1], c = (y_old, F0, ..., F6) one component's coefficients.

    With s = x (1-x) <= 1/4 the polynomial expands to

        y_old + x F0 + s F1 + s x F2 + s^2 F3 + s^2 x F4 + s^3 F5 + s^3 x F6,

    so it lies within B = (|F1| + |F2|)/4 + (|F3| + |F4|)/16 + (|F5| + |F6|)/64
    of y_old + x F0, which runs between y_old + min(0, F0) and
    y_old + max(0, F0).  The 17 rounded operations of the nested form err
    by at most about 17 ulp of |y_old| + |F0| + B; B is widened by
    1e-13 (|y_old| + |F0| + B), which covers that and the rounding of the
    bounds many times over, and by the smallest normal float, which covers
    underflow.  NaN coefficients give NaN bounds.
    """
    u, f0, f1, f2, f3, f4, f5, f6 = c
    b = (0.25 * (abs(f1) + abs(f2)) + 0.0625 * (abs(f3) + abs(f4))
         + 0.015625 * (abs(f5) + abs(f6)))
    b += 1e-13 * (abs(u) + abs(f0) + b) + sys.float_info.min
    return (u + (f0 if f0 < 0.0 else 0.0) - b,
            u + (f0 if f0 > 0.0 else 0.0) + b)


def _dense_states(q: List[tuple], t_old: float, h: float,
                  ts: Sequence[float]) -> List[tuple]:
    """States on the step's interpolant at the points ts, as tuples."""
    xs = [(t - t_old) / h for t in ts]
    return list(zip(*[[_dense_poly(x, c) for x in xs] for c in q]))


def _step_samples(start: float, dx: float, t_old: float, end: float,
                  direction: float) -> Tuple[np.ndarray, float]:
    """The uniform dense samples of the step from t_old to end.

    The grid runs start, start + dx, ... (dx signed) up to the last point
    before end by more than 1e-12 relative; the first point past that is
    returned as the next step's start.  Grid points within 1e-13 relative
    of t_old, or behind it, are dropped.  The points are the sequential sums
    of dx, formed by np.add.accumulate in one pass, bit for bit the sums of
    a loop `t += dx`.
    """
    lim = 1e-12 * max(1.0, abs(end))
    if direction * (end - start) <= lim:
        return np.empty(0), start
    n = int(direction * (end - start) / abs(dx)) + 2
    sums = np.empty(n)
    sums.fill(dx)
    sums[0] = start
    sums = np.add.accumulate(sums)
    while direction * (end - float(sums[-1])) > lim:  # rounding left it short
        if sums[-1] + dx == sums[-1]:
            raise ValueError(f"dense_dx is below the float spacing at "
                             f"t={sums[-1]}")
        more = np.empty(n)
        more.fill(dx)
        more[0] = sums[-1] + dx
        sums = np.concatenate((sums, np.add.accumulate(more)))
    # the sums are monotone, so the stop rule fails on a tail (the last sum
    # and rarely the one before) and the skip rule holds on a head (rarely
    # more than the first sum): both are found by scalar tests at the ends
    k = len(sums) - 1
    while direction * (end - float(sums[k - 1])) <= lim:
        k -= 1
    i = 0
    while i < k and not (direction * (float(sums[i]) - t_old)
                         > 1e-13 * max(1.0, abs(float(sums[i])))):
        i += 1
    return sums[i:k], float(sums[k])


def _with_samples(ts: List[float], ys: List[Sequence[float]],
                  blocks: List[tuple]) -> Tuple[np.ndarray, np.ndarray]:
    """The trajectory as arrays: the points ts, ys, with each block's dense
    samples inserted before the point ts[at].

    blocks holds (at, t_old, h, q, samples) per step with samples; all
    samples are evaluated on their step's interpolant in one numpy pass.
    """
    t, y = np.asarray(ts), np.asarray(ys)
    if not blocks:
        return t, y
    at, t_old, h, q, samples = zip(*blocks)
    sizes = [s.size for s in samples]
    step = np.repeat(np.arange(len(blocks)), sizes)
    samples = np.concatenate(samples)
    x = (samples - np.asarray(t_old)[step]) / np.asarray(h)[step]
    # coefficients as (8, samples, components), x broadcast over components
    coef = np.asarray(q)[step].transpose(2, 0, 1)
    where = np.repeat(at, sizes)
    return (np.insert(t, where, samples),
            np.insert(y, where, _dense_poly(x[:, None], coef), axis=0))


# --------------------------------------------------------------------------
# events
# --------------------------------------------------------------------------

def _crossing_ok(ev: Event, fa: float, fb: float) -> bool:
    # crossings out of an exact zero are skipped so trajectories starting on
    # an event surface do not retrigger it
    if fa == 0.0 or fa * fb > 0.0:
        return False
    rising = fb > fa
    if ev.direction > 0:
        return rising
    if ev.direction < 0:
        return not rising
    return True


def _bisect_event(fn: Callable, q: List[tuple], t_old: float, h: float,
                  ta: float, tb: float, fa: float) -> Tuple[float, tuple]:
    # fa has the sign to keep on the left; stop on |f| < EVENT_TOL.  The
    # points are read on the step's interpolant q from t_old over h.
    lo, hi, flo = ta, tb, fa
    width_tol = 1e-14 * max(1.0, abs(ta), abs(tb))
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        ym = _dense_states(q, t_old, h, (mid,))[0]
        fm = fn(mid, ym)
        if abs(fm) < EVENT_TOL or abs(hi - lo) < width_tol:
            return mid, ym
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return mid, _dense_states(q, t_old, h, (mid,))[0]


# --------------------------------------------------------------------------
# the integration loop
# --------------------------------------------------------------------------

def integrate(rhs: Callable, y0: Sequence[float], t_span: Tuple[float, float],
              events: Sequence[Event] = (),
              config: Optional[IntegratorConfig] = None) -> IntegrationResult:
    """Integrate y' = rhs(t, y) over t_span with event location.

    rhs gets a float t and the state y as a tuple of floats and returns a
    sequence of floats.  Returns the accepted-step trajectory (plus uniform
    dense samples when config.dense_dx is set), the located events in
    trajectory order, and the termination reason.  A terminal event
    truncates the trajectory at the event.  Raises MaxStepsExceeded /
    StepUnderflow / NonFiniteState with the partial trajectory attached.
    """
    cfg = config or IntegratorConfig()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t0 == t1:
        raise ValueError("empty integration span")
    y = tuple(np.asarray(y0, dtype=float).ravel().tolist())
    if not all(map(math.isfinite, y)):
        raise NonFiniteState("non-finite initial state")
    atol = np.broadcast_to(np.asarray(cfg.abs_tol, dtype=float),
                           (len(y),)).tolist()
    rtol = max(cfg.rel_tol, _MIN_REL_TOL)
    direction = 1.0 if t1 > t0 else -1.0
    toward = direction * math.inf

    f = rhs(t0, y)
    if cfg.first_step is None:
        h_abs = _initial_step(rhs, t0, y, f, t1, direction, rtol, atol)
    elif 0.0 < cfg.first_step <= abs(t1 - t0):
        h_abs = float(cfg.first_step)
    else:
        raise ValueError("first_step must be positive and within the span")

    t = t0
    ts: List[float] = [t0]
    ys: List[Sequence[float]] = [y]
    records: List[EventRecord] = []
    n_steps = n_rejected = 0
    # size and error norm (floored) of the last accepted step
    h_prev: Optional[float] = None
    err_prev = 0.0
    dense_dx = cfg.dense_dx * direction if cfg.dense_dx else None
    next_dense = t0 + dense_dx if dense_dx is not None else None
    # (at, t_old, h, q, abscissae) of each step's dense samples, evaluated
    # in one pass when the trajectory is returned
    blocks: List[tuple] = []
    # event values at the current point, reused as the left end of each step
    ev_vals = [ev.fn(t0, y) for ev in events]

    def result(reason: str) -> IntegrationResult:
        return IntegrationResult(*_with_samples(ts, ys, blocks), records,
                                 reason, n_steps, n_rejected)

    while direction * (t - t1) < 0.0:
        if n_steps >= MAX_STEPS:
            raise MaxStepsExceeded(f"exceeded {MAX_STEPS} steps",
                                   result("aborted"))
        n_steps += 1

        # --- one accepted step under the predictive step-size control ---
        min_step = 10.0 * abs(math.nextafter(t, toward) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepUnderflow("Required step size is less than spacing "
                                    "between numbers.", result("aborted"))
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0.0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            y_new, stages = _dp_step(rhs, t, y, f, h)
            error_norm = _error_norm(h, y, y_new, stages, atol, rtol)
            if error_norm < 1.0:
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
            n_rejected += 1
        factor = (_MAX_FACTOR if error_norm == 0.0 else
                  min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
        if h_prev is not None and error_norm > 0.0:
            # Gustafsson's predictive factor: a rising error, as on a
            # blow-up orbit or toward a non-smooth weight, shrinks the step
            # before it fails
            factor = max(_MIN_FACTOR, min(factor, (
                _SAFETY * (h_abs / h_prev)
                * (err_prev / error_norm ** 2) ** -_ERROR_EXPONENT)))
        h_prev, err_prev = h_abs, max(error_norm, _MIN_PREV_ERROR)
        if rejected:
            factor = min(1.0, factor)
        h_abs *= factor
        if not all(map(math.isfinite, y_new)):
            raise NonFiniteState(f"non-finite state at t={t_new}",
                                 result("aborted"))

        t_old, y_old = t, y
        t, y, f = t_new, y_new, rhs(t_new, y_new)
        if events or next_dense is not None:
            q = _interpolant(rhs, t_old, h, y_old, y_new, stages, f)

        # --- event detection: certificates on the interpolant's range
        # bounds first, subsampled dense output for the events they leave ---
        stop_t: Optional[float] = None
        step_hits: List[EventRecord] = []
        if events:
            boxes = yy = None
            for k, ev in enumerate(events):
                fn = ev.fn
                if ev.one_sign is not None:
                    if boxes is None:
                        boxes = [_dense_box(c) for c in q]
                    if ev.one_sign(t_old, t_new, boxes):
                        ev_vals[k] = fn(t_new, y_new)
                        continue  # one strict sign: no crossing in this step
                if yy is None:
                    dt = h / EVENT_SAMPLES
                    tt = ([t_old + i * dt for i in range(EVENT_SAMPLES)]
                          + [t_new])
                    yy = _dense_states(q, t_old, h, tt[1:-1]) + [y_new]
                vals = [ev_vals[k]] + [fn(s, u) for s, u in zip(tt[1:], yy)]
                ev_vals[k] = vals[-1]
                if min(vals) > 0.0 or max(vals) < 0.0:
                    continue  # one strict sign: no crossing in this step
                for i in range(EVENT_SAMPLES):
                    if not _crossing_ok(ev, vals[i], vals[i + 1]):
                        continue
                    te, ye = _bisect_event(fn, q, t_old, h, tt[i],
                                           tt[i + 1], vals[i])
                    step_hits.append(EventRecord(ev.kind, te, np.array(ye),
                                                 ev.terminal))
            step_hits.sort(key=lambda r: direction * r.t)
            for rec in step_hits:
                if rec.terminal:
                    stop_t = rec.t
                    break

        kept = [r for r in step_hits
                if stop_t is None or direction * r.t <= direction * stop_t]
        end_t = stop_t if stop_t is not None else t_new

        # --- uniform dense samples up to end_t, recorded to go before the
        # point appended next ---
        if next_dense is not None:
            samples, next_dense = _step_samples(next_dense, dense_dx, t_old,
                                                end_t, direction)
            if samples.size:
                blocks.append((len(ts), t_old, h, q, samples))

        if stop_t is not None:
            term = next(r for r in kept if r.terminal and r.t == stop_t)
            records.extend(kept[: kept.index(term) + 1])
            ts.append(term.t)
            ys.append(term.y)
            return result("terminal_event")
        records.extend(kept)
        ts.append(t_new)
        ys.append(y_new)

    return result("completed")
