"""Known answers for the equation, not only for the scheme: a manufactured
nonlinear solution through ``simulate``.

Pick X(t) = eta + v t^k and the Lipschitz map n(x) = (sin x_1, cos x_2), and
set the drift to b(t, x) = n(x) + F(t) with

    F = D^alpha X - A D^beta X - B X - n(X),  D^q t^k = Gamma(k+1)/Gamma(k+1-q) t^(k-q)

(the Caputo derivative of the constant eta is zero). With zero diffusion, the
one path of each scheme must converge to X. The error is the max over the
grid of the max-norm error; the observed order between N and N' steps is
log(e_N / e_N') / log(N' / N).
"""

import math

import numpy as np
import pytest

from smtde.solvers import BrownianDriver, InitialState, ProblemSpec, simulate

from conftest import SEC6_A, SEC6_B, zero_fn

ALPHA, BETA = 0.75, 0.25
ETA = np.array([3.0, 5.0])
V = np.array([1.0, -0.5])
# observed orders measured 0.989-1.000 (em and mild, t^2 and t^alpha)
MIN_ORDER = 0.9


def nonlinearity(x):
    return np.stack([np.sin(x[0]), np.cos(x[1])])


def manufactured(k: float):
    """The problem whose solution is X(t) = ETA + V t^k on [0, 1], and X."""
    def exact(t):
        return ETA + np.multiply.outer(np.power(t, k), V)

    def caputo(q, t):
        return math.gamma(k + 1.0) / math.gamma(k + 1.0 - q) * t ** (k - q) * V

    def drift(t, x):
        forcing = (caputo(ALPHA, t) - SEC6_A @ caputo(BETA, t)
                   - SEC6_B @ exact(t) - nonlinearity(exact(t)))
        return nonlinearity(x) + forcing.reshape((-1,) + (1,) * (x.ndim - 1))

    p = ProblemSpec(alpha=ALPHA, beta=BETA, a_mat=SEC6_A, b_mat=SEC6_B,
                    drift=drift, diffusion=zero_fn, lip_b=1.0, lip_sigma=0.0,
                    horizon=1.0, dim=2)
    return p, exact


def max_error(k: float, scheme: str, n_steps: int) -> tuple[float, float]:
    """The scheme's max error against X on n_steps steps, and max |X|."""
    p, exact = manufactured(k)
    ens = simulate(p, InitialState(ETA), BrownianDriver(0, n_steps), 1, scheme)
    x = exact(p.grid(n_steps))
    return float(np.abs(ens.paths[:, :, 0] - x).max()), float(np.abs(x).max())


def observed_orders(k: float, scheme: str, steps: list[int]) -> list[float]:
    errors = [max_error(k, scheme, n)[0] for n in steps]
    return [math.log(e0 / e1) / math.log(n1 / n0)
            for e0, e1, n0, n1 in zip(errors, errors[1:], steps, steps[1:])]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n_steps", [64, 256, 1024])
def test_em_exact_on_t_to_the_alpha(n_steps):
    # em's two memory sums cancel on eta + v t^alpha by summation by parts of
    # its product weights, sum_j w_(a-b)(n-j) t_j^a = Gamma(a+1)/Gamma(a-b+1)
    # sum_j w_a(n-j) t_j^(a-b): measured at most 8e-15
    err, scale = max_error(ALPHA, "em", n_steps)
    assert err <= 1e-13 * scale


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scheme", ["em", "mild"])
def test_first_order_on_t_squared(scheme):
    # measured 0.989-0.997 (em) and 0.997-1.000 (mild) per doubling
    orders = observed_orders(2.0, scheme, [256, 512, 1024, 2048])
    assert min(orders) >= MIN_ORDER, orders


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mild_first_order_on_t_to_the_alpha():
    # measured errors 1.70e-2, 4.26e-3 and 1.06e-3: order 0.997-1.004
    orders = observed_orders(ALPHA, "mild", [64, 256, 1024])
    assert min(orders) >= MIN_ORDER, orders
