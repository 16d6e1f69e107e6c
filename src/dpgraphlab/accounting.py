"""Node-level DP accounting: clipping, the Gaussian mechanism, and a
hypergeometric Renyi accountant with (epsilon, delta) conversion.

The accountant models one training step as follows: a batch of ``m``
subgraphs is drawn uniformly without replacement from ``N`` training
subgraphs, and any single node appears in at most ``T`` of those subgraphs
overall.  Conditioned on the node occurring in ``rho`` subgraphs of the
batch (hypergeometric in the worst case), removing it shifts the clipped
gradient sum by at most ``rho * Delta``, with ``Delta = 2C`` per subgraph:
the node's own root subgraph disappears, which moves the sum by at most C,
but a subgraph rooted elsewhere survives with the node cut out, and its
two clipped gradients, each in the C-ball, can lie up to 2C apart.  The
accountant works in units of Delta: training draws the noise with std
``sigma * Delta``, so the Gaussian mechanism pays Renyi cost
``alpha * rho**2 / (2 sigma**2)`` at order ``alpha``, and the logged
``sigma`` is this one.  The factor ``Delta / C`` has one home,
:data:`OCCURRENCE_SENSITIVITY`, and one use, the noise multiplier that
training passes to the clipped noisy mean of :func:`noisy_batch_gradient`
(which itself draws ``sigma * C``).  The per-step cost is the moment of
that mixture:

    eps(alpha) = log( sum_rho pmf(rho) * exp(alpha (alpha-1) rho^2 / (2 sigma^2)) ) / (alpha - 1)

which reduces exactly to the plain Gaussian mechanism when T=1 and m=N.
All orders of the grid are computed together, in one log-sum-exp over an
(orders x rho) matrix built from the T+1 hypergeometric log-pmfs.  The
log-pmfs and ``alpha (alpha-1) rho^2`` do not depend on sigma, so
:func:`calibrate_sigma` derives them once, and each bisection step
evaluates the cost with the one function that :func:`make_accountant` uses
and converts it to epsilon as :func:`compose_and_convert` does.  Each rule
the inputs meet is written once: a count is an integer of at least its
least value (``graphs._check_integer``), delta lies in (0, 1) with a
finite log(1/delta), the order grid is nonempty with every order above 1,
and max(m, T) <= N; the claim checks a given sigma against its epsilon
target itself.  The log-sum-exp is
plain numpy, in the form ``scipy.special.logsumexp`` takes from scipy 1.15
on: the row maximum ``a_max`` and its ``k`` ties are separated out, the
other terms are summed as ``s = sum exp(a - a_max) / k``, and the result is
``log1p(s) + log(k) + a_max`` (it matched scipy 1.17.1 bit for bit on
3,000 random accountant inputs).
The rule is conservative by construction; the anchors tested against it are
exact.  The empirical sensitivity audit backs the ``rho * C`` bound on the
clipped gradients of the subgraphs that hold a node, and a removal test the
``rho * Delta`` bound on the shift of a subgraph that survives without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import _check_integer, _check_number


class CalibrationError(Exception):
    """Raised when no noise multiplier in the search range meets the target epsilon."""


DEFAULT_ORDERS = np.concatenate([np.arange(1.25, 64.001, 0.25), np.arange(65.0, 513.0)])
SIGMA_LO, SIGMA_HI = 0.3, 1000.0  # noise-multiplier search range of calibrate_sigma
SIGMA_REL_TOL = 1e-3
# Delta / C: removing a node moves the clipped gradient of each batch
# subgraph that holds it by up to 2C (see the module docstring)
OCCURRENCE_SENSITIVITY = 2.0


@dataclass(frozen=True, kw_only=True)
class SubgraphSpec:
    """How a run samples, batches and clips, DP or not: C, K, r, T, m and steps.

    ``occurrence_bound`` defaults to ``max_degree * hops + 1`` (own subgraph
    plus at most ``max_degree`` appearances per hop level).
    """

    clip_norm: float = 1.0
    max_degree: int = 5
    hops: int = 2
    occurrence_bound: int | None = None
    batch_size: int = 64
    total_steps: int = 1000

    def __post_init__(self):
        _check_positive(self.clip_norm, "clip_norm")
        for name in ("max_degree", "hops", "batch_size"):
            _check_integer(getattr(self, name), name, 1)
        _check_integer(self.total_steps, "total_steps", 0)
        if self.occurrence_bound is not None:
            _check_integer(self.occurrence_bound, "occurrence_bound", 1)

    @property
    def effective_occurrence_bound(self) -> int:
        if self.occurrence_bound is not None:
            return self.occurrence_bound
        return self.max_degree * self.hops + 1


@dataclass(frozen=True)
class PrivacySpec(SubgraphSpec):
    """A :class:`SubgraphSpec` plus the privacy target; only epsilon and delta
    are positional.  ``noise_multiplier`` may be left None and solved for
    with :func:`calibrate_sigma`."""

    epsilon_target: float
    delta: float
    noise_multiplier: float | None = field(default=None, kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        _check_delta(self.delta)
        _check_positive(self.epsilon_target, "epsilon_target")
        if self.noise_multiplier is not None:
            _check_positive(self.noise_multiplier, "noise_multiplier", " when set")


def _check_positive(value: float, name: str, suffix: str = "") -> None:
    """Reject a value that is not a positive finite number, NaN included."""
    _check_number(value, name)
    if not value > 0:
        raise ValueError(f"{name} must be positive{suffix}")
    if not value < math.inf:
        raise ValueError(f"{name} must be finite")


def _check_delta(delta: float) -> None:
    """The claim's delta: a number in (0, 1) whose log(1/delta), which the
    conversion adds at every order, is finite."""
    _check_number(delta, "delta")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 1.0 / float(delta) < math.inf:
        raise ValueError(f"delta={delta!r} is too small: 1/delta overflows, so no epsilon "
                         f"is finite")


def clip(gradient: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale ``gradient`` down to l2 norm ``clip_norm`` if it exceeds it."""
    _check_positive(clip_norm, "clip_norm")
    return gradient * _clip_scale(np.linalg.norm(gradient), clip_norm)


def _clip_scale(norms: np.ndarray, clip_norm: float) -> np.ndarray:
    """The factor that clips a row of l2 norm ``norms[i]`` to ``clip_norm``:
    C / max(||g_i||, C), which has the bits of min(1, C / ||g_i||) at every
    norm, 0, inf and NaN included, in one ufunc fewer."""
    return clip_norm / np.maximum(norms, clip_norm)


def noisy_batch_gradient(gradients: np.ndarray, clip_norm: float, sigma: float,
                         seed) -> np.ndarray:
    """(Sum of the m clipped per-subgraph gradients + N(0, sigma^2 C^2 I)) / m.

    This draws its one noise row from ``seed`` and takes the mean of DP
    training's step, which draws each model's noise rows a window of steps
    at a time, at std (sigma * OCCURRENCE_SENSITIVITY) * C = sigma * 2C for
    the accountant's sigma.

    ``sigma == 0`` disables the noise (plain mean of clipped gradients);
    negative sigma is rejected.  ``seed`` may be an int or a Generator;
    a fixed seed gives a bit-identical noise vector.
    """
    gradients = np.atleast_2d(np.asarray(gradients, dtype=np.float64))
    if not sigma >= 0:
        raise ValueError("sigma must be nonnegative")
    if not sigma < math.inf:
        raise ValueError("sigma must be finite")
    _check_positive(clip_norm, "clip_norm")
    noise = None
    if sigma > 0:
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        noise = rng.normal(0.0, sigma * clip_norm, size=(1, gradients.shape[1]))
    return _noisy_batch_means(gradients[None], clip_norm, noise)[0]


def _noisy_batch_means(gradients: np.ndarray, clip_norm: float, noise: np.ndarray | None,
                       out: np.ndarray | None = None) -> np.ndarray:
    """:func:`noisy_batch_gradient` of each model of an (S, m, n) stack of
    per-subgraph gradients, into ``out`` (S, n): model s's clipped sum takes
    ``noise[s]``, a draw of its own stream at its std (None adds no noise),
    before the division by m.  The clipped sums are one (1, m) @ (m, n)
    product per model, the product of a one-model call, and the noise is one
    addition per element, so each row has that call's bits."""
    models, m, n = gradients.shape
    out = np.empty((models, n)) if out is None else out
    # the row-wise clip folded into each model's sum
    scale = _clip_scale(np.sqrt(np.vecdot(gradients, gradients)), clip_norm)
    np.matmul(scale[:, None, :], gradients, out=out[:, None, :])
    if noise is not None:
        out += noise
    out /= m
    return out


def _hyper_log_pmf(N: int, T: int, m: int, rho: int) -> float:
    """Exact-to-rounding log pmf via the T-bounded factorization

        pmf = C(T, rho) * prod_{i<rho}(m-i) * prod_{j<T-rho}(N-m-j) / prod_{k<T}(N-k)

    Every product has at most T factors, so the log accumulates only ~T ulps
    of error regardless of how large N and m are.
    """
    out = math.log(math.comb(T, rho))
    for i in range(rho):
        out += math.log(m - i)
    for j in range(T - rho):
        out += math.log(N - m - j)
    for k in range(T):
        out -= math.log(N - k)
    return out


def _check_sizes(T: int, m: int, N: int, error: type = ValueError, context: str = "") -> None:
    """The accountant's size rule, max(m, T) <= N.  A caller outside
    accounting raises its own ``error``, the message after its ``context``."""
    if max(m, T) > N:
        raise error(f"{context}T={T} and m={m} must not exceed N={N}")


def _sigma_free_terms(orders: np.ndarray, N: int, T: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The per-step cost's terms that do not depend on sigma: the log-pmfs of
    every feasible rho and the (orders x rho) matrix alpha (alpha-1) rho^2."""
    for value, name in ((T, "T"), (m, "m"), (N, "N")):
        _check_integer(value, name, 1)
    _check_sizes(T, m, N)  # so that at least one rho is feasible
    rhos = np.arange(max(0, m - (N - T)), min(T, m) + 1)
    log_pmf = np.array([_hyper_log_pmf(N, T, m, int(r)) for r in rhos])
    alpha = orders[:, None]
    r = rhos.astype(np.float64)
    return log_pmf, alpha * (alpha - 1.0) * r * r


def _step_costs(log_pmf: np.ndarray, quad: np.ndarray, orders: np.ndarray,
                sigma: float) -> np.ndarray:
    """The per-step cost at every order at noise multiplier ``sigma``, from
    the sigma-free terms: the formula of the module docstring, which
    :func:`make_accountant` and :func:`calibrate_sigma` both evaluate here.
    An order whose cost overflows costs +inf."""
    with np.errstate(over="ignore"):
        return _logsumexp_rows(log_pmf + quad / (2.0 * sigma * sigma)) / (orders - 1.0)


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) with the row maximum separated out (see the
    module docstring).  A row whose maximum is +inf gives +inf."""
    a_max = a.max(axis=1, keepdims=True)
    is_max = a == a_max
    ties = is_max.sum(axis=1, keepdims=True, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite maximum, masked below
        terms = np.exp(a - a_max)
    terms[is_max] = 0.0
    s = terms.sum(axis=1, keepdims=True) / ties
    return (np.log1p(s) + np.log(ties) + a_max)[:, 0]


def _check_orders(orders: np.ndarray) -> None:
    """The order grid's rule: nonempty, with every order above 1."""
    if orders.size == 0 or not np.all(orders > 1):
        raise ValueError(f"the order grid must be nonempty with every order above 1, "
                         f"not {orders.tolist()}")


@dataclass(frozen=True)
class AccountantState:
    """Per-order RDP cost of one step, on a fixed grid of orders."""

    orders: np.ndarray
    per_step_costs: np.ndarray

    def __post_init__(self):
        _check_orders(self.orders)
        if not np.all(self.per_step_costs >= 0):
            raise ValueError("RDP costs must be nonnegative")


def make_accountant(sigma: float, N: int, T: int, m: int,
                    orders: np.ndarray | None = None) -> AccountantState:
    """Per-step Renyi cost at every order of ``orders`` (default
    :data:`DEFAULT_ORDERS`; see the module docstring).  An order whose cost
    overflows costs +inf; a sigma so small that 2 sigma**2 underflows to 0,
    or that the cost overflows at every order, raises ValueError."""
    orders = DEFAULT_ORDERS if orders is None else np.asarray(orders, dtype=np.float64)
    _check_orders(orders)
    _check_positive(sigma, "sigma")
    log_pmf, quad = _sigma_free_terms(orders, N, T, m)
    if not 2.0 * sigma * sigma > 0:
        raise ValueError(f"sigma={sigma!r} is too small: 2 sigma**2 underflows to 0")
    costs = _step_costs(log_pmf, quad, orders, sigma)
    if not np.isfinite(costs).any():
        raise ValueError(f"sigma={sigma!r} is too small: the per-step cost overflows at "
                         f"every order")
    return AccountantState(orders=orders, per_step_costs=costs)


def _epsilon_over_orders(costs: np.ndarray, orders: np.ndarray, steps: int,
                         delta: float) -> np.ndarray:
    """Epsilon at ``delta`` per order: steps * cost(alpha) + log(1/delta)/(alpha-1)."""
    return steps * costs + np.log(1.0 / delta) / (orders - 1.0)


def compose_and_convert(state: AccountantState, steps: int, delta: float,
                        return_order: bool = False):
    """Total epsilon after ``steps`` compositions, converted at ``delta``.

    epsilon = min over orders of [steps * cost(alpha) + log(1/delta)/(alpha-1)].
    Zero steps spend zero epsilon by convention.  An epsilon that would not
    be finite raises ValueError naming its cause: a delta whose 1/delta
    overflows, or steps whose total overflows at every order.
    """
    _check_integer(steps, "steps", 0)
    _check_delta(delta)
    if steps == 0:
        return (0.0, None) if return_order else 0.0
    with np.errstate(over="ignore"):  # an order whose total overflows is +inf
        totals = _epsilon_over_orders(state.per_step_costs, state.orders, steps, delta)
    best = int(np.argmin(totals))
    eps = float(totals[best])
    if not eps < math.inf:
        raise ValueError(f"epsilon overflows at steps={steps}: the accountant's sigma is too "
                         f"small for this many steps")
    if return_order:
        return eps, float(state.orders[best])
    return eps


def calibrate_sigma(epsilon_target: float, delta: float, steps: int, N: int, T: int,
                    m: int) -> float:
    """Smallest noise multiplier in [SIGMA_LO, SIGMA_HI] meeting the epsilon target.

    Binary search on the monotone map sigma -> epsilon; the returned sigma
    satisfies epsilon(sigma) <= epsilon_target, with relative slack below
    ``SIGMA_REL_TOL`` against the infeasible side.
    """
    _check_positive(epsilon_target, "epsilon_target")
    _check_integer(steps, "steps", 0)
    _check_delta(delta)
    # the terms that sigma leaves alone; building them applies the size rule
    log_pmf, quad = _sigma_free_terms(DEFAULT_ORDERS, N, T, m)
    if steps == 0:
        return SIGMA_LO

    def eps_at(sig):
        costs = _step_costs(log_pmf, quad, DEFAULT_ORDERS, sig)
        return float(np.min(_epsilon_over_orders(costs, DEFAULT_ORDERS, steps, delta)))

    eps_hi = eps_at(SIGMA_HI)
    if eps_hi > epsilon_target:
        raise CalibrationError(
            f"epsilon target {epsilon_target} unreachable: even sigma={SIGMA_HI} "
            f"gives epsilon={eps_hi:.4g} over {steps} steps "
            f"(N={N}, T={T}, m={m}, delta={delta})"
        )
    if eps_at(SIGMA_LO) <= epsilon_target:
        return SIGMA_LO
    lo, hi = SIGMA_LO, SIGMA_HI
    while (hi - lo) > SIGMA_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if eps_at(mid) <= epsilon_target:
            hi = mid
        else:
            lo = mid
    return hi


def _privacy_claim(spec: SubgraphSpec, n_train: int, delta: float, sigma: float | None = None,
                   epsilon_target: float | None = None) -> tuple[dict, AccountantState]:
    """The DP claim of ``spec`` on ``n_train`` subgraphs: its record, at
    ``spec.total_steps``, and the accountant that training's log composes at
    each logged step.  ``sigma`` None is solved for at ``epsilon_target``; a
    given sigma is checked against a given ``epsilon_target``, and one that
    spends more raises CalibrationError."""
    T, m, steps = spec.effective_occurrence_bound, spec.batch_size, spec.total_steps
    if sigma is None:
        sigma = calibrate_sigma(epsilon_target, delta, steps, n_train, T, m)
    accountant = make_accountant(sigma, n_train, T, m)
    eps, order = compose_and_convert(accountant, steps, delta, return_order=True)
    if epsilon_target is not None and eps > epsilon_target * (1.0 + 1e-9):
        raise CalibrationError(f"epsilon budget infeasible: sigma={sigma} spends {eps:.4g} "
                               f"over {steps} steps, target {epsilon_target}")
    return {"epsilon_target": epsilon_target, "delta": delta, "sigma": sigma,
            "clip_norm": spec.clip_norm, "K": spec.max_degree, "T": T, "m": m, "steps": steps,
            "epsilon_spent": eps, "order_argmin": order}, accountant


def supremum_power(epsilon: float, delta: float, fpr):
    """Maximum TPR any membership test can reach at false-positive rate ``fpr``
    against an (epsilon, delta)-DP mechanism: min(1, exp(epsilon) * fpr + delta).

    The line is delta at fpr 0 and 1 once exp(epsilon) * fpr >= 1, also where
    exp(epsilon) overflows (epsilon above about 709).
    """
    if not 0 <= epsilon < math.inf:
        raise ValueError("epsilon must be finite and >= 0")
    if not 0 <= delta < 1:
        raise ValueError("delta must lie in [0, 1)")
    fpr_arr = np.asarray(fpr, dtype=np.float64)
    if not np.all((fpr_arr >= 0) & (fpr_arr <= 1)):
        raise ValueError("fpr must lie in [0, 1]")
    # an overflowed exp(epsilon) is inf, which gives 1 where fpr > 0 and NaN
    # (inf * 0) where fpr is 0, whose line is delta
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.minimum(1.0, np.exp(epsilon) * fpr_arr + delta)
    power = np.where(fpr_arr > 0, power, delta)
    if np.isscalar(fpr) or fpr_arr.ndim == 0:
        return float(power)
    return power


def recommend_delta(n_train: int) -> float:
    """Reporting-policy delta of 1 / (10 * n_train).

    Inferred rule: it reproduces the published per-dataset delta values to
    three significant figures under the train counts used here.
    """
    _check_integer(n_train, "n_train", 1)
    return 1.0 / (10.0 * n_train)
