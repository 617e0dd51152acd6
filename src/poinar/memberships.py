"""The membership step of a sweep: each series' cluster drawn from the
Dirichlet-process conditional, with the cluster rates integrated out."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .model import Hyperparams, ModelState, model_exposure
from .panel import CountPanel


@dataclass(frozen=True)
class SuffStats:
    """Sufficient statistics of the imputed innovations under a clustering.

    ``mass[l]`` is the seasonal mass a series multiplies its per-exposure
    rate by over the whole panel, e_l * Theta, with e the panel's
    ``model_exposure``. ``U[k]`` sums ``mass`` over cluster members.
    """

    S: np.ndarray           # (L,) per-series innovation totals
    B: np.ndarray           # (K,) per-cluster innovation totals
    n: np.ndarray           # (K,) cluster sizes
    U: np.ndarray           # (K,) per-cluster summed seasonal mass
    R: np.ndarray           # (T,) per-week innovation totals
    theta_total: float      # Theta = sum_t theta_{s(t)}
    mass: np.ndarray        # (L,) per-series seasonal mass

    @classmethod
    def from_state(cls, state: ModelState, panel: CountPanel) -> "SuffStats":
        if state.innovations is None:
            raise ValueError("state carries no innovations")
        eps = state.innovations
        theta_total = float(panel.month_weeks @ state.theta)
        mass = model_exposure(panel) * theta_total
        S = eps.sum(axis=1).astype(float)
        K = state.n_clusters
        B = np.bincount(state.z, weights=S, minlength=K)
        n = np.bincount(state.z, minlength=K)
        U = np.bincount(state.z, weights=mass, minlength=K)
        return cls(
            S=S, B=B, n=n.astype(np.int64), U=U,
            R=eps.sum(axis=0).astype(float),
            theta_total=theta_total, mass=mass,
        )


def log_innovation_total_marginal(s_total, mass, shape, rate):
    """Log marginal likelihood of an innovation total with its rate
    integrated out.

    log of  integral Poisson(s_total | lam * mass) Gamma(lam | shape, rate) dlam,
    a negative binomial. Vectorizes over any argument."""
    s_total = np.asarray(s_total, dtype=float)
    log_denom = np.log(np.asarray(rate) + mass)
    return (
        gammaln(s_total + shape) - gammaln(shape) - gammaln(s_total + 1.0)
        + shape * (np.log(rate) - log_denom)
        + s_total * (np.log(mass) - log_denom)
    )


def _relabel_by_first_appearance(z, *cluster_arrays):
    _, first = np.unique(z, return_index=True)
    old_order = np.argsort(first)  # old labels in order of first appearance
    perm = np.empty(old_order.shape[0], dtype=np.int64)
    perm[old_order] = np.arange(old_order.shape[0])
    return perm[z], tuple(arr[old_order] for arr in cluster_arrays)


# The most entries a ``LogGammaTable`` holds: 128 MiB of float64. A sweep's
# total innovation count is bounded by nothing but the panel, and no memory
# check counts the table, so a larger total is left to gammaln.
_LOG_GAMMA_ENTRIES = 2**24


class LogGammaTable:
    """``gammaln(gamma1 + N)`` for N = 0, 1, 2, ..., grown on demand.

    The membership weights read gammaln(shape_j + s) and gammaln(shape_j),
    with shape_j = B_j + gamma1 and integer totals B_j and s. Every float
    gamma1 is num / den with den a power of two; while N * den + num <=
    2^53, both B_j + gamma1 and (B_j + gamma1) + s are exact and equal
    gamma1 + N for N = B_j + s, so entry N is the value gammaln would
    compute. ``limit`` is the largest such N, capped so that the table holds
    at most ``_LOG_GAMMA_ENTRIES`` entries: the cap for a dyadic gamma1 such
    as 1.0, 0.5 or 3.0, and 0 for 0.3 or 1/3. A sweep whose total innovation
    count exceeds ``limit`` calls gammaln instead, which gives the table's
    values, so its draws are the same.
    """

    def __init__(self, gamma1: float):
        self.gamma1 = float(gamma1)
        num, den = self.gamma1.as_integer_ratio()
        self.limit = min((2**53 - num) // den, _LOG_GAMMA_ENTRIES - 1)
        self.values = np.empty(0)

    def covering(self, n: int, total: int) -> np.ndarray:
        """The table with entries 0..n at least (n <= ``total``): doubled
        when it grows, but to no more than ``total`` + 1 entries."""
        size = self.values.shape[0]
        if n >= size:
            new = np.arange(size, min(max(2 * size, n + 1), total + 1)) + self.gamma1
            self.values = np.concatenate((self.values, gammaln(new)))
        return self.values


# A sweep that starts with at most this many clusters visits its series over
# Python lists of the cluster terms (``_list_visits``), one with more over
# numpy rows (``_table_visits``). A list visit pays Python for each cluster,
# a table visit numpy's call overhead on about 15 arrays of K + 1 entries.
# On a 2-core AVX-512 Xeon, over 188 series held at K clusters, a visit took
# 5.5 / 5.9 / 6.9 / 9.0 / 10.7 / 12.9 / 19.9 us over lists and 10.7 to
# 11.8 us over rows at K = 2 / 4 / 8 / 16 / 24 / 32 / 64: they cross near 25.
_LIST_VISIT_CLUSTERS = 24


class _Visits(NamedTuple):
    """A membership sweep's visits and the per-series terms they read, as
    Python lists."""

    u: list           # each series' uniform, drawn up front
    s: list           # innovation totals S_l, as floats
    s_int: list       # and as ints
    mass: list        # seasonal masses m_l
    log_mass: list
    log_fact: list    # gammaln(S_l + 1)
    log_open: list    # log tau + the marginal of S_l in a new cluster
    log_count: list   # log n for n = 0..L
    total: int        # the sum of S, which bounds every B_j + S_l


def sample_memberships(
    state: ModelState,
    stats: SuffStats,
    hyper: Hyperparams,
    rng: np.random.Generator,
    *,
    log_gamma: LogGammaTable,
) -> tuple[np.ndarray, SuffStats]:
    """One full sweep of collapsed membership updates.

    Each series in turn, 0 to L - 1, is removed from its cluster and
    reassigned: a new cluster is opened with weight tau * p_0 and existing
    cluster j is joined with weight n_j * p_j, where the p's are the
    collapsed marginal likelihoods of the series' innovation total. Emptied
    clusters are removed and labels are canonicalized by first appearance,
    so the returned stats carry compacted B, n and U; the cluster rates must
    be re-instantiated afterwards.

    Each cluster keeps the parts of its marginal that do not depend on the
    visiting series; a visit refreshes them only for the clusters it
    touches. When every series has the same seasonal mass m (always at
    unit exposure), that includes the mass terms ``(log rate_j - log(rate_j +
    m)) * shape_j`` and ``log m - log(rate_j + m)``; otherwise they are
    recomputed at each visit. gammaln(shape_j + s) and gammaln(shape_j) are
    read from ``log_gamma``, the chain's table for ``hyper.gamma1``, while
    its ``limit`` covers the sweep's total. The terms of
    ``log_innovation_total_marginal`` are combined in its own order, so the
    draws are those of the plain per-visit formula.

    A sweep visits its series in one of two ways, which draw the same
    memberships bit for bit. A sweep that starts with at most
    ``_LIST_VISIT_CLUSTERS`` clusters, one mass for every series and a
    table that covers it keeps the cluster terms in Python lists and adds
    each weight's terms in Python floats (``_list_visits``): at a few
    clusters numpy's per-call cost exceeds the arithmetic. Any other sweep keeps
    them in preallocated numpy rows (``_table_visits``). Both take each
    visit's uniform from one ``rng.random`` call made up front, and
    exponentiate and sum the weights in numpy.
    """
    g1 = hyper.gamma1
    if log_gamma.gamma1 != g1:
        raise ValueError("the log-gamma table was built for another gamma1")
    S, mass = stats.S, stats.mass
    L = S.shape[0]
    s_int = S.astype(np.int64)
    with np.errstate(divide="ignore"):
        log_count = np.log(np.arange(L + 1.0))
    visits = _Visits(
        u=rng.random(L).tolist(),
        s=S.tolist(),
        s_int=s_int.tolist(),
        mass=mass.tolist(),
        log_mass=np.log(mass).tolist(),
        log_fact=gammaln(S + 1.0).tolist(),
        log_open=(np.log(state.tau)
                  + log_innovation_total_marginal(S, mass, g1, hyper.gamma2)).tolist(),
        log_count=log_count.tolist(),
        total=int(s_int.sum()),
    )
    exact = visits.total <= log_gamma.limit
    memo = L > 0 and bool(np.all(mass == mass[0]))  # one mass for every series
    if exact and memo and stats.n.shape[0] <= _LIST_VISIT_CLUSTERS:
        live, slots, B, n, U = _list_visits(visits, state.z, stats, hyper.gamma2, log_gamma)
    else:
        live, slots, B, n, U = _table_visits(visits, state.z, stats, hyper.gamma2, log_gamma,
                                             exact, memo)

    z, (B, n, U) = _relabel_by_first_appearance(
        np.searchsorted(live, slots), np.array(B, dtype=float), np.array(n, dtype=np.int64),
        np.array(U, dtype=float))
    new_stats = SuffStats(
        S=stats.S, B=B, n=n, U=U, R=stats.R,
        theta_total=stats.theta_total, mass=stats.mass,
    )
    return z, new_stats


# During a sweep each series holds its cluster's slot id rather than its
# label. A new cluster takes a fresh id, larger than every other, so the live
# ids stay sorted in the order of the clusters' rows, and a series finds its
# row by bisection. Removing an emptied cluster deletes its id and shifts the
# later clusters' rows down by one, which keeps their order and touches no
# series; the labels are computed once, at the end. Both visits return the
# live ids, every series' slot id and the clusters' B, n and U in row order.

def _list_visits(visits: _Visits, z: np.ndarray, stats: SuffStats, g2: float,
                 log_gamma: LogGammaTable):
    """``sample_memberships``'s visits over Python lists of the cluster
    terms, under one mass for every series and a log-gamma table that
    covers the sweep."""
    g1 = log_gamma.gamma1
    log_fact_s, log_open, log_count = visits.log_fact, visits.log_open, visits.log_count
    S, s_int, total = visits.s, visits.s_int, visits.total
    m, log_m = visits.mass[0], visits.log_mass[0]

    # each cluster's terms that do not depend on the visiting series, as
    # one tuple (log n_j, B_j, gammaln(shape_j), fixed_j, slope_j), computed
    # as the table visit computes them; B is kept in ints, which hold it
    # exactly
    n, U = stats.n.tolist(), stats.U.tolist()
    B = stats.B.astype(np.int64).tolist()
    top = max(B, default=0)  # at least the largest B_j
    lg = memoryview(log_gamma.covering(top, total))  # entries as Python floats
    size = len(lg)
    shape, rate = stats.B + g1, stats.U + g2
    log_denom = np.log(rate + m)
    terms = list(zip([log_count[n_j] for n_j in n], B, [lg[b] for b in B],
                     ((np.log(rate) - log_denom) * shape).tolist(),
                     (log_m - log_denom).tolist()))

    def refresh(k):
        b = B[k]
        rate_k = U[k] + g2
        denom = float(np.log(rate_k + m))
        terms[k] = (log_count[n[k]], b, lg[b], (float(np.log(rate_k)) - denom) * (b + g1),
                    log_m - denom)

    K = len(n)
    slots = z.tolist()  # each series' slot id, at first its label
    live = list(range(K))
    fresh = K
    for l, u in enumerate(visits.u):
        s, si = S[l], s_int[l]
        k = bisect_left(live, slots[l])
        U_k, kept = U[k], terms[k]
        n[k] -= 1
        B[k] -= si
        U[k] -= m
        if n[k] == 0:
            del n[k], B[k], U[k], live[k], terms[k]
            K -= 1
            k = -1
        else:
            refresh(k)
        need = min(top + si, total)  # no B_j + s exceeds the total
        if need >= size:
            lg = memoryview(log_gamma.covering(need, total))
            size = len(lg)

        # log n_j + log_innovation_total_marginal(s, m, shape_j, rate_j), in
        # the order the table visit adds its terms
        fact = log_fact_s[l]
        w = [log_n_j + ((((lg[b + si] - lgs) - fact) + f) + sl * s)
             for log_n_j, b, lgs, f, sl in terms]
        w.append(log_open[l])

        # the maximum, the shift and the running sums in Python floats are
        # the table visit's; exp and the total stay in numpy, since math.exp
        # can differ from numpy's vectorized exp in the last bit and numpy
        # sums pairwise
        top_w = max(w)
        w = np.array([w_j - top_w for w_j in w])
        np.exp(w, w)
        k_new = bisect_right(list(accumulate(w.tolist())), u * float(np.add.reduce(w)))
        if k_new == K:
            n.append(0)
            B.append(0)
            U.append(0.0)
            terms.append(None)
            live.append(fresh)
            fresh += 1
            K += 1
        slots[l] = live[k_new]
        n[k_new] += 1
        B[k_new] += si
        U[k_new] += m
        if B[k_new] > top:
            top = B[k_new]
        if k_new == k and U[k] == U_k:
            terms[k] = kept  # back in its cluster, whose n, B and U are as before
        else:
            refresh(k_new)
    return live, slots, B, n, U


def _table_visits(visits: _Visits, z: np.ndarray, stats: SuffStats, g2: float,
                  log_gamma: LogGammaTable, exact: bool, memo: bool):
    """``sample_memberships``'s visits over numpy rows of the cluster
    terms, with room for every series alone. The rows hold what a visit
    reads: the mass terms under one mass for every series (``memo``), else
    rate_j and log rate_j, which share their rows; gammaln(shape_j + s)
    comes from the log-gamma table when it covers the sweep (``exact``),
    else from gammaln."""
    g1 = log_gamma.gamma1
    log_fact_s, log_open, log_count = visits.log_fact, visits.log_open, visits.log_count
    S, s_int, mass, log_mass, total = (visits.s, visits.s_int, visits.mass, visits.log_mass,
                                       visits.total)
    L = len(S)
    K = stats.n.shape[0]

    # cluster quantities read one at a time live in lists, those read over
    # every cluster in rows
    n, B, U = stats.n.tolist(), stats.B.tolist(), stats.U.tolist()
    table = np.empty((5, L + 1))
    log_n, log_gamma_shape, shape, fixed, slope = table
    rate, log_rate = fixed, slope
    B_at = np.zeros(L + 1, dtype=np.int64)  # B as indices into the table
    log_n[:K] = np.take(log_count, stats.n)
    np.add(stats.B, g1, out=shape[:K])
    rate_0 = stats.U + g2
    top = int(stats.B.max(initial=0))  # at least the largest B_j
    if exact:
        lg = log_gamma.covering(top, total)
        B_at[:K] = stats.B
        lg.take(B_at[:K], out=log_gamma_shape[:K])
    else:
        gammaln(shape[:K], out=log_gamma_shape[:K])
    if memo:
        m, log_m = mass[0], log_mass[0]
        log_denom = np.log(rate_0 + m)
        np.subtract(np.log(rate_0), log_denom, out=fixed[:K])
        fixed[:K] *= shape[:K]
        np.subtract(log_m, log_denom, out=slope[:K])
    else:
        rate[:K] = rate_0
        np.log(rate_0, out=log_rate[:K])

    def refresh(k):
        shape[k] = shape_k = B[k] + g1
        log_n[k] = log_count[n[k]]
        if exact:
            B_at[k] = b = int(B[k])
            log_gamma_shape[k] = lg[b]
        else:
            log_gamma_shape[k] = gammaln(shape_k)
        rate_k = U[k] + g2
        if memo:
            denom = np.log(rate_k + m)
            fixed[k] = (np.log(rate_k) - denom) * shape_k
            slope[k] = log_m - denom
        else:
            rate[k] = rate_k
            log_rate[k] = np.log(rate_k)

    logw = np.empty(L + 1)
    cum = np.empty(L + 1)
    at = np.empty(L + 1, dtype=np.int64)
    scratch = np.empty((2, L + 1))

    def views(K):
        """The rows of the first K clusters, and K + 1 weights; rebuilt only
        when K changes."""
        return (B_at[:K], at[:K], logw[:K], log_gamma_shape[:K], fixed[:K], slope[:K],
                shape[:K], rate[:K], log_rate[:K], log_n[:K], scratch[0, :K],
                scratch[1, :K], logw[:K + 1], cum[:K + 1])

    # a visit's scalars, boxed: numpy takes a 0-d array operand faster than
    # a Python number, and computes the same values
    s_box, si_box, fact_box = np.empty(()), np.empty((), dtype=np.int64), np.empty(())
    m_box, log_m_box = np.empty(()), np.empty(())
    size = lg.shape[0] if exact else 0
    K_views = -1
    slots = z.tolist()  # each series' slot id, at first its label
    live = list(range(K))
    fresh = K
    for l, u in enumerate(visits.u):
        s, m_l, si = S[l], mass[l], s_int[l]
        k = bisect_left(live, slots[l])
        n[k] -= 1
        B[k] -= s
        U[k] -= m_l
        if n[k] == 0:
            del n[k], B[k], U[k], live[k]
            table[:, k:K - 1] = table[:, k + 1:K]
            if exact:
                B_at[k:K - 1] = B_at[k + 1:K]
            K -= 1
        else:
            refresh(k)
        if K != K_views:
            (B_at_K, at_K, w, lgs_K, fixed_K, slope_K, shape_K, rate_K, log_rate_K, log_n_K,
             term, log_denom, w_all, c) = views(K)
            K_views = K

        # log n_j + log_innovation_total_marginal(s, m, shape_j, rate_j)
        s_box[()] = s
        fact_box[()] = log_fact_s[l]
        if exact:
            need = min(top + si, total)  # no B_j + s exceeds the total
            if need >= size:
                lg = log_gamma.covering(need, total)
                size = lg.shape[0]
            si_box[()] = si
            np.add(B_at_K, si_box, at_K)
            lg.take(at_K, 0, w, "clip")
        else:
            np.add(shape_K, s_box, w)
            gammaln(w, w)
        np.subtract(w, lgs_K, w)
        np.subtract(w, fact_box, w)
        if memo:
            np.add(w, fixed_K, w)
            np.multiply(slope_K, s_box, term)
        else:
            m_box[()], log_m_box[()] = m_l, log_mass[l]
            np.add(rate_K, m_box, log_denom)
            np.log(log_denom, log_denom)
            np.subtract(log_rate_K, log_denom, term)
            np.multiply(term, shape_K, term)
            np.add(w, term, w)
            np.subtract(log_m_box, log_denom, term)
            np.multiply(term, s_box, term)
        np.add(w, term, w)
        np.add(log_n_K, w, w)
        w_all[K] = log_open[l]

        # ufuncs and the searchsorted method, called directly: the Python
        # wrappers of max, sum, cumsum and np.searchsorted cost more than the
        # work at a few clusters, and compute the same values
        np.subtract(w_all, np.maximum.reduce(w_all), w_all)
        np.exp(w_all, w_all)
        np.add.accumulate(w_all, 0, None, c)
        k_new = int(c.searchsorted(u * np.add.reduce(w_all), "right"))
        if k_new == K:
            n.append(0)
            B.append(0.0)
            U.append(0.0)
            live.append(fresh)
            fresh += 1
            K += 1
        slots[l] = live[k_new]
        n[k_new] += 1
        B[k_new] += s
        U[k_new] += m_l
        if B[k_new] > top:
            top = int(B[k_new])
        refresh(k_new)
    return live, slots, B, n, U
