"""One-dimensional quadrature shared by all modules: the Gauss-Kronrod pair
G10/K21 on arrays.

Every integral of an analytic law is a sum of this one rule, under one
tolerance and one escalation policy.  ``levy`` lays the rule out on fixed
panels for a and G; ``integrate_scaled``, ``try_integrate`` and
``integrate_pieces`` lay it out adaptively for the law's constants (B, the
moments, the mass, the log tail, b_A, an odd part's big jumps) and for the
pieces of its N_inf.  An integrand maps a flat array of nodes to an array of
its real values, so each round of the adaptive rule is one call of it,
however many intervals it integrates.

The adaptive rule is globally adaptive, as QUADPACK's QAGS is (Piessens et
al., 1983), with the sum of a series in place of its extrapolation table:

- an end at infinity is mapped to (0, 1] by r = a / t, as QUADPACK's QAGI
  maps it; an interval from a <= 0 to infinity is cut at 1 first;
- an interval that ends at 0, or at infinity so mapped, starts as panels of
  ratio 2 toward that end, the last of them, [0, h], an end panel.  An end
  panel is the series of its _HALVES halves [h / 2^(k+1), h / 2^k]: its
  value is their sums plus the sum of the series that the two-term linear
  recurrence fitted to the last four continues, exact for a power of r and
  for a power times ln r, and its error the change from the series fitted
  to the first four;
- a series whose last two ratios are both >= 1 in magnitude, its panel sums
  not shrinking as they near the end, diverges: its interval fails at once
  with an infinite error, before the integrand is read nearer the end;
- each round bisects, all at once, the panels of largest error estimate
  (|K21 - G10|, an end panel's as above) in every interval whose estimates
  sum to more than tol max(scale, |value|).  Bisecting an end panel moves
  it one ratio nearer its end, down to 2^-_DEPTH of its interval.

An integrable singularity is resolved at 0 and at infinity only; inside an
interval a kink or a jump is bisected down to the tolerance.  An interval
fails when its value is not finite or its estimate exceeds _SLACK times its
tolerance.  No module of the package imports ``scipy.integrate``; QUADPACK
is a test oracle only.
"""

import numpy as np

from .errors import QuadratureFailure

__all__ = ["integrate_scaled", "try_integrate", "integrate_pieces"]

# the rule's estimate |K21 - G10| is conservative: a result is accepted when
# it lies within a small multiple of the requested tolerance
_SLACK = 50.0

# the Gauss-Kronrod pair G10/K21 on (-1, 1) (Piessens et al., QUADPACK, 1983,
# qk21; the digits of scipy.integrate._quad_vec): the 21 Kronrod nodes, whose
# odd-indexed ten are the Gauss nodes, and the weights of both rules
_GK_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0,
    -0.148874338981631210884826001129720, -0.294392862701460198131126603103866,
    -0.433395394129247190799265943165784, -0.562757134668604683339000099272694,
    -0.679409568299024406234327365114874, -0.780817726586416897063717578345042,
    -0.865063366688984510732096688423493, -0.930157491355708226001207180059508,
    -0.973906528517171720077964012084452, -0.995657163025808080735527280689003])
_K21_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821, 0.147739104901338491374841515972068,
    0.142775938577060080797094273138717, 0.134709217311473325928054001771707,
    0.123491976262065851077958109831074, 0.109387158802297641899210590325805,
    0.093125454583697605535065465083366, 0.075039674810919952767043140916190,
    0.054755896574351996031381300244580, 0.032558162307964727478818972459390,
    0.011694638867371874278064396062192])
_G10_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338, 0.295524224714752870173892994651338,
    0.269266719309996355091226921569469, 0.219086362515982043995534934228163,
    0.149451349150580593145776339657697, 0.066671344308688137593568809893332])

# an interval with an end at 0 or infinity starts as _LADDER panels of ratio 2
# toward it and its end panel; an end panel is bisected down to 2^-_DEPTH of
# its interval, and every interval is settled within _ROUNDS rounds
_LADDER, _DEPTH, _ROUNDS = 16, 200, 300
# an end panel is read as the series of this many halves
_HALVES = 5


def _gk_nodes(edges):
    """The K21 nodes, shape (..., pieces, 21), of each piece between
    consecutive edges along the last axis, and the pieces' half-lengths."""
    half = 0.5 * np.diff(edges, axis=-1)[..., None]
    return edges[..., :-1, None] + half * (1.0 + _GK_NODES), half[..., 0]


def _gk_sum(values, half):
    """The K21 integral of each piece from the values at its nodes, and its
    error estimate |K21 - G10|."""
    k21 = values @ _K21_WEIGHTS * half
    return k21, np.abs(k21 - values[..., 1::2] @ _G10_WEIGHTS * half)


def _gated(value, err, tol, what):
    """value, an array, unless it is not finite or its error estimate exceeds
    _SLACK tol max(1, |value|) somewhere: then QuadratureFailure."""
    bad = ~(np.isfinite(value) & (err <= _SLACK * tol * np.maximum(1.0, np.abs(value))))
    if np.any(bad):
        j = int(np.argmax(bad))
        raise QuadratureFailure(f"{what} reached error {err[j]!r} > tol {tol!r}: "
                                f"estimate {value[j]!r}", achieved_error=float(err[j]),
                                value=value[j])
    return value


def _panel_sums(g, lo, hi, m):
    """K21 and |K21 - G10| of g over each panel [lo, hi] of t, where the
    variable is r = m / t, with its Jacobian m / t^2, for m > 0 and r = t
    for m = 0: one call of g on every node."""
    t, half = _gk_nodes(np.stack([lo, hi], axis=-1))
    mapped = (m > 0.0)[:, None, None]
    mt = m[:, None, None] / t
    x = np.where(mapped, mt, t)
    values = np.broadcast_to(g(x.ravel()), (x.size,)).reshape(x.shape)
    k21, err = _gk_sum(values * np.where(mapped, mt / t, 1.0), half)
    return k21[:, 0], err[:, 0]


def _tail(p):
    """The sum of the series that continues p[0], ..., p[3], rows of p, past
    p[3] by the linear recurrence p[k+2] = c1 p[k+1] + c0 p[k] that they fit
    (NaN where a row is not finite): a sum of two geometric terms, or of one
    times a linear factor (a power of r times ln r), is continued exactly.
    Where one term fits, the fit is the least-norm one, which continues it
    alike."""
    finite = np.all(np.isfinite(p), axis=0)
    p = np.where(finite, p, 0.0)
    a = np.stack([np.stack([p[1], p[0]], axis=-1), np.stack([p[2], p[1]], axis=-1)],
                 axis=-2)
    c1, c0 = np.moveaxis(np.linalg.pinv(a, rcond=1e-10) @ p[2:4].T[..., None], 1, 0)[..., 0]
    return np.where(finite, (c1 * p[3] + c0 * (p[2] + p[3])) / (1.0 - c1 - c0), np.nan)


def _end_sums(p, errs):
    """An end panel [0, h]'s value and error from the sums p[k] over its
    halves [h / 2^(k+1), h / 2^k], k = 0 ... 4, and their errors: the five
    sums and the tail that continues the last four, with the change from the
    tail that continues the first four as its error; where the last two
    ratios are >= 1 in magnitude the series diverges, the error is infinite
    and the value the five sums."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = p.sum(axis=0) + _tail(p[1:])
        err = np.abs(value - p[:4].sum(axis=0) - _tail(p[:4])) + errs.sum(axis=0)
    last = np.abs(p[2:])
    diverged = (last[2] >= last[1]) & (last[1] >= last[0]) & (last[2] > 0.0)
    return (np.where(diverged, p.sum(axis=0), value), np.where(diverged, np.inf, err))


def _evaluate(g, panels, m):
    """(value, error) of each panel, in one call of g: a regular panel by the
    rule, an end panel by its halves."""
    lo, hi, end, piece = panels
    halves = 2.0 ** -np.arange(_HALVES + 1)[:, None] * hi[end]
    sums, errs = _panel_sums(
        g, np.concatenate([lo[~end], halves[1:].ravel()]),
        np.concatenate([hi[~end], halves[:-1].ravel()]),
        np.concatenate([m[piece[~end]], np.tile(m[piece[end]], _HALVES)]))
    k = np.count_nonzero(~end)
    val, err = np.empty(lo.size), np.empty(lo.size)
    val[~end], err[~end] = sums[:k], errs[:k]
    val[end], err[end] = _end_sums(sums[k:].reshape(_HALVES, -1),
                                   errs[k:].reshape(_HALVES, -1))
    return val, err


def _worst(own, err, active, excess):
    """The panels to bisect: in each active interval, the fewest panels of
    largest error whose errors sum to at least its excess."""
    idx = np.flatnonzero(active[own])
    order = idx[np.lexsort((-err[idx], own[idx]))]
    before = np.cumsum(err[order]) - err[order]
    first = np.ones(order.size, bool)
    first[1:] = own[order][1:] != own[order][:-1]
    base = np.maximum.accumulate(np.where(first, before, -np.inf))
    pick = np.zeros(own.size, bool)
    pick[order[before - base < excess[own[order]]]] = True
    return pick


def _adapt(g, a, b, tol, scale):
    """(value, error, failed) of int_a^b g for each pair of the arrays a
    (finite) and b > a (finite or inf), to tol max(scale, |value|) each."""
    n = a.size
    # the pieces: each interval, cut at 1 where it runs from a <= 0 to infinity
    cut = np.isinf(b) & (a <= 0.0)
    start = np.concatenate([a, np.ones(np.count_nonzero(cut))])
    stop = np.concatenate([np.where(cut, 1.0, b), b[cut]])
    group = np.concatenate([np.arange(n), np.flatnonzero(cut)])
    mapped = np.isinf(stop)
    ladder = mapped | (start == 0.0)
    m = np.where(mapped, start, 0.0)
    top = np.where(mapped, 1.0, stop)
    floor = top * 2.0 ** -_DEPTH
    rungs = top[ladder, None] * 2.0 ** -np.arange(_LADDER + 1)
    ends = np.flatnonzero(ladder)
    # (lo, hi, end, piece) of each panel, in t
    panels = (np.concatenate([start[~ladder], rungs[:, 1:].ravel(), np.zeros(ends.size)]),
              np.concatenate([stop[~ladder], rungs[:, :-1].ravel(), rungs[:, -1]]),
              np.repeat([False, False, True], [np.count_nonzero(~ladder),
                                               _LADDER * ends.size, ends.size]),
              np.concatenate([np.flatnonzero(~ladder), np.repeat(ends, _LADDER), ends]))
    val, err = _evaluate(g, panels, m)
    settled = np.zeros(n, bool)
    for _ in range(_ROUNDS):
        lo, hi, end, piece = panels
        own = group[piece]
        value, total = np.bincount(own, val, n), np.bincount(own, err, n)
        target = tol * np.maximum(scale, np.abs(value))
        settled |= ~(np.isfinite(value) & np.isfinite(total) & (total > target))
        if settled.all():
            break
        pick = _worst(own, err, ~settled, np.where(settled, 0.0, total - 0.5 * target))
        # an end panel at its depth is not bisected, and its interval is settled
        deep = pick & end & (0.5 * hi < floor[piece])
        settled[own[deep]] = True
        pick &= ~deep
        keep, mid = ~pick, 0.5 * (lo + hi)
        # each picked panel's halves; the lower half of an end panel is its end
        new = (np.concatenate([lo[pick], mid[pick]]), np.concatenate([mid[pick], hi[pick]]),
               np.concatenate([end[pick], np.zeros(np.count_nonzero(pick), bool)]),
               np.tile(piece[pick], 2))
        new_val, new_err = _evaluate(g, new, m)
        panels = tuple(np.concatenate([x[keep], y]) for x, y in zip(panels, new))
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])
    own = group[panels[3]]
    value, total = np.bincount(own, val, n), np.bincount(own, err, n)
    failed = ~(np.isfinite(value)
               & (total <= _SLACK * tol * np.maximum(scale, np.abs(value))))
    return value, total, failed


def _failure(what, value, err, tol):
    value, err = float(value), float(err)
    reason = ("diverges: its panel sums do not shrink toward an end" if np.isinf(err)
              else f"reached error {err!r} > tol {tol!r}")
    return QuadratureFailure(f"{what} {reason}: estimate {value!r}", achieved_error=err,
                             value=value)


def integrate_scaled(g, interval, tol=1e-10):
    """int g over ``interval`` = (a, b), a finite and b > a finite or inf, with
    error <= tol max(1, |value|), by the adaptive rule; g maps a flat array of
    nodes to its values.

    Raises QuadratureFailure, carrying the achieved error and the estimate,
    when the rule cannot reach _SLACK times that tolerance or the integral
    diverges (achieved error inf).
    """
    a, b = interval
    return float(integrate_pieces(g, [a], [b], [1.0], tol)[0])


def try_integrate(g, interval, tol=1e-10):
    """Like integrate_scaled but returns (value, diverged) instead of
    raising, diverged True wherever integrate_scaled would raise.

    Used by validation routines where divergence is an expected, reportable
    outcome rather than an error.
    """
    a, b = interval
    value, _, failed = _adapt(g, np.array([a], float), np.array([b], float), tol, 1.0)
    return float(value[0]), bool(failed[0])


def integrate_pieces(g, a, b, scale, tol=1e-10):
    """int g over each interval (a[i], b[i]) of the arrays a and b, b[i] > a[i]
    finite or inf, with error <= tol max(scale[i], |value|), all in one rule;
    raises QuadratureFailure as ``integrate_scaled`` does if any fails."""
    value, err, failed = _adapt(g, np.asarray(a, float), np.asarray(b, float), tol,
                                np.asarray(scale, float))
    if np.any(failed):
        j = int(np.argmax(failed))
        raise _failure(f"quadrature on [{a[j]}, {b[j]}]", value[j], err[j], tol)
    return value
