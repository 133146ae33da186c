"""Exact CTC: lattice loss with analytic gradient, collapse rules,
greedy decoding, and a path-enumeration brute-force oracle.

Blank id is 0. The loss consumes log-probabilities (callers apply
log_softmax); the lattice is purely additive in log space. Structurally
unreachable lattice cells hold the NEG_INF sentinel.

Alpha and beta run as one recursion over T on a [2, S] state. Read
backwards in time and in state, beta obeys alpha's recursion (stay,
step from s-1, skip from s-2), so row 0 carries alpha forward from the
first frame while row 1 carries beta back from the last, and each frame
costs one set of [2, S] log-space ops into preallocated buffers. Skips
are gated by an additive 0/-inf mask, whose row 1 is the skip pattern of
the reversed target. The elementwise ops run in the same order as in
two separate recursions, so alpha, beta and log_z are bit-identical to
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, product

import numpy as np

from . import tensor as T
from .errors import (ConfigurationError, DomainError, InfeasibleAlignmentError,
                     OracleError)
from .tensor import NEG_INF, Tensor

BLANK = 0


@dataclass(frozen=True)
class UnitSequence:
    """Discrete speech-unit ids in [1, V); blank excluded."""

    units: tuple

    def __init__(self, units):
        units = tuple(int(u) for u in units)
        if any(u == BLANK for u in units):
            raise ConfigurationError("UnitSequence may not contain the blank id")
        if any(u < 0 for u in units):
            raise ConfigurationError("UnitSequence ids must be positive")
        object.__setattr__(self, "units", units)

    def __len__(self):
        return len(self.units)

    def __iter__(self):
        return iter(self.units)


def _as_units(target) -> tuple:
    if isinstance(target, UnitSequence):
        return target.units
    return UnitSequence(target).units


def collapse(alignment) -> UnitSequence:
    """Merge adjacent duplicates, then drop blanks."""
    return UnitSequence([u for u, _ in groupby(map(int, alignment)) if u != BLANK])


def min_frames(units: tuple) -> int:
    repeats = sum(1 for a, b in zip(units, units[1:]) if a == b)
    return len(units) + repeats


def extended_target(units: tuple) -> np.ndarray:
    ext = np.zeros(2 * len(units) + 1, dtype=np.int64)
    ext[1::2] = units
    return ext


@dataclass
class AlignmentLattice:
    """Log-space forward/backward tables over the blank-extended target."""

    extended_target: np.ndarray
    alpha: np.ndarray  # [T, 2|y|+1], emission at t included
    beta: np.ndarray   # [T, 2|y|+1], emission at t included
    log_z: float


def _sanitize(table: np.ndarray) -> np.ndarray:
    out = table.copy()
    out[~np.isfinite(out)] = NEG_INF
    out[out < NEG_INF] = NEG_INF
    return out


def _skip_mask(ext: np.ndarray) -> np.ndarray:
    """0 where the skip s-2 -> s is allowed (ext[s] is a label differing
    from ext[s-2]), -inf where it is not."""
    mask = np.full(ext.shape[0], -np.inf)
    mask[2:][(ext[2:] != BLANK) & (ext[2:] != ext[:-2])] = 0.0
    return mask


def compute_lattice(log_probs: np.ndarray, target) -> AlignmentLattice:
    """Forward/backward DP; raises if the target cannot fit in T frames."""
    units = _as_units(target)
    t_len, _ = log_probs.shape
    need = min_frames(units)
    if t_len < need:
        raise InfeasibleAlignmentError(need, t_len)
    if t_len == 0:
        raise DomainError("compute_lattice: zero frames")

    ext = extended_target(units)
    s_len = ext.shape[0]
    emit = log_probs[:, ext]  # [T, S]

    # row 0 is alpha, row 1 is beta reversed in time and state, whose
    # skips follow the reversed target (module docstring). Two -inf pad
    # columns stand in for the missing s-1 / s-2 predecessors.
    skip_mask = np.stack((_skip_mask(ext), _skip_mask(ext[::-1])))
    emit2 = np.stack((emit, emit[::-1, ::-1]), axis=1)  # [T, 2, S]
    lat = np.full((t_len, 2, s_len + 2), -np.inf)
    lat[0, :, 2:4] = emit2[0, :, :2]
    acc = np.empty((2, s_len))
    skip = np.empty((2, s_len))
    for t in range(1, t_len):
        prev = lat[t - 1]
        np.logaddexp(prev[:, 2:], prev[:, 1:-1], out=acc)
        np.add(prev[:, :-2], skip_mask, out=skip)
        np.logaddexp(acc, skip, out=acc)
        np.add(emit2[t], acc, out=lat[t, :, 2:])
    alpha = lat[:, 0, 2:]
    beta = lat[::-1, 1, :1:-1]

    if s_len > 1:
        log_z = np.logaddexp(alpha[t_len - 1, s_len - 1], alpha[t_len - 1, s_len - 2])
    else:
        log_z = alpha[t_len - 1, s_len - 1]

    return AlignmentLattice(
        extended_target=ext,
        alpha=_sanitize(alpha),
        beta=_sanitize(beta),
        log_z=float(log_z),
    )


def ctc_loss(log_probs: Tensor, target) -> Tensor:
    """-log sum over all alignments collapsing to ``target``.

    Gradient w.r.t. ``log_probs`` uses the alpha*beta posterior.
    """
    units = _as_units(target)
    lp = log_probs.data
    lattice = compute_lattice(lp, units)
    out = Tensor(-lattice.log_z)

    ext = lattice.extended_target
    t_len, v = lp.shape

    def bwd(g):
        # through-probability of lattice state (t, s), emission counted once
        occ = lattice.alpha + lattice.beta - lp[:, ext] - lattice.log_z
        occ[lattice.alpha <= NEG_INF] = -np.inf
        occ[lattice.beta <= NEG_INF] = -np.inf
        post = np.exp(occ)
        grad = np.zeros((t_len, v))
        np.add.at(grad, (slice(None), ext), post)
        return [(log_probs, -float(np.asarray(g).reshape(())) * grad)]

    return T.record_custom("ctc_loss", out, bwd, log_probs)


# ---------------------------------------------------------------------------
# oracles and decoding


def _all_paths(t_len: int, v: int) -> np.ndarray:
    if v ** t_len > 10 ** 6:
        raise OracleError(f"brute force too large: {v}^{t_len} paths")
    return np.array(list(product(range(v), repeat=t_len)), dtype=np.int64)


def brute_force_marginals(log_probs: np.ndarray) -> dict:
    """Enumerate every alignment; returns {collapsed tuple: log P(y)}."""
    lp = np.asarray(log_probs, dtype=np.float64)
    t_len, v = lp.shape
    paths = _all_paths(t_len, v)
    scores = lp[np.arange(t_len), paths].sum(axis=1)
    marginals: dict[tuple, float] = {}
    for path, score in zip(paths, scores):
        key = collapse(path).units
        if key in marginals:
            marginals[key] = np.logaddexp(marginals[key], score)
        else:
            marginals[key] = float(score)
    return marginals


def ctc_brute_force(log_probs, target) -> float:
    """Negative log marginal by explicit path enumeration (V^T <= 1e6)."""
    units = _as_units(target)
    lp = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs)
    marginals = brute_force_marginals(lp)
    return -marginals.get(units, -np.inf)


def greedy_decode(log_probs):
    """Per-frame argmax alignment (exact best path); ties -> smaller id."""
    lp = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs)
    alignment = [int(i) for i in lp.argmax(axis=1)]
    return collapse(alignment), alignment
