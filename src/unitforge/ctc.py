"""Exact CTC: a batched lattice loss with analytic gradient, its
log-space reference, collapse rules, greedy decoding, and a
path-enumeration brute-force oracle.

Blank id is 0. The loss consumes log-probabilities (callers apply
log_softmax). ``ctc_losses`` scores a batch of targets, each over a
span of rows of one packed log-prob tensor, as one tape node; targets
may share a span, as a preference pair's winner and loser do.
``ctc_loss`` is its one-sequence case.

Read backwards in time and in state, beta obeys alpha's recursion (stay,
step from s-1, skip from s-2, with the skips of the reversed target).
So one recursion carries alpha forward from the first frame in some
rows and beta back from the last frame in others.

``RescaledLattice`` runs it in probability space, padded to the batch's
longest T and S, over 2B lanes: the B alpha lanes, then the B reversed
beta lanes. Its tables are laid out ``[frame, state, lane]``, so a
frame's s, s-1 and s-2 rows, its emissions and its rescale each read
contiguous memory. Without gradients (``no_grad``, or inputs that need
none) only the alpha lanes run. Each lane is divided by its max over
states at every frame, and log_z is the sum of the logs of those maxima
plus the log of the final scaled mass (Rabiner, 1989, HMM scaling; the
CTC form of Graves et al., 2006). A max is exact and every other op is
elementwise within a lane, so a sequence's log_z and gradient are
bit-identical whatever its batch partners, and its alpha is the same
with or without beta lanes. A lane whose scale or final mass is zero,
subnormal or not finite (an emission near exp(-745), no path, non-finite
log-probs) is not trusted: its sequence goes through ``compute_lattice``.
A target with no path of nonzero probability is a ``DomainError``.

``compute_lattice`` is the log-space recursion, the one reference and
fallback, on a [2, S] state of one sequence. Each frame costs one set of
[2, S] log-space ops into preallocated buffers, with skips gated by an
additive 0/-inf mask; the elementwise ops run in the same order as in two
separate recursions, so alpha, beta and log_z are bit-identical to them.
Structurally unreachable cells of its tables hold the NEG_INF sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, product

import numpy as np

from . import tensor as T
from .errors import (ConfigurationError, ContractError, DomainError,
                     InfeasibleAlignmentError, OracleError, ShapeError)
from .tensor import NEG_INF, Tensor

BLANK = 0
TINY = np.finfo(np.float64).tiny  # below it a float64 loses precision


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


def _can_skip(ext: np.ndarray) -> np.ndarray:
    """Where the skip s-2 -> s is allowed: ext[s] is a label differing
    from ext[s-2]. States run along axis 0; a negative id pads a state
    past its target and allows no skip."""
    can = np.zeros(ext.shape, dtype=bool)
    can[2:] = (ext[2:] > BLANK) & (ext[2:] != ext[:-2])
    return can


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
    skip_mask = np.where(np.stack((_can_skip(ext), _can_skip(ext[::-1]))),
                         0.0, -np.inf)
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


def _posterior(lattice: AlignmentLattice, log_probs: np.ndarray) -> np.ndarray:
    """[T, S] occupation probability of each lattice state, emission
    counted once, from the log-space tables."""
    occ = (lattice.alpha + lattice.beta - log_probs[:, lattice.extended_target]
           - lattice.log_z)
    occ[lattice.alpha <= NEG_INF] = -np.inf
    occ[lattice.beta <= NEG_INF] = -np.inf
    return np.exp(occ)


class RescaledLattice:
    """The lattices of many sequences in one rescaled recursion (module
    docstring): ``log_z[i]`` for every sequence, and with ``beta`` the
    state posteriors through ``posterior(i)``. Targets must fit their
    frames (``min_frames``)."""

    def __init__(self, log_probs, targets, beta: bool):
        self.log_probs = log_probs
        self.units = targets
        self.ext = [extended_target(u) for u in targets]
        b = len(log_probs)
        lengths = np.array([lp.shape[0] for lp in log_probs])
        states = np.array([e.shape[0] for e in self.ext])
        t_max, s_max = int(lengths.max()), int(states.max())
        lanes = 2 * b if beta else b
        last = np.tile(lengths - 1, lanes // b)
        # gathered lane by lane, then laid out [frame, state, lane] in one
        # copy; a state past a lane's target emits 0, and padded frames
        # emit 1 so that a finished lane stays finite
        p = np.zeros((lanes, t_max, s_max))
        labels = np.full((lanes, s_max), -1)  # -1: past the lane's target
        for i, (lp, ext) in enumerate(zip(log_probs, self.ext)):
            t_len, s_len = lp.shape[0], ext.shape[0]
            q = p[i, :t_len, :s_len]
            np.exp(lp[:, ext], out=q)
            labels[i, :s_len] = ext
            if beta:
                p[b + i, :t_len, :s_len] = q[::-1, ::-1]
                labels[b + i, :s_len] = ext[::-1]
        p[np.arange(t_max) > last[:, None]] = 1.0
        emit = np.ascontiguousarray(p.transpose(1, 2, 0))
        skip = _can_skip(labels.T).astype(float)

        # two zero rows in front stand in for the s-1 / s-2 predecessors
        # of state 0; ``acc`` is a frame's mass before its emission, at
        # frame 0 a path's start in state 0 or 1
        lat = np.zeros((t_max if beta else 2, s_max + 2, lanes))
        acc = np.zeros((t_max if beta else 1, s_max, lanes))
        acc[0, :2] = 1.0
        skipped = np.empty((s_max, lanes))
        scale = np.empty((t_max, lanes))
        row = np.tile(states + 1, lanes // b)  # the final state's row
        ends = {int(t): np.flatnonzero(last == t) for t in np.unique(last)}
        z = np.empty(lanes)
        # views of each frame's states, and of their s-1 and s-2 rows
        stay, step, jump = lat[:, 2:], lat[:, 1:-1], lat[:, :-2]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for t in range(t_max):
                k, a = t % len(lat), acc[t % len(acc)]
                if t:
                    np.add(stay[k - 1], step[k - 1], out=a)
                    np.multiply(jump[k - 1], skip, out=skipped)
                    np.add(a, skipped, out=a)
                cur = stay[k]
                np.multiply(emit[t], a, out=cur)
                np.maximum.reduce(cur, axis=0, out=scale[t])
                np.divide(cur, scale[t], out=cur)
                if t in ends:
                    i = ends[t]
                    z[i] = lat[k, row[i], i] + lat[k, row[i] - 1, i]
            log_scale = np.cumsum(np.log(scale), axis=0)
            trusted = (np.isfinite(scale) & (scale >= TINY)) \
                | (np.arange(t_max)[:, None] > last)
            self.sound = trusted.all(axis=0) & (z >= TINY)
            self.log_z = log_scale[last[:b], np.arange(b)] + np.log(z[:b])
        self._fallback = {}
        for i in np.flatnonzero(~self.sound[:b]):
            self.log_z[i] = self._log_space(i).log_z
        self.lat, self.acc = lat, acc

    def _log_space(self, i) -> AlignmentLattice:
        if i not in self._fallback:
            self._fallback[i] = compute_lattice(self.log_probs[i], self.units[i])
        return self._fallback[i]

    def posterior(self, i) -> np.ndarray:
        """[T_i, S_i] occupation probability of each state of sequence i:
        its alpha times its reversed beta lane's mass before emission,
        normalised over the frame's states."""
        b = len(self.log_probs)
        t_len, s_len = self.log_probs[i].shape[0], self.ext[i].shape[0]
        if self.sound[i] and self.sound[b + i]:
            both = (self.lat[:t_len, 2:2 + s_len, i]
                    * self.acc[t_len - 1::-1, s_len - 1::-1, b + i])
            mass = both.sum(axis=1, keepdims=True)
            if (mass >= TINY).all():
                return both / mass
        return _posterior(self._log_space(i), self.log_probs[i])


def _ctc_node(log_probs: Tensor, targets, spans, shape) -> Tensor:
    """The losses of ``targets`` over their ``spans`` of ``log_probs`` as
    one ``ctc_loss`` tape node of ``shape``."""
    units = [_as_units(target) for target in targets]
    spans = [(int(a), int(b)) for a, b in spans]
    if not units:
        raise ContractError("ctc_losses: no sequences")
    rows = log_probs.data.shape[0]
    if len(spans) != len(units) or any(not 0 <= a <= b <= rows for a, b in spans):
        raise ShapeError(f"ctc_losses: {len(units)} targets over row spans "
                         f"{spans} of {rows} rows")
    for (a, b), u in zip(spans, units):
        t_len, need = b - a, min_frames(u)
        if t_len < need:
            raise InfeasibleAlignmentError(need, t_len)
        if t_len == 0:
            raise DomainError("ctc_loss: zero frames")
    lattice = RescaledLattice([log_probs.data[a:b] for a, b in spans], units,
                              beta=T.tracked(log_probs))
    no_path = np.flatnonzero(lattice.log_z == -np.inf)
    if no_path.size:
        i = no_path[0]
        raise DomainError(f"ctc_loss: sequence {i} (target {units[i]}) has "
                          f"no path of nonzero probability")
    out = Tensor(-lattice.log_z.reshape(shape))

    def bwd(g):
        g = np.reshape(g, -1)
        grad = np.zeros(log_probs.data.shape)
        for i, (a, b) in enumerate(spans):
            np.add.at(grad[a:b], (slice(None), lattice.ext[i]),
                      lattice.posterior(i) * -float(g[i]))
        return [(log_probs, grad)]

    return T.record_custom("ctc_loss", out, bwd, log_probs)


def ctc_losses(log_probs: Tensor, targets, spans) -> Tensor:
    """[B] -log sum over all alignments collapsing to ``targets[i]`` under
    rows ``spans[i] = (start, stop)`` of one packed ``log_probs``, as one
    tape node. Targets may share a span. The backward adds each target's
    lattice posterior into its rows of one gradient array."""
    targets = list(targets)
    return _ctc_node(log_probs, targets, spans, (len(targets),))


def ctc_loss(log_probs: Tensor, target) -> Tensor:
    """The scalar loss of one sequence over all rows of ``log_probs``."""
    return _ctc_node(log_probs, [target], [(0, log_probs.data.shape[0])], ())


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
