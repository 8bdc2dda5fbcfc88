"""Scenario-indexed simulation of ambiguous Brownian motion and controlled SDEs.

A volatility schedule picks one classical prior out of the ambiguity set:
piecewise-constant in time, each interval carrying one covariance matrix from
the set.  Under a fixed schedule the driving noise is ordinary Brownian motion
with increment covariance v(t) * dt, and controlled dynamics are integrated
with the Euler-Maruyama scheme.  Randomness comes from one counter-based
stream per path index, so enlarging the path count never reshuffles the paths
already drawn and every run is bit-reproducible from its seed.

All stepping goes through one walk, ``_euler_steps``, which advances the paths
of one schedule over the whole horizon from one root per segment and the
segment-step table of ``_segment_cuts``, reading each drift and diffusion as
numpy broadcasts it.  ``integrate_gsde`` and ``sample_gbm`` call it once; the
scenario search in ``estimators`` builds one table, which its screen sums
and each candidate schedule it walks steps.

Every piecewise-constant object (a ``VolSchedule``, an ``hjb.HjbProblem``, a
``merton.MarketModel``) keeps its segment rules here: ``_checked_starts``
validates the starts (time 0 first, strictly increasing), ``_segment_index``
picks the right-open segment in force at a time, and ``_starts_before`` drops
the segments that start at or after a horizon and so never apply.  A step of
a uniform time grid takes its segment from ``_step_intervals`` instead, which
allows its start 1e-12 * horizon of rounding: the Monte Carlo leg applies it
in ``_segment_cuts`` alone, and the levels of ``hjb``'s grid sweep and the
policy Monte Carlo's grid lookup apply it too, so the legs that step through
time agree on each step's segment.  Pointwise queries keep the exact rule.

``CsvTable`` is the one CSV layout: every CSV artifact (paths, grid
solutions and the three portfolio tables) is a header line plus blocks of
bytes %-template rows, any of which can be rendered on its own.
``table_csv_chunks`` and ``bundle_csv_chunks`` build their row templates
here; ``hjb.solution_csv_chunks`` builds the grid solution's.  The values go
through ``format_g17``, byte for byte Python's ``%.17g``: computed exactly
over whole float64 arrays where that writes fixed notation, from Dekker's
error-free product of each value and a power of ten, and by ``%`` itself
elsewhere, for a batch of consecutive blocks at a time.  The text stays
bytes from ``format_g17`` to the file.  ``write_csv`` is the one CSV
writer: it formats contiguous ranges of a table's blocks on the usable
CPUs, in forked workers, and joins their parts in order, so the bytes do
not depend on the CPU count.  The ``*_csv_chunks`` functions build the
tables (``bundle_csv_chunks``, ``hjb.solution_csv_chunks`` and the
portfolio tables in ``merton``); the ``*_csv_text`` renderers are their
joined text, decoded once.  ``_run_jobs`` is the one place that forks,
reaps and kills workers: for these ranges and for ``verify``'s two check
groups.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import pickle
import shutil
import signal
from bisect import bisect_right
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path
from typing import Callable, NoReturn, Sequence

import numpy as np

from .ambiguity import AmbiguitySet, as_symmetric, contains
from .errors import NumericError

def _checked_starts(starts, name: str) -> tuple[float, ...]:
    """``starts`` as floats; ValueError naming ``name`` unless they start at 0 and increase."""
    try:
        starts = tuple(float(s) for s in starts)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of times") from None
    if not starts or starts[0] != 0.0 or any(a >= b for a, b in zip(starts, starts[1:])):
        raise ValueError(f"{name} must start at time 0 and increase strictly")
    return starts


def _segment_index(starts: Sequence[float], t: float) -> int:
    """Index of the right-open segment in force at t; a time before 0 takes the first.

    ValueError for a NaN time, which bisection would place after every start.
    """
    if math.isnan(t):
        raise ValueError("no segment is in force at time nan")
    return max(bisect_right(starts, t) - 1, 0)


def _starts_before(starts: Sequence[float], horizon: float) -> tuple[float, ...]:
    """Starts of the segments that apply before ``horizon``; later ones never do."""
    return tuple(s for s in starts if s < horizon)


def _is_integer(n) -> bool:
    """True for an integer that is not a bool: a count or a seed."""
    return isinstance(n, Integral) and not isinstance(n, bool)


def _checked_seed(seed) -> int:
    """``seed`` as an int; ValueError unless it is an integer in [0, 2**64), a path stream key."""
    if not (_is_integer(seed) and 0 <= seed < 1 << 64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class VolSchedule:
    """Piecewise-constant covariance scenario on right-open intervals.

    ``breakpoints`` must start at 0.0 and increase strictly; ``values`` holds
    one symmetric read-only matrix per interval, the last interval extending
    to the end of any horizon.
    """

    breakpoints: tuple[float, ...]
    values: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        bps = _checked_starts(self.breakpoints, "breakpoints")
        mats = tuple(as_symmetric(v) for v in self.values)
        if len(mats) != len(bps):
            raise ValueError(
                f"need one covariance per interval: {len(bps)} breakpoints "
                f"but {len(mats)} values"
            )
        dims = {m.shape[0] for m in mats}
        if len(dims) != 1:
            raise ValueError("all schedule values must share one dimension")
        for m in mats:
            m.flags.writeable = False
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", mats)

    @classmethod
    def constant(cls, value) -> "VolSchedule":
        """Schedule holding one covariance for all time; scalars become 1x1."""
        return cls(breakpoints=(0.0,), values=(as_symmetric(value),))

    @property
    def dim(self) -> int:
        return self.values[0].shape[0]

    def value_at(self, t: float) -> np.ndarray:
        """Covariance in force at time t (right-open intervals), by the exact rule.

        A step of the Euler walk takes its covariance by ``_step_intervals``
        instead, which can name the next interval: at horizon 1 with 6 equal
        intervals and 12 steps, step 10's time 10/12 rounds just below the
        start 5/6, so ``value_at`` names interval 4 and the walk uses 5.
        """
        if t < 0.0:
            raise ValueError(f"schedule queried at negative time {t}")
        return self.values[_segment_index(self.breakpoints, t)]


@dataclass(frozen=True)
class PathConfig:
    """Discretization and sampling sizes for one Monte Carlo run."""

    n_steps: int
    horizon: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if not all(_is_integer(n) and n >= 1 for n in (self.n_steps, self.n_paths)):
            raise ValueError("n_steps and n_paths must be positive integers")
        if not 0.0 < self.horizon < np.inf:
            raise ValueError("horizon must be positive and finite")
        _checked_seed(self.seed)

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


@dataclass(frozen=True)
class SdeSpec:
    """Controlled diffusion in feedback form.

    When ``x`` has shape (n_paths, dim_state), ``drift(t, x, u)`` must
    broadcast to (n_paths, dim_state) and ``diffusion(t, x, u)`` to
    (n_paths, dim_state, dim_noise); plain numbers and constant arrays are
    fine.  Three shapes broadcasting would misread are taken by their leading
    axes instead: with one state, an (n_paths,) drift is a column; with one
    noise, an (n_paths, dim_state) diffusion is the one noise column, and with
    one state as well, so is an (n_paths,) diffusion.  Any other shape raises
    ValueError.  ``control(t, x)`` produces the feedback value handed to
    both; ``None`` means an uncontrolled system (the callables receive
    u=None).  Each row of ``x`` is one path and must be treated
    independently of the others, so that a path's bits do not depend on
    which other paths share the call.
    """

    dim_state: int
    dim_noise: int
    drift: Callable
    diffusion: Callable
    initial_state: np.ndarray
    control: Callable | None = None

    def __post_init__(self):
        dims = (self.dim_state, self.dim_noise)
        if not all(_is_integer(n) and n >= 1 for n in dims):
            raise ValueError(f"state and noise dimensions must be positive integers, got {dims}")
        x0 = np.atleast_1d(np.asarray(self.initial_state, dtype=float))
        if x0.shape != (self.dim_state,):
            raise ValueError(f"initial_state must have shape ({self.dim_state},), got {x0.shape}")
        object.__setattr__(self, "initial_state", x0)

    @classmethod
    def brownian(cls, dim: int) -> "SdeSpec":
        """Driftless unit diffusion from the origin: the state is the driving noise."""
        eye = np.eye(dim)
        return cls(dim_state=dim, dim_noise=dim, drift=lambda t, x, u: 0.0,
                   diffusion=lambda t, x, u: eye, initial_state=np.zeros(dim))


@dataclass(frozen=True)
class PathBundle:
    """Simulated paths: times (n_steps+1,), states (n_paths, n_steps+1, m)."""

    times: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]


def path_normals(seed: int, n_paths: int, n_steps: int, dim: int) -> np.ndarray:
    """Standard normal draws, one counter-based stream per path index.

    The stream for path p is keyed by (seed, p), so draws for a given path
    do not depend on how many other paths are requested.  ``seed`` must be an
    integer in [0, 2**64) and the counts positive integers (ValueError otherwise).
    """
    counts = (n_paths, n_steps, dim)
    if not all(_is_integer(n) and n >= 1 for n in counts):
        raise ValueError(f"n_paths, n_steps and dim must be positive integers, got {counts}")
    out = np.empty(counts)
    bits = np.random.Philox(key=_checked_seed(seed))
    gen = np.random.Generator(bits)
    # A fresh generator's state: counter 0, key [seed, 0], no buffered words.  Path p
    # restarts from it with key [seed, p], i.e. the 128-bit key (p << 64) | seed.
    state = bits.state
    key = state["state"]["key"]
    for p in range(n_paths):
        key[1] = p
        bits.state = state
        gen.standard_normal(out=out[p])
    return out


def _sqrt_psd(v: np.ndarray) -> np.ndarray:
    """Symmetric (spectral) square root; tiny negative eigenvalues clipped."""
    w, q = np.linalg.eigh(v)
    w = np.clip(w, 0.0, None)
    return (q * np.sqrt(w)) @ q.T


def _checked_roots_t(spec: SdeSpec, set_: AmbiguitySet,
                     values: Sequence[np.ndarray]) -> np.ndarray:
    """Transposed square roots of ``values``, shape (len(values), d, d).

    Each covariance must lie in the ambiguity set, and its dimension must
    match both the set and the noise of ``spec``.
    """
    dim = values[0].shape[0]
    if dim != set_.dim:
        raise ValueError(f"schedule dimension {dim} does not match ambiguity set dim {set_.dim}")
    for k, v in enumerate(values):
        if not contains(set_, v):
            raise ValueError(f"schedule value {k} lies outside the ambiguity set")
    if dim != spec.dim_noise:
        raise ValueError(f"noise dimension {spec.dim_noise} does not match schedule dim {dim}")
    return np.stack([_sqrt_psd(v).T for v in values])


def _step_intervals(starts: Sequence[float], times, horizon: float) -> np.ndarray:
    """Index of the segment in force on the step starting at each of ``times``.

    A step starting at t takes the last segment that starts at or before
    t + 1e-12 * horizon.  The slack absorbs rounding: a step time and a start
    such as horizon * j / n can round apart, and without it n equal segments
    of n * m steps would not each get m.
    """
    starts = np.asarray(starts, dtype=float) - 1e-12 * horizon
    return np.maximum(np.searchsorted(starts, times, side="right") - 1, 0)


def sample_gbm(set_: AmbiguitySet, schedule: VolSchedule, cfg: PathConfig) -> PathBundle:
    """Sample ambiguous Brownian motion under one volatility scenario.

    Paths start at zero; each increment is Gaussian with covariance
    v(t_k) * dt where v is the schedule value on [t_k, t_{k+1}).
    """
    return integrate_gsde(SdeSpec.brownian(set_.dim), set_, schedule, cfg)


def _segment_cuts(starts: Sequence[float], cfg: PathConfig) -> list[int]:
    """The segment-step table: the first Euler step of each segment, then ``cfg.n_steps``.

    Segment j takes the steps ``cuts[j]`` to ``cuts[j + 1] - 1``, those
    ``_step_intervals`` gives it, and none if no step starts in it.
    """
    times = np.linspace(0.0, cfg.horizon, cfg.n_steps + 1)[:-1]
    return np.searchsorted(_step_intervals(starts, times, cfg.horizon),
                           np.arange(len(starts) + 1)).tolist()


def _euler_steps(
    spec: SdeSpec,
    states: np.ndarray,
    roots_t: np.ndarray,
    cuts: Sequence[int],
    normals: np.ndarray,
    dt: float,
    candidate: int | None = None,
) -> None:
    """Euler-Maruyama steps of one schedule from ``states[0]``, written to ``states[1:]``.

    ``states`` is time-major, (n_steps+1, n_paths, m).  Segment j's steps,
    ``cuts[j]`` to ``cuts[j + 1] - 1`` of a table running from 0 to n_steps,
    are taken under the covariance whose transposed root is ``roots_t[j]``
    (d, d), step k on the draws ``normals[:, k]`` of ``normals`` (n_paths,
    n_steps, d).  Each drift and diffusion is used in the shape returned
    (``SdeSpec`` gives the rule), never copied to full shape: numpy
    broadcasts it, and the diffusion is contracted with the increments over
    any leading axes, by a plain product with one noise and by ``einsum``
    with more.  A non-finite state aborts with its path and step, and with
    ``candidate`` as the candidate schedule when given.
    """
    n, m = states.shape[1], states.shape[2]
    d = normals.shape[2]
    sqrt_dt = np.sqrt(dt)
    x = np.array(states[0])
    for k, root_t in enumerate(np.repeat(roots_t, np.diff(cuts), axis=0)):
        t_k = k * dt
        u = spec.control(t_k, x) if spec.control is not None else None
        f = np.asarray(spec.drift(t_k, x, u), dtype=float)
        g = np.asarray(spec.diffusion(t_k, x, u), dtype=float)
        if m == 1 and f.shape == (n,):
            f = f[:, None]
        if d == 1 and g.shape == (n, m):
            g = g[:, :, None]
        elif d == m == 1 and g.shape == (n,):
            g = g[:, None, None]
        elif g.ndim < 2:
            g = np.broadcast_to(g, (m, d))
        if g.shape[-1] not in (1, d):  # at d = 1, the product would read column 0 alone
            raise ValueError(f"diffusion of shape {g.shape} does not have {d} noise columns")
        # Plain products at d = 1, faster than @ and einsum and with their bits: verify's
        # policy Monte Carlo on desk (9 candidates x 2,000 paths x 200 steps) took
        # 104-110 ms with them and 123-134 ms with einsum (medians of 25, 2-CPU x86-64).
        if d == 1:
            dw = (sqrt_dt * normals[:, k, :]) * root_t
            noise = g[..., 0] * dw
            noise += 0.0  # turns a -0.0 product to +0.0, as einsum's sum from 0.0 does
        else:
            dw = (sqrt_dt * normals[:, k, :]) @ root_t
            noise = np.einsum("...md,...d->...m", g, dw)
        x = x + f * dt + noise
        if x.shape != (n, m):
            raise ValueError(f"drift {f.shape} and diffusion {g.shape} do not broadcast "
                             f"to states of shape {(n, m)}")
        if not np.isfinite(x).all():
            path = int(np.argwhere(~np.isfinite(x))[0, 0])
            where = "" if candidate is None else f" under candidate schedule {candidate}"
            raise NumericError(
                f"non-finite state on path {path} at step {k + 1} "
                f"(t={t_k + dt:.6g}){where}; check drift/diffusion growth"
            )
        states[k + 1] = x


def integrate_gsde(
    spec: SdeSpec,
    set_: AmbiguitySet,
    schedule: VolSchedule,
    cfg: PathConfig,
) -> PathBundle:
    """Euler-Maruyama integration of a controlled SDE under one scenario.

    x_{k+1} = x_k + drift(t_k, x_k, u_k) dt + diffusion(t_k, x_k, u_k) dB_k,
    with u_k = control(t_k, x_k), the drift and diffusion of the shapes
    ``SdeSpec`` accepts.  A non-finite state aborts with the path and step
    where it first appeared.
    """
    roots_t = _checked_roots_t(spec, set_, schedule.values)
    normals = path_normals(cfg.seed, cfg.n_paths, cfg.n_steps, spec.dim_noise)
    states = np.empty((cfg.n_steps + 1, cfg.n_paths, spec.dim_state))
    states[0] = spec.initial_state
    _euler_steps(spec, states, roots_t, _segment_cuts(schedule.breakpoints, cfg), normals, cfg.dt)
    return PathBundle(times=np.linspace(0.0, cfg.horizon, cfg.n_steps + 1),
                      states=states.transpose(1, 0, 2))


_U64 = np.uint64
# format_g17's tables.  _TENS[k + 5] is the smallest double at or above 10**k,
# which for k = -5..20 is float(10**k), exact for k >= 0.  Of a row of three
# little-endian words, _BELOW[j, p] keeps the bytes of word j before the row's
# byte p, and _POINT[j, p] is a "." at byte p if that lies in word j.
_TENS = np.array([10.0 ** k for k in range(-5, 21)])
_BELOW = np.array([[(1 << 8 * min(max(p - 8 * j, 0), 8)) - 1 for p in range(25)]
                   for j in range(3)], dtype=_U64)
_POINT = np.array([[ord(".") << 8 * (p - 8 * j) if 0 <= p - 8 * j < 8 else 0 for p in range(25)]
                   for j in range(3)], dtype=_U64)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split ``a = hi + lo``, exact, into halves whose products are exact."""
    t = a * float(2 ** 27 + 1)
    hi = t - (t - a)
    return hi, a - hi


@functools.cache
def _groups4() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of each g < 10**4 as the bytes of one uint32, and their trailing
    zeros; built on first use, so a process that formats no array holds no tables."""
    fours = np.arange(10_000, dtype=np.uint16)
    digits = [(fours // 10 ** j % 10 + ord("0")).astype(np.uint8) for j in (3, 2, 1, 0)]
    zeros = sum((fours % 10 ** j == 0).astype(np.intp) for j in range(1, 5))
    return np.frombuffer(np.stack(digits, axis=1), np.uint32), zeros


# format_g17 works on at most this many values at a time, and CsvTable.chunks
# formats up to this many in one call: enough to spread numpy's cost per call,
# while the temporaries, about 120 bytes a value with the result, stay near
# 0.5 MB, so a streamed write holds little more than one batch of text.
FORMAT_SLICE = 4096
# Below this many values Python's % is faster: the arrays cost about 0.2 ms a
# call, and % about 0.5 us a value (2-CPU x86-64).  verify's own-stream checks on
# desk, whose csv_byte_stability renders 200 bundles of 3 paths, took 52-57 ms
# with this shortcut and 80-90 ms without it (medians of 25 runs, same bits).
MIN_ARRAY_VALUES = 400


def _g17_slice(v: np.ndarray) -> list:
    """``format_g17`` of a contiguous float64 array; each temporary is freed once read."""
    n = v.size
    c = np.abs(v)
    fixed = (c >= 1e-4) & (c < 1e17)
    # k = floor(log10 |v|), made exact by comparing with the powers of ten on either side.
    np.fmin(np.fmax(c, 1e-4, out=c), 1e17, out=c)  # finite and positive: log10 stays quiet
    k = np.floor(np.log10(c)).astype(np.intp)
    k += c >= _TENS[k + 6]
    k -= c < _TENS[k + 5]
    # D = round-half-even(|v| * 10**s) for s = 16 - k, 17 digits.  10**s is exact, and
    # p = fl(|v| * 10**s) lies in [10**16, 10**17], so p is an even integer and
    # |v| * 10**s = p + e exactly, e being Dekker's error-free product of the two
    # factors' splits.  numpy multiplies and adds in separate passes, never fused into
    # an FMA, which the split needs.  p even makes p + rint(e) round half to even.
    ten = _TENS[21 - np.minimum(np.maximum(k, -4), 16)]
    p = c * ten
    (ch, cl), (th, tl) = _split(c), _split(ten)
    e = cl * tl - (((p - ch * th) - cl * th) - ch * tl)
    del c, ten, ch, cl, th, tl
    d = p.astype(np.int64)
    d += np.rint(e).astype(np.int64)
    del p, e
    carry = d == 10 ** 17  # rounded up to the next power of ten
    d[carry] = 10 ** 16
    x = k + carry  # the %g exponent
    del k, carry
    fixed &= x <= 16
    x = np.minimum(np.maximum(x, -4), 16)
    # The digits as six 4-digit groups "0000" "000d" "dddd" x 4, so bytes 7..23 hold D.
    high = d // 10 ** 8
    low = d - high * 10 ** 8
    del d
    # a - a // 10**4 * 10**4 is faster than numpy's a % 10**4.
    head, first, tail = high // 10_000, high // 10 ** 8, low // 10_000
    groups = (first, head - first * 10_000, high - head * 10_000, tail, low - tail * 10_000)
    del high, low, head, first, tail
    digits4, zeros4 = _groups4()
    words = np.empty((n, 6), dtype=np.uint32)
    words[:, 0] = digits4[0]
    for j, group in enumerate(groups, 1):
        words[:, j] = digits4[group]
    zeros = zeros4[groups[1]]  # the trailing zeros of D, from the last group back
    for group in groups[2:]:
        zeros = np.where(group == 0, zeros + 4, zeros4[group])
    del groups
    words = words.view("<u8")
    # Shift each row left by `start` bytes, to its sign or first digit.  A minus
    # sign takes the place of a leading "0": 0x30 - 3 is "-".
    negative = np.signbit(v)
    start = 7 + np.minimum(x, 0) - negative
    left = (8 * start).astype(_U64)
    w0, w1, w2 = words[:, 0], words[:, 1], words[:, 2]
    shifted = ((w0 >> left | w1 << _U64(64) - left) - negative * _U64(3),
               w1 >> left | w2 << _U64(64) - left, w2 >> left)
    del words, w0, w1, w2, negative, left
    # Insert the point before output byte `point` and cut the row at `length`.
    point = 8 + x - start
    length = np.where(zeros < 16 - x, 8 + 17 - zeros - start, point)
    del x, start, zeros
    out = np.empty((n, 3), dtype="<u8")
    carried = _U64(0)
    for j, word in enumerate(shifted):
        below = _BELOW[j, point]
        above = word & ~below
        out[:, j] = ((word & below | above << _U64(8) | carried >> _U64(56) | _POINT[j, point])
                     & _BELOW[j, length])
        carried = above
    del shifted, point, length
    texts = out.view("S24").ravel().tolist()  # the NUL padding is dropped here
    for i in np.flatnonzero(~fixed).tolist():
        texts[i] = b"%.17g" % v[i]
    return texts


def format_g17(values) -> list[bytes]:
    """``[b"%.17g" % v for v in values]``, byte for byte, for any float64 values.

    Values whose ``%g`` exponent lies in -4..16, i.e. those ``%.17g`` writes
    in fixed notation, are converted exactly over whole arrays, their 17
    digits from an error-free float64 product.  The others (zeros,
    subnormals, infinities, NaNs and exponent notation) go through Python's
    ``%``, and so do inputs of fewer than ``MIN_ARRAY_VALUES`` values.  ``values`` is flattened; it is
    formatted ``FORMAT_SLICE`` values at a time.
    """
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if v.size < MIN_ARRAY_VALUES:
        return [b"%.17g" % x for x in v.tolist()]
    texts = []
    for lo in range(0, v.size, FORMAT_SLICE):
        texts += _g17_slice(v[lo:lo + FORMAT_SLICE])
    return texts


def _filled(blocks: list):
    """Bytes of each ``(lead, rows, values)`` block, all their values in one ``format_g17`` call."""
    if not blocks:
        return
    texts = format_g17(np.concatenate([values for _, _, values in blocks]))
    end = 0
    for lead, rows, values in blocks:
        begin, end = end, end + len(values)
        yield (lead + lead.join(rows)) % tuple(texts[begin:end])


# A range holds at least this many values: about 20 ms of formatting and
# writing, against 3-7 ms to fork and reap a worker from an 80 MB process
# (2-CPU x86-64).  Two ranges of 25,000 values took as long as one range of
# 50,000; two of 50,000 took 28-31 ms against one's 37-40 ms.  Smaller tables
# stay in-process.
MIN_RANGE_VALUES = 50_000


@dataclass(frozen=True)
class CsvTable:
    """A CSV artifact as random-access blocks: the ``header`` line, then ``n_blocks`` blocks.

    ``block(i)`` returns ``(lead, rows, values)``: ``rows`` are bytes
    %-template lines with one ``%s`` per value; each is prefixed by the bytes
    ``lead`` and the block is filled by one bytes ``%`` call with its values,
    a float64 array.  Every CSV artifact is rendered this way, in one number
    format: ``%.9f`` for times, rendered into the templates, and ``%.17g``
    (round-trip exact) for values, which ``format_g17`` writes.
    ``n_values``, the number of values in the table, sizes its split in
    ``write_csv``.  Iterating the table yields its UTF-8 text in bytes
    chunks, the header line first and then one chunk per block.
    """

    header: str
    n_blocks: int
    block: Callable[[int], tuple]
    n_values: int

    def chunks(self, start: int, stop: int):
        """Bytes of blocks ``start`` to ``stop - 1``, one chunk per block.

        The blocks are built on demand and formatted in batches: consecutive
        blocks, as many as hold at most ``FORMAT_SLICE`` values together (or
        one larger block), whose values go through one ``format_g17`` call.
        """
        batch, n = [], 0
        for i in range(start, stop):
            block = self.block(i)
            if batch and n + len(block[2]) > FORMAT_SLICE:
                yield from _filled(batch)
                batch, n = [], 0
            batch.append(block)
            n += len(block[2])
        yield from _filled(batch)

    def __iter__(self):
        yield self.header.encode() + b"\n"
        yield from self.chunks(0, self.n_blocks)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 without ``os.fork`` or ``os.sched_getaffinity``."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _range_count(table: CsvTable) -> int:
    """Ranges to split ``table`` into: one per usable CPU, at most one per block, and each of
    ``MIN_RANGE_VALUES`` values or more, since fewer do not repay forking a worker."""
    return max(1, min(_usable_cpus(), table.n_blocks, table.n_values // MIN_RANGE_VALUES))


def _worker(job: Callable[[], object], fd: int) -> NoReturn:
    """Body of a forked worker: send ``job``'s outcome, pickled, to the pipe ``fd`` and exit.

    The outcome is ``(True, result)``, or ``(False, exc)`` for the Exception
    it raised; any other BaseException sends nothing and exits with status 1.
    It never returns: ``os._exit`` skips the parent's exit handlers and the
    flushing of the stdio buffers it inherited.
    """
    code = 1
    try:
        try:
            outcome = pickle.dumps((True, job()))
        except Exception as exc:
            outcome = pickle.dumps((False, exc))
        with open(fd, "wb") as out:
            out.write(outcome)
        code = 0
    except BaseException as exc:
        with contextlib.suppress(BaseException):
            os.write(2, f"gctrl: worker failed: {exc!r}\n".encode())
    finally:
        os._exit(code)


def _run_jobs(jobs: list) -> list:
    """Results of ``jobs``, callables without arguments, in order; later jobs run in workers.

    Job 0 runs here.  Each later job runs in a forked worker when ``os.fork``
    exists and more than one CPU is usable; otherwise the jobs run here, in
    order.  A worker sends back its pickled result, or the Exception it
    raised, which is raised here with its type.  A worker that dies, or exits
    without sending anything, raises RuntimeError.  On any error, every
    worker still running is killed and reaped.  Job 0 runs before any
    worker's result is read, so its own error wins.
    """
    if len(jobs) == 1 or _usable_cpus() < 2:
        return [job() for job in jobs]
    running, pipes = [], []
    try:
        for job in jobs[1:]:
            read, write = os.pipe()
            pipes.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(job, write)
            finally:
                os.close(write)  # the worker never gets here
            running.append(pid)
        results = [jobs[0]()]
        for k, read in enumerate(pipes, 1):
            with open(read, "rb", closefd=False) as src:
                outcome = src.read()  # to the end first: a worker blocks on a full pipe
            code = os.waitstatus_to_exitcode(os.waitpid(running[0], 0)[1])
            del running[0]
            if code != 0 or not outcome:
                raise RuntimeError(f"worker for job {k} exited with status {code} "
                                   "without sending its result")
            ok, value = pickle.loads(outcome)
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        for pid in running:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        raise
    finally:
        for read in pipes:
            os.close(read)


def write_csv(path: Path, table: CsvTable) -> None:
    """Write ``table`` to ``path``, formatting contiguous ranges of its blocks on the usable CPUs.

    There is one range per usable CPU (``os.sched_getaffinity``), but each
    range holds at least ``MIN_RANGE_VALUES`` values, so a small table, one
    CPU or a platform without ``os.fork`` gives a single range written here.
    The ranges are ``_run_jobs``'s jobs: the parent writes the header and the
    first range to ``path``, a forked worker writes each later range to
    ``<path>.part<k>`` beside it, and the parent appends the parts in order,
    so the bytes do not depend on the number of ranges.  A worker's error is
    raised here with its type, and a worker that dies or exits without
    reporting raises RuntimeError; on any error the workers still running
    are killed and reaped.  The part files are always removed, ``path`` is
    left to the caller.
    """
    n = _range_count(table)
    bounds = [table.n_blocks * k // n for k in range(n + 1)]
    parts = [path.with_name(f"{path.name}.part{k}") for k in range(1, n)]

    def write_range(k: int) -> None:
        with open(parts[k - 1] if k else path, "wb") as fh:
            if k == 0:
                fh.write(table.header.encode() + b"\n")
            fh.writelines(table.chunks(bounds[k], bounds[k + 1]))

    try:
        _run_jobs([functools.partial(write_range, k) for k in range(n)])
        with open(path, "ab", buffering=0) as out:
            for part in parts:
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, out)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)


def _time_rows(times, m: int) -> list[bytes]:
    """Row templates ``<t>,%s,...`` with ``m`` value cells, one per time, ``t`` as ``%.9f``."""
    return [b"%.9f" % t + b",%s" * m + b"\n" for t in np.asarray(times, dtype=float).tolist()]


def table_csv_chunks(header: str, times, *columns) -> CsvTable:
    """CSV table of equal-length ``columns``, one block: row r is ``times[r]`` as ``%.9f``,
    then entry r of each column; with ``times`` None, the entries alone."""
    cells = np.column_stack(columns)
    n, m = cells.shape
    rows = _time_rows(times, m) if times is not None else [b",".join([b"%s"] * m) + b"\n"] * n
    values = cells.ravel()
    return CsvTable(header, 1, lambda i: (b"", rows, values), values.size)


def bundle_csv_chunks(bundle: PathBundle) -> CsvTable:
    """CSV export as a table of one block per path, its times formatted once for all paths."""
    states = bundle.states
    m = states.shape[2]
    rows = _time_rows(bundle.times, m)
    header = "path_id,time," + ",".join(f"state_{j}" for j in range(m))
    return CsvTable(header, len(states), lambda p: (b"%d," % p, rows, states[p].ravel()),
                    states.size)


def bundle_csv_text(bundle: PathBundle) -> str:
    """The joined text of ``bundle_csv_chunks(bundle)``."""
    return b"".join(bundle_csv_chunks(bundle)).decode()
