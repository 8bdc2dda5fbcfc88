"""Scenario-indexed simulation of ambiguous Brownian motion and controlled SDEs.

A volatility schedule picks one classical prior out of the ambiguity set:
piecewise-constant in time, each interval carrying one covariance matrix from
the set.  Under a fixed schedule the driving noise is ordinary Brownian motion
with increment covariance v(t) * dt, and controlled dynamics are integrated
with the Euler-Maruyama scheme.  Randomness comes from one counter-based
stream per path index, so enlarging the path count never reshuffles the paths
already drawn and every run is bit-reproducible from its seed.

All stepping goes through one loop, ``_euler_steps``, which advances blocks of
rows stacked along the path axis over a run of steps, reading each drift and
diffusion as numpy broadcasts it.  ``integrate_gsde`` and ``sample_gbm`` call
it once over the whole horizon; the scenario search in ``estimators`` calls
it once per node of its schedule-prefix tree, over that node's segment only.

Every piecewise-constant object (a ``VolSchedule``, an ``hjb.HjbProblem``, a
``merton.MarketModel``) keeps its segment rules here: ``_checked_starts``
validates the starts (time 0 first, strictly increasing), ``_segment_index``
picks the right-open segment in force at a time, and ``_starts_before`` drops
the segments that start at or after a horizon and so never apply.

``CsvTable`` is the one CSV layout: every CSV artifact (paths, grid
solutions and the three portfolio tables) is a header line plus blocks of
%-template rows, any of which can be rendered on its own.  ``write_csv`` is
the one CSV writer: it formats contiguous ranges of a table's blocks on the
usable CPUs, in forked workers, and joins their parts in order, so the bytes
do not depend on the CPU count.  The ``*_csv_chunks`` functions build the
tables (``bundle_csv_chunks``, ``hjb.solution_csv_chunks`` and the
portfolio tables in ``merton``); the ``*_csv_text`` renderers are their
joined strings.  ``_run_jobs`` is the one place that forks, reaps and kills
workers: for these ranges, for ``verify``'s two check groups, and for the
contiguous ranges of candidates of the scenario search in ``estimators``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import shutil
import signal
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NoReturn, Sequence

import numpy as np

from .ambiguity import AmbiguitySet, as_symmetric, contains
from .errors import NumericError

_MASK64 = (1 << 64) - 1


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
    """Index of the right-open segment in force at t; a time before 0 takes the first."""
    return max(bisect_right(starts, t) - 1, 0)


def _starts_before(starts: Sequence[float], horizon: float) -> tuple[float, ...]:
    """Starts of the segments that apply before ``horizon``; later ones never do."""
    return tuple(s for s in starts if s < horizon)


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
        """Covariance in force at time t (right-open intervals)."""
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
        if self.n_steps < 1 or self.n_paths < 1:
            raise ValueError("n_steps and n_paths must be positive")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")

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
    independently of the others: the scenario search stacks the paths of
    several schedules into one array.
    """

    dim_state: int
    dim_noise: int
    drift: Callable
    diffusion: Callable
    initial_state: np.ndarray
    control: Callable | None = None

    def __post_init__(self):
        if self.dim_state < 1 or self.dim_noise < 1:
            raise ValueError("state and noise dimensions must be positive")
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
    do not depend on how many other paths are requested.
    """
    out = np.empty((n_paths, n_steps, dim))
    bits = np.random.Philox(key=int(seed) & _MASK64)
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


def _step_intervals(breakpoints: Sequence[float], cfg: PathConfig) -> np.ndarray:
    """Index of the schedule interval in force on each step [t_k, t_{k+1})."""
    return np.array([_segment_index(breakpoints, k * cfg.dt) for k in range(cfg.n_steps)])


def sample_gbm(set_: AmbiguitySet, schedule: VolSchedule, cfg: PathConfig) -> PathBundle:
    """Sample ambiguous Brownian motion under one volatility scenario.

    Paths start at zero; each increment is Gaussian with covariance
    v(t_k) * dt where v is the schedule value on [t_k, t_{k+1}).
    """
    return integrate_gsde(SdeSpec.brownian(set_.dim), set_, schedule, cfg)


def _euler_steps(
    spec: SdeSpec,
    states: np.ndarray,
    roots_t: np.ndarray,
    normals: np.ndarray,
    first_step: int,
    dt: float,
    candidates: Sequence[int] | None = None,
) -> None:
    """Euler-Maruyama steps from ``states[0]``, written to ``states[1:]``.

    ``states`` is time-major, (len(roots_t)+1, C*n_paths, m): C blocks of
    n_paths rows, block j integrated under the covariance whose transposed
    root is ``roots_t[i, j]`` on global step ``first_step + i``.  Every block
    sees the same ``normals`` (n_paths, n_steps, d), i.e. common random
    numbers, and each row is computed independently of the others, so a row
    has the same bits whichever blocks share the call.  Each drift and
    diffusion is used in the shape returned (``SdeSpec`` gives the rule),
    never copied to full shape: numpy broadcasts it, and the diffusion is
    contracted with the increments over any leading axes, by a plain product
    with one noise and by ``einsum`` with more.  A non-finite
    state aborts with the path index within its block, and with
    ``candidates[j]`` as the block's candidate schedule when given.
    """
    n, d = normals.shape[0], normals.shape[2]
    rows, m = states.shape[1], states.shape[2]
    sqrt_dt = np.sqrt(dt)
    x = np.array(states[0])
    for i, root_t in enumerate(roots_t):
        k = first_step + i
        t_k = k * dt
        u = spec.control(t_k, x) if spec.control is not None else None
        f = np.asarray(spec.drift(t_k, x, u), dtype=float)
        g = np.asarray(spec.diffusion(t_k, x, u), dtype=float)
        if m == 1 and f.shape == (rows,):
            f = f[:, None]
        if d == 1 and g.shape == (rows, m):
            g = g[:, :, None]
        elif d == m == 1 and g.shape == (rows,):
            g = g[:, None, None]
        elif g.ndim < 2:
            g = np.broadcast_to(g, (m, d))
        if g.shape[-1] not in (1, d):  # at d = 1, the product would read column 0 alone
            raise ValueError(f"diffusion of shape {g.shape} does not have {d} noise columns")
        if d == 1:  # plain products, faster than @ and einsum and with their bits
            dw = ((sqrt_dt * normals[:, k, :]) * root_t).reshape(rows, 1)
            noise = g[..., 0] * dw
            noise += 0.0  # turns a -0.0 product to +0.0, as einsum's sum from 0.0 does
        else:
            dw = ((sqrt_dt * normals[:, k, :]) @ root_t).reshape(rows, d)
            noise = np.einsum("...md,...d->...m", g, dw)
        x = x + f * dt + noise
        if x.shape != (rows, m):
            raise ValueError(f"drift {f.shape} and diffusion {g.shape} do not broadcast "
                             f"to states of shape {(rows, m)}")
        if not np.isfinite(x).all():
            row = int(np.argwhere(~np.isfinite(x))[0, 0])
            where = ("" if candidates is None
                     else f" under candidate schedule {candidates[row // n]}")
            raise NumericError(
                f"non-finite state on path {row % n} at step {k + 1} "
                f"(t={t_k + dt:.6g}){where}; check drift/diffusion growth"
            )
        states[i + 1] = x


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
    steps_roots_t = roots_t[_step_intervals(schedule.breakpoints, cfg)][:, None]
    _euler_steps(spec, states, steps_roots_t, normals, 0, cfg.dt)
    times = np.linspace(0.0, cfg.horizon, cfg.n_steps + 1)
    return PathBundle(times=times, states=states.transpose(1, 0, 2))


# A range holds at least this many values: about 30 ms of formatting, against
# about 7 ms to fork and reap a worker from a 100 MB process (2-CPU x86-64).
# Smaller tables stay in-process.
MIN_RANGE_VALUES = 50_000


@dataclass(frozen=True)
class CsvTable:
    """A CSV artifact as random-access blocks: the ``header`` line, then ``n_blocks`` blocks.

    ``block(i)`` returns ``(lead, rows, values)``: ``rows`` are %-template
    lines; each is prefixed by ``lead`` and the block is filled by one ``%``
    call with ``values``.  Every CSV artifact is rendered this way, in one
    number format: ``%.9f`` for times and ``%.17g`` (which matches
    ``format(v, ".17g")``, round-trip exact) for values.  ``n_values``, the
    number of values in the table, sizes its split in ``write_csv``.
    Iterating the table yields its text in chunks, the header line first and
    then one chunk per block.
    """

    header: str
    n_blocks: int
    block: Callable[[int], tuple]
    n_values: int

    def chunks(self, start: int, stop: int):
        """Text of blocks ``start`` to ``stop - 1``, one chunk per block, each built on demand."""
        for i in range(start, stop):
            lead, rows, values = self.block(i)
            yield (lead + lead.join(rows)) % tuple(values)

    def __iter__(self):
        yield self.header + "\n"
        yield from self.chunks(0, self.n_blocks)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 without ``os.fork`` or ``os.sched_getaffinity``."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _split_count(n_items: int, work: int, min_work: int) -> int:
    """Contiguous ranges to split ``n_items`` items doing ``work`` in all into.

    One per usable CPU, but at most one per item, and each range does at
    least ``min_work``: less does not repay forking its worker.
    """
    return max(1, min(_usable_cpus(), n_items, work // min_work))


def _range_count(table: CsvTable) -> int:
    """Ranges to split ``table`` into: one per usable CPU, each of ``MIN_RANGE_VALUES`` or more."""
    return _split_count(table.n_blocks, table.n_values, MIN_RANGE_VALUES)


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


def _append(part: Path, out) -> None:
    """Append the file ``part`` to ``out``, an unbuffered binary file positioned at its end."""
    with open(part, "rb") as src:
        with contextlib.suppress(AttributeError, OSError):  # no copy_file_range for these files
            while os.copy_file_range(src.fileno(), out.fileno(), 1 << 30):
                pass
        shutil.copyfileobj(src, out)  # whatever copy_file_range left


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
        with open(parts[k - 1] if k else path, "w", encoding="utf-8", newline="\n") as fh:
            if k == 0:
                fh.write(table.header + "\n")
            fh.writelines(table.chunks(bounds[k], bounds[k + 1]))

    try:
        _run_jobs([functools.partial(write_range, k) for k in range(n)])
        with open(path, "r+b", buffering=0) as out:
            out.seek(0, os.SEEK_END)
            for part in parts:
                _append(part, out)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)


def table_csv_chunks(header: str, row: str, *columns) -> CsvTable:
    """CSV table of equal-length ``columns``: one block, the ``row`` template once per entry."""
    values = np.column_stack(columns).ravel().tolist()
    rows = [row] * len(columns[0])
    return CsvTable(header, 1, lambda i: ("", rows, values), len(values))


def bundle_csv_chunks(bundle: PathBundle) -> CsvTable:
    """CSV export as a table of one block per path, its times formatted once for all paths."""
    states = bundle.states
    m = states.shape[2]
    time_rows = [f"{t:.9f}" + ",%.17g" * m + "\n" for t in bundle.times.tolist()]
    header = "path_id,time," + ",".join(f"state_{j}" for j in range(m))
    return CsvTable(header, len(states), lambda p: (f"{p},", time_rows, states[p].ravel().tolist()),
                    states.size)


def bundle_csv_text(bundle: PathBundle) -> str:
    """The joined text of ``bundle_csv_chunks(bundle)``."""
    return "".join(bundle_csv_chunks(bundle))
