"""Flat sectioned key=value run configuration.

The format is one level deep: ``[section]`` headers followed by
``key = value`` lines; full-line comments start with ``#`` or ``;``.
Every key has a documented default, every parse error (an unknown section
or key, or a value that breaks a rule) names the offending line, and
emission is canonical so that parse -> emit -> parse is the identity.

The sections are the fields of ``RunConfig`` and the keys are the fields of
each section dataclass, parsed and emitted in field order.  A field's
annotation picks its codec (``_CODECS``), and a key with a fixed set of
choices carries them in its field metadata (``_one_of``).  Both legs read
one ``PAYOFFS`` table: ``solve-hjb`` takes ``solver.terminal`` at the grid
nodes, ``simulate`` the payoff ``FUNCTIONALS`` names at each path's end.

Market coefficients are piecewise constant: within a value, segments are
separated by commas, vector entries by spaces, and matrix rows by
semicolons (``gamma = 0.2 0; 0 0.3, 0.25 0; 0 0.3`` is two 2x2 segments);
an empty entry is an error.  The parser builds the ambiguity set and the
utility, which check their own rules; the market is built, and checked to
have ``ambiguity.d`` assets, only by ``merton`` and ``verify``, which read it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .ambiguity import AmbiguitySet
from .errors import ConfigError
from .hjb import Grid1D, HjbProblem, suggest_time_steps
from .merton import CrraUtility, MarketModel

# Named presets the flat config selects; a preset's config choices are its table keys.
# A payoff maps (states of shape (..., d), the preset's constant) to one value per state.
PAYOFFS = {
    "x_squared": lambda x, c: np.sum(x**2, axis=-1),
    "minus_x_squared": lambda x, c: -np.sum(x**2, axis=-1),
    "constant": lambda x, c: np.full(x.shape[:-1], c),
}
# simulate's path functionals, each named for the payoff it takes at a path's last state.
FUNCTIONALS = {"terminal_square": "x_squared", "neg_terminal_square": "minus_x_squared",
               "constant": "constant"}
# The seeds of simulation.seed and --seed: the path streams key on 64 bits of the seed.
SEEDS = range(2**64)

# Annotations of the market tuples; each picks its own codec (see _CODECS).
Floats = tuple[float, ...]
VecSegments = tuple[tuple[float, ...], ...]
MatSegments = tuple[tuple[tuple[float, ...], ...], ...]


def _one_of(default: str, choices) -> str:
    """A str field whose value must be one of ``choices``."""
    return field(default=default, metadata={"choices": tuple(choices)})


@dataclass(frozen=True)
class AmbiguityCfg:
    d: int = 1
    sigma_lo_sq: float = 0.25
    sigma_hi_sq: float = 1.0


@dataclass(frozen=True)
class MarketCfg:
    segment_starts: Floats = (0.0,)
    r: Floats = (0.02,)
    alpha: VecSegments = ((0.06,),)
    gamma: MatSegments = (((0.2,),),)


@dataclass(frozen=True)
class UtilityCfg:
    kappa: float = 2.0
    beta: float = 0.1


@dataclass(frozen=True)
class SolverCfg:
    problem: str = _one_of("g_heat", ("g_heat",))
    terminal: str = _one_of("x_squared", PAYOFFS)
    terminal_constant: float = 0.0
    x_min: float = -4.0
    x_max: float = 4.0
    n_x: int = 401
    n_t: int = 0  # 0 = the smallest explicit-stable count; fewer steps run implicit
    horizon: float = 1.0
    attitude: str = _one_of("upper", ("upper", "lower", "pessimist", "optimist"))
    direction: str = _one_of("minimize", ("minimize", "maximize"))
    n_pi: int = 41
    n_rho: int = 33
    debug_perturb_a: float = 0.0


@dataclass(frozen=True)
class SimulationCfg:
    n_paths: int = 2000
    n_steps: int = 200
    n_segments: int = 4
    n_grid: int = 5
    seed: int = 12345
    x0: float = 1.0
    functional: str = _one_of("terminal_square", FUNCTIONALS)
    functional_constant: float = 7.0


@dataclass(frozen=True)
class OutputCfg:
    directory: str = "out"
    prefix: str = "run"


@dataclass(frozen=True)
class RunConfig:
    ambiguity: AmbiguityCfg = AmbiguityCfg()
    market: MarketCfg = MarketCfg()
    utility: UtilityCfg = UtilityCfg()
    solver: SolverCfg = SolverCfg()
    simulation: SimulationCfg = SimulationCfg()
    output: OutputCfg = OutputCfg()

    def ambiguity_set(self) -> AmbiguitySet:
        a = self.ambiguity
        return _built(AmbiguitySet, a.d, a.sigma_lo_sq, a.sigma_hi_sq)

    def ambiguity_set_1d(self) -> AmbiguitySet:
        """The ambiguity set, for the commands whose solver is one-dimensional."""
        if self.ambiguity.d != 1:
            raise ConfigError("this command needs a 1-dimensional ambiguity set (ambiguity.d = 1)")
        return self.ambiguity_set()

    def grid(self, problem: HjbProblem) -> Grid1D:
        """The solver grid; n_t = 0 takes the smallest step count stable for ``problem``."""
        s = self.solver
        n_t = s.n_t if s.n_t > 0 else suggest_time_steps(problem, s.x_min, s.x_max, s.n_x)
        return Grid1D(x_min=s.x_min, x_max=s.x_max, n_x=s.n_x, n_t=n_t)

    def market_model(self) -> MarketModel:
        mk = self.market
        return _built(MarketModel, mk.segment_starts, mk.r, mk.alpha, mk.gamma)

    def crra(self) -> CrraUtility:
        return _built(CrraUtility, self.utility.kappa, self.utility.beta)


def _built(cls, *args):
    """``cls(*args)``, with the ValueError its constructor raises as a ConfigError."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_float(text: str, line: int) -> float:
    try:
        v = float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}", line) from exc
    if not (v == v and abs(v) != float("inf")):
        raise ConfigError(f"value must be finite, got {text!r}", line)
    return v


def _parse_int(text: str, line: int) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}", line) from exc


def _parse_nested(text: str, line: int, seps: tuple) -> tuple:
    """Split ``text`` by ``seps[0]``, each part by ``seps[1]`` and so on, into numbers."""
    def parse(part: str, level: int):
        if level == len(seps):
            return _parse_float(part.strip(), line)
        pieces = part.split(seps[level])
        if not pieces or not all(p.strip() for p in pieces):
            raise ConfigError(f"empty entry in {text!r}", line)
        return tuple(parse(p, level + 1) for p in pieces)

    return parse(text, 0)


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _fmt_nested(value, seps: tuple) -> str:
    if not seps:
        return _fmt_float(value)
    return (seps[0] or " ").join(_fmt_nested(v, seps[1:]) for v in value)


# Separators of each nesting level of the market values, outermost first; None means whitespace.
_FLOATS_SEPS, _VEC_SEPS, _MAT_SEPS = (",",), (",", None), (",", ";", None)


def _parse_mat_segments(text: str, line: int) -> tuple:
    """Matrix segments; each must be square."""
    segs = _parse_nested(text, line, _MAT_SEPS)
    if any(len(row) != len(seg) for seg in segs for row in seg):
        raise ConfigError("matrix segments must be square", line)
    return segs


# (parser, formatter) for each field annotation of the section dataclasses.
_CODECS = {
    int: (_parse_int, str),
    float: (_parse_float, _fmt_float),
    str: (lambda text, line: text, str),
    Floats: (partial(_parse_nested, seps=_FLOATS_SEPS), partial(_fmt_nested, seps=_FLOATS_SEPS)),
    VecSegments: (partial(_parse_nested, seps=_VEC_SEPS), partial(_fmt_nested, seps=_VEC_SEPS)),
    MatSegments: (_parse_mat_segments, partial(_fmt_nested, seps=_MAT_SEPS)),
}


def _schema() -> dict:
    """{section: (section type, {key: (parser, formatter, choices)})} in field order."""
    schema, section_types = {}, get_type_hints(RunConfig)
    for section in fields(RunConfig):
        section_type = section_types[section.name]
        hints = get_type_hints(section_type)
        schema[section.name] = (section_type, {
            f.name: (*_CODECS[hints[f.name]], f.metadata.get("choices"))
            for f in fields(section_type)
        })
    return schema


def parse_config_text(text: str) -> RunConfig:
    """Parse config text; unknown sections or keys are hard errors."""
    schema = _schema()
    raw: dict[str, dict[str, tuple]] = {name: {} for name in schema}
    headers: dict[str, int] = {}  # the first line of each [section]
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in schema:
                raise ConfigError(f"unknown section [{section}]", lineno)
            headers.setdefault(section, lineno)
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", lineno)
        if section is None:
            raise ConfigError("key outside any [section]", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in schema[section][1]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        if key in raw[section]:
            raise ConfigError(f"duplicate key {key!r} in section [{section}]", lineno)
        raw[section][key] = (value, lineno)

    sections = {}
    for name, (section_type, keys) in schema.items():
        values = {}
        for key, (parser, _fmt, choices) in keys.items():
            if key not in raw[name]:
                continue
            value, lineno = raw[name][key]
            if choices is not None and value not in choices:
                raise ConfigError(f"{key} must be one of {choices}, got {value!r}", lineno)
            values[key] = parser(value, lineno)
        sections[name] = section_type(**values)

    cfg = RunConfig(**sections)
    _validate(cfg, raw, headers)
    return cfg


def parse_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _validate(cfg: RunConfig, raw: dict, headers: dict) -> None:
    """Build the objects that check their own rules, then check the keys of the rest.

    A constructor's error reports the line of its [section] header, a key
    check's error the first line that sets one of the keys at fault.
    """
    for section, build in (("ambiguity", cfg.ambiguity_set), ("utility", cfg.crra)):
        try:
            build()
        except ConfigError as exc:
            raise ConfigError(str(exc), headers[section]) from exc

    def fail(message: str, section: str, *keys: str):
        raise ConfigError(message, min(raw[section][key][1] for key in keys if key in raw[section]))

    s, sim = cfg.solver, cfg.simulation
    if not s.x_min < s.x_max:
        fail("solver.x_min must be below solver.x_max", "solver", "x_min", "x_max")
    if s.n_x < 3:
        fail("solver.n_x must be at least 3", "solver", "n_x")
    if s.n_t < 0:
        fail("solver.n_t must be 0 (auto) or positive", "solver", "n_t")
    if not s.horizon > 0:
        fail("solver.horizon must be positive", "solver", "horizon")
    if small := [key for key in ("n_pi", "n_rho") if getattr(s, key) < 2]:
        fail("solver.n_pi and solver.n_rho must be at least 2", "solver", *small)
    if small := [key for key in ("n_paths", "n_steps", "n_segments", "n_grid")
                 if getattr(sim, key) < 1]:
        fail("simulation sizes must be positive", "simulation", *small)
    if sim.seed not in SEEDS:
        fail(f"simulation.seed must be in [0, 2**64), got {sim.seed}", "simulation", "seed")
    if not cfg.output.prefix:
        fail("output.prefix must be nonempty", "output", "prefix")
    if {os.sep, os.altsep} & set(cfg.output.prefix):
        fail(f"output.prefix must not contain a path separator, got {cfg.output.prefix!r}",
             "output", "prefix")
    for key in ("directory", "prefix"):
        if "\0" in (value := getattr(cfg.output, key)):
            fail(f"output.{key} must not contain a NUL byte, got {value!r}", "output", key)


def canonical_text(cfg: RunConfig) -> str:
    """Emit every key in field order; parse(canonical_text(cfg)) == cfg."""
    lines = []
    for name, (_type, keys) in _schema().items():
        lines.append(f"[{name}]")
        section = getattr(cfg, name)
        for key, (_parser, fmt, _choices) in keys.items():
            lines.append(f"{key} = {fmt(getattr(section, key))}")
        lines.append("")
    return "\n".join(lines)


def hjb_attitude(name: str) -> str:
    """Map a config attitude to the solver's upper/lower vocabulary."""
    return "upper" if name in ("upper", "optimist") else "lower"


def merton_attitude(name: str) -> str:
    """Map a config attitude to the portfolio pessimist/optimist vocabulary."""
    return "optimist" if name in ("upper", "optimist") else "pessimist"
