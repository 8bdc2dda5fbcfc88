"""Flat sectioned key=value run configuration.

The format is one level deep: ``[section]`` headers followed by
``key = value`` lines; full-line comments start with ``#`` or ``;``.
Every key has a documented default, unknown sections or keys are hard
errors with the offending line number, and emission is canonical so that
parse -> emit -> parse is the identity.

The sections are the fields of ``RunConfig`` and the keys are the fields of
each section dataclass, parsed and emitted in field order.  A field's
annotation picks its codec (``_CODECS``), and a key with a fixed set of
choices carries them in its field metadata (``_one_of``); the
``solver.terminal`` and ``simulation.functional`` choices are the keys of
the ``TERMINALS`` and ``FUNCTIONALS`` preset tables.

Market coefficients are piecewise constant: within a value, segments are
separated by commas, vector entries by spaces, and matrix rows by
semicolons (``gamma = 0.2 0; 0 0.3, 0.25 0; 0 0.3`` is two 2x2 segments);
an empty entry is an error.  The objects built from the config check their
own rules; ``merton`` and ``verify``, which read the market, check that it
has ``ambiguity.d`` assets.
"""

from __future__ import annotations

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
# A terminal cost maps (nodes, solver.terminal_constant) to values.
TERMINALS = {
    "x_squared": lambda x, c: x**2,
    "minus_x_squared": lambda x, c: -(x**2),
    "constant": lambda x, c: c + 0.0 * x,
}
# A path functional maps (bundle, simulation.functional_constant) to one value per path.
FUNCTIONALS = {
    "terminal_square": lambda bundle, c: np.sum(bundle.states[:, -1, :] ** 2, axis=1),
    "neg_terminal_square": lambda bundle, c: -np.sum(bundle.states[:, -1, :] ** 2, axis=1),
    "constant": lambda bundle, c: np.full(bundle.n_paths, c),
}

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
    terminal: str = _one_of("x_squared", TERMINALS)
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
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in schema:
                raise ConfigError(f"unknown section [{section}]", lineno)
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
    _validate(cfg)
    return cfg


def parse_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _validate(cfg: RunConfig) -> None:
    """Build the objects that check their own rules, then check the keys of the rest."""
    cfg.ambiguity_set()
    cfg.market_model()
    cfg.crra()
    s = cfg.solver
    if not s.x_min < s.x_max:
        raise ConfigError("solver.x_min must be below solver.x_max")
    if s.n_x < 3:
        raise ConfigError("solver.n_x must be at least 3")
    if s.n_t < 0:
        raise ConfigError("solver.n_t must be 0 (auto) or positive")
    if not s.horizon > 0:
        raise ConfigError("solver.horizon must be positive")
    if s.n_pi < 2 or s.n_rho < 2:
        raise ConfigError("solver.n_pi and solver.n_rho must be at least 2")
    sim = cfg.simulation
    if sim.n_paths < 1 or sim.n_steps < 1 or sim.n_segments < 1 or sim.n_grid < 1:
        raise ConfigError("simulation sizes must be positive")
    if not cfg.output.prefix:
        raise ConfigError("output.prefix must be nonempty")


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
