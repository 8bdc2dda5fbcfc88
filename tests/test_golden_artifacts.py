"""Golden artifacts: the bytes every CLI command writes are pinned.

The README promises that reruns with the same config and seed are
byte-identical; these hashes also pin the bytes across rewrites of the
renderers.  They were recorded before the columnar CSV renderers replaced
the row-by-row ones, so any drift in formatting fails here.  They were
recorded with Python 3.11 and numpy 2.4 on x86-64; another numpy or libm can
move the last bit of a computed value and so a hash.  The second half
compares each renderer with a row-by-row reference on edge values, which
holds on any platform.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from gctrl import cli, merton
from gctrl.cli import COMMANDS, RunReport, main
from gctrl.config import parse_config_text
from gctrl.hjb import Grid1D, HjbSolution, solution_csv_text
from gctrl.merton import (
    POLICY_CSV_ROWS,
    ClosedForm,
    MarketModel,
    PolicyField,
    a_curve_csv_text,
    policy_csv_text,
)
from gctrl.sde import PathBundle, bundle_csv_text

HEAT = """
[ambiguity]
d = 1
sigma_lo_sq = 0.25
sigma_hi_sq = 1.0

[solver]
problem = g_heat
terminal = x_squared
x_min = -2.0
x_max = 2.0
n_x = 41
horizon = 1.0
attitude = upper

[simulation]
n_paths = 40
n_steps = 20
n_segments = 2
n_grid = 3
seed = 7

[output]
prefix = heat
"""

DESK = """
[ambiguity]
d = 1
sigma_lo_sq = 0.25
sigma_hi_sq = 1.0

[market]
r = 0.02
alpha = 0.06
gamma = 0.2

[utility]
kappa = 2.0
beta = 0.1

[solver]
x_min = 0.4
x_max = 2.4
n_x = 21
horizon = 1.0
attitude = pessimist
n_pi = 5
n_rho = 5

[simulation]
seed = 20240901
x0 = 1.0

[output]
prefix = desk
"""

SIM_D2 = """
[ambiguity]
d = 2
sigma_lo_sq = 0.25
sigma_hi_sq = 1.0

[market]
r = 0.02
alpha = 0.06 0.05
gamma = 0.2 0; 0 0.25

[solver]
horizon = 1.0
attitude = upper

[simulation]
n_paths = 30
n_steps = 16
n_segments = 2
n_grid = 2
seed = 11
functional = terminal_square

[output]
prefix = sim2
"""

GOLDEN = {
    ("solve-hjb", HEAT): {
        "heat_solution.csv":
            "68db8460b8b25a7f3ab91769642fdb2714aa3e33a14abcff2ac6fff4692b19a4",
        "heat_solution_meta.txt":
            "a65a1e4d7776f5e415c6a55783ebc83b677a184da53d57cf9de985edd743874d",
        "heat_report.txt":
            "62bd1bcc76a93c25c87eeb79d05251501db57bb63c2522d72b771bc9bfd52aaa",
    },
    ("merton", DESK): {
        "desk_a_curve.csv":
            "73f125bf05ca209418d8139012c24e862583e243a12c05245153b73ee61195cc",
        "desk_policy.csv":
            "c411bf6de42c45a57e8aa8ac8a8266089e9bb2c5319115093517445ac3527277",
        "desk_compare.csv":
            "6129334282497516da317a463da88ff9cc913e58d6104766c49ca1b0c4570f9f",
        "desk_solution.csv":
            "6b648d17386f0681a136f5c2f52af21cd4f121033e0ee15ce607ead1f03c47d0",
        "desk_report.txt":
            "9e6eeaaa42d8a8df3a7aa24b92ffcadf00e9dd6a935b477ddb30ea11b4e3c25d",
    },
    ("simulate", HEAT): {
        "heat_paths.csv":
            "0921746f511a03bcddb220f6c2a3082f0945f7f60153db5db1ef5465923a1998",
        "heat_report.txt":
            "4d8ab9a75ee2bd44b187c403902576668cd456f59b2db75a2fdccba2aea21bb9",
    },
    ("simulate", SIM_D2): {
        "sim2_paths.csv":
            "00589636886d75d9b1bdb0fb98106f2d6361e8c10954dce8b07c3781e6d401d6",
        "sim2_report.txt":
            "47a8fc08cadae49798dda828d54fc11f76ac5b9b379154bfcd96c32d8d8b4bc4",
    },
}


@pytest.mark.parametrize("command,config", list(GOLDEN), ids=["solve-hjb-heat", "merton-desk",
                                                            "simulate-d1", "simulate-d2"])
def test_cli_artifacts_match_golden_hashes(tmp_path, command, config):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config, encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--output", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == GOLDEN[(command, config)]


# Row-by-row references with the formatting the README specifies.


def _reference_control(value) -> str:
    if isinstance(value, tuple):
        return ";".join(format(float(c), ".17g") for c in value)
    return format(float(value), ".17g")


def _reference_solution_csv(solution: HjbSolution) -> str:
    lines = ["t,x,value,control_index,control_value"]
    n_t = solution.policy.shape[0]
    for k, t in enumerate(solution.times):
        for i, xv in enumerate(solution.x):
            if k < n_t:
                j = int(solution.policy[k, i])
                ctrl = _reference_control(solution.controls[j])
            else:
                j, ctrl = -1, ""
            lines.append(
                f"{t:.9f},{format(xv, '.17g')},{format(solution.values[k, i], '.17g')},{j},{ctrl}"
            )
    return "\n".join(lines) + "\n"


def _reference_bundle_csv(bundle: PathBundle) -> str:
    m = bundle.states.shape[2]
    lines = ["path_id,time," + ",".join(f"state_{j}" for j in range(m))]
    for p in range(bundle.n_paths):
        for k, t in enumerate(bundle.times):
            vals = ",".join(format(v, ".17g") for v in bundle.states[p, k, :])
            lines.append(f"{p},{t:.9f},{vals}")
    return "\n".join(lines) + "\n"


def _reference_a_curve_csv(cf: ClosedForm) -> str:
    lines = ["t,A"]
    for t, a in zip(cf.times, cf.a_values):
        lines.append(f"{t:.9f},{format(a, '.17g')}")
    return "\n".join(lines) + "\n"


def _reference_policy_csv(cf, m, u, set_) -> str:
    pol = merton.optimal_policy(cf, m, u, set_)
    ts = np.linspace(0.0, cf.horizon, POLICY_CSV_ROWS)
    d = m.dim
    head = ["t", "consumption_rate"] + [f"pi_{j}" for j in range(d)] + ["w_riskless", "w_risky"]
    lines = [",".join(head)]
    for t in ts:
        pi = np.atleast_1d(pol.portfolio(t, 1.0))
        w1, w2, _ = pol.fund_weights(t, 1.0)
        cells = [f"{t:.9f}", format(pol.consumption(t, 1.0), ".17g")]
        cells += [format(v, ".17g") for v in pi]
        cells += [format(w1, ".17g"), format(w2, ".17g")]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _reference_compare_csv(run) -> str:
    solution = run.solution
    lines = ["x,pde_value,closed_form_value,rel_error"]
    for i, xv in enumerate(solution.x):
        lines.append(
            f"{format(xv, '.17g')},{format(solution.values[0, i], '.17g')},"
            f"{format(run.closed_row[i], '.17g')},{format(run.rel_error[i], '.17g')}"
        )
    return "\n".join(lines) + "\n"


EDGE = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300, 1.0, -3.0, 2.0**53,
                 1e16, 1e17, 0.1, 1.0 / 3.0, -2.5e-7, 123456789.0, np.inf, -np.inf, np.nan, -np.nan])


def test_solution_renderer_matches_reference_on_edge_values():
    rng = np.random.default_rng(3)
    n_x, n_t = EDGE.size, 3
    x = np.concatenate([EDGE[:-3], [4.0, -7.0, 0.5]])
    times = np.array([0.0, 1e-10, 0.123456789012, 1.0])
    values = np.stack([EDGE, EDGE[::-1], rng.standard_normal(n_x) * 1e5, -EDGE])
    controls = ((0.0, 1.0), (-0.0, 1e-300), (1e300, 2.0), (0.25, 1.0 / 3.0))
    policy = rng.integers(0, len(controls), size=(n_t, n_x))
    solution = HjbSolution(grid=Grid1D(x_min=-1.0, x_max=1.0, n_x=n_x, n_t=n_t), x=x,
                           times=times, values=values, policy=policy, controls=controls)
    assert solution_csv_text(solution) == _reference_solution_csv(solution)

    scalar = HjbSolution(grid=solution.grid, x=x, times=times, values=values[::-1],
                         policy=policy[:, ::-1] % 3, controls=(-0.0, 3, 1e-300))
    assert solution_csv_text(scalar) == _reference_solution_csv(scalar)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_bundle_renderer_matches_reference_on_edge_values(m):
    rng = np.random.default_rng(m)
    n_paths, n_steps = 3, EDGE.size - 1
    columns = np.tile(EDGE[:, None], (1, m))
    states = np.stack([np.roll(columns, p, axis=0) for p in range(n_paths)])
    if m > 1:
        states[:, :, -1] = rng.standard_normal((n_paths, n_steps + 1)) * 1e-3
    times = np.linspace(0.0, 0.7, n_steps + 1)
    bundle = PathBundle(times=times, states=states)
    text = bundle_csv_text(bundle)
    assert text == _reference_bundle_csv(bundle)


def test_a_curve_renderer_matches_reference_on_edge_values():
    times = np.concatenate([[0.0, 1e-10, 0.123456789012, -0.0, 1.0 / 3.0], EDGE[5:]])
    cf = ClosedForm(times=times, a_values=EDGE, eta=lambda t: 0.0, lambda_bar=np.eye(1))
    assert a_curve_csv_text(cf) == _reference_a_curve_csv(cf)


@pytest.mark.parametrize("market", [
    MarketModel((0.0,), (0.02,), ((0.06,),), (((0.2,),),)),
    MarketModel((0.0,), (0.02,), ((0.06, 0.05),), (((0.2, 0.0), (0.0, 0.25)),)),
], ids=["1-asset", "2-asset"])
def test_policy_renderer_matches_reference_on_edge_values(monkeypatch, market):
    cf = ClosedForm(times=np.linspace(0.0, 0.7, 5), a_values=np.ones(5), eta=lambda t: 0.0,
                    lambda_bar=np.eye(market.dim))
    row = {t: k for k, t in enumerate(np.linspace(0.0, cf.horizon, POLICY_CSV_ROWS).tolist())}

    def edge(t, shift):
        return EDGE[(row[float(t)] + shift) % EDGE.size]

    pol = PolicyField(
        consumption=lambda t, x: edge(t, 0),
        portfolio=lambda t, x: np.array([edge(t, 3 + 5 * j) for j in range(market.dim)]),
        fund_weights=lambda t, x: (edge(t, 7), edge(t, 11), None),
    )
    monkeypatch.setattr(merton, "optimal_policy", lambda cf, m, u, set_: pol)
    assert policy_csv_text(cf, market, None, None) == _reference_policy_csv(cf, market, None, None)


def test_compare_renderer_matches_reference_on_edge_values(monkeypatch):
    real_run, edged = cli.merton_run, []

    def edge_run(cfg):
        run = real_run(cfg)
        n_x = run.solution.x.size
        values = run.solution.values.copy()
        values[0] = np.resize(EDGE[::-1], n_x)
        solution = dataclasses.replace(run.solution, x=np.resize(EDGE, n_x), values=values)
        edged.append(dataclasses.replace(run, solution=solution,
                                         closed_row=np.resize(np.roll(EDGE, 7), n_x),
                                         rel_error=np.resize(np.roll(EDGE, 13), n_x)))
        return edged[-1]

    monkeypatch.setattr(cli, "merton_run", edge_run)
    renderers = cli.cmd_merton(parse_config_text(DESK), RunReport("merton", ""))
    render = dict(zip(COMMANDS["merton"][1], renderers))["compare.csv"]
    assert "".join(render()) == _reference_compare_csv(edged[0])
