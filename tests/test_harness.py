import ast
import contextlib
import importlib.util
import inspect
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pilotadapt import channel, experiments
from pilotadapt.cli import main as cli_main, table_text
from pilotadapt.config import ExperimentConfig, config_from_dict, load_config
from pilotadapt.core import build_population
from pilotadapt.errors import ConfigurationError, ExactSearchBudgetError
from pilotadapt.estimation import interpolation_nmse
from pilotadapt.experiments import (
    CSV_HEADER,
    run_sweep,
    run_trial,
    summarize_gains,
    trial_seed,
)
from pilotadapt.patterns import builtin_profiles
from pilotadapt.scheduling import RbRateCalculator, check_exact_budget, grouping_schedule

from conftest import rows_csv

ROOT = Path(__file__).resolve().parent.parent

QUICK = dict(
    m_list=(8, 16),
    u_mux_list=(4,),
    trials=2,
    num_rbs=2,
    direction="uplink",
    scheduler="greedy",
    seed=5,
)


def test_row_count_and_sort_order():
    cfg = ExperimentConfig(**QUICK)
    rows = run_sweep(cfg)
    assert len(rows) == 2 * 1 * 2
    keys = [(r.m, r.u_mux, r.trial, r.direction) for r in rows]
    assert keys == sorted(keys)


def test_both_directions_share_realization_seed():
    cfg = ExperimentConfig(**{**QUICK, "direction": "both", "m_list": (8,), "trials": 1})
    rows = run_sweep(cfg)
    assert [r.direction for r in rows] == ["downlink", "uplink"]
    assert rows[0].seed == rows[1].seed


def test_csv_header_and_determinism():
    cfg = ExperimentConfig(**QUICK)
    a = rows_csv(run_sweep(cfg))
    b = rows_csv(run_sweep(cfg))
    assert a == b
    assert a.splitlines()[0] == CSV_HEADER
    assert CSV_HEADER == "M,U_mux,trial,direction,R_grp,R_conv,rel_gain,bound,scheduler,seed"


@pytest.mark.parametrize("direction", ["uplink", "both"])
@pytest.mark.parametrize("scheduler", ["greedy", "exact"])
def test_worker_count_invariance(monkeypatch, scheduler, direction):
    cfg = ExperimentConfig(**{**QUICK, "scheduler": scheduler, "direction": direction})
    monkeypatch.setenv("PILOTADAPT_WORKERS", "1")
    a = rows_csv(run_sweep(cfg))
    monkeypatch.setenv("PILOTADAPT_WORKERS", "4")
    b = rows_csv(run_sweep(cfg))
    assert a == b


def test_replay_row_round_trip():
    """Replay is exact whatever the scheduler and direction: a rerun trial
    makes the same Gram requests, so its Grams are built as they were."""
    for scheduler in ("greedy", "exact"):
        for direction in ("uplink", "both"):
            cfg = ExperimentConfig(**{**QUICK, "scheduler": scheduler, "direction": direction})
            rows = run_sweep(cfg)
            for row in rows[:2] + rows[-2:]:
                rerun = run_trial(cfg, row.m, row.u_mux, row.trial, row.seed)
                again = next(r for r in rerun if r.direction == row.direction)
                assert again.direction == row.direction
                assert again.r_grp == row.r_grp
                assert again.r_conv == row.r_conv


def _count_builds(monkeypatch):
    """Record the users of every RB build, keyed by (seed, RB): one
    `ChannelRealization._build` call is one build, and its rows >= 0 are
    the users it built."""
    builds = {}
    build = channel.ChannelRealization._build

    def counting_build(real, rb, users):
        rows, *gram = build(real, rb, users)
        builds.setdefault((real.seed, rb), []).append(tuple(np.flatnonzero(rows >= 0).tolist()))
        return rows, *gram

    monkeypatch.setattr(channel.ChannelRealization, "_build", counting_build)
    return builds


@pytest.mark.parametrize("scheduler", ["greedy", "exact"])
def test_trial_builds_each_rb_gram_once(monkeypatch, scheduler):
    """The exact DP rates every user, so an exact trial builds each RB once
    for all K users, in one direction or both. A greedy trial in both
    directions builds each RB at most once per direction, RB 0 once for
    all K users, and every build covers the grouping's users of the RB."""
    builds = _count_builds(monkeypatch)
    grouped = []
    schedule = experiments.grouping_schedule
    monkeypatch.setattr(
        experiments, "grouping_schedule", lambda *a: grouped.append(schedule(*a)) or grouped[-1]
    )
    if scheduler == "exact":
        for direction in ("uplink", "both"):
            builds.clear()
            cfg = ExperimentConfig(**{**QUICK, "direction": direction, "scheduler": "exact"})
            rows = run_trial(cfg, 8, 4, 0, trial_seed(cfg.seed, 0, 0, 0))
            assert len(rows) == len(cfg.directions())
            assert list(builds.values()) == [[tuple(range(8))]] * cfg.num_rbs
        return
    cfg = ExperimentConfig(**{**QUICK, "num_rbs": 4, "direction": "both"})
    seed = trial_seed(cfg.seed, 0, 0, 0)
    rows = run_trial(cfg, 8, 4, 0, seed)
    assert [r.direction for r in rows] == ["uplink", "downlink"]
    assert builds[seed, 0] == [tuple(range(16))]
    (assignment,) = grouped
    for rb, users in enumerate(assignment.rb_users):
        assert 1 <= len(builds[seed, rb]) <= 2
        assert all(set(users) <= set(built) for built in builds[seed, rb])


def test_one_direction_greedy_builds_rbs_for_the_rated_users(monkeypatch):
    """An uplink-only greedy trial builds each RB once: RB 0 for all K users,
    the later RBs only for the users still unscheduled and the grouping's.
    It makes the same requests as the uplink half of a two-direction trial,
    so its rates equal that trial's uplink row."""
    builds = _count_builds(monkeypatch)
    cfg = ExperimentConfig(**{**QUICK, "num_rbs": 4})
    seed = trial_seed(cfg.seed, 0, 0, 0)
    (row,) = run_trial(cfg, 8, 4, 0, seed)
    k = 16
    assert [len(v) for v in builds.values()] == [1] * cfg.num_rbs
    sizes = [len(builds[seed, rb][0]) for rb in range(cfg.num_rbs)]
    assert sizes[0] == k
    assert all(size < k for size in sizes[1:])
    both = run_trial(replace(cfg, direction="both"), 8, 4, 0, seed)
    (up,) = [r for r in both if r.direction == "uplink"]
    assert row.r_conv == up.r_conv
    assert row.r_grp == up.r_grp


def test_benchmark_trace_points_exist(monkeypatch):
    """The per-layer benchmark wraps these names; a rename would blank its spans."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    path = ROOT / "perfbench" / "traced_simulate.py"
    spec = importlib.util.spec_from_file_location("_traced_simulate", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for attr in traced.EXPERIMENTS_TARGETS.values():
        assert callable(getattr(experiments, attr, None)), attr
    for attr in traced.CALCULATOR_TARGETS.values():
        assert callable(getattr(RbRateCalculator, attr, None)), attr


def test_trial_seed_stability():
    assert trial_seed(0, 0, 0, 0) == trial_seed(0, 0, 0, 0)
    seeds = {trial_seed(0, i, j, t) for i in range(3) for j in range(3) for t in range(3)}
    assert len(seeds) == 27


def test_exact_scheduler_abort_instruction():
    cfg = ExperimentConfig(
        m_list=(8,), u_mux_list=(7,), trials=1, num_rbs=4, scheduler="exact", seed=0
    )
    with pytest.raises(ExactSearchBudgetError, match="greedy"):
        run_sweep(cfg)


def test_exact_budget_refused_before_any_trial(monkeypatch):
    """U_mux = 4 is feasible, U_mux = 7 is not: the sweep must refuse before
    running any U_mux = 4 trial."""
    started = []
    monkeypatch.setattr(experiments, "run_trial", lambda *args: started.append(args) or [])
    cfg = ExperimentConfig(
        m_list=(8,), u_mux_list=(4, 7), trials=3, num_rbs=4, scheduler="exact", seed=0
    )
    with pytest.raises(ExactSearchBudgetError, match="greedy"):
        run_sweep(cfg)
    assert started == []


def _refusal(code: int, out: str, err: str) -> str:
    """The message of the CLI's one-line refusal: exit code 1, nothing on
    stdout, and one stderr line holding a JSON object whose only key is
    `error`."""
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert set(payload) == {"error"}
    return payload["error"]


_GREEDY_FIX = 'use the greedy scheduler (set scheduler = "greedy" in the experiment config)'


@pytest.mark.parametrize(
    "text, instance, problem",
    [
        (
            "m_list = [8]\nu_mux_list = [7]\n",
            (28, 4, 7),
            "~278147572560 DP transitions (subset-rate tables included) exceed the budget 130000000",
        ),
        (
            "m_list = [8]\nnum_rbs = 1\nu_mux_list = [25]\n",
            (25, 1, 25),
            "25 users need DP tables of 2^25 entries, above 2^24",
        ),
    ],
)
def test_cli_exact_budget_errors_name_the_config_fix(
    tmp_path, capsys, monkeypatch, text, instance, problem
):
    """Both budget refusals, the transition count and the user cap, end with
    the config change to make. The budget check words them, and the CLI
    prints its message as one JSON line before any trial."""
    with pytest.raises(ExactSearchBudgetError) as refused:
        check_exact_budget(*instance)
    assert str(refused.value) == f"{problem}; {_GREEDY_FIX}"
    monkeypatch.setattr(experiments, "run_trial", lambda *args: pytest.fail("a trial ran"))
    path = tmp_path / "exact.toml"
    path.write_text(text + 'scheduler = "exact"\n')
    assert cli_main(["simulate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [json.dumps({"error": f"{problem}; {_GREEDY_FIX}"})]


@pytest.mark.parametrize("scheduler", ["greedy", "exact"])
def test_users_that_do_not_fit_refused_before_any_trial(monkeypatch, scheduler):
    """12 users fit 4 RBs x 4 layers but not 4 x 2: the sweep must refuse
    before running any U_mux = 4 trial."""
    started = []
    monkeypatch.setattr(experiments, "run_trial", lambda *args: started.append(args) or [])
    cfg = ExperimentConfig(
        m_list=(8,), u_mux_list=(4, 2), trials=2, num_rbs=4, scheduler=scheduler,
        group_sizes=(3, 3, 3, 3), seed=0,
    )
    with pytest.raises(ConfigurationError, match="12 users cannot fit 4 RBs x 2 layers"):
        run_sweep(cfg)
    assert started == []


@pytest.mark.parametrize("sizes", [(16,), (8, 8), (4, 4, 4, 2, 2)])
def test_group_count_mismatch_refused_before_any_trial(monkeypatch, sizes):
    """The four table1 profiles need four group sizes; any other count is
    refused, naming both keys, before a trial runs."""
    started = []
    monkeypatch.setattr(experiments, "run_trial", lambda *args: started.append(args) or [])
    with pytest.raises(ConfigurationError, match="group_sizes .* profiles"):
        run_sweep(ExperimentConfig(**{**QUICK, "group_sizes": sizes}))
    assert started == []


@pytest.mark.parametrize("sizes", ["auto", ()], ids=["auto", "empty"])
def test_empty_profiles_refused(sizes):
    """An empty profile list is refused, naming `profiles`, before the
    group sizes are derived from it."""
    with pytest.raises(ConfigurationError, match="profiles"):
        ExperimentConfig(profiles=(), group_sizes=sizes)


def test_fig4_rows_carry_bound_and_summary():
    cfg = ExperimentConfig(**QUICK)
    rows = run_sweep(cfg)
    assert all(r.bound > 0 for r in rows)
    summary = summarize_gains(rows)
    assert len(summary) == 2  # one per M
    for entry in summary:
        assert entry["trials"] == 2
        assert entry["bound"] == pytest.approx(rows[0].bound)


def test_toml_config_parsing(tmp_path):
    """load_config reads a TOML config with comments, lists, strings and a
    fading spec string."""
    text = """
# comment
m_list = [16, 32]
u_mux_list = [4]
trials = 3          # trailing comment
direction = "both"
scheduler = "greedy"
snr_db = 10.0
fading = "lognormal:6"
seed = 11
"""
    path = tmp_path / "exp.toml"
    path.write_text(text)
    cfg = load_config(str(path))
    assert cfg.m_list == (16, 32)
    assert cfg.trials == 3
    assert cfg.direction == "both"
    assert cfg.fading.kind == "lognormal"
    assert cfg.fading.spread_db == 6.0
    assert cfg.seed == 11


_CUSTOM_PROFILES = {
    "m_list": [8],
    "u_mux_list": [2],
    "trials": 1,
    "num_rbs": 2,
    "scheduler": "greedy",
    "group_sizes": [2, 2],
    "fading": {"kind": "lognormal", "spread_db": 3.0},
    "profiles": [
        {"name": "slow", "max_doppler_hz": 5.0, "max_delay_spread_s": 0.4e-6},
        {
            "name": "fast",
            "max_doppler_hz": 300.0,
            "max_delay_spread_s": 4.69e-6,
            "taps": [[0.0, 0.6], [2.0e-6, 0.4]],
        },
    ],
}
# the same config in TOML: the tables follow the top-level keys
_CUSTOM_PROFILES_TOML = """
m_list = [8]
u_mux_list = [2]
trials = 1
num_rbs = 2
scheduler = "greedy"
group_sizes = [2, 2]

[fading]
kind = "lognormal"
spread_db = 3.0

[[profiles]]
name = "slow"
max_doppler_hz = 5.0
max_delay_spread_s = 0.4e-6

[[profiles]]
name = "fast"
max_doppler_hz = 300.0
max_delay_spread_s = 4.69e-6
taps = [[0.0, 0.6], [2.0e-6, 0.4]]
"""


@pytest.mark.parametrize("suffix", ["json", "toml"])
def test_json_config_with_custom_profiles(tmp_path, suffix):
    (tmp_path / "exp.json").write_text(json.dumps(_CUSTOM_PROFILES))
    (tmp_path / "exp.toml").write_text(_CUSTOM_PROFILES_TOML)
    cfg = load_config(str(tmp_path / f"exp.{suffix}"))
    assert cfg == load_config(str(tmp_path / "exp.json"))
    profs = cfg.profiles
    assert [p.name for p in profs] == ["slow", "fast"]
    assert profs[1].taps == ((0.0, 0.6), (2.0e-6, 0.4))
    assert (cfg.fading.kind, cfg.fading.spread_db) == ("lognormal", 3.0)
    rows = run_sweep(cfg)
    assert len(rows) == 1


# configs/*.toml: (scheduler, m_list, u_mux_list, trials, seed)
_COMMITTED_CONFIGS = {
    "table1.toml": ("exact", (32, 64), (4,), 5, 1),
    "fig4.toml": ("greedy", (64, 112), (4, 5, 6, 7), 10, 2),
}


def test_committed_configs_load():
    paths = sorted((ROOT / "configs").glob("*.toml"))
    assert sorted(p.name for p in paths) == sorted(_COMMITTED_CONFIGS)
    for path in paths:
        cfg = load_config(str(path))
        got = (cfg.scheduler, cfg.m_list, cfg.u_mux_list, cfg.trials, cfg.seed)
        assert got == _COMMITTED_CONFIGS[path.name]
        assert (cfg.num_rbs, cfg.direction, cfg.snr_db) == (4, "uplink", 10.0)
        assert cfg.profiles == tuple(builtin_profiles())


def test_table1_profiles_resolve_to_the_builtin_profiles(tmp_path):
    """The "table1" profile set becomes the builtin profiles when a config
    is built: by default, from the constructor, through replace and from a
    file."""
    path = tmp_path / "exp.toml"
    path.write_text('profiles = "table1"\n')
    custom = ExperimentConfig(profiles=tuple(builtin_profiles()[:2]), group_sizes=(1, 1))
    configs = [
        ExperimentConfig(),
        ExperimentConfig(profiles="table1"),
        replace(custom, profiles="table1", group_sizes="auto"),
        load_config(str(path)),
    ]
    for cfg in configs:
        assert cfg.profiles == tuple(builtin_profiles())
    assert len(set(configs)) == 1


@pytest.mark.parametrize("profiles", ["abc", ("EPA5",), (), 5])
def test_profiles_that_are_not_channel_profiles_are_refused(profiles):
    """Library code gets a ConfigurationError naming the value, not an
    AttributeError at the profiles' first use."""
    with pytest.raises(ConfigurationError, match="profiles must be") as info:
        ExperimentConfig(profiles=profiles, group_sizes=(1, 1, 1))
    assert repr(profiles) in str(info.value)


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown config key"):
        config_from_dict({"m_list": [8], "bogus": 1})
    profile = {"name": "a", "max_doppler_hz": 5.0, "max_delay_spread_s": 0.4e-6}
    with pytest.raises(ConfigurationError, match="unknown profile keys \\['tapz'\\]"):
        config_from_dict({"profiles": [{**profile, "tapz": [[0.0, 1.0]]}]})


def test_toml_loader_scalars(tmp_path):
    """load_config reads TOML scalars and lists; a `#` inside quotes is part
    of the value, one outside starts a comment."""
    path = tmp_path / "exp.toml"
    path.write_text(
        'out = "rows#1.csv"\ntrials = 3  # "three"\n# whole line\n'
        "snr_db = 2.5\nm_list = [1, 2]  # [3]\n"
    )
    cfg = load_config(str(path))
    assert (cfg.out, cfg.trials, cfg.snr_db, cfg.m_list) == ("rows#1.csv", 3, 2.5, (1, 2))


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_INT_LISTS = st.lists(st.integers(1, 10**6), min_size=1, max_size=4, unique=True).map(
    lambda v: (tuple(v), "[" + ", ".join(map(str, v)) + "]")
)
# config key -> strategy of (value, its TOML text)
_TOML_VALUES = {
    "m_list": _INT_LISTS,
    "u_mux_list": _INT_LISTS,
    "seed": st.integers(0, 2**63 - 1).map(lambda v: (v, str(v))),
    "noise_power": st.one_of(
        _POSITIVE.map(lambda v: (v, repr(v))), _POSITIVE.map(lambda v: (v, f"{v:.17e}"))
    ),
    "snr_db": st.one_of(
        _FLOATS.map(lambda v: (v, repr(v))), _FLOATS.map(lambda v: (v, f"{v:.17e}"))
    ),
    "out": st.text("ab #.=-/_'", max_size=10).map(lambda v: (v, f'"{v}"')),
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.fixed_dictionaries(_TOML_VALUES), st.text("ab #='\"", max_size=6))
def test_toml_loader_round_trips(tmp_path_factory, entries, comment):
    """Written TOML `key = value  # comment` lines load back to the same
    config: positive int lists of distinct entries, non-negative seeds up to
    2^63 - 1, negative and exponent floats in both notations, and quoted
    strings that contain `#`."""
    text = "".join(f"{key} = {shown}  # {comment}\n" for key, (_, shown) in entries.items())
    path = tmp_path_factory.getbasetemp() / "round_trip.toml"
    path.write_text(text)
    cfg = load_config(str(path))
    assert cfg == ExperimentConfig(**{key: value for key, (value, _) in entries.items()})


def test_trial_inputs_have_no_defaults():
    """Every trial input is passed by the caller or read from the config: the
    seeds, trial count, user picker and picker generator have no default,
    and the config's gain bound takes only the mux order."""
    for func, names in [
        (build_population, ["seed"]),
        (channel.generate_realization, ["seed"]),
        (interpolation_nmse, ["trials", "seed"]),
        (grouping_schedule, ["user_picker", "rng"]),
    ]:
        params = inspect.signature(func).parameters
        for name in names:
            assert params[name].default is inspect.Parameter.empty, (func.__name__, name)
    assert list(inspect.signature(ExperimentConfig.gain_bound).parameters) == ["self", "mux"]


def test_auto_group_sizes_scale_with_mux():
    cfg = ExperimentConfig(m_list=(8,), u_mux_list=(4, 7), num_rbs=4, trials=1)
    assert cfg.sizes_for(4) == [4, 4, 4, 4]
    assert cfg.sizes_for(7) == [7, 7, 7, 7]


def test_snr_derives_noise_power():
    cfg = ExperimentConfig(m_list=(8,), u_mux_list=(4,), trials=1, snr_db=10.0)
    assert cfg.derived_noise_power() == pytest.approx(0.1)
    cfg = ExperimentConfig(m_list=(8,), u_mux_list=(4,), trials=1, noise_power=0.25)
    assert cfg.derived_noise_power() == 0.25


@pytest.mark.parametrize(
    "kwargs, key, value",
    [
        ({"ul_power": -1.0}, "ul_power", -1.0),
        ({"ul_power": math.nan}, "ul_power", math.nan),
        ({"dl_power": -1.0, "noise_power": 0.1}, "dl_power", -1.0),
        ({"dl_power": math.inf}, "dl_power", math.inf),
        ({"dl_power": 0.0, "direction": "uplink"}, "dl_power", 0.0),
    ],
)
def test_config_names_a_power_that_is_not_finite_and_positive(kwargs, key, value):
    """A bad ul_power is refused for itself, before the noise is derived
    from it, and a bad dl_power when the config is built, not at a sweep
    point; the message names the key and the value."""
    with pytest.raises(ConfigurationError, match=f"^{key} must be finite and positive, got {value!r}$"):
        ExperimentConfig(m_list=(8,), u_mux_list=(4,), trials=1, **kwargs)


# ---------------------------------------------------------------------------
# CLI


def _write_quick_config(tmp_path):
    path = tmp_path / "quick.toml"
    path.write_text(
        'm_list = [8]\nu_mux_list = [4]\ntrials = 1\nnum_rbs = 2\n'
        'scheduler = "greedy"\nseed = 3\n'
    )
    return str(path)


def test_cli_simulate_deterministic(tmp_path, capsys):
    cfg = _write_quick_config(tmp_path)
    assert cli_main(["simulate", "--config", cfg]) == 0
    first = capsys.readouterr().out
    assert cli_main(["simulate", "--config", cfg]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == CSV_HEADER


def test_cli_seed_override_changes_rows(tmp_path, capsys):
    cfg = _write_quick_config(tmp_path)
    cli_main(["simulate", "--config", cfg])
    base = capsys.readouterr().out
    cli_main(["simulate", "--config", cfg, "--seed", "99"])
    other = capsys.readouterr().out
    assert base != other


def test_cli_patterns_text_and_json(tmp_path, capsys):
    cfg = _write_quick_config(tmp_path)
    assert cli_main(["patterns", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "32 pilot REs" in text
    assert "P" in text
    assert cli_main(["patterns", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["size"] for p in payload["registry"]] == [4, 8, 16, 32]
    assert payload["conventional"]["size"] == 32


def test_cli_asymptotics(tmp_path, capsys):
    cfg = _write_quick_config(tmp_path)
    assert cli_main(["asymptotics", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # constant fading at 10 dB, M = 8, U = 4: eta*P/(sigma2/M + U*eta*P/M)
    want = 1.0 / (0.1 / 8 + 4.0 / 8)
    assert payload[0]["det_sinr"] == pytest.approx(want)
    assert payload[0]["sinr_bar"] == pytest.approx(want)


@pytest.mark.parametrize(
    "config", ["configs/table1.toml", "configs/fig4.toml", "tests/data/asymptotics_lognormal.toml"]
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_asymptotics_matches_pinned_output(capsys, config, fmt):
    """`asymptotics` writes the committed CSV and JSON byte for byte."""
    name = Path(config).stem.removeprefix("asymptotics_")
    assert cli_main(["asymptotics", "--config", str(ROOT / config), "--format", fmt]) == 0
    pinned = ROOT / "tests" / "data" / f"asymptotics_{name}.{fmt}"
    assert capsys.readouterr().out.encode() == pinned.read_bytes()


def test_cli_asymptotics_refuses_mux_at_antenna_count(tmp_path, capsys):
    path = tmp_path / "m4.toml"
    path.write_text("m_list = [4]\nu_mux_list = [4]\n")
    _refusal(cli_main(["asymptotics", "--config", str(path)]), *capsys.readouterr())


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_validate_estimation(tmp_path, capsys, fmt):
    cfg = _write_quick_config(tmp_path)
    argv = ["validate-estimation", "--config", cfg, "--trials", "3", "--format", fmt]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    header = "profile,spacing_t,spacing_f,nmse,nmse_db"
    if fmt == "csv":
        lines = out.strip().splitlines()
        assert lines[0] == header
        records = [dict(zip(header.split(","), line.split(","))) for line in lines[1:]]
    else:
        records = json.loads(out)
        assert all(list(rec) == header.split(",") for rec in records)
    assert len(records) == 2 * 4  # rule and doubled spacing per builtin profile
    assert [rec["profile"] for rec in records[:2]] == ["EPA5", "EPA5"]


def test_cli_validate_estimation_matches_pinned_output(capsys):
    """`validate-estimation` writes the committed CSV byte for byte."""
    argv = ["validate-estimation", "--config", str(ROOT / "configs/table1.toml"), "--trials", "3"]
    assert cli_main(argv) == 0
    pinned = ROOT / "tests" / "data" / "validate_estimation_table1.csv"
    assert capsys.readouterr().out.encode() == pinned.read_bytes()


def test_cli_validate_estimation_zero_nmse_is_minus_inf_db(tmp_path, capsys):
    """A rule spacing of (1, 1) makes every RE a pilot: NMSE 0, -inf dB."""
    path = tmp_path / "dense.toml"
    path.write_text(
        'group_sizes = [4]\n\n[[profiles]]\nname = "dense"\n'
        "max_doppler_hz = 3000.0\nmax_delay_spread_s = 12e-6\n"
    )
    assert cli_main(["validate-estimation", "--config", str(path), "--trials", "2"]) == 0
    _, rule, doubled = capsys.readouterr().out.splitlines()
    assert rule == "dense,1,1,0.0,-inf"
    assert doubled.startswith("dense,2,2,") and math.isfinite(float(doubled.split(",")[-1]))


def _strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_cli_validate_estimation_json_writes_minus_inf_db_as_null(tmp_path, capsys):
    """JSON has no infinity: the dense profile's -inf dB reads null there,
    while its CSV keeps -inf and a finite table keeps the plain records."""
    path = tmp_path / "dense.toml"
    path.write_text(
        'group_sizes = [4]\n\n[[profiles]]\nname = "dense"\n'
        "max_doppler_hz = 3000.0\nmax_delay_spread_s = 12e-6\n"
    )
    argv = ["validate-estimation", "--config", str(path), "--trials", "2", "--format", "json"]
    assert cli_main(argv) == 0
    rule, doubled = _strict_json(capsys.readouterr().out)
    assert rule == {"profile": "dense", "spacing_t": 1, "spacing_f": 1, "nmse": 0.0,
                    "nmse_db": None}
    assert math.isfinite(doubled["nmse_db"])
    header, rows = ("a", "b"), [(1, 0.5), ("x", -2.25)]
    assert table_text(header, rows, "json") == json.dumps(
        [dict(zip(header, row)) for row in rows], indent=2) + "\n"
    assert table_text(header, [(-math.inf, math.nan)], "json") == table_text(
        header, [(None, None)], "json")
    assert table_text(header, [(-math.inf, 1)], "csv") == "a,b\n-inf,1\n"


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["sweep"], ["asymptotics"], ["validate-estimation", "--trials", "2"],
     ["patterns"]],
    ids=lambda argv: argv[0],
)
def test_cli_json_records_are_keyed_by_the_csv_header(tmp_path, capsys, argv):
    """Every table command writes JSON records whose keys are its CSV header
    and whose values print as its CSV fields; `patterns` has no JSON table, so
    only its CSV lines are checked against the header."""
    cfg = _write_quick_config(tmp_path)
    assert cli_main([*argv, "--config", cfg, "--format", "csv"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    columns = header.split(",")
    fields = [line.split(",") for line in lines]
    assert fields and all(len(f) == len(columns) for f in fields)
    if argv[0] == "patterns":
        return
    assert cli_main([*argv, "--config", cfg, "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert [list(rec) for rec in records] == [columns] * len(fields)
    assert [[str(v) for v in rec.values()] for rec in records] == fields


def test_cli_fading_key_its_kind_does_not_read_is_refused(tmp_path, capsys):
    path = tmp_path / "spread.toml"
    path.write_text("[fading]\nspread_db = 6.0\n")
    assert cli_main(["asymptotics", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == '{"error": "constant fading does not read spread_db, got 6.0"}\n'


@pytest.mark.parametrize("suffix", ["json", "toml"])
def test_cli_empty_tap_table_is_refused(tmp_path, capsys, suffix):
    """A `taps` key with no rows is an error, not the default two-tap bracket."""
    profile = {"name": "flat", **_PROFILE, "taps": []}
    (tmp_path / "taps.json").write_text(json.dumps({"profiles": [profile]}))
    (tmp_path / "taps.toml").write_text(
        '[[profiles]]\nname = "flat"\nmax_doppler_hz = 5.0\n'
        "max_delay_spread_s = 0.4e-6\ntaps = []\n"
    )
    assert cli_main(["patterns", "--config", str(tmp_path / f"taps.{suffix}")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == '{"error": "profile \'flat\' has an empty tap table"}\n'


def test_cli_sweep_prints_gain_summary(tmp_path, capsys):
    """`sweep` writes the rows of `simulate` and adds only the summary."""
    cfg = _write_quick_config(tmp_path)
    assert cli_main(["sweep", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == CSV_HEADER
    assert "gain" in captured.err and "bound" in captured.err
    assert cli_main(["simulate", "--config", cfg]) == 0
    assert capsys.readouterr() == (captured.out, "")


def test_cli_patterns_honours_config_format(tmp_path, capsys):
    path = tmp_path / "json.toml"
    path.write_text('u_mux_list = [4]\nformat = "json"\n')
    assert cli_main(["patterns", "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["size"] for p in payload["registry"]] == [4, 8, 16, 32]
    assert cli_main(["patterns", "--config", str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("kind,spacing_t,spacing_f,size,overhead_ratio\n")


def test_cli_patterns_csv_summary(tmp_path, capsys):
    cfg = _write_quick_config(tmp_path)
    assert cli_main(["patterns", "--config", cfg, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "kind,spacing_t,spacing_f,size,overhead_ratio"
    assert lines[-1].startswith("conventional,11,3,32,")


def test_cli_writes_output_file(tmp_path):
    cfg = _write_quick_config(tmp_path)
    out = tmp_path / "rows.csv"
    assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == CSV_HEADER


def test_cli_error_is_machine_readable(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text("nonsense_key = 1\n")
    error = _refusal(cli_main(["simulate", "--config", str(bad)]), *capsys.readouterr())
    assert "nonsense_key" in error


@pytest.mark.parametrize(
    "exc, want",
    [
        (MemoryError(), "out of memory"),
        (MemoryError("Unable to allocate 2.91 TiB"), "out of memory: Unable to allocate 2.91 TiB"),
    ],
    ids=["bare", "message"],
)
def test_cli_out_of_memory_is_one_json_line(tmp_path, capsys, monkeypatch, exc, want):
    """A run too large for memory ends in the one-line diagnostic, which
    says so also when the MemoryError carries no message."""
    path = tmp_path / "tiny.toml"
    path.write_text(_TINY_CONFIG)

    def out_of_memory(cfg):
        raise exc

    monkeypatch.setattr(experiments, "run_sweep", out_of_memory)
    assert _refusal(cli_main(["simulate", "--config", str(path)]), *capsys.readouterr()) == want


_PROFILE = {"max_doppler_hz": 5.0, "max_delay_spread_s": 0.4e-6}


@pytest.mark.parametrize(
    "filename, text",
    [
        ("trials_str.toml", 'trials = "abc"\n'),
        ("trials_float.toml", "trials = 2.7\n"),
        ("symbols_str.toml", 'symbols_per_rb = "x"\n'),
        ("m_list_scalar.toml", "m_list = 64\n"),
        ("m_list_mixed.toml", "m_list = [64, x]\n"),
        ("seed_negative.toml", "seed = -1\n"),
        ("snr_str.toml", 'snr_db = "high"\n'),
        ("fading_bad.toml", 'fading = "lognormal:x"\n'),
        ("fading_negative_spread.toml", 'fading = "lognormal:-3"\n'),
        ("fading_overflow_spread.toml", 'fading = "lognormal:200"\n'),
        ("fading_overflow_spread_noise.toml", 'fading = "lognormal:200"\nnoise_power = 0.1\n'),
        ("picker_bad.toml", 'picker = "first"\n'),
        ("no_equals.toml", "trials 3\n"),
        ("truncated.json", '{"m_list": [8], "trials": '),
        ("not_mapping.json", "[1, 2]"),
        ("profile_no_name.json", json.dumps({"profiles": [_PROFILE]})),
        ("profile_not_dict.json", json.dumps({"profiles": ["EPA5"]})),
        ("profiles_empty.json", json.dumps({"profiles": []})),
        ("taps_bad.json", json.dumps({"profiles": [{**_PROFILE, "name": "a", "taps": [1]}]})),
        (
            "profile_unknown_key.json",
            json.dumps({"profiles": [{**_PROFILE, "name": "a", "tapz": [[0.0, 1.0]]}]}),
        ),
        ("fading_dict_bad.json", json.dumps({"fading": {"kind": "constant", "value": "x"}})),
        (
            "fading_dict_negative_spread.json",
            json.dumps({"fading": {"kind": "lognormal", "spread_db": -3}}),
        ),
        ("binary.toml", b"\xff\xfe\x00trials = 1"),
        ("duplicate_key.toml", "trials = 1\ntrials = 2\n"),
        ("unquoted_string.toml", "direction = uplink\n"),
    ],
)
def test_cli_malformed_config_one_json_line(tmp_path, capsys, filename, text):
    path = tmp_path / filename
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    _refusal(cli_main(["simulate", "--config", str(path)]), *capsys.readouterr())


@pytest.mark.parametrize(
    "text, key",
    [
        ("m_list = [8, 0]\n", "m_list"),
        ("m_list = [-8]\n", "m_list"),
        ("u_mux_list = [0]\n", "u_mux_list"),
        ("u_mux_list = [4, -1]\n", "u_mux_list"),
        ("num_rbs = 0\n", "num_rbs"),
        ("num_rbs = -2\n", "num_rbs"),
        ("snr_db = 4000\n", "snr_db"),
        ("snr_db = -4000\n", "snr_db"),
        ("noise_power = 0\n", "noise_power"),
        ("m_list = [8, 8]\n", "m_list"),
        ("u_mux_list = [4, 2, 4]\n", "u_mux_list"),
    ],
)
def test_cli_out_of_range_sizes_refused_before_any_trial(tmp_path, capsys, monkeypatch, text, key):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "run_trial", no_trial)
    path = tmp_path / "range.toml"
    path.write_text('trials = 1\nscheduler = "greedy"\n' + text)
    assert key in _refusal(cli_main(["simulate", "--config", str(path)]), *capsys.readouterr())


def test_cli_users_do_not_fit_error(tmp_path, capsys):
    path = tmp_path / "crowded.toml"
    path.write_text(
        "m_list = [8]\nu_mux_list = [7, 4]\ntrials = 1\n"
        "group_sizes = [7, 7, 7, 7]\nscheduler = \"greedy\"\n"
    )
    error = _refusal(cli_main(["simulate", "--config", str(path)]), *capsys.readouterr())
    assert error == "28 users cannot fit 4 RBs x 4 layers"


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_cli_bad_worker_count(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setenv("PILOTADAPT_WORKERS", workers)
    cfg = _write_quick_config(tmp_path)
    error = _refusal(cli_main(["simulate", "--config", cfg]), *capsys.readouterr())
    assert "PILOTADAPT_WORKERS" in error


@pytest.mark.parametrize("command", ["simulate", "asymptotics"])
def test_cli_lognormal_mean_overflow_names_spread(tmp_path, capsys, command):
    """A spread whose lognormal mean overflows is blamed on spread_db, with or
    without an explicit noise power."""
    for text in ('fading = "lognormal:200"\n', 'fading = "lognormal:200"\nnoise_power = 0.1\n'):
        path = tmp_path / "spread.toml"
        path.write_text(text)
        error = _refusal(cli_main([command, "--config", str(path)]), *capsys.readouterr())
        assert "spread_db" in error


def test_cli_explicit_mean_overflow_names_values(tmp_path):
    """Explicit fading values whose mean overflows end in one JSON line that
    names them, with no numpy warning before it."""
    path = tmp_path / "explicit.toml"
    path.write_text('fading = "explicit:1e308,1e308"\n')
    proc = subprocess.run(
        [sys.executable, "-m", "pilotadapt.cli", "simulate", "--config", str(path)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert "values (1e+308, 1e+308)" in _refusal(proc.returncode, proc.stdout, proc.stderr)


@pytest.mark.parametrize(
    "text, key",
    [
        ("ul_power = 1e308\n", "ul_power"),
        ('dl_power = 1e308\ndirection = "downlink"\n', "dl_power"),
        ('dl_power = 1e308\nnoise_power = 0.1\ndirection = "both"\n', "dl_power"),
    ],
)
def test_cli_overflowing_power_names_it(tmp_path, capsys, text, key):
    """A power whose rates overflow ends in the one-line diagnostic, not in
    inf or nan rows and a numpy warning."""
    path = tmp_path / "power.toml"
    path.write_text('m_list = [8]\ntrials = 1\nscheduler = "greedy"\n' + text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(["simulate", "--config", str(path)])
    assert key in _refusal(code, *capsys.readouterr())


# a downlink power so far below the noise that every rate is 0
_ZERO_RATE = dict(
    trials=1, num_rbs=1, direction="downlink", dl_power=1e-300, snr_db=-400.0, symbols_per_rb=2
)
_ZERO_RATE_CONFIGS = [
    {**_ZERO_RATE, "scheduler": "greedy", "m_list": [8], "u_mux_list": [5]},
    {**_ZERO_RATE, "scheduler": "exact", "m_list": [2], "u_mux_list": [5], "fading": "lognormal:6"},
]


@pytest.mark.parametrize("config", _ZERO_RATE_CONFIGS, ids=["greedy", "exact"])
def test_cli_zero_conventional_rate_names_power(tmp_path, capsys, config):
    """A conventional rate of 0 leaves the relative gain undefined: the run
    ends in the diagnostic, not in a traceback or a nan row."""
    path = tmp_path / "zero.toml"
    path.write_text("".join(f"{key} = {json.dumps(value)}\n" for key, value in config.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(["simulate", "--config", str(path)])
    error = _refusal(code, *capsys.readouterr())
    assert "dl_power = 1e-300" in error and "noise_power" in error


_FUZZ_PROFILES = st.lists(
    st.fixed_dictionaries(
        {
            "name": st.sampled_from(["a", "b"]),
            # subnormal rates: 4 f T and 4 tau df underflow
            "max_doppler_hz": st.sampled_from([0.0, 5e-324, 1e-310, 5.0, 70.0, 300.0, 1e5]),
            "max_delay_spread_s": st.sampled_from(
                [0.0, 5e-324, 1e-310, 0.4e-6, 1e-6, 5e-6, 1e-3]
            ),
        }
    ),
    min_size=1,
    max_size=3,
)
_FUZZ_CONFIGS = st.fixed_dictionaries(
    {
        "m_list": st.lists(st.integers(1, 8), min_size=1, max_size=2),
        "u_mux_list": st.lists(st.integers(1, 5), min_size=1, max_size=2),
        "num_rbs": st.integers(1, 3),
        "trials": st.just(1),
        "direction": st.sampled_from(["uplink", "downlink", "both"]),
        "scheduler": st.sampled_from(["exact", "greedy"]),
    },
    optional={
        "symbols_per_rb": st.integers(1, 14),
        "subcarriers_per_rb": st.integers(1, 12),
        "ul_power": _FLOATS,
        "dl_power": _FLOATS,
        "snr_db": _FLOATS,
        "noise_power": _FLOATS,
        "fading": st.sampled_from(["constant", "lognormal:6", "lognormal:40"]),
        "group_sizes": st.lists(st.integers(0, 4), min_size=1, max_size=5),
        "profiles": _FUZZ_PROFILES,
    },
)


_SUBNORMAL_CONFIGS = [
    {
        "m_list": [2], "u_mux_list": [2], "num_rbs": 2, "trials": 1, "direction": "both",
        "scheduler": scheduler,
        "profiles": [
            {"name": "a", "max_doppler_hz": doppler, "max_delay_spread_s": delay},
            {"name": "b", "max_doppler_hz": 70.0, "max_delay_spread_s": 1e-6},
        ],
    }
    for scheduler, doppler, delay in [
        ("exact", 1e-310, 1e-6), ("greedy", 5e-324, 1e-6), ("exact", 70.0, 5e-324),
    ]
]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(_ZERO_RATE_CONFIGS[0])
@example(_ZERO_RATE_CONFIGS[1])
@example(_SUBNORMAL_CONFIGS[0])
@example(_SUBNORMAL_CONFIGS[1])
@example(_SUBNORMAL_CONFIGS[2])
@given(_FUZZ_CONFIGS)
def test_cli_simulate_finite_rows_or_one_json_line(tmp_path_factory, config):
    """Any config of small M and one trial either runs, with every float of
    every row finite and nothing on stderr, or exits 1 with one JSON line on
    stderr and nothing on stdout."""
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["simulate", "--config", str(path)])
    if code == 0:
        assert err.getvalue() == ""
        header, *rows = out.getvalue().splitlines()
        assert header == CSV_HEADER and rows
        for row in rows:
            rec = dict(zip(CSV_HEADER.split(","), row.split(",")))
            assert all(math.isfinite(float(rec[k])) for k in ("R_grp", "R_conv", "rel_gain", "bound"))
    else:
        _refusal(code, out.getvalue(), err.getvalue())


def test_cli_exact_budget_error(tmp_path, capsys):
    path = tmp_path / "big.toml"
    path.write_text('m_list = [8]\nu_mux_list = [7]\ntrials = 1\nscheduler = "exact"\n')
    assert "greedy" in _refusal(cli_main(["simulate", "--config", str(path)]), *capsys.readouterr())


def _child_env() -> dict:
    """The environment with the repository's src/ first on PYTHONPATH, so a
    child interpreter imports this checkout's package."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_cli_unknown_flag_exits_2(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "pilotadapt.cli", "simulate", "--bogus"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 2


def test_cli_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pilotadapt.cli", "--help"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "patterns" in proc.stdout


def test_exact_sweep_does_not_import_numpy_ma(tmp_path):
    """numpy imports numpy.ma on the first np.unique of a process, about
    15 ms; an exact CLI sweep needs neither, nor scipy, which only the
    tests use. Nor does a greedy sweep, whose later RBs are built for
    fewer users than K."""
    config = tmp_path / "exact.toml"
    config.write_text(
        'm_list = [8]\nu_mux_list = [2]\ntrials = 1\nnum_rbs = 2\nscheduler = "exact"\n'
    )
    greedy = tmp_path / "greedy.toml"
    greedy.write_text(
        'm_list = [8]\nu_mux_list = [4]\ntrials = 2\nnum_rbs = 4\nscheduler = "greedy"\n'
    )
    code = (
        "import sys\n"
        "from pilotadapt.cli import main\n"
        f"main(['simulate', '--config', {str(config)!r}, '--out', {str(tmp_path / 'rows.csv')!r}])\n"
        "print('numpy.ma' in sys.modules, 'scipy' in sys.modules)\n"
        f"main(['simulate', '--config', {str(greedy)!r}, '--out', {str(tmp_path / 'g.csv')!r}])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "rows.csv").read_text().count("\n") == 2
    assert (tmp_path / "g.csv").read_text().count("\n") == 3
    assert proc.stdout.split() == ["False", "False", "False"]


_TINY_CONFIG = 'm_list = [8]\nu_mux_list = [2]\ntrials = 1\nnum_rbs = 2\nscheduler = "greedy"\n'


@pytest.mark.parametrize(
    "command",
    [["patterns"], ["simulate"], ["sweep"], ["asymptotics"],
     ["validate-estimation", "--trials", "2"]],
    ids=lambda command: command[0],
)
def test_cli_command_runs_in_fresh_process(tmp_path, command):
    """The CLI imports each command's modules inside the command, so each
    runs in a process of its own: an in-process test would miss a missing
    import, since an earlier test has usually loaded the module."""
    config = tmp_path / "tiny.toml"
    config.write_text(_TINY_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-m", "pilotadapt.cli", *command, "--config", str(config)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize(
    "config, omitted", [("configs/fig4.toml", "5, 6, 7"), ("configs/table1.toml", None)]
)
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_cli_patterns_notes_omitted_mux_orders(capsys, config, omitted, fmt):
    """`patterns` shows the first u_mux_list entry on stdout, and one `# `
    line on stderr names the mux orders it leaves out."""
    argv = ["patterns", "--config", str(ROOT / config)]
    assert cli_main(argv + ([] if fmt == "text" else ["--format", fmt])) == 0
    out, err = capsys.readouterr()
    assert out.startswith({"text": "pattern registry at mux order 4", "csv": "kind,",
                           "json": '{\n  "mux_order": 4,'}[fmt])
    if omitted is None:
        assert err == ""
    else:
        assert len(err.splitlines()) == 1 and err.startswith("# ")
        assert f"mux orders {omitted} " in err


def test_readme_library_example_runs():
    """Both of the README's library examples run as written in a fresh
    process, and the first prints two finite rates."""
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library use"):readme.index("## Notes")]
    blocks = [block.partition("```")[0] for block in section.split("```python\n")[1:]]
    assert len(blocks) == 2
    outputs = []
    for code in blocks:
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    rates = [float(word) for word in outputs[0].split()]
    assert len(rates) == 2 and all(math.isfinite(r) for r in rates)


def test_commands_import_only_what_they_run(tmp_path):
    """`patterns` loads no scheduling, sweep or estimation code, no thread
    pool and no numpy, at explicit fading too, and neither does
    `asymptotics` at constant fading; a one-worker `simulate` loads neither
    estimation nor the pool. Importing the package loads none of its modules
    and defines no public name, and the benchmark tracer's own import works."""
    config = tmp_path / "tiny.toml"
    config.write_text(_TINY_CONFIG)
    explicit = tmp_path / "explicit.toml"
    explicit.write_text(_TINY_CONFIG + 'fading = "explicit:0.3,0.7,1.9"\n')
    unwanted = ["pilotadapt.scheduling", "pilotadapt.experiments", "pilotadapt.estimation",
                "concurrent.futures"]
    code = (
        "import sys\n"
        "from pilotadapt.cli import main\n"
        f"main(['patterns', '--config', {str(config)!r}, '--out', {str(tmp_path / 'p.txt')!r}])\n"
        f"print([m for m in {unwanted!r} if m in sys.modules])\n"
        "print('numpy' in sys.modules)\n"
        f"main(['patterns', '--config', {str(explicit)!r}, '--out', {str(tmp_path / 'e.txt')!r}])\n"
        "print('numpy' in sys.modules)\n"
        f"main(['asymptotics', '--config', {str(config)!r}, '--out', {str(tmp_path / 'a.csv')!r}])\n"
        f"print([m for m in {unwanted!r} if m in sys.modules])\n"
        "print('numpy' in sys.modules)\n"
        f"main(['simulate', '--config', {str(config)!r}, '--out', {str(tmp_path / 'rows.csv')!r}])\n"
        f"print([m for m in {unwanted[2:]!r} if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**_child_env(), experiments.WORKERS_ENV_VAR: "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "False", "False", "[]", "False", "[]"]
    assert (tmp_path / "rows.csv").read_text().count("\n") == 2

    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import pilotadapt\n"
        "print(sorted(set(sys.modules) - before))\n"
        "print([n for n in dir(pilotadapt) if not n.startswith('_')])\n"
        "from pilotadapt import cli, experiments, scheduling\n"
        "print(cli.main is not None, experiments.run_trial is not None, scheduling.__name__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['pilotadapt']", "[]", "True True pilotadapt.scheduling"
    ]


# definitions that nothing in src/ uses yet, with the reason each stays
UNUSED_IN_SRC = {
    "ScheduleAssignment.to_dict": "the planned per-trial trace writes assignments with it",
}


def _definitions(body, prefix=""):
    """(qualified name, node) of every function and class in `body`, nested
    ones included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from _definitions(node.body, f"{prefix}{node.name}.")


def _unused_definitions(src: Path) -> list[str]:
    """Functions, classes and methods (dunders aside) that no Name,
    Attribute or import of `src` names outside their own definition."""
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    uses = []
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            uses.append((node.id, node))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, node))
        elif isinstance(node, ast.alias):
            uses.append((node.name.rpartition(".")[2], node))
    unused = []
    for tree in trees:
        for qualname, defn in _definitions(tree.body):
            if defn.name.startswith("__") and defn.name.endswith("__"):
                continue
            inside = {id(n) for n in ast.walk(defn)}
            if not any(name == defn.name and id(n) not in inside for name, n in uses):
                unused.append(qualname)
    return sorted(unused)


def test_every_definition_in_src_is_used_in_src():
    """Library code that only tests call does not stay in src/. A name that
    appears only inside a string does not count as a use."""
    assert _unused_definitions(ROOT / "src" / "pilotadapt") == sorted(UNUSED_IN_SRC)
