import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from pilotadapt import channel, experiments
from pilotadapt.cli import main as cli_main
from pilotadapt.errors import ConfigurationError, ExactSearchBudgetError
from pilotadapt.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    config_from_dict,
    load_config,
    parse_flat_config,
    replay_row,
    rows_to_csv,
    run_sweep,
    run_trial,
    summarize_gains,
    trial_seed,
)
from pilotadapt.scheduling import RbRateCalculator

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
    a = rows_to_csv(run_sweep(cfg))
    b = rows_to_csv(run_sweep(cfg))
    assert a == b
    assert a.splitlines()[0] == CSV_HEADER
    assert CSV_HEADER == "M,U_mux,trial,direction,R_grp,R_conv,rel_gain,bound,scheduler,seed"


def test_worker_count_invariance(monkeypatch):
    cfg = ExperimentConfig(**QUICK)
    monkeypatch.setenv("PILOTADAPT_WORKERS", "1")
    a = rows_to_csv(run_sweep(cfg))
    monkeypatch.setenv("PILOTADAPT_WORKERS", "4")
    b = rows_to_csv(run_sweep(cfg))
    assert a == b


def test_replay_row_round_trip():
    cfg = ExperimentConfig(**QUICK)
    rows = run_sweep(cfg)
    for row in rows[:2]:
        again = replay_row(cfg, row)
        assert again.r_grp == row.r_grp
        assert again.r_conv == row.r_conv


@pytest.mark.parametrize("scheduler", ["greedy", "exact"])
def test_trial_builds_each_rb_gram_once(monkeypatch, scheduler):
    builds = Counter()  # draws of one RB's channels, keyed by (seed, RB)
    draw = channel._antenna_blocks

    def counting_draw(pop, profiles, cfg, seed, rb):
        builds[seed, rb] += 1
        return draw(pop, profiles, cfg, seed, rb)

    monkeypatch.setattr(channel, "_antenna_blocks", counting_draw)
    cfg = ExperimentConfig(**{**QUICK, "direction": "both", "scheduler": scheduler})
    rows = run_trial(cfg, 8, 4, 0, trial_seed(cfg.seed, 0, 0, 0))
    assert [r.direction for r in rows] == ["uplink", "downlink"]
    assert list(builds.values()) == [1] * cfg.num_rbs


def test_benchmark_trace_points_exist(monkeypatch):
    """The per-layer benchmark wraps these names; a rename would blank its spans."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    path = Path(__file__).resolve().parent.parent / "perfbench" / "traced_simulate.py"
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


def test_fig4_rows_carry_bound_and_summary():
    cfg = ExperimentConfig(**QUICK)
    rows = run_sweep(cfg)
    assert all(r.bound > 0 for r in rows)
    summary = summarize_gains(rows)
    assert len(summary) == 2  # one per M
    for entry in summary:
        assert entry["trials"] == 2
        assert entry["bound"] == pytest.approx(rows[0].bound)


def test_flat_config_parsing(tmp_path):
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


def test_json_config_with_custom_profiles(tmp_path):
    data = {
        "m_list": [8],
        "u_mux_list": [2],
        "trials": 1,
        "num_rbs": 2,
        "scheduler": "greedy",
        "group_sizes": [2, 2],
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
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(data))
    cfg = load_config(str(path))
    profs = cfg.resolved_profiles()
    assert [p.name for p in profs] == ["slow", "fast"]
    assert profs[1].taps == ((0.0, 0.6), (2.0e-6, 0.4))
    rows = run_sweep(cfg)
    assert len(rows) == 1


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown config key"):
        config_from_dict({"m_list": [8], "bogus": 1})


def test_flat_parser_scalars():
    parsed = parse_flat_config('a = 1\nb = 2.5\nc = "x"\nd = [1, 2]\ne = true\n')
    assert parsed == {"a": 1, "b": 2.5, "c": "x", "d": [1, 2], "e": True}
    # a `#` inside quotes is part of the value; one outside starts a comment
    parsed = parse_flat_config('out = "rows#1.csv"\ntrials = 3  # "three"\n# whole line\n')
    assert parsed == {"out": "rows#1.csv", "trials": 3}


def test_auto_group_sizes_scale_with_mux():
    cfg = ExperimentConfig(m_list=(8,), u_mux_list=(4, 7), num_rbs=4, trials=1)
    assert cfg.sizes_for(4) == [4, 4, 4, 4]
    assert cfg.sizes_for(7) == [7, 7, 7, 7]


def test_snr_derives_noise_power():
    cfg = ExperimentConfig(m_list=(8,), u_mux_list=(4,), trials=1, snr_db=10.0)
    assert cfg.derived_noise_power() == pytest.approx(0.1)
    cfg = ExperimentConfig(m_list=(8,), u_mux_list=(4,), trials=1, noise_power=0.25)
    assert cfg.derived_noise_power() == 0.25


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
    assert payload[0]["deterministic_sinr_at_mean_eta"] == pytest.approx(want)
    assert payload[0]["sinr_bar"] == pytest.approx(want)


def test_cli_validate_estimation(tmp_path, capsys):
    cfg = _write_quick_config(tmp_path)
    assert cli_main(["validate-estimation", "--config", cfg, "--trials", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "profile,spacing_t,spacing_f,nmse,nmse_db"
    assert len(lines) == 1 + 2 * 4  # rule and doubled spacing per builtin profile


def test_cli_sweep_prints_gain_summary(tmp_path, capsys):
    cfg = _write_quick_config(tmp_path)
    assert cli_main(["sweep", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == CSV_HEADER
    assert "gain" in captured.err and "bound" in captured.err


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
    assert cli_main(["simulate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err.strip()
    payload = json.loads(err)
    assert "nonsense_key" in payload["error"]


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
        ("fading_dict_bad.json", json.dumps({"fading": {"kind": "constant", "value": "x"}})),
        (
            "fading_dict_negative_spread.json",
            json.dumps({"fading": {"kind": "lognormal", "spread_db": -3}}),
        ),
        ("binary.toml", b"\xff\xfe\x00trials = 1"),
    ],
)
def test_cli_malformed_config_one_json_line(tmp_path, capsys, filename, text):
    path = tmp_path / filename
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert cli_main(["simulate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error"}


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
    ],
)
def test_cli_out_of_range_sizes_refused_before_any_trial(tmp_path, capsys, monkeypatch, text, key):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "run_trial", no_trial)
    path = tmp_path / "range.toml"
    path.write_text('trials = 1\nscheduler = "greedy"\n' + text)
    assert cli_main(["simulate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert key in json.loads(lines[0])["error"]


def test_cli_users_do_not_fit_error(tmp_path, capsys):
    path = tmp_path / "crowded.toml"
    path.write_text(
        "m_list = [8]\nu_mux_list = [7, 4]\ntrials = 1\n"
        "group_sizes = [7, 7, 7, 7]\nscheduler = \"greedy\"\n"
    )
    assert cli_main(["simulate", "--config", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "28 users cannot fit 4 RBs x 4 layers"}


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_cli_bad_worker_count(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setenv("PILOTADAPT_WORKERS", workers)
    cfg = _write_quick_config(tmp_path)
    assert cli_main(["simulate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "PILOTADAPT_WORKERS" in json.loads(lines[0])["error"]


@pytest.mark.parametrize("command", ["simulate", "asymptotics"])
def test_cli_lognormal_mean_overflow_names_spread(tmp_path, capsys, command):
    """A spread whose lognormal mean overflows is blamed on spread_db, with or
    without an explicit noise power."""
    for text in ('fading = "lognormal:200"\n', 'fading = "lognormal:200"\nnoise_power = 0.1\n'):
        path = tmp_path / "spread.toml"
        path.write_text(text)
        assert cli_main([command, "--config", str(path)]) == 1
        assert "spread_db" in json.loads(capsys.readouterr().err)["error"]


def test_cli_exact_budget_error(tmp_path, capsys):
    path = tmp_path / "big.toml"
    path.write_text('m_list = [8]\nu_mux_list = [7]\ntrials = 1\nscheduler = "exact"\n')
    assert cli_main(["simulate", "--config", str(path)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "greedy" in err["error"]


def _child_env() -> dict:
    """The environment with the repository's src/ first on PYTHONPATH, so a
    child interpreter imports this checkout's package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
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
