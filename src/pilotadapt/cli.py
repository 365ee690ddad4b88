"""Command-line front end.

Subcommands: patterns, simulate, sweep, asymptotics, validate-estimation.
Errors print a one-line JSON diagnostic to stderr and exit nonzero. A
module that only some commands run is imported inside those commands, so a
process loads only what its command needs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from .channel import PilotSpacing, max_spacing
from .config import ExperimentConfig, load_config
from .errors import PilotAdaptError
from .patterns import conventional_pattern, default_registry, pattern_to_dict


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="experiment config file (TOML or JSON)")
    sub.add_argument("--seed", type=int, help="override the master seed")
    sub.add_argument("--out", help="output file (default: config `out` or stdout)")
    sub.add_argument("--format", choices=("csv", "json"), help="output format")


def _load(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["out"] = args.out
    if getattr(args, "format", None) is not None:
        updates["format"] = args.format
    if updates:
        cfg = replace(cfg, **updates)
    return cfg


def _emit(text: str, cfg: ExperimentConfig) -> None:
    if cfg.out:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_patterns(args) -> int:
    # text grid maps unless the config or --format names csv or json
    cfg = _load(args)
    profiles = cfg.resolved_profiles()
    mux = cfg.u_mux_list[0]
    registry = default_registry(profiles, cfg.numerology, mux)
    conv = conventional_pattern(registry)

    if cfg.format == "json":
        payload = {
            "mux_order": mux,
            "registry": [pattern_to_dict(p) for p in registry.patterns],
            "conventional": pattern_to_dict(conv),
        }
        _emit(json.dumps(payload, indent=2) + "\n", cfg)
        return 0

    if cfg.format == "csv":
        lines = ["kind,spacing_t,spacing_f,size,overhead_ratio"]
        for pat in registry.patterns:
            sp = pat.spacing
            lines.append(
                f"registry,{sp.time_spacing_symbols},{sp.freq_spacing_subcarriers},"
                f"{pat.size},{pat.overhead_ratio}"
            )
        sp = conv.spacing
        lines.append(
            f"conventional,{sp.time_spacing_symbols},{sp.freq_spacing_subcarriers},"
            f"{conv.size},{conv.overhead_ratio}"
        )
        _emit("\n".join(lines) + "\n", cfg)
        return 0

    lines = [f"pattern registry at mux order {mux} "
             f"({cfg.numerology.symbols_per_rb}x{cfg.numerology.subcarriers_per_rb} grid)"]
    for pat in registry.patterns:
        sp = pat.spacing
        lines.append(
            f"\nspacing ({sp.time_spacing_symbols}, {sp.freq_spacing_subcarriers}): "
            f"{pat.size} pilot REs, overhead {pat.overhead_ratio:.4f}"
        )
        lines.append(pat.grid_string())
    sp = conv.spacing
    lines.append(
        f"\nconventional (worst case): spacing ({sp.time_spacing_symbols}, "
        f"{sp.freq_spacing_subcarriers}), {conv.size} pilot REs, "
        f"overhead {conv.overhead_ratio:.4f}"
    )
    _emit("\n".join(lines) + "\n", cfg)
    return 0


def _cmd_simulate(args) -> int:
    from .experiments import rows_to_csv, rows_to_json, run_sweep, summarize_gains

    cfg = _load(args)
    rows = run_sweep(cfg)
    _emit(rows_to_json(rows) if cfg.format == "json" else rows_to_csv(rows), cfg)
    if args.command != "sweep":
        return 0
    for entry in summarize_gains(rows):
        sys.stderr.write(
            f"# {entry['direction']} M={entry['M']} U={entry['U_mux']}: "
            f"gain {entry['mean_rel_gain']:+.4f} +- {entry['stderr_rel_gain']:.4f} "
            f"(bound {entry['bound']:.4f}, {entry['trials']} trials)\n"
        )
    return 0


def _cmd_asymptotics(args) -> int:
    from .asymptotics import deterministic_sinr, sinr_bar

    cfg = _load(args)
    eta_bar = cfg.fading.mean()
    entries = []
    profiles = cfg.resolved_profiles()
    for mux in cfg.u_mux_list:
        bound = cfg.gain_bound(mux, default_registry(profiles, cfg.numerology, mux))
        for m in cfg.m_list:
            sys_cfg = cfg.system_config(m, mux)
            for direction in cfg.directions():
                det = deterministic_sinr(sys_cfg, direction, eta_bar, eta_bar)
                bar = sinr_bar(sys_cfg, direction, cfg.fading)
                entries.append(
                    {
                        "direction": direction,
                        "M": m,
                        "U_mux": mux,
                        "deterministic_sinr_at_mean_eta": det,
                        "sinr_bar": bar,
                        "log_rate": math.log2(1.0 + bar),
                        "gain_bound": bound,
                    }
                )
    if cfg.format == "json":
        _emit(json.dumps(entries, indent=2) + "\n", cfg)
    else:
        lines = ["direction,M,U_mux,det_sinr,sinr_bar,log_rate,gain_bound"]
        for e in entries:
            lines.append(
                f"{e['direction']},{e['M']},{e['U_mux']},"
                f"{e['deterministic_sinr_at_mean_eta']},{e['sinr_bar']},"
                f"{e['log_rate']},{e['gain_bound']}"
            )
        _emit("\n".join(lines) + "\n", cfg)
    return 0


def _cmd_validate_estimation(args) -> int:
    from .estimation import interpolation_nmse

    cfg = _load(args)
    header = ("profile", "spacing_t", "spacing_f", "nmse", "nmse_db")
    rows = []
    for prof in cfg.resolved_profiles():
        base = max_spacing(prof, cfg.numerology)
        doubled = PilotSpacing(
            base.time_spacing_symbols * 2, base.freq_spacing_subcarriers * 2
        )
        for spacing in (base, doubled):
            report = interpolation_nmse(
                prof, spacing, cfg.numerology, trials=args.trials, seed=cfg.seed
            )
            rows.append(
                (prof.name, spacing.time_spacing_symbols, spacing.freq_spacing_subcarriers,
                 report.nmse, report.nmse_db)
            )
    if cfg.format == "json":
        _emit(json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n", cfg)
    else:
        _emit("\n".join(",".join(map(str, row)) for row in [header, *rows]) + "\n", cfg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotadapt",
        description="Pilot pattern adaptation simulator for multi-user MIMO OFDM",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("patterns", help="print the pattern registry and grid maps")
    _add_common(p)
    p.set_defaults(func=_cmd_patterns)

    p = subs.add_parser("simulate", help="spectral-efficiency runs over the sweep grid")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("sweep", help="relative-gain sweep with the asymptotic bound")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("asymptotics", help="print closed-form limits and the gain bound")
    _add_common(p)
    p.set_defaults(func=_cmd_asymptotics)

    p = subs.add_parser(
        "validate-estimation", help="interpolation NMSE at rule and doubled spacings"
    )
    _add_common(p)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=_cmd_validate_estimation)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PilotAdaptError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
