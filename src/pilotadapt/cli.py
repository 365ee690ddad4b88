"""Command-line front end.

Subcommands: patterns, simulate, sweep, asymptotics, validate-estimation.
Every table goes through `table_text`: CSV lines under a header, or JSON
records keyed by that header. Errors print a one-line JSON diagnostic to
stderr and exit nonzero. A module that only some commands run is imported
inside those commands, so a process loads only what its command needs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import astuple, replace

from .config import ExperimentConfig, load_config
from .errors import PilotAdaptError
from .patterns import (
    PilotSpacing, conventional_pattern, default_registry, max_spacing, pattern_to_dict
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="experiment config file (TOML or JSON)")
    sub.add_argument("--seed", type=int, help="override the master seed")
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), help="output format")


def _load(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def table_text(header, rows, fmt: str) -> str:
    """`rows` as JSON records keyed by `header` if `fmt` is "json", else as
    CSV lines of their `str()` fields under the header. JSON has no
    infinity or NaN, so a non-finite float is written there as null."""
    if fmt == "json":
        records = [
            {key: None if isinstance(v, float) and not math.isfinite(v) else v
             for key, v in zip(header, row)}
            for row in rows
        ]
        return json.dumps(records, indent=2) + "\n"
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def _cmd_patterns(args) -> int:
    # text grid maps unless --format names csv or json, for the first
    # u_mux_list entry only; a note on stderr names the others
    cfg = _load(args)
    mux = cfg.u_mux_list[0]
    registry = default_registry(cfg.profiles, cfg.numerology, mux)
    conv = conventional_pattern(registry)
    kinds = ["registry"] * len(registry.patterns) + ["conventional"]
    rows = [(kind, *astuple(p.spacing), p.size, p.overhead_ratio)
            for kind, p in zip(kinds, [*registry.patterns, conv])]

    if args.format == "json":
        payload = {
            "mux_order": mux,
            "registry": [pattern_to_dict(p) for p in registry.patterns],
            "conventional": pattern_to_dict(conv),
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        text = table_text(("kind", "spacing_t", "spacing_f", "size", "overhead_ratio"), rows, "csv")
    else:
        lines = [f"pattern registry at mux order {mux} "
                 f"({cfg.numerology.symbols_per_rb}x{cfg.numerology.subcarriers_per_rb} grid)"]
        for (_, t, f, size, overhead), pat in zip(rows, registry.patterns):
            lines += [f"\nspacing ({t}, {f}): {size} pilot REs, overhead {overhead:.4f}",
                      pat.grid_string()]
        _, t, f, size, overhead = rows[-1]
        lines.append(f"\nconventional (worst case): spacing ({t}, {f}), {size} pilot REs, "
                     f"overhead {overhead:.4f}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    omitted = sorted(set(cfg.u_mux_list) - {mux})
    if omitted:
        sys.stderr.write(
            f"# patterns shows mux order {mux} only; mux orders "
            f"{', '.join(map(str, omitted))} of u_mux_list are omitted\n"
        )
    return 0


def _cmd_simulate(args) -> int:
    from .experiments import CSV_HEADER, run_sweep, summarize_gains

    cfg = _load(args)
    rows = run_sweep(cfg)
    _emit(table_text(CSV_HEADER.split(","), [astuple(r) for r in rows], args.format), args.out)
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
    header = ("direction", "M", "U_mux", "det_sinr", "sinr_bar", "log_rate", "gain_bound")
    rows = []
    for mux in cfg.u_mux_list:
        bound = cfg.gain_bound(mux)
        for m in cfg.m_list:
            sys_cfg = cfg.system_config(m, mux)
            for direction in cfg.directions():
                det = deterministic_sinr(sys_cfg, direction, eta_bar, eta_bar)
                bar = sinr_bar(sys_cfg, direction, cfg.fading)
                rows.append((direction, m, mux, det, bar, math.log2(1.0 + bar), bound))
    _emit(table_text(header, rows, args.format), args.out)
    return 0


def _cmd_validate_estimation(args) -> int:
    from .estimation import interpolation_nmse

    cfg = _load(args)
    header = ("profile", "spacing_t", "spacing_f", "nmse", "nmse_db")
    rows = []
    for prof in cfg.profiles:
        t, f = astuple(max_spacing(prof, cfg.numerology))
        spacings = ((t, f), (2 * t, 2 * f))  # the rule spacing and twice it
        nmses = interpolation_nmse(prof, [PilotSpacing(*sp) for sp in spacings], cfg.numerology,
                                   args.trials, cfg.seed)
        # math.log10 raises at 0: a spacing with nothing to interpolate
        rows += [(prof.name, *sp, nmse, 10.0 * math.log10(nmse) if nmse > 0.0 else -math.inf)
                 for sp, nmse in zip(spacings, nmses)]
    _emit(table_text(header, rows, args.format), args.out)
    return 0


# (subcommand, handler, help), in the order --help lists them
_COMMANDS = (
    ("patterns", _cmd_patterns, "print the pattern registry and grid maps"),
    ("simulate", _cmd_simulate, "spectral-efficiency runs over the sweep grid"),
    ("sweep", _cmd_simulate, "relative-gain sweep with the asymptotic bound"),
    ("asymptotics", _cmd_asymptotics, "print closed-form limits and the gain bound"),
    ("validate-estimation", _cmd_validate_estimation,
     "interpolation NMSE at rule and doubled spacings"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pilotadapt",
        description="Pilot pattern adaptation simulator for multi-user MIMO OFDM",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in _COMMANDS:
        p = subs.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(func=func)
    subs.choices["validate-estimation"].add_argument("--trials", type=int, default=100)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PilotAdaptError, OSError) as exc:
        error = str(exc)
    except MemoryError as exc:  # a bare MemoryError has an empty message
        error = f"out of memory: {exc}" if str(exc) else "out of memory"
    sys.stderr.write(json.dumps({"error": error}) + "\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
