"""Command-line front end: train, score, report, simulate.

Values resolve in two layers: the INI config file (if given) sets the run
parameters, then explicit command-line flags override individual values.
Every command is deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from artifact.dynamics import SCORE_COLUMNS
from artifact.ingest import ConfigError, parse_utc, write_jsonl
from artifact.pipeline import (
    PipelineConfig,
    PipelineError,
    load_pipeline_config,
    score,
    train,
)

logger = logging.getLogger(__name__)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", dest="out_dir", type=Path,
                   help="output directory (default: out)")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="chatty logging")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--config", type=Path,
                   help="INI config file")
    p.add_argument("--seed", type=int,
                   help="master RNG seed")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--snort", dest="snort_paths", action="append", type=Path,
                   metavar="PATH", help="snort fast-format alert file (repeatable)")
    p.add_argument("--ossec", dest="ossec_paths", action="append", type=Path,
                   metavar="PATH", help="ossec alerts.log file (repeatable)")
    p.add_argument("--jsonl", dest="jsonl_paths", action="append", type=Path,
                   metavar="PATH", help="normalized JSONL alert file (repeatable)")
    p.add_argument("--hostmap", dest="hostmap_path", type=Path, metavar="PATH",
                   help="hostname-to-IP map file")
    p.add_argument("--snort-year", type=int,
                   help="year of the first yearless snort timestamp (the format omits it)")
    p.add_argument("--source", choices=("snort", "ossec"),
                   help="keep only alerts from one IDS")


def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window-hours", type=float,
                   help="window length in hours (default 8)")
    p.add_argument("--training-days", type=float,
                   help="training span in days (default 7)")
    p.add_argument("--origin-utc", dest="origin", type=parse_utc, metavar="ORIGIN_UTC",
                   help="window grid origin, ISO-8601 UTC")


def build_parser() -> argparse.ArgumentParser:
    """Every flag of `train` and `score` but --config, --verbose and --model
    is named after the `PipelineConfig` field it sets."""
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Role-dynamics anomaly detection over IDS alert streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a role model bundle")
    _add_run_flags(p_train)
    _add_input_flags(p_train)
    _add_window_flags(p_train)
    p_train.add_argument("--max-depth", type=int,
                         help="feature recursion depth")
    p_train.add_argument("--prune-tolerance", type=float,
                         help="relative residual below which a feature is redundant")
    p_train.add_argument("--max-roles", type=int,
                         help="largest role count in the grid search")
    p_train.add_argument("--max-bits", type=int,
                         help="largest bit width in the grid search")

    p_score = sub.add_parser("score", help="score windows against a bundle")
    _add_run_flags(p_score)
    _add_input_flags(p_score)
    p_score.add_argument("--model", type=Path, required=True,
                         help="trained bundle directory")
    p_score.add_argument("--threshold", type=float,
                         help="flagging threshold on the role-change score (default 0.05)")
    p_score.add_argument("--layer",
                         help="restrict the score to one node layer (e.g. logfile)")

    p_report = sub.add_parser("report", help="render a score CSV")
    _add_common(p_report)
    p_report.add_argument("scores_csv", type=Path, help="scores.csv from `score`")

    p_sim = sub.add_parser("simulate", help="generate a synthetic alert stream")
    _add_run_flags(p_sim)
    return parser


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """The config file's settings, or the defaults, with each given flag on top."""
    cfg = load_pipeline_config(args.config) if args.config is not None else PipelineConfig()
    given = {f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)}
    return replace(cfg, **{name: value for name, value in given.items() if value is not None})


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    result = train(cfg)
    sys.stdout.write(result.summary)
    print(f"bundle: {result.bundle_dir}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    result = score(cfg, args.model)
    print(f"scored {len(result.scores)} windows -> {result.csv_path}")
    if result.flagged_windows:
        print(f"flagged windows: {', '.join(map(str, result.flagged_windows))}")
    else:
        print("no windows above threshold")
    return 0


# -- report -------------------------------------------------------------------


def _read_scores_csv(path: Path) -> list[dict[str, str]]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fp:
            # No cell is longer than the file, but a top_contributions cell
            # can be longer than the csv module's default limit.
            csv.field_size_limit(max(csv.field_size_limit(), os.fstat(fp.fileno()).st_size))
            reader = csv.reader(fp)
            try:
                header = next(reader)
            except StopIteration:
                raise PipelineError(f"{path} is empty") from None
            if tuple(header) != SCORE_COLUMNS:
                raise PipelineError(
                    f"{path} does not look like a scores CSV "
                    f"(expected columns {list(SCORE_COLUMNS)}, found {header})"
                )
            rows = []
            for line in reader:
                if len(line) != len(SCORE_COLUMNS):
                    raise PipelineError(
                        f"{path}: row has {len(line)} cells, expected {len(SCORE_COLUMNS)}"
                    )
                rows.append(dict(zip(SCORE_COLUMNS, line)))
            return rows
    except UnicodeDecodeError as exc:
        raise PipelineError(f"{path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise PipelineError(f"{path} is not a readable CSV: {exc}") from None


def cmd_report(args: argparse.Namespace) -> int:
    rows = _read_scores_csv(args.scores_csv)
    try:
        for row in rows:  # cheap validation pass before writing anything
            float(row["score"])
            int(row["flagged"])
            int(row["alert_count"])
            parse_utc(row["window_start_utc"])
    except ValueError as exc:
        raise PipelineError(f"{args.scores_csv}: unreadable cell ({exc})") from None

    out = args.out_dir if args.out_dir is not None else Path("out")
    out.mkdir(parents=True, exist_ok=True)
    plot_path = out / "plot.dat"
    with open(plot_path, "w", encoding="utf-8") as fp:
        fp.write("# index start_epoch score flagged alert_count\n")
        for i, row in enumerate(rows):
            fp.write(
                f"{i} {parse_utc(row['window_start_utc'])!r} {row['score']} "
                f"{row['flagged']} {row['alert_count']}\n"
            )

    flagged = [r for r in rows if r["flagged"] == "1"]
    lines = [
        f"windows scored: {len(rows)}",
        f"windows flagged: {len(flagged)}",
    ]
    for row in flagged:
        lines.append(
            f"  {row['window_start_utc']} .. {row['window_end_utc']}  "
            f"score={float(row['score']):.6f}  alerts={row['alert_count']}"
        )
    text = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    print(f"plot data: {plot_path}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    # train and score never need the scenario generator; it loads here only
    from artifact.scenario import default_scenario, generate_scenario, load_scenario_config

    cfg = load_scenario_config(args.config) if args.config is not None else default_scenario()
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    out = args.out_dir if args.out_dir is not None else Path("out")
    out.mkdir(parents=True, exist_ok=True)
    stream = generate_scenario(cfg)
    path = out / "alerts.jsonl"
    write_jsonl(stream, path)
    print(f"wrote {len(stream)} alerts to {path}")
    if cfg.attack is not None:
        print(f"attack windows: {sorted(cfg.attack.windows())}"
              f" ({cfg.attack.total_alerts()} alerts)")
    if cfg.spike is not None:
        print(f"volume-spike window: {cfg.spike.window} "
              f"(x{cfg.spike.multiplier})")
    return 0


COMMANDS = {
    "train": cmd_train,
    "score": cmd_score,
    "report": cmd_report,
    "simulate": cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return COMMANDS[args.command](args)
    except (PipelineError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
