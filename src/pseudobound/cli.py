"""Command-line front end.

Subcommands: verify-bound (theorem trials to CSV), lemmas (deviation and
concentration checks to JSON), run (one self-learning experiment to JSON),
ablate (toggle grid to CSV), bound (assemble one report from JSON inputs).
All randomness flows from --seed / the config's master_seed; reals in CSV
output carry 9 significant digits.  A PseudoboundError (a bad config, grid
or seed, a failed run), a missing or unreadable file and a malformed JSON
file print one line to stderr and exit with status 3.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

from .bound import (
    BoundInputs,
    _fmt,
    assemble_bound,
    check_lemma2,
    check_lemma3_concentration,
    validate_theorem,
    write_trial_csv,
)
from .config import ExperimentConfig, Toggles, default_toggle_grid
from .domains import derive_seed, draw_pair_process
from .errors import ConfigurationError, PseudoboundError
from .pipeline import run_ablation, run_self_learning
from .risk import fit_plain
from .stumps import random_stump


def _cmd_verify_bound(args) -> int:
    config = ExperimentConfig.load(args.config)
    result = validate_theorem(config, trials=args.trials, rng_seed=args.seed)
    with open(args.out, "w", newline="") as fh:
        write_trial_csv(result, fh)
    report = result.report
    slack = report.rhs - max(r.eps_t_hat for r in result.rows)
    print(f"trials={args.trials} violation_rate={_fmt(result.violation_rate)} "
          f"delta={_fmt(config.delta)} rhs={_fmt(report.rhs)} "
          f"vacuous={report.vacuous} slack={_fmt(slack)}")
    return 0


def _reference_stump(config: ExperimentConfig, seed: int):
    """A sensible fixed hypothesis: exact ERM on a small clean source draw."""
    _, pairs = draw_pair_process(config.source, config.strategy, 512,
                                 derive_seed(seed, 90))
    h, _ = fit_plain(pairs, config.risk.big_m)
    return h


def _cmd_lemmas(args) -> int:
    config = ExperimentConfig.load(args.config)
    out = {}
    if args.which == 2:
        if args.stumps < 1:
            raise ConfigurationError(f"--stumps must be >= 1, got {args.stumps}")
        rng_stumps = [
            random_stump(derive_seed(args.seed, 91, i), config.target.feature_dim)
            for i in range(args.stumps)
        ]
        reports = [
            check_lemma2(h, config.source, config.target, config.risk.alpha,
                         config.risk.big_m, rng_seed=derive_seed(args.seed, 92, i),
                         strategy=config.strategy)
            for i, h in enumerate(rng_stumps)
        ]
        out = {
            "which": 2,
            "holds_all": all(r.holds for r in reports),
            "reports": [r.to_dict() for r in reports],
        }
    else:
        h = _reference_stump(config, args.seed)
        rows = check_lemma3_concentration(h, config, trials=args.trials,
                                          rng_seed=args.seed)
        out = {
            "which": 3,
            "hypothesis": h.to_dict(),
            "holds_all": all(r.holds for r in rows),
            "rows": [r.to_dict() for r in rows],
        }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(f"lemma {args.which}: holds_all={out['holds_all']}")
    return 0 if out["holds_all"] else 1


def _cmd_run(args) -> int:
    config = ExperimentConfig.load(args.config)
    result = run_self_learning(config)
    with open(args.out, "w") as fh:
        json.dump(result.to_dict(), fh, indent=2)
        fh.write("\n")
    last = result.iterations[-1]
    print(f"iterations={len(result.iterations)} "
          f"final_risk={_fmt(last.target_oracle_risk)} "
          f"rhs={_fmt(result.final_report.rhs)} "
          f"vacuous={result.final_report.vacuous} "
          f"wall_time={_fmt(result.wall_time)}s")
    return 0


def _load_grid(path: str | None):
    if path is None:
        return default_toggle_grid()
    with open(path) as fh:
        return [Toggles.from_dict(d) for d in json.load(fh)]


def _cmd_ablate(args) -> int:
    config = ExperimentConfig.load(args.config)
    table = run_ablation(config, _load_grid(args.grid))
    names = [f.name for f in dataclasses.fields(Toggles)]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["trials_ok", "trials_failed", "mean_final_risk"])
        for cell in table.cells:
            mean = cell.mean_final_risk
            writer.writerow(
                [int(getattr(cell.toggles, name)) for name in names]
                + [len(cell.final_risks), len(cell.failures),
                   "" if mean is None else _fmt(mean)])
    print(f"cells={len(table.cells)} trials_per_cell={config.trials}")
    return 0


def _cmd_bound(args) -> int:
    with open(args.inputs) as fh:
        inputs = BoundInputs.from_dict(json.load(fh))
    report = assemble_bound(inputs)
    json.dump(report.to_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudobound",
        description="Verification-task bound assembly, validation, and "
                    "self-learning experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-bound", help="Monte-Carlo theorem trials to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_verify_bound)

    p = sub.add_parser("lemmas", help="deviation/concentration checks to JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--which", type=int, choices=(2, 3), required=True)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--stumps", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lemmas)

    p = sub.add_parser("run", help="one self-learning experiment to JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("ablate", help="toggle-grid ablation table to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", default=None,
                   help="JSON list of toggle dicts; default: full binary grid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("bound", help="assemble a bound report from JSON inputs")
    p.add_argument("--inputs", required=True)
    p.set_defaults(func=_cmd_bound)
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Exit status: 0 done, 1 a lemma check failed,
    2 usage error (argparse), 3 a PseudoboundError, a file that cannot be
    opened (OSError) or a malformed JSON file, reported on one line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PseudoboundError, OSError, json.JSONDecodeError) as err:
        print(f"pseudobound: error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
