"""Command line front end.

Usage sketches:

    geomgw law --regime kesten --eta 0.5 --q 0.5 --height 1 --degree-cap 6
    geomgw law --regime conditioned --eta 0.5 --q 0.5 --n 3 --a 2 \\
        --height 2 --degree-cap 4 --format json
    geomgw sample --regime poisson --eta 0.5 --q 0.5 --theta 0.7 \\
        --height 2 --samples 10 --seed 7
    geomgw oracle
    geomgw converge --config kesten --out curve.csv --svg curve.svg

Exit status: 0 on success, 1 on a validation or resource problem, 2 when a
numeric certification, truncation, or audit check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.resources
import json
import os
import sys

from .errors import (
    AuditError,
    CertificationError,
    ResourceError,
    TruncationError,
    ValidationError,
)
from .lab import (
    LAWS,
    ExperimentConfig,
    run_regime,
    run_theta_continuity,
    write_regime_csv,
    write_svg_chart,
    write_theta_csv,
)
from .offspring import OffspringParams
from .oracle import equivalence_suite
from .rng import RandomSource
from .sampler import TypedTree

# every regime option, with what it selects
REGIME_OPTIONS = {"n": "the conditioning generation",
                  "a": "the conditioning size",
                  "theta": "the skinny-family member",
                  "k0": "the restricted view",
                  "variant": "the condensation sampler"}


def _params(args: argparse.Namespace) -> OffspringParams:
    """The offspring law, once the regime's own options are all given and
    no option it does not read is."""
    p = OffspringParams(args.eta, args.q)
    regime = LAWS[args.regime]
    for name in regime.needs:
        if getattr(args, name) is None:
            raise ValidationError(f"--{name} is required here")
    reads = regime.needs + regime.takes.get(args.command, ())
    for name, role in REGIME_OPTIONS.items():
        if name not in reads and getattr(args, name, None) is not None:
            raise ValidationError(
                f"--{name} sets {role}, which `{args.command} --regime "
                f"{args.regime}` does not read"
            )
    return p


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _cmd_law(args: argparse.Namespace) -> int:
    p = _params(args)
    family, family_args = LAWS[args.regime].law(p, args.height, args.degree_cap, args)
    law = family(*family_args)
    with _open_out(args.out) as out:
        if args.format == "json":
            doc = {
                "meta": law.meta,
                "log_residual": law.log_residual,
                "entries": law.entries,
            }
            json.dump(doc, out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            law.write_csv(out)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.samples < 0:
        raise ValidationError(f"--samples must be >= 0, got {args.samples}")
    draw = LAWS[args.regime].sampler(_params(args), args.height, args)
    root = RandomSource(args.seed)
    # the first draw runs the sampler's own checks before --out is opened;
    # substreams are independent, so it is row 0 whatever comes after
    first = draw(root.child(0))
    typed = isinstance(first, TypedTree)
    with _open_out(args.out) as out:
        out.write("tree_code,survivor_flags\n" if typed else "tree_code\n")
        for i in range(args.samples):
            tree = first if i == 0 else draw(root.child(i))
            if isinstance(tree, TypedTree):
                out.write(f'"{tree.tree.encode()}","{tree.flag_string()}"\n')
            else:
                out.write(f'"{tree.encode()}"\n')
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    rows = equivalence_suite()
    failed = 0
    for name, passed, detail in rows:
        tag = "PASS" if passed else "FAIL"
        failed += not passed
        print(f"{tag} {name}: {detail}")
    print(f"{len(rows) - failed}/{len(rows)} equivalence checks passed")
    return 2 if failed else 0


def _resolve_config(ref: str) -> ExperimentConfig:
    if os.path.exists(ref):
        return ExperimentConfig.load(ref)
    packaged = importlib.resources.files("geomgw") / "configs" / f"{ref}.json"
    if packaged.is_file():
        return ExperimentConfig.from_json(packaged.read_text())
    raise ValidationError(
        f"no config file or bundled config named {ref!r} "
        "(bundled: kesten, poisson, condensation)"
    )


# per mode: the sweep, its CSV writer, the chart's x column (the grid value)
# and whether its axis is log10, and the charted columns by curve name
CONVERGE_MODES = {
    "regime": (run_regime, write_regime_csv, "n", False,
               {"tv_exact": "tv_exact", "residual bound": "tv_residual_bound"}),
    "theta": (run_theta_continuity, write_theta_csv, "theta", True,
              {"gap to kesten": "gap_kesten", "tv to kesten": "tv_kesten",
               "gap to condensation": "gap_condensation",
               "tv to condensation": "tv_condensation"}),
}


def _cmd_converge(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args.config)
    sweep, write, x, log_x, curves = CONVERGE_MODES[args.mode]
    # both outputs open before the sweep, so a bad path costs no sweep
    with _open_out(args.out) as out, (
        open(args.svg, "w") if args.svg else contextlib.nullcontext()
    ) as svg:
        rows = sweep(cfg)
        write(rows, out)
        if svg:
            series = [(name, [(float(getattr(r, x)), getattr(r, c)) for r in rows])
                      for name, c in curves.items()]
            write_svg_chart(series, svg, x, "distance", log_x=log_x)
    total_ms = sum(r.runtime_ms for r in rows)
    print(
        f"{len(rows)} rows ({cfg.regime}, {args.mode} mode) in {total_ms:.0f} ms",
        file=sys.stderr,
    )
    return 0


def _add_law_options(sp: argparse.ArgumentParser) -> None:
    """The options `law` and `sample` share."""
    sp.add_argument("--eta", type=float, required=True, help="mass 1-eta at zero")
    sp.add_argument("--q", type=float, required=True, help="geometric tail parameter")
    sp.add_argument("--regime", required=True, choices=tuple(LAWS))
    sp.add_argument("--height", type=int, required=True, help="ball radius h")
    sp.add_argument("--n", type=int, help="conditioning generation")
    sp.add_argument("--a", type=int, help="conditioning size of generation n")
    sp.add_argument("--theta", type=float)
    sp.add_argument("--k0", type=int, help="keep only the first k0 root children")
    sp.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="geomgw",
        description="exact laws, samplers, and convergence experiments for "
        "geometric branching trees",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    law = sub.add_parser("law", help="print an exact truncated ball law")
    _add_law_options(law)
    law.add_argument("--degree-cap", type=int, required=True)
    law.add_argument("--format", choices=("csv", "json"), default="csv")
    law.set_defaults(func=_cmd_law)

    smp = sub.add_parser("sample", help="draw trees and print them line by line")
    _add_law_options(smp)
    smp.add_argument("--samples", type=int, default=1)
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument(
        "--variant", choices=("two_type", "inhomogeneous"),
        help="condensation sampler (default two_type)",
    )
    smp.set_defaults(func=_cmd_sample)

    orc = sub.add_parser("oracle", help="run the brute-force equivalence suite")
    orc.set_defaults(func=_cmd_oracle)

    cnv = sub.add_parser("converge", help="run a convergence sweep from a config")
    cnv.add_argument(
        "--config",
        required=True,
        help="path to a config JSON, or a bundled name (kesten, poisson, "
        "condensation)",
    )
    cnv.add_argument("--mode", choices=tuple(CONVERGE_MODES), default="regime")
    cnv.add_argument("--out", help="CSV destination (default stdout)")
    cnv.add_argument("--svg", help="also draw a line chart to this path")
    cnv.set_defaults(func=_cmd_converge)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TruncationError, CertificationError, AuditError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream reader (head, a closed pager) went away mid-write;
        # park stdout on devnull so the interpreter's exit flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except OSError as exc:
        # a path that cannot be opened: a missing directory, a directory
        # named as a file, no permission
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
