"""Command-line surface. Deterministic: identical inputs and seeds give
byte-identical output. Scalars and matrices print with 12-digit fixed
formatting; structured results print as JSON documents.

Exit codes: 0 success, 1 validation failure (a malformed command line
among them) or a closed stdout, 2 file or parse failure.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from . import fileio
from .density import density, marginal, mc_density, require_affordable
from .density import product_identity_residual
from .errors import GraphonlabError, ParseError, ValidationError
from .momentlab import counterexample_report, matched_pair
from .spectral import eigendecomp, lift_check, path_kernel
# kernel_matrix and validate_graphon stay bound for bench/tracing.py, which counts their calls
from .stepgraphon import carleman_report, kernel_matrix, p_norm, validate_graphon  # noqa: F401
from .transforms import (
    TWIN_TOL,
    anchored_graphon,
    quotient,
    regularity_check,
    twin_partition,
    twin_reduce,
)

# ``density --dp`` calls through its own name so that bench/tracing.py
# counts the two flags apart; both are the same bucket elimination
density_dp = density


def fmt(x: float) -> str:
    if x == 0.0:
        return "0.000000000000"
    if abs(x) >= 1e16 or abs(x) < 1e-4:
        return f"{x:.12e}"
    return f"{x:.12f}"


def _fmt_matrix(mat) -> str:
    return "\n".join(" ".join(map(fmt, row)) for row in mat.tolist())


def _parse_anchoring(text: str) -> dict[int, int]:
    anchoring = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            label, cls = (int(x) for x in part.split(":"))
        except ValueError:
            raise ValidationError(
                f"bad anchor {part!r}; expected label:class", code="bad-anchor"
            ) from None
        if label in anchoring:
            raise ValidationError(f"label {label} is anchored twice", code="bad-anchor")
        anchoring[label] = cls
    return anchoring


def _parse_classes(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValidationError(f"bad anchor list {text!r}", code="bad-flag") from None


# -- subcommand handlers (each returns the full output text) --------------------


def _cmd_density(args) -> str:
    W = fileio.load_graphon(args.graphon)
    F = fileio.load_graph(args.graph)
    if args.dp:
        value = density_dp(F, W, ignore_labels=args.ignore_labels)
    else:
        value = density(F, W, ignore_labels=args.ignore_labels)
    return fmt(value)


def _cmd_marginal(args) -> str:
    W = fileio.load_graphon(args.graphon)
    F = fileio.load_graph(args.graph)
    return fmt(marginal(F, W, args.anchors))


def _cmd_mc(args) -> str:
    W = fileio.load_graphon(args.graphon)
    F = fileio.load_graph(args.graph)
    return fileio.dump_json(mc_density(F, W, args.samples, args.seed))


def _cmd_pnorm(args) -> str:
    W = fileio.load_graphon(args.graphon)
    return fmt(p_norm(W, args.p))


def _cmd_carleman(args) -> str:
    graphon = args.graphon is not None
    source = fileio.load_graphon(args.graphon) if graphon else fileio.load_moments(args.moments)
    if args.kmax is not None and args.kmax < 1:
        raise ValidationError("carleman --kmax must be >= 1", code="bad-order")
    if graphon:
        # one p-norm over the q x q blocks and one printed sum per term and order
        sums = args.terms * (args.kmax or 1)
        what = f"carleman with {args.terms} terms at {args.kmax or 1} orders over q={source.q}"
        require_affordable(what, sums * source.q**2, printed=sums)
    if args.kmax is not None:
        reps = [carleman_report(source, k, args.terms) for k in range(1, args.kmax + 1)]
        return fileio.dump_json(reps)
    return fileio.dump_json(carleman_report(source, args.k, args.terms))


def _cmd_quotient(args) -> str:
    W = fileio.load_graphon(args.graphon)
    P = fileio.load_partition(args.partition)
    return fileio.dump_json(quotient(W, P))


def _cmd_twins(args) -> str:
    W = fileio.load_graphon(args.graphon)
    return fileio.dump_json(twin_partition(W, args.tol))


def _cmd_reduce(args) -> str:
    W = fileio.load_graphon(args.graphon)
    return fileio.dump_json(twin_reduce(W, args.tol))


def _psis(args, W) -> list[str]:
    if args.psis is None:
        return sorted(W.functionals)
    return [s for s in args.psis.split(",") if s]


def _cmd_anchor(args) -> str:
    W = fileio.load_graphon(args.graphon)
    fm, G = anchored_graphon(W, args.anchors, _psis(args, W))
    return fileio.dump_json(dict(vars(fm), graphon=G))


def _cmd_regularity(args) -> str:
    W = fileio.load_graphon(args.graphon)
    return "true" if regularity_check(W, args.anchors, _psis(args, W)) else "false"


def _cmd_eigen(args) -> str:
    W = fileio.load_graphon(args.graphon)
    es = eigendecomp(W, args.psi)
    lines = [" ".join(fmt(v) for v in es.eigenvalues)]
    lines.append(_fmt_matrix(es.basis))
    return "\n".join(lines)


def _cmd_pathkernel(args) -> str:
    W = fileio.load_graphon(args.graphon)
    return _fmt_matrix(path_kernel(W, args.psi, args.k))


def _cmd_liftcheck(args) -> str:
    W1 = fileio.load_graphon(args.graphon)
    W2 = fileio.load_graphon(args.graphon2) if args.graphon2 is not None else W1
    F = fileio.load_graph(args.graph)
    return fileio.dump_json(lift_check(F, W1, W2, args.u, args.v, args.psi, args.kmax))


def _cmd_momentpair(args) -> str:
    return fileio.dump_json(matched_pair(args.support, args.order))


def _cmd_counterexample(args) -> str:
    return fileio.dump_json(counterexample_report(args.support, args.order, args.seed))


def _cmd_productcheck(args) -> str:
    W = fileio.load_graphon(args.graphon)
    F1 = fileio.load_graph(args.graph1)
    F2 = fileio.load_graph(args.graph2)
    return fmt(product_identity_residual(F1, F2, W))


def _cmd_validate(args) -> str:
    if args.graphon is not None:
        fileio.load_graphon(args.graphon)  # loading validates
    else:
        fileio.load_graph(args.graph)
    return "ok"


#: the matched pair is deterministic; --seed is accepted and not used
SEED_HELP = "accepted for symmetry with the sampling commands; does not affect the matched pair"


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses a malformed command line as ``bad-flag``
    through :func:`run`, where argparse would print its usage and exit 2."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}", code="bad-flag")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    ``parse_args`` keeps no state between calls: each returns a fresh
    namespace filled from the parser's defaults, so one instance serves
    every :func:`run`. The ``--anchors`` values are converted while parsing;
    a converter's ``ValidationError`` is not one of the exceptions argparse
    rewords, so it reaches :func:`run` as raised.
    """
    parser = _Parser(
        prog="graphonlab",
        description="Densities, transforms and moment diagnostics for step graphons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, *required):
        """A subcommand with ``--out`` and then the string flags ``required``."""
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="write output to this path instead of stdout")
        for flag in required:
            p.add_argument(flag, required=True)
        return p

    p = add("density", _cmd_density, "homomorphism density t(F, W) by bucket elimination",
            "--graphon", "--graph")
    p.add_argument(
        "--dp", action="store_true", help="accepted alias: every density is bucket elimination"
    )
    p.add_argument("--ignore-labels", action="store_true")

    p = add("marginal", _cmd_marginal, "density with labeled vertices pinned",
            "--graphon", "--graph")
    p.add_argument(
        "--anchors", type=_parse_anchoring, required=True, help="label:class pairs, e.g. 1:0,2:1"
    )

    p = add("mc", _cmd_mc, "Monte Carlo density estimate", "--graphon", "--graph")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("pnorm", _cmd_pnorm, "p-norm of the graphon", "--graphon")
    p.add_argument("--p", type=float, required=True)

    p = add("carleman", _cmd_carleman, "Carleman partial-sum report")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graphon")
    source.add_argument("--moments")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--kmax", type=int, help="iterate k = 1..kmax")
    p.add_argument("--terms", type=int, default=100)

    p = add("kernel", _cmd_pathkernel, "kernel matrix of one functional (pathkernel --k 1)",
            "--graphon", "--psi")
    p.set_defaults(k=1)

    p = add("quotient", _cmd_quotient, "push the graphon forward along a partition",
            "--graphon", "--partition")

    p = add("twins", _cmd_twins, "twin partition of the classes", "--graphon")
    p.add_argument("--tol", type=float, default=TWIN_TOL)

    p = add("reduce", _cmd_reduce, "twin-free quotient", "--graphon")
    p.add_argument("--tol", type=float, default=TWIN_TOL)

    p = add("anchor", _cmd_anchor, "anchored graphon and feature map", "--graphon")
    p.add_argument(
        "--anchors", type=_parse_classes, required=True, help="comma-separated class indices"
    )
    p.add_argument("--psis", help="comma-separated functional ids (default: all)")

    p = add("regularity", _cmd_regularity, "do the anchors separate non-twin classes", "--graphon")
    p.add_argument("--anchors", type=_parse_classes, required=True)
    p.add_argument("--psis")

    p = add("eigen", _cmd_eigen, "eigenvalues and basis of the symmetrized kernel",
            "--graphon", "--psi")

    p = add("pathkernel", _cmd_pathkernel, "pinned path marginals as a matrix",
            "--graphon", "--psi")
    p.add_argument("--k", type=int, required=True)

    p = add("liftcheck", _cmd_liftcheck, "parallel-edge lifting verification", "--graphon")
    p.add_argument("--graphon2")
    p.add_argument("--graph", required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--kmax", type=int, default=6)

    p = add("momentpair", _cmd_momentpair, "moment-matched distribution pair")
    p.add_argument("--support", type=int, required=True, help="largest support point N")
    p.add_argument("--order", type=int, required=True, help="matched order D")
    p.add_argument("--seed", type=int, default=1, help=SEED_HELP)

    p = add("counterexample", _cmd_counterexample, "rank-1 counterexample report")
    p.add_argument("--support", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--seed", type=int, default=1, help=SEED_HELP)

    p = add("productcheck", _cmd_productcheck, "labeled product identity residual",
            "--graphon", "--graph1", "--graph2")

    p = add("validate", _cmd_validate, "validate a graphon or graph document")
    document = p.add_mutually_exclusive_group(required=True)
    document.add_argument("--graphon")
    document.add_argument("--graph")

    return parser


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        text = args.handler(args)
        if args.out is not None:
            fileio.write_text(args.out, text)
    except GraphonlabError as e:
        # one line: each character str.isprintable rejects is spelled as repr spells it
        message = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(e))
        print(f"error[{e.code}]: {message}", file=sys.stderr)
        return 2 if isinstance(e, ParseError) else 1
    if args.out is None:
        print(text)
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, inside the try
    except BrokenPipeError:
        # the flush at exit then goes to devnull (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
