"""Command-line surface. Deterministic: identical inputs and seeds give
byte-identical output. Scalars and matrices print with 12-digit fixed
formatting; structured results print as JSON documents.

Exit codes: 0 success, 1 validation failure, 2 file or parse failure.
"""
from __future__ import annotations

import argparse
import functools
import math
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
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
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
            label, cls = part.split(":")
            anchoring[int(label)] = int(cls)
        except ValueError:
            raise ValidationError(
                f"bad anchor {part!r}; expected label:class", code="bad-anchor"
            ) from None
    return anchoring


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValidationError(f"bad {what} list {text!r}", code="bad-flag") from None


def _check_decorations(F, W) -> None:
    for psi in sorted(F.psi_ids):
        if psi not in W.functionals:
            raise ValidationError(
                f"graph uses unknown functional id {psi!r}", code="unknown-functional"
            )


# -- subcommand handlers (each returns the full output text) --------------------


def _cmd_density(args) -> str:
    W = fileio.load_graphon(args.graphon)
    F = fileio.load_graph(args.graph)
    _check_decorations(F, W)
    if args.dp:
        value = density_dp(F, W, ignore_labels=args.ignore_labels)
    else:
        value = density(F, W, ignore_labels=args.ignore_labels)
    return fmt(value)


def _cmd_marginal(args) -> str:
    W = fileio.load_graphon(args.graphon)
    F = fileio.load_graph(args.graph)
    _check_decorations(F, W)
    return fmt(marginal(F, W, _parse_anchoring(args.anchors)))


def _cmd_mc(args) -> str:
    W = fileio.load_graphon(args.graphon)
    F = fileio.load_graph(args.graph)
    _check_decorations(F, W)
    return fileio.dump_json(mc_density(F, W, args.samples, args.seed))


def _cmd_pnorm(args) -> str:
    W = fileio.load_graphon(args.graphon)
    return fmt(p_norm(W, args.p))


def _cmd_carleman(args) -> str:
    if (args.graphon is None) == (args.moments is None):
        raise ValidationError(
            "give exactly one of --graphon / --moments", code="bad-flag"
        )
    source = (
        fileio.load_graphon(args.graphon)
        if args.graphon
        else fileio.load_moments(args.moments)
    )
    if args.kmax is not None and args.kmax < 1:
        raise ValidationError("carleman --kmax must be >= 1", code="bad-order")
    if args.graphon:
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


def _anchor_args(args, W):
    anchors = _parse_int_list(args.anchors, "anchor")
    psis = (
        [s for s in args.psis.split(",") if s]
        if args.psis is not None
        else sorted(W.functionals)
    )
    return anchors, psis


def _cmd_anchor(args) -> str:
    W = fileio.load_graphon(args.graphon)
    anchors, psis = _anchor_args(args, W)
    fm, G = anchored_graphon(W, anchors, psis)
    return fileio.dump_json(
        {
            "anchors": list(fm.anchors),
            "functional_ids": list(fm.functional_ids),
            "features": [list(map(float, row)) for row in fm.features],
            "graphon": G,
        }
    )


def _cmd_regularity(args) -> str:
    W = fileio.load_graphon(args.graphon)
    anchors, psis = _anchor_args(args, W)
    return "true" if regularity_check(W, anchors, psis) else "false"


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
    W2 = fileio.load_graphon(args.graphon2) if args.graphon2 else W1
    F = fileio.load_graph(args.graph)
    _check_decorations(F, W1)
    _check_decorations(F, W2)
    return fileio.dump_json(lift_check(F, W1, W2, args.u, args.v, args.psi, args.kmax))


def _cmd_momentpair(args) -> str:
    return fileio.dump_json(matched_pair(args.support, args.order))


def _cmd_counterexample(args) -> str:
    rep = counterexample_report(args.support, args.order, args.seed)
    # a dict, not the report: the report's ``graphs_tested`` is written as "graphs"
    return fileio.dump_json(
        {
            "pair": rep.pair,
            "graphs": rep.graphs_tested,
            "max_discrepancy_low_degree": rep.max_discrepancy_low_degree,
            "witness_graph": rep.witness_graph,
            "witness_gap": rep.witness_gap,
        }
    )


def _cmd_productcheck(args) -> str:
    W = fileio.load_graphon(args.graphon)
    F1 = fileio.load_graph(args.graph1)
    F2 = fileio.load_graph(args.graph2)
    _check_decorations(F1, W)
    _check_decorations(F2, W)
    return fmt(product_identity_residual(F1, F2, W))


def _cmd_validate(args) -> str:
    if (args.graphon is None) == (args.graph is None):
        raise ValidationError("give exactly one of --graphon / --graph", code="bad-flag")
    if args.graphon:
        fileio.load_graphon(args.graphon)  # loading validates
    else:
        fileio.load_graph(args.graph)
    return "ok"


#: the matched pair is deterministic; --seed is accepted and not used
SEED_HELP = "accepted for symmetry with the sampling commands; does not affect the matched pair"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    ``parse_args`` keeps no state between calls: each returns a fresh
    namespace filled from the parser's defaults, so one instance serves
    every :func:`run`.
    """
    parser = argparse.ArgumentParser(
        prog="graphonlab",
        description="Densities, transforms and moment diagnostics for step graphons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="write output to this path instead of stdout")
        return p

    p = add("density", _cmd_density, "homomorphism density t(F, W) by bucket elimination")
    p.add_argument("--graphon", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--dp", action="store_true", help="accepted alias: every density is bucket elimination"
    )
    p.add_argument("--ignore-labels", action="store_true")

    p = add("marginal", _cmd_marginal, "density with labeled vertices pinned")
    p.add_argument("--graphon", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--anchors", required=True, help="label:class pairs, e.g. 1:0,2:1")

    p = add("mc", _cmd_mc, "Monte Carlo density estimate")
    p.add_argument("--graphon", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("pnorm", _cmd_pnorm, "p-norm of the graphon")
    p.add_argument("--graphon", required=True)
    p.add_argument("--p", type=float, required=True)

    p = add("carleman", _cmd_carleman, "Carleman partial-sum report")
    p.add_argument("--graphon")
    p.add_argument("--moments")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--kmax", type=int, help="iterate k = 1..kmax")
    p.add_argument("--terms", type=int, default=100)

    p = add("kernel", _cmd_pathkernel, "kernel matrix of one functional (pathkernel --k 1)")
    p.add_argument("--graphon", required=True)
    p.add_argument("--psi", required=True)
    p.set_defaults(k=1)

    p = add("quotient", _cmd_quotient, "push the graphon forward along a partition")
    p.add_argument("--graphon", required=True)
    p.add_argument("--partition", required=True)

    p = add("twins", _cmd_twins, "twin partition of the classes")
    p.add_argument("--graphon", required=True)
    p.add_argument("--tol", type=float, default=1e-9)

    p = add("reduce", _cmd_reduce, "twin-free quotient")
    p.add_argument("--graphon", required=True)
    p.add_argument("--tol", type=float, default=1e-9)

    p = add("anchor", _cmd_anchor, "anchored graphon and feature map")
    p.add_argument("--graphon", required=True)
    p.add_argument("--anchors", required=True, help="comma-separated class indices")
    p.add_argument("--psis", help="comma-separated functional ids (default: all)")

    p = add("regularity", _cmd_regularity, "do the anchors separate non-twin classes")
    p.add_argument("--graphon", required=True)
    p.add_argument("--anchors", required=True)
    p.add_argument("--psis")

    p = add("eigen", _cmd_eigen, "eigenvalues and basis of the symmetrized kernel")
    p.add_argument("--graphon", required=True)
    p.add_argument("--psi", required=True)

    p = add("pathkernel", _cmd_pathkernel, "pinned path marginals as a matrix")
    p.add_argument("--graphon", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("liftcheck", _cmd_liftcheck, "parallel-edge lifting verification")
    p.add_argument("--graphon", required=True)
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

    p = add("productcheck", _cmd_productcheck, "labeled product identity residual")
    p.add_argument("--graphon", required=True)
    p.add_argument("--graph1", required=True)
    p.add_argument("--graph2", required=True)

    p = add("validate", _cmd_validate, "validate a graphon or graph document")
    p.add_argument("--graphon")
    p.add_argument("--graph")

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
    except ParseError as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return 2
    except GraphonlabError as e:
        print(f"error[{e.code}]: {e}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")  # not text + "\n", which copies the whole output once more
    else:
        print(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
