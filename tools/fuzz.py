"""Run CLI jobs on mutated input documents and check the exit contract.

    python3 tools/fuzz.py --seed 1 --seconds 60

From the seed it builds small input documents with ``bench/fixtures.py``
(a graphon on 6 classes with planted twins, a cycle, two labeled cycles,
a partition and a moment sequence), then draws jobs until the time is
up. A job takes one command of ``COMMANDS`` and mutates one of the
documents that command reads: values swapped for others of any JSON
type, numbers scaled, entries deleted, exchanged or duplicated, values
nested deep, or the whole text cut and followed by 100,000 open
brackets. It writes the document to a temporary file. One job in four,
and every job of a command that reads no file, instead gives one flag of
the command a value of the flag's type at the edge of what it takes
(``FLAG_VALUES``), as ``--flag=value``, and half of those of a command
that reads a file also mutate one of its documents, while the other half
read them unmutated; one such job in eight gives an ill-typed value instead
(``ILL_TYPED``), and one in eight writes the value as a token of its
own, where a value such as ``-inf`` or ``-1:0`` reads as a flag. One job
in eight instead puts a line break, a tab, a NUL or a lone surrogate
(``CONTROLS``) into one path, one string flag value or an added
``--out`` path. It runs the command twice through ``graphonlab.cli.run``
in this process. It checks that

- the exit code is 0, 1 or 2, and ``run`` raises nothing and issues no
  warning;
- stderr is empty on exit 0 and otherwise one ``error[code]: ...`` line
  of printable characters;
- stdout holds no ``inf``, ``nan``, ``Infinity`` or ``NaN`` outside
  ``carleman``, whose partial sums may diverge;
- the second run prints the same bytes as the first.

It prints one line per job that breaks a check, then the job count, and
exits 1 if any job broke one. Jobs depend only on the seed, so a failure
is replayed by the same seed; ``--seconds`` only bounds how many run.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import io
import itertools
import json
import math
import os
import random
import re
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: commands with their input documents named by kind; every path is filled in per job
COMMANDS = (
    ("validate", "--graphon", "graphon"),
    ("validate", "--graph", "labeled"),
    ("density", "--graphon", "graphon", "--graph", "graph"),
    ("density", "--graphon", "graphon", "--graph", "labeled", "--dp", "--ignore-labels"),
    ("marginal", "--graphon", "graphon", "--graph", "labeled", "--anchors", "1:0,2:1"),
    ("mc", "--graphon", "graphon", "--graph", "graph", "--samples", "200", "--seed", "1"),
    ("pnorm", "--graphon", "graphon", "--p", "2"),
    ("carleman", "--graphon", "graphon", "--k", "1", "--terms", "20"),
    ("carleman", "--moments", "moments", "--k", "2", "--terms", "20"),
    ("kernel", "--graphon", "graphon", "--psi", "unit"),
    ("quotient", "--graphon", "graphon", "--partition", "partition"),
    ("twins", "--graphon", "graphon", "--tol", "1e-09"),
    ("reduce", "--graphon", "graphon", "--tol", "1e-09"),
    ("anchor", "--graphon", "graphon", "--anchors", "0,1", "--psis", "f1,unit"),
    ("regularity", "--graphon", "graphon", "--anchors", "0,1"),
    ("eigen", "--graphon", "graphon", "--psi", "f1"),
    ("pathkernel", "--graphon", "graphon", "--psi", "f1", "--k", "3"),
    ("liftcheck", "--graphon", "graphon", "--graph", "graph", "--u", "0", "--v", "1",
     "--psi", "unit", "--kmax", "3"),
    ("productcheck", "--graphon", "graphon", "--graph1", "labeled", "--graph2", "labeled2"),
    ("momentpair", "--support", "5", "--order", "3", "--seed", "1"),
    ("counterexample", "--support", "5", "--order", "3", "--seed", "1"),
)
KINDS = ("graphon", "graph", "labeled", "labeled2", "partition", "moments")

#: values a mutation writes in place of another: every JSON type, numbers at
#: the edges of the int64 and double ranges, and ids the graphon lacks
VALUES = (
    None, True, False, 0, 1, 2, 7, -1, 2**31, 2**63, 10**400,
    0.0, -0.0, 0.5, -1.5, 5e-324, 1e308, -1e308, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
    "", "0", "unit", "f1", "ghost", [], [1, 2], {}, {"u": 0},
)
#: values a job gives one flag instead of mutating a document, by the flag's type
INTS = (-1, 0, 1, 2, 3, 2**31, 2**63)
FLOATS = (math.nan, math.inf, -math.inf, -1.0, 0.0, 0.5, 5e-324, 1e308)
#: functional ids: none, empty ones, one the graphon lacks, and a repeat
PSIS = ("", ",", "ghost", "unit,unit", "unit,ghost")
FLAG_VALUES = {
    # three full Monte Carlo leaves of 2^14 samples and a partial one
    "--samples": INTS + (3 * 2**14 + 1,),
    "--seed": INTS, "--terms": INTS, "--k": INTS, "--kmax": INTS,
    "--u": INTS, "--v": INTS, "--order": INTS, "--p": FLOATS,
    # with --order 3, a certified momentpair and a counterexample refused as it plans
    "--support": INTS + (3245,),
    "--tol": FLOATS, "--anchors": INTS, "--psi": PSIS, "--psis": PSIS,
}
#: values of the wrong type for a flag: a word, an empty string, a float for an int flag
ILL_TYPED = ("x", "", "0.5")
#: characters a job puts into one path or string flag value: each is escaped in an error line
CONTROLS = ("\n", "\t", "\x00", "\ud800")
#: the flags whose values a command reads as text
STRINGS = ("--psi", "--psis", "--anchors")
#: mutations, drawn with these weights
MOVES = ("swap", "swap", "scale", "scale", "exchange", "delete", "duplicate", "nest")
#: factors a mutation scales a number by, for each number type
SCALES = {int: (-1, 0, 2, 10**6), float: (-1.0, 0.0, 0.5, 1e-300, 1e300)}
#: nesting depths of a nested value; json's decoder recurses once per level
DEPTHS = (2, 64, 1000, 5000)
#: stands for a deeply nested value until the document is written
DEEP = "@@deep@@"
SPECIAL = re.compile(r"\b(?:inf|nan|Infinity|NaN)\b")


class Job(NamedTuple):
    argv: list[str]
    #: kind of the mutated document and its text, or the flag drawn and its value,
    #: or ``--flag=value on kind`` and the text when a flag job mutates a document
    kind: str
    text: str

    def __str__(self) -> str:
        return f"{' '.join(self.argv)!r} <- {self.kind} {self.text[:120]!r}"


def documents(seed: int) -> dict[str, object]:
    """The unmutated documents of every kind, drawn from ``seed``."""
    import numpy as np

    import fixtures as fx

    rng = np.random.default_rng(seed)
    graphon = fx.make_graphon(rng, 6, 3)
    moments = [(1 + 2**k + 3**k) / 3 for k in range(48)]  # uniform on {1, 2, 3}
    return {
        "graphon": graphon.doc(),
        "graph": fx.cycle(rng, 4).doc(),
        "labeled": fx.labeled_cycle(rng, 4, 2).doc(),
        "labeled2": fx.labeled_cycle(rng, 3, 2).doc(),
        "partition": {"class_of": [0, 1, 1, 2, 0, 2]},
        "moments": {"moments": moments, "source": "distribution"},
    }


def _containers(doc):
    """Every list and dict in ``doc``, ``doc`` first."""
    if isinstance(doc, (list, dict)):
        yield doc
        for value in doc.values() if isinstance(doc, dict) else doc:
            yield from _containers(value)


def mutate(doc, rng: random.Random) -> str:
    """The text of ``doc`` after one to three random mutations."""
    doc = copy.deepcopy(doc)
    if rng.random() < 0.05:
        return json.dumps(doc)[:200] + "[" * 100_000  # cut, then never closed
    depth = None
    for _ in range(rng.randint(1, 3)):
        nonempty = [c for c in _containers(doc) if c]
        if not nonempty:
            break
        c = rng.choice(nonempty)
        key = rng.choice(list(c) if isinstance(c, dict) else range(len(c)))
        move = rng.choice(MOVES)
        if move == "swap":
            c[key] = copy.deepcopy(rng.choice(VALUES))
        elif move == "scale":  # a number stays one of its type, so the parse reads on
            if type(c[key]) in SCALES:
                c[key] *= rng.choice(SCALES[type(c[key])])
        elif move == "exchange":  # with another value of the same container
            other = rng.choice(list(c) if isinstance(c, dict) else range(len(c)))
            c[key], c[other] = c[other], c[key]
        elif move == "delete":
            del c[key]
        elif move == "duplicate" and isinstance(c, list):
            c.insert(key, copy.deepcopy(c[key]))
        elif move == "duplicate":  # a dict's entry under a second key
            c[key + "_"] = copy.deepcopy(c[key])
        else:
            depth = rng.choice(DEPTHS)
            c[key] = DEEP
    text = json.dumps(doc)
    if depth is not None:
        text = text.replace(json.dumps(DEEP), "[" * depth + "1" + "]" * depth)
    return text


def flag_value(command: tuple, k: int, rng: random.Random) -> str:
    """A value for the flag ``command[k]`` drawn from ``FLAG_VALUES``: one
    number or id list, or one or two anchor classes, or for ``marginal`` one
    to three ``label:class`` pairs, the command's labels first and then a
    drawn one."""
    values = FLAG_VALUES[command[k]]
    if command[k] != "--anchors":
        return str(rng.choice(values))
    if command[0] == "marginal":
        labels = [pair.split(":")[0] for pair in command[k + 1].split(",")] + [rng.choice(values)]
        return ",".join(f"{label}:{rng.choice(values)}" for label in labels[: rng.randint(1, 3)])
    return ",".join(repr(rng.choice(values)) for _ in range(rng.randint(1, 2)))


def jobs(seed: int, root: str):
    """The endless job sequence of ``seed``, each mutated document written under ``root``."""
    rng = random.Random(seed)
    docs = documents(seed)
    paths = {}
    for kind, doc in docs.items():
        paths[kind] = os.path.join(root, f"{kind}.json")
        Path(paths[kind]).write_text(json.dumps(doc))
    while True:
        command = rng.choice(COMMANDS)
        if rng.random() < 0.125:  # a control character in one path or text value, or in --out
            argv = [paths.get(a, a) for a in command]
            texts = [k for k in range(1, len(argv)) if argv[k - 1] in STRINGS or command[k] in KINDS]
            k = rng.choice(texts + [len(argv) + 1])
            if k > len(argv):
                argv += ["--out", os.path.join(root, "out.txt")]
            at = rng.randint(0, len(argv[k]))
            argv[k] = argv[k][:at] + rng.choice(CONTROLS) + argv[k][at:]
            yield Job(argv, argv[k - 1], argv[k])
            continue
        flags = [k for k, a in enumerate(command) if a in FLAG_VALUES]
        kinds = [a for a in command if a in KINDS]
        if flags and (not kinds or rng.random() < 0.25):  # a command reading no file takes flags only
            k = rng.choice(flags)
            value = flag_value(command, k, rng)
            on_mutated = kinds and rng.random() < 0.5  # a mutated document, half the time
            odd = rng.random()
            if odd < 0.125:
                value = rng.choice(ILL_TYPED)
            if on_mutated:
                argv, kind, text = _mutated(command, docs, paths, root, rng)
                kind = f"{command[k]}={value} on {kind}"
            else:
                argv, kind, text = [paths.get(a, a) for a in command], command[k], value
            if 0.125 <= odd < 0.25:
                argv[k + 1] = value  # argparse takes "-inf" as a flag after a space
            else:
                argv[k : k + 2] = [f"{command[k]}={value}"]
            yield Job(argv, kind, text)
            continue
        yield Job(*_mutated(command, docs, paths, root, rng))


def _mutated(command: tuple, docs: dict, paths: dict, root: str, rng: random.Random):
    """The argv of ``command`` with one of its documents mutated and written
    under ``root``, the kind of that document and its text."""
    kind = rng.choice([a for a in command if a in KINDS])
    text = mutate(docs[kind], rng)
    mutated = os.path.join(root, "mutated.json")
    Path(mutated).write_text(text)
    return [mutated if a == kind else paths.get(a, a) for a in command], kind, text


def _run(argv: list[str]) -> tuple[object, str, str]:
    """Exit code (or what ``run`` raised), stdout and stderr of one run."""
    from graphonlab.cli import run

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = run(argv)
        except BaseException as e:  # noqa: BLE001 -- reported as the failure it is
            code = f"raised {type(e).__name__}: {str(e)[:200]}"
    return code, out.getvalue(), err.getvalue()


def check(job: Job) -> list[str]:
    """What ``job`` breaks of the contract, one entry per broken check."""
    first = _run(job.argv)
    code, out, err = first
    broken = []
    if code not in (0, 1, 2):
        broken.append(f"exit {code}")
    elif code == 0 and err:
        broken.append(f"exit 0 with stderr {err[:200]!r}")
    elif code != 0 and not (re.fullmatch(r"error\[[a-z-]+\]: [^\n]*\n", err) and err[:-1].isprintable()):
        broken.append(f"exit {code} with stderr {err[:200]!r}")
    if job.argv[0] != "carleman" and SPECIAL.search(out):
        broken.append(f"stdout holds {SPECIAL.search(out).group()}")
    if _run(job.argv) != first:
        broken.append("a second run printed other bytes")
    return broken


def fuzz(seed: int, count: int | None = None, seconds: float | None = None):
    """Jobs run and failure lines, for ``count`` jobs or until ``seconds`` pass."""
    deadline = None if seconds is None else time.monotonic() + seconds
    failures = []
    n = 0
    with tempfile.TemporaryDirectory() as root:
        for job in itertools.islice(jobs(seed, root), count):
            if deadline is not None and time.monotonic() > deadline:
                break
            n += 1
            failures += [f"job {n - 1}: {b}: {job}" for b in check(job)]
    return n, failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)
    # one BLAS thread, as in bench/run.py: set before anything imports numpy
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    n, failures = fuzz(args.seed, seconds=args.seconds)
    for line in failures:
        print(line)
    print(f"{n} jobs, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
