"""JSON interchange formats for graphons, graphs, partitions and moments.

One self-describing document family:

* graphon: ``masses``, ``blocks`` (upper-triangular records with class
  indices and support/weight arrays; omitted blocks are the zero measure;
  the lower triangle is completed by symmetry), ``functionals``.
* graph: ``n_vertices``, ``labels`` (vertex -> positive label),
  ``edges`` (u, v, psi, optional multiplicity).
* partition: ``class_of`` list.
* moments: ``moments`` list plus ``source`` tag.

Parsing raises :class:`ParseError` with a field path for schema trouble
and :class:`ValidationError` (with the validate_graphon codes) for
semantic trouble. ``parse(serialize(x))`` reproduces ``x`` (for a
graphon: equal masses, blocks and functionals) and serialization is
canonical.

:func:`dump_json` writes every output document. Its bytes are those of
``json.dumps(doc, indent=2)``: numbers are written with ``repr``, NaN and
infinities as ``NaN``/``Infinity``/``-Infinity``, strings ASCII-escaped.
A :class:`StepGraphon` inside a document is written straight from its
arrays as the document :func:`serialize_graphon` builds, without building
one dict per block; :func:`serialize_graphon` is the tests' oracle for it.
"""
from __future__ import annotations

import json
import math
from itertools import chain, compress, islice
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Any

import numpy as np

from .density import MAX_CONTRACTION
from .errors import ParseError, ValidationError
from .graphs import DecoratedMultigraph
from .measures import FiniteMeasure, MomentSequence, TestFunctional, ZERO_MEASURE
from .momentlab import MatchedPair
from .stepgraphon import StepGraphon, block_arrays, validate_graphon
from .transforms import Partition


def _get(obj: Any, key: str, kind, path: str, *, optional: bool = False, default=None):
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    if key not in obj:
        if optional:
            return default
        raise ParseError(f"{path}: missing field {key!r}")
    val = obj[key]
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ParseError(f"{path}.{key}: expected a number")
        return float(val)
    if kind is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise ParseError(f"{path}.{key}: expected an integer")
        return val
    if not isinstance(val, kind):
        raise ParseError(f"{path}.{key}: expected {kind.__name__}")
    return val


def _number_list(obj: Any, key: str, path: str, *, integer: bool = False) -> list:
    raw = _get(obj, key, list, path)
    out = []
    for n, x in enumerate(raw):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ParseError(f"{path}.{key}[{n}]: expected a number")
        if integer:
            if not isinstance(x, int):
                raise ParseError(f"{path}.{key}[{n}]: expected an integer")
            out.append(x)
        else:
            out.append(float(x))
    return out


def _wrap_validation(fn, path: str):
    try:
        return fn()
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}", code=e.code) from None


# -- graphons -------------------------------------------------------------------


def parse_measure(obj: Any, path: str) -> FiniteMeasure:
    support = _number_list(obj, "support", path, integer=True)
    weights = _number_list(obj, "weights", path)
    return _wrap_validation(lambda: FiniteMeasure(tuple(support), tuple(weights)), path)


def _block_records_bulk(records: list, q: int) -> tuple[np.ndarray, np.ndarray] | None:
    """``(support, weights)`` of the block records, checked in bulk.

    Applies every check of the record-by-record parse to whole columns of
    the document. Returns None as soon as some record fails one, or is of
    a shape it does not vouch for; :func:`_block_records_checked` then
    parses record by record and raises the first error in document order.
    Blocks that would hold more than :data:`MAX_CONTRACTION` weights are
    refused as ``too-costly`` before they are allocated.
    """
    n = len(records)
    if not set(map(type, records)) <= {dict}:
        return None
    try:
        ij = list(map(itemgetter("i", "j"), records))
        sups = list(map(itemgetter("support"), records))
        wts = list(map(itemgetter("weights"), records))
    except KeyError:
        return None
    if not set(map(type, chain(sups, wts))) <= {list}:
        return None
    lengths = list(map(len, sups))
    if lengths != list(map(len, wts)):
        return None
    if not (
        set(map(type, chain.from_iterable(ij))) <= {int}
        and set(map(type, chain.from_iterable(sups))) <= {int}
        and set(map(type, chain.from_iterable(wts))) <= {int, float}
    ):
        return None
    total = sum(lengths)
    try:
        idx = np.array(ij, dtype=np.int64).reshape(n, 2)
        pts = np.fromiter(chain.from_iterable(sups), np.int64, total)
        vals = np.fromiter(chain.from_iterable(wts), np.float64, total)
    except OverflowError:
        return None
    lo, hi = idx.min(axis=1), idx.max(axis=1)
    rising = np.diff(pts) > 0
    starts = np.cumsum(lengths, dtype=np.int64)[:-1]
    rising[starts[(starts > 0) & (starts < total)] - 1] = True  # pairs across two records
    if not (
        (lo >= 0).all()
        and (hi < q).all()
        and len(set((lo * q + hi).tolist())) == n
        and (pts >= 0).all()
        and rising.all()
        and np.isfinite(vals).all()
        and (vals != 0.0).all()
    ):
        return None
    support = np.sort(pts)
    support = support[np.diff(support, prepend=-1) != 0]
    if q * q * len(support) > MAX_CONTRACTION:
        raise ValidationError(
            f"graphon.blocks: the dense blocks would hold {q * q * len(support)} weights "
            f"(q={q}, {len(support)} support points); the limit is {MAX_CONTRACTION} elements",
            code="too-costly",
        )
    column = np.searchsorted(support, pts)
    weights = np.zeros((q * q, len(support)))
    weights[np.repeat(lo * q + hi, lengths), column] = vals
    weights[np.repeat(hi * q + lo, lengths), column] = vals
    return support, weights.reshape(q, q, len(support))


def _block_records_checked(records: list, q: int) -> tuple[np.ndarray, np.ndarray]:
    """``(support, weights)`` of the block records, parsed one by one."""
    cells: dict[tuple[int, int], FiniteMeasure] = {}
    for n, rec in enumerate(records):
        path = f"graphon.blocks[{n}]"
        i = _get(rec, "i", int, path)
        j = _get(rec, "j", int, path)
        if not (0 <= i < q and 0 <= j < q):
            raise ParseError(f"{path}: class index out of range for q={q}")
        key = (min(i, j), max(i, j))
        if key in cells:
            raise ParseError(f"{path}: duplicate block for classes {key}")
        cells[key] = parse_measure(rec, path)
    # before block_arrays builds the q x q matrix of measures
    top = max((b.support[-1] for b in cells.values() if b.support), default=0)
    if top > np.iinfo(np.int64).max:
        raise ValidationError(
            f"graphon.blocks: measure: support point {top} does not fit in 64 bits",
            code="bad-measure",
        )
    return _wrap_validation(
        lambda: block_arrays(
            tuple(
                tuple(cells.get((min(i, j), max(i, j)), ZERO_MEASURE) for j in range(q))
                for i in range(q)
            )
        ),
        "graphon.blocks",
    )


def parse_graphon(doc: Any) -> StepGraphon:
    masses = _number_list(doc, "masses", "graphon")
    records, q = _get(doc, "blocks", list, "graphon"), len(masses)
    support, weights = _block_records_bulk(records, q) or _block_records_checked(records, q)
    functionals: dict[str, TestFunctional] = {}
    for n, rec in enumerate(_get(doc, "functionals", list, "graphon", optional=True, default=[])):
        path = f"graphon.functionals[{n}]"
        fid = _get(rec, "id", str, path)
        support_f = _number_list(rec, "support", path, integer=True)
        values = _number_list(rec, "values", path)
        if fid in functionals:
            raise ParseError(f"{path}: duplicate functional id {fid!r}")
        functionals[fid] = _wrap_validation(
            lambda: TestFunctional(fid, tuple(support_f), tuple(values)), path
        )
    W = StepGraphon.from_arrays(masses, support, weights, functionals)
    validate_graphon(W)
    return W


def _functional_records(W: StepGraphon) -> list[dict]:
    return [
        {"id": f.id, "support": list(f.support), "values": list(f.values)}
        for _, f in sorted(W.functionals.items())
    ]


def serialize_graphon(W: StepGraphon) -> dict:
    """The graphon document; :func:`dump_json` writes ``W`` as exactly this."""
    pts = W.support.tolist()
    upper_i, upper_j = np.triu_indices(W.q)
    blocks = []
    for i, j, row in zip(upper_i.tolist(), upper_j.tolist(), W.weights[upper_i, upper_j]):
        ws = row.tolist()
        blocks.append(
            {"i": i, "j": j, "support": list(compress(pts, ws)), "weights": list(filter(None, ws))}
        )
    return {"masses": list(W.masses), "blocks": blocks, "functionals": _functional_records(W)}


# -- graphs ---------------------------------------------------------------------


def parse_graph(doc: Any) -> DecoratedMultigraph:
    n = _get(doc, "n_vertices", int, "graph")
    edges = []
    for idx, rec in enumerate(_get(doc, "edges", list, "graph", optional=True, default=[])):
        path = f"graph.edges[{idx}]"
        u = _get(rec, "u", int, path)
        v = _get(rec, "v", int, path)
        psi = _get(rec, "psi", str, path)
        mult = _get(rec, "multiplicity", int, path, optional=True, default=1)
        edges.append((u, v, psi, mult))
    labels = {}
    raw_labels = _get(doc, "labels", dict, "graph", optional=True, default={})
    for key, val in raw_labels.items():
        try:
            vertex = int(key)
        except ValueError:
            raise ParseError(f"graph.labels: key {key!r} is not a vertex index") from None
        if isinstance(val, bool) or not isinstance(val, int):
            raise ParseError(f"graph.labels[{key}]: expected an integer label")
        labels[vertex] = val
    return _wrap_validation(lambda: DecoratedMultigraph(n, tuple(edges), labels), "graph")


def serialize_graph(F: DecoratedMultigraph) -> dict:
    return {
        "n_vertices": F.n_vertices,
        "labels": {str(v): l for v, l in sorted(F.labels.items())},
        "edges": [
            {"u": u, "v": v, "psi": psi, "multiplicity": m} for u, v, psi, m in F.edges
        ],
    }


# -- partitions and moments -------------------------------------------------------


def parse_partition(doc: Any) -> Partition:
    class_of = _number_list(doc, "class_of", "partition", integer=True)
    return _wrap_validation(lambda: Partition(tuple(class_of)), "partition")


def serialize_partition(P: Partition) -> dict:
    return {"class_of": list(P.class_of)}


def parse_moments(doc: Any) -> MomentSequence:
    moments = _number_list(doc, "moments", "moments")
    source = _get(doc, "source", str, "moments", optional=True, default="distribution")
    return _wrap_validation(lambda: MomentSequence(tuple(moments), source), "moments")


def serialize_matched_pair(pair: MatchedPair) -> dict:
    return {
        "support_size": pair.support_size,
        "order": pair.order,
        "p": list(pair.p),
        "q": list(pair.q),
        "epsilon": pair.epsilon,
        "null_vector": list(pair.null_vector),
    }


# -- path helpers -----------------------------------------------------------------


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from None


def load_graphon(path: str) -> StepGraphon:
    return parse_graphon(_load_json(path))


def load_graph(path: str) -> DecoratedMultigraph:
    return parse_graph(_load_json(path))


def load_partition(path: str) -> Partition:
    return parse_partition(_load_json(path))


def load_moments(path: str) -> MomentSequence:
    return parse_moments(_load_json(path))


def dump_json(doc: Any) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte.

    A :class:`StepGraphon` anywhere in ``doc`` is written as
    ``serialize_graphon`` of it. Dict keys must be ``str``. Raises
    ``TypeError`` where ``json.dumps`` would, and for a non-str key; a
    document that contains itself exceeds the recursion limit.
    """
    out: list[str] = []
    _write(doc, 0, out)
    return "".join(out)


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _write(x: Any, level: int, out: list[str]) -> None:
    # the order of the tests is json's: bool before int, str before both
    if isinstance(x, str):
        out.append(_quote(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, float):
        out.append(_float(x))
    elif isinstance(x, (list, tuple)):
        _write_list(x, level, out)
    elif isinstance(x, dict):
        _write_dict(x, level, out)
    elif isinstance(x, StepGraphon):
        _write_graphon(x, level, out)
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _write_list(items: list | tuple, level: int, out: list[str]) -> None:
    if not items:
        out.append("[]")
        return
    inner = "\n" + "  " * (level + 1)
    kinds = set(map(type, items))
    if kinds == {float} and np.isfinite(items).all():
        out.append("[" + inner + ("," + inner).join(map(float.__repr__, items)))
    elif kinds == {int}:
        out.append("[" + inner + ("," + inner).join(map(int.__repr__, items)))
    else:
        sep = "[" + inner
        for item in items:
            out.append(sep)
            sep = "," + inner
            _write(item, level + 1, out)
    out.append("\n" + "  " * level + "]")


def _write_dict(doc: dict, level: int, out: list[str]) -> None:
    if not doc:
        out.append("{}")
        return
    inner = "\n" + "  " * (level + 1)
    sep = "{" + inner
    for key, value in doc.items():
        out.append(sep + _quote(key) + ": ")  # a non-str key is a TypeError
        sep = "," + inner
        _write(value, level + 1, out)
    out.append("\n" + "  " * level + "}")


def _write_graphon(W: StepGraphon, level: int, out: list[str]) -> None:
    """``serialize_graphon(W)`` at ``level``, with the blocks written from the arrays.

    One ``repr`` pass runs over the nonzero weights of the upper triangle
    in row-major block order; each block record takes its slice of it, so
    only one block's strings are held at a time.
    """
    inner = "\n" + "  " * (level + 1)
    out.append("{" + inner + '"masses": ')
    _write_list(W.masses, level + 1, out)
    upper_i, upper_j = np.triu_indices(W.q)
    upper = W.weights[upper_i, upper_j]
    rows, cols = np.nonzero(upper)
    values = upper[rows, cols]
    weights = map(float.__repr__ if np.isfinite(values).all() else _float, values.tolist())
    points = iter(np.array(list(map(int.__repr__, W.support.tolist())), dtype=object)[cols].tolist())
    counts = np.bincount(rows, minlength=len(upper_i)).tolist()
    record = "\n" + "  " * (level + 2)  # a block's braces
    field = "\n" + "  " * (level + 3)  # its keys
    item = "\n" + "  " * (level + 4)  # its support points and weights
    sep, close = "," + item, field + "]"
    lead = "," + inner + '"blocks": [' + record
    for i, j, n in zip(upper_i.tolist(), upper_j.tolist(), counts):
        head = f'{lead}{{{field}"i": {i},{field}"j": {j},{field}"support": '
        if n:
            out.append(
                f"{head}[{item}{sep.join(islice(points, n))}{close},"
                f'{field}"weights": [{item}{sep.join(islice(weights, n))}{close}{record}}}'
            )
        else:
            out.append(f'{head}[],{field}"weights": []{record}}}')
        lead = "," + record
    out.append(inner + "]")
    out.append("," + inner + '"functionals": ')
    _write_list(_functional_records(W), level + 1, out)
    out.append("\n" + "  " * level + "}")
