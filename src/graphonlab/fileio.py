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

The ``load_*`` functions read a file as bytes and decode it with orjson;
when orjson refuses the bytes, or the parse refuses what it returned,
the file is read again with :mod:`json` and that document is parsed, so
every refusal is the one the :mod:`json` route gives. The two decoders
agree on every document orjson accepts, except that orjson returns an
integer outside [-2^63, 2^64) as the correctly rounded float: a float
field reads the same value either way, and an integer field refuses it,
which sends the file to :mod:`json`. orjson alone refuses ``NaN`` and
``Infinity`` literals, lone surrogate escapes and numbers beyond the
double range, which :mod:`json` reads.

:func:`dump_json` writes every output document. Its bytes are those of
``json.dumps(doc, indent=2)``: numbers are written with ``repr``, NaN and
infinities as ``NaN``/``Infinity``/``-Infinity``, strings ASCII-escaped.
Every list of floats, and every chunk of a :class:`StepGraphon`'s block
records, is written by one route: orjson's two-space indent. orjson and
``repr`` both write the shortest digits that read back as the same
double, and they differ only in spelling where ``repr`` writes an
exponent (``0 < |x| < 1e-4`` and ``|x| >= 1e16``) and for non-finite
values, which orjson writes ``null``; those values reach orjson as NaN
and each ``null`` is replaced by json's spelling of its value. A graphon
is written from its arrays as the document :func:`serialize_graphon`
builds, which is the tests' oracle for it. A graph is written as
:func:`serialize_graph` of it and any other dataclass as the object of its
fields, so a report object is its own document.
"""
from __future__ import annotations

import dataclasses
import json
import math
from itertools import chain, compress
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Any, Callable

import numpy as np
import orjson

from .density import require_affordable
from .errors import ParseError, ValidationError
from .graphs import DecoratedMultigraph
from .measures import MomentSequence, TestFunctional, check_measure
from .momentlab import MatchedPair
from .stepgraphon import StepGraphon, validate_graphon
from .transforms import Partition


def _get(obj: Any, key: str, kind, path: str, *, optional: bool = False, default=None):
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    if key not in obj:
        if optional:
            return default
        raise ParseError(f"{path}: missing field {key!r}")
    val = obj[key]
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
            try:
                out.append(float(x))
            except OverflowError:
                raise ParseError(f"{path}.{key}[{n}]: number beyond the double range") from None
    return out


def _wrap_validation(fn, path: str):
    try:
        return fn()
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}", code=e.code) from None


# -- graphons -------------------------------------------------------------------


def _block_records_bulk(records: list, q: int) -> tuple[np.ndarray, np.ndarray] | None:
    """``(support, weights)`` of the block records, checked in bulk.

    Applies every check of :func:`_raise_first_block_error` to whole
    columns of the document. Returns None as soon as some record fails
    one, or is of a shape it does not vouch for; the locator then finds
    the first error in document order. Dense blocks beyond the size budget
    are refused by :func:`require_affordable` before they are allocated.
    """
    n = len(records)
    if not set(map(type, records)) <= {dict}:
        return None
    try:
        rows = list(map(itemgetter("i"), records))
        cols = list(map(itemgetter("j"), records))
        sups = list(map(itemgetter("support"), records))
        wts = list(map(itemgetter("weights"), records))
    except KeyError:
        return None
    if not set(map(type, chain(sups, wts))) <= {list}:
        return None
    lengths = np.fromiter(map(len, sups), np.int64, n)
    if not np.array_equal(lengths, np.fromiter(map(len, wts), np.int64, n)):
        return None
    if not (
        set(map(type, chain(rows, cols))) <= {int}
        and set(map(type, chain.from_iterable(sups))) <= {int}
        and set(map(type, chain.from_iterable(wts))) <= {int, float}
    ):
        return None
    total = int(lengths.sum())
    try:
        i = np.fromiter(rows, np.int64, n)
        j = np.fromiter(cols, np.int64, n)
        pts = np.fromiter(chain.from_iterable(sups), np.int64, total)
        vals = np.fromiter(chain.from_iterable(wts), np.float64, total)
    except OverflowError:
        return None
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    rising = np.diff(pts) > 0
    starts = np.cumsum(lengths)[:-1]
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
    what = f"graphon.blocks: the dense blocks at q={q} over {len(support)} support points"
    require_affordable(what, q * q * len(support))
    column = np.searchsorted(support, pts)
    weights = np.zeros((q * q, len(support)))
    weights[np.repeat(lo * q + hi, lengths), column] = vals
    weights[np.repeat(hi * q + lo, lengths), column] = vals
    return support, weights.reshape(q, q, len(support))


def _raise_first_block_error(records: list, q: int) -> None:
    """Raise the error of the first bad block record, in document order.

    Runs when :func:`_block_records_bulk` refuses the records, and checks
    them one at a time without building any block. A support point beyond
    64 bits is reported only once every record has passed.
    """
    seen = set()
    top = 0
    for n, rec in enumerate(records):
        path = f"graphon.blocks[{n}]"
        i = _get(rec, "i", int, path)
        j = _get(rec, "j", int, path)
        if not (0 <= i < q and 0 <= j < q):
            raise ParseError(f"{path}: class index out of range for q={q}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ParseError(f"{path}: duplicate block for classes {key}")
        seen.add(key)
        support = _number_list(rec, "support", path, integer=True)
        weights = _number_list(rec, "weights", path)
        _wrap_validation(lambda: check_measure(support, weights), path)
        if support:
            top = max(top, support[-1])
    if top > np.iinfo(np.int64).max:
        raise ValidationError(
            f"graphon.blocks: measure: support point {top} does not fit in 64 bits",
            code="bad-measure",
        )
    raise AssertionError("the bulk block checks refused valid records")


def parse_graphon(doc: Any) -> StepGraphon:
    masses = _number_list(doc, "masses", "graphon")
    records, q = _get(doc, "blocks", list, "graphon"), len(masses)
    blocks = _block_records_bulk(records, q)
    if blocks is None:
        _raise_first_block_error(records, q)
    support, weights = blocks
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
    W = StepGraphon(masses, support, weights, functionals)
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
    except ValueError as e:  # bad JSON, bad UTF-8, or an integer of over 4300 digits
        raise ParseError(f"{path} is not valid JSON: {e}") from None


def _decode(path: str) -> Any:
    with open(path, "rb") as fh:
        return orjson.loads(fh.read())  # the bytes are released before the parse


def _load(path: str, parse: Callable[[Any], Any]) -> Any:
    """``parse`` of the document at ``path``, decoded by orjson.

    A file orjson cannot read or decode, or whose document ``parse``
    refuses, is read again by :func:`_load_json` and parsed from there, so
    every refusal is that route's.
    """
    try:
        return parse(_decode(path))
    except (OSError, orjson.JSONDecodeError, ParseError, ValidationError):
        pass  # leaving the handler drops the refused document before the re-read
    return parse(_load_json(path))


def load_graphon(path: str) -> StepGraphon:
    return _load(path, parse_graphon)


def load_graph(path: str) -> DecoratedMultigraph:
    return _load(path, parse_graph)


def load_partition(path: str) -> Partition:
    return _load(path, parse_partition)


def load_moments(path: str) -> MomentSequence:
    return _load(path, parse_moments)


def dump_json(doc: Any) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte.

    Three kinds of object in ``doc`` are written as the document they
    stand for: a :class:`StepGraphon` as ``serialize_graphon`` of it, a
    :class:`DecoratedMultigraph` as ``serialize_graph`` of it, and any
    other dataclass instance as the object of its fields in declaration
    order. Dict keys must be ``str``. Raises ``TypeError`` where
    ``json.dumps`` would, and for a non-str key; a document that contains
    itself exceeds the recursion limit.
    """
    out: list[str] = []
    _write(doc, 0, out)
    return "".join(out)


#: weights plus records per orjson call in :func:`_write_graphon`; one chunk's
#: record objects are alive at a time
_CHUNK = 4096


def _respelled(values: np.ndarray) -> np.ndarray:
    """Where orjson spells a float unlike json: ``0 < |x| < 1e-4``, ``|x| >= 1e16``, NaN, inf."""
    size = np.abs(values)
    return ~(size < 1e16) | ((size > 0.0) & (size < 1e-4))  # NaN fails ``size < 1e16``


def _orjson_items(items: list | tuple, level: int, special: list[float]) -> str:
    """orjson's ``OPT_INDENT_2`` text of the items of a list nested ``level`` deep.

    The text runs from the line break before the first item to the end of
    the last one. Each NaN in ``items`` stands for the next value of
    ``special``: orjson writes it ``null``, a word no other value here can
    be, and each ``null`` is replaced by :func:`_float` of its value.
    ``items`` is passed inside ``level`` lists, so that orjson indents it
    as deep as it sits, and the ``level * (level + 3) + 1`` bytes before
    its first line break and ``(level + 1) * (level + 2)`` after its last
    item are cut off.
    """
    for _ in range(level):
        items = [items]
    text = orjson.dumps(items, option=orjson.OPT_INDENT_2)
    text = text[level * (level + 3) + 1 : len(text) - (level + 1) * (level + 2)].decode()
    if not special:
        return text
    pieces = text.split("null")
    return pieces[0] + "".join(map(str.__add__, map(_float, special), pieces[1:]))


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
    elif isinstance(x, DecoratedMultigraph):
        _write_dict(serialize_graph(x), level, out)
    elif dataclasses.is_dataclass(x) and not isinstance(x, type):
        _write_dict({f.name: getattr(x, f.name) for f in dataclasses.fields(x)}, level, out)
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _write_list(items: list | tuple, level: int, out: list[str]) -> None:
    if not items:
        out.append("[]")
        return
    inner = "\n" + "  " * (level + 1)
    kinds = set(map(type, items))
    if kinds == {float}:
        values = np.array(items)
        special = _respelled(values)
        respelled = values[special].tolist()
        values[special] = np.nan
        out.append("[")  # list(items): orjson refuses tuple subclasses, which json writes
        out.append(_orjson_items(values.tolist() if respelled else list(items), level, respelled))
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

    :func:`_orjson_items` writes the block records at the depth of the
    blocks list, one call per chunk of records that holds about ``_CHUNK``
    weights and records, so only one chunk's record objects are alive at a
    time. The weights orjson spells unlike :mod:`json` are found by one
    mask over the whole array.
    """
    inner = "\n" + "  " * (level + 1)
    out.append("{" + inner + '"masses": ')
    _write_list(W.masses, level + 1, out)
    out.append("," + inner + '"blocks": ')
    upper_i, upper_j = np.triu_indices(W.q)
    upper = W.weights[upper_i, upper_j]
    rows, cols = np.nonzero(upper)
    values = upper[rows, cols]
    points = W.support[cols]
    respelled = _respelled(values)
    del upper, cols
    starts = np.searchsorted(rows, np.arange(len(upper_i) + 1))  # record k: starts[k]:starts[k+1]
    cost = starts + np.arange(len(starts))  # weights and records before record k
    cuts = np.unique(np.append(np.searchsorted(cost, np.arange(0, cost[-1], _CHUNK)), len(upper_i)))
    sep = "["
    for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        lo, hi = starts[a], starts[b]
        chunk, special = values[lo:hi], respelled[lo:hi]
        offsets = (starts[a : b + 1] - lo).tolist()
        pts, wts = points[lo:hi].tolist(), np.where(special, np.nan, chunk).tolist()
        records = [
            {"i": i, "j": j, "support": pts[x:y], "weights": wts[x:y]}
            for i, j, x, y in zip(upper_i[a:b].tolist(), upper_j[a:b].tolist(), offsets, offsets[1:])
        ]
        out.append(sep)
        out.append(_orjson_items(records, level + 1, chunk[special].tolist()))
        del records, pts, wts
        sep = ","
    out.append(inner + "]" if sep == "," else "[]")
    out.append("," + inner + '"functionals": ')
    _write_list(_functional_records(W), level + 1, out)
    out.append("\n" + "  " * level + "}")
