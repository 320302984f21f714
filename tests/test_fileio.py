"""Document formats: round trips, symmetric completion, diagnostics, the writer."""
import collections
import copy
import dataclasses
import importlib
import json
import math
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphonlab as gl
from graphonlab import fileio
from graphonlab.errors import ParseError, ValidationError

from conftest import json_load, parse_block_records, rand_graphon, scalar_graphon

import numpy as np


W2_DOC = {
    "masses": [0.5, 0.5],
    "blocks": [
        {"i": 0, "j": 0, "support": [1], "weights": [1.0]},
        {"i": 0, "j": 1, "support": [1], "weights": [2.0]},
        {"i": 1, "j": 1, "support": [1], "weights": [3.0]},
    ],
    "functionals": [{"id": "unit", "support": [1], "values": [1.0]}],
}


def test_parse_minimal_graphon():
    doc = {
        "masses": [1.0],
        "blocks": [{"i": 0, "j": 0, "support": [1], "weights": [0.5]}],
        "functionals": [],
    }
    W = fileio.parse_graphon(doc)
    assert W.q == 1


def test_graphon_round_trip():
    rng = np.random.default_rng(50)
    for _ in range(5):
        W = rand_graphon(rng, int(rng.integers(1, 5)))
        again = fileio.parse_graphon(fileio.serialize_graphon(W))
        assert again.masses == W.masses
        assert again.blocks == W.blocks
        assert again.functionals == W.functionals


def test_symmetric_completion_from_lower_triangle():
    doc = dict(W2_DOC)
    doc["blocks"] = [
        {"i": 0, "j": 0, "support": [1], "weights": [1.0]},
        {"i": 1, "j": 0, "support": [1], "weights": [2.0]},  # lower triangle
        {"i": 1, "j": 1, "support": [1], "weights": [3.0]},
    ]
    W = fileio.parse_graphon(doc)
    assert W.blocks[0][1] == W.blocks[1][0]
    assert gl.kernel_matrix(W, "unit").tolist() == [[1.0, 2.0], [2.0, 3.0]]


def test_missing_blocks_default_to_zero():
    doc = {"masses": [0.5, 0.5], "blocks": [], "functionals": []}
    W = fileio.parse_graphon(doc)
    assert all(b.support == () for row in W.blocks for b in row)


def test_duplicate_block_rejected():
    doc = dict(W2_DOC)
    doc["blocks"] = W2_DOC["blocks"] + [
        {"i": 1, "j": 0, "support": [1], "weights": [2.0]}
    ]
    with pytest.raises(ParseError) as e:
        fileio.parse_graphon(doc)
    assert "duplicate block" in str(e.value)


def test_block_index_out_of_range():
    doc = dict(W2_DOC)
    doc["blocks"] = [{"i": 0, "j": 5, "support": [], "weights": []}]
    with pytest.raises(ParseError) as e:
        fileio.parse_graphon(doc)
    assert "blocks[0]" in str(e.value)


def test_schema_diagnostics_name_the_field():
    with pytest.raises(ParseError) as e:
        fileio.parse_graphon({"blocks": [], "functionals": []})
    assert "masses" in str(e.value)
    with pytest.raises(ParseError) as e:
        fileio.parse_graphon({"masses": [1.0], "blocks": [{"i": 0}], "functionals": []})
    assert "blocks[0]" in str(e.value)


def test_validation_codes_surface_through_load():
    doc = {"masses": [0.6, 0.5], "blocks": [], "functionals": []}
    with pytest.raises(ValidationError) as e:
        fileio.parse_graphon(doc)
    assert e.value.code == "mass-sum"


def test_graph_round_trip():
    F = gl.DecoratedMultigraph(4, ((0, 1, "a", 2), (2, 3, "b", 1)), {0: 1, 3: 2})
    doc = fileio.serialize_graph(F)
    again = fileio.parse_graph(doc)
    assert again == F


def test_graph_parse_normalizes():
    doc = {
        "n_vertices": 3,
        "edges": [
            {"u": 2, "v": 0, "psi": "a"},
            {"u": 0, "v": 2, "psi": "a", "multiplicity": 2},
        ],
    }
    F = fileio.parse_graph(doc)
    assert F.edges == ((0, 2, "a", 3),)


def test_graph_label_errors():
    doc = {"n_vertices": 2, "edges": [], "labels": {"zero": 1}}
    with pytest.raises(ParseError):
        fileio.parse_graph(doc)
    doc = {"n_vertices": 2, "edges": [], "labels": {"0": 1, "1": 1}}
    with pytest.raises(ValidationError):
        fileio.parse_graph(doc)


def test_partition_and_moments_round_trip():
    P = gl.Partition((0, 1, 0))
    assert fileio.parse_partition(fileio.serialize_partition(P)).class_of == P.class_of
    seq = fileio.parse_moments({"moments": [1.0, 2.0, 5.0], "source": "distribution"})
    assert seq.moments == (1.0, 2.0, 5.0)
    sym = fileio.parse_moments({"moments": [0.0, 1.0], "source": "symbolic"})
    assert sym.source == "symbolic"
    with pytest.raises(ValidationError):
        fileio.parse_moments({"moments": [2.0], "source": "distribution"})


def test_load_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        fileio.load_graphon(str(path))
    with pytest.raises(ParseError):
        fileio.load_graphon(str(tmp_path / "missing.json"))


def test_matched_pair_serialization():
    pair = gl.matched_pair(5, 3)
    doc = fileio.serialize_matched_pair(pair)
    assert doc["support_size"] == 6
    assert doc["order"] == 3
    assert json.dumps(doc)  # serializable


def test_bulk_parse_matches_record_by_record_parse():
    rng = np.random.default_rng(51)
    for q in range(1, 6):
        records = fileio.serialize_graphon(rand_graphon(rng, q))["blocks"]
        records = [
            dict(r, i=r["j"], j=r["i"]) if n % 3 == 1 else r  # some from the lower triangle
            for n, r in enumerate(records)
            if n % 4 != 2  # some omitted: zero blocks
        ]
        bulk = fileio._block_records_bulk(records, q)
        checked = parse_block_records(records, q)
        assert np.array_equal(bulk[0], checked[0])
        assert np.array_equal(bulk[1], checked[1])


@pytest.mark.parametrize(
    "change, error, fragment",
    [
        ({"weights": [0.0]}, "bad-measure", "blocks[1]: measure: zero weights"),
        ({"weights": [float("nan")]}, "bad-measure", "blocks[1]: measure: weights must be finite"),
        ({"support": [2, 1], "weights": [1.0, 1.0]}, "bad-measure", "strictly increasing"),
        ({"support": [-1]}, "bad-measure", "nonnegative"),
        ({"support": [1, 2]}, "bad-measure", "lengths differ"),
        ({"support": [True]}, ParseError, "blocks[1].support[0]: expected a number"),
        ({"support": [1.0]}, ParseError, "blocks[1].support[0]: expected an integer"),
        ({"weights": ["2"]}, ParseError, "blocks[1].weights[0]: expected a number"),
        ({"i": 1.0}, ParseError, "blocks[1].i: expected an integer"),
        ({"j": 2}, ParseError, "blocks[1]: class index out of range"),
        ({"support": 1}, ParseError, "blocks[1].support: expected list"),
    ],
)
def test_block_errors_name_the_first_bad_record(change, error, fragment):
    doc = copy.deepcopy(W2_DOC)
    doc["blocks"][1].update(change)
    assert fileio._block_records_bulk(doc["blocks"], 2) is None
    doc["blocks"][2]["i"] = 7  # a later record is bad too; the first one is reported
    kind = ValidationError if isinstance(error, str) else error
    with pytest.raises(kind) as e:
        fileio.parse_graphon(doc)
    assert fragment in str(e.value)
    if isinstance(error, str):
        assert e.value.code == error


def test_support_point_beyond_64_bits_is_a_coded_error():
    doc = copy.deepcopy(W2_DOC)
    doc["blocks"][1]["support"] = [2**64]
    with pytest.raises(ValidationError) as e:
        fileio.parse_graphon(doc)
    assert e.value.code == "bad-measure"
    assert "64 bits" in str(e.value)


def test_support_point_beyond_64_bits_refused_before_the_block_matrix():
    q = 4000
    doc = {
        "masses": [1 / q] * q,
        "blocks": [{"i": 0, "j": 1, "support": [3, 2**64], "weights": [1.0, 2.0]}],
        "functionals": [],
    }
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as e:
            fileio.parse_graphon(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.value.code == "bad-measure"
    assert str(e.value) == f"graphon.blocks: measure: support point {2**64} does not fit in 64 bits"
    assert peak < 1 << 20


def test_serialize_writes_only_nonzero_weights():
    W = gl.StepGraphon(
        (0.5, 0.5), [1, 4], [[[1.0, 0.0], [0.0, -2.0]], [[0.0, -2.0], [0.0, 0.0]]]
    )
    assert fileio.serialize_graphon(W)["blocks"] == [
        {"i": 0, "j": 0, "support": [1], "weights": [1.0]},
        {"i": 0, "j": 1, "support": [4], "weights": [-2.0]},
        {"i": 1, "j": 1, "support": [], "weights": []},
    ]


def test_dense_blocks_refused_before_allocating():
    q, S = 4000, 100  # 12.8 GB of float64 weights
    doc = {
        "masses": [1 / q] * q,
        "blocks": [{"i": 0, "j": q - 1, "support": list(range(S)), "weights": [1.0] * S}],
        "functionals": [],
    }
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as e:
            fileio.parse_graphon(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert e.value.code == "too-costly"
    assert str(q * q * S) in str(e.value)
    assert peak < 1 << 20


def test_dense_block_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(importlib.import_module("graphonlab.density"), "MAX_CONTRACTION", 64)
    doc = copy.deepcopy(W2_DOC)
    doc["blocks"][0].update(support=list(range(1, 9)), weights=[1.0] * 8)
    doc["blocks"][2].update(support=list(range(9, 17)), weights=[1.0] * 8)
    assert fileio.parse_graphon(doc).weights.shape == (2, 2, 16)  # 64 weights
    doc["blocks"][1]["support"] = [17]
    with pytest.raises(ValidationError) as e:
        fileio.parse_graphon(doc)
    assert e.value.code == "too-costly" and " 68 " in str(e.value)


# -- one parse path, checked against the record-by-record oracle -------------------

#: an integer that no double holds
BIG = 10**400

POINTS = st.one_of(st.integers(0, 9), st.integers(2**62, 2**63 - 1))
WEIGHTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).filter(bool),
    st.integers(-(2**70), 2**70).filter(bool),
)


def _mutate(draw, records: list, q: int) -> None:
    """Break one record of ``records`` in place, in one of the ways a file can."""
    if not records:
        return
    n = draw(st.integers(0, len(records) - 1))
    rec = records[n]
    if not isinstance(rec, dict):
        return
    kind = draw(st.sampled_from([
        "not-a-dict", "missing-key", "odd-index", "index-out-of-range", "duplicate",
        "decreasing-support", "negative-support", "wide-support", "length-mismatch",
        "bad-weight", "not-a-list",
    ]))
    index = draw(st.sampled_from(["i", "j"]))
    field = draw(st.sampled_from(["support", "weights"]))
    if kind == "not-a-dict":
        records[n] = draw(st.sampled_from([None, 1, "block", [rec]]))
    elif kind == "missing-key" and rec:
        del rec[draw(st.sampled_from(sorted(rec)))]
    elif kind == "odd-index":
        rec[index] = draw(st.sampled_from([True, False, 0.0, 1.0, float(q)]))
    elif kind == "index-out-of-range":
        rec[index] = draw(st.sampled_from([-1, q, q + 7, 2**64, -(2**70)]))
    elif kind == "duplicate":
        twin = dict(rec, i=rec.get("j"), j=rec.get("i")) if draw(st.booleans()) else dict(rec)
        if draw(st.booleans()):  # is the duplicate or its bad field reported first?
            twin[field] = draw(st.sampled_from([None, [None], [True]]))
        records.insert(draw(st.integers(n + 1, len(records))), twin)
    elif kind == "decreasing-support":
        rec["support"] = [3, draw(st.sampled_from([0, 2, 3]))]
        rec["weights"] = [1.0, -2.0]
    elif kind == "negative-support":
        rec["support"] = [draw(st.sampled_from([-1, -(2**63), -(2**70)]))]
        rec["weights"] = [1.0]
    elif kind == "wide-support":
        rec["support"] = [5, draw(st.sampled_from([2**63, 2**64, 10**30]))]
        rec["weights"] = [1.0, -1.0]
    elif kind == "length-mismatch":
        rec[field] = [*rec[field], 7] if isinstance(rec.get(field), list) else [7]
    elif kind == "bad-weight":
        bad = draw(st.sampled_from([0, 0.0, -0.0, math.nan, BIG, -BIG]))
        ws = list(rec["weights"]) if isinstance(rec.get("weights"), list) else []
        if ws:
            ws[draw(st.integers(0, len(ws) - 1))] = bad
        else:
            rec["support"], ws = [2], [bad]
        rec["weights"] = ws
    elif kind == "not-a-list":
        rec[field] = draw(st.sampled_from([1, 1.5, "1", {"0": 1}, None]))


@st.composite
def graphon_documents(draw):
    """A valid graphon document (q <= 6, at most 5 support points), then 0-2 mutations."""
    q = draw(st.integers(1, 6))
    pool = sorted(draw(st.sets(POINTS, max_size=5)))
    records = []
    for i in range(q):
        for j in range(i, q):
            if not draw(st.booleans()):
                continue  # an omitted block is the zero measure
            support = sorted(draw(st.sets(st.sampled_from(pool), max_size=5))) if pool else []
            weights = draw(st.lists(WEIGHTS, min_size=len(support), max_size=len(support)))
            i_, j_ = (j, i) if draw(st.booleans()) else (i, j)  # some from the lower triangle
            records.append({"i": i_, "j": j_, "support": support, "weights": weights})
    records = draw(st.permutations(records))
    for _ in range(draw(st.integers(0, 2))):
        _mutate(draw, records, q)
    return {"masses": [1 / q] * q, "blocks": records, "functionals": []}


def _outcome(parse):
    try:
        return "ok", parse()
    except (ParseError, ValidationError) as e:
        return "error", (type(e), str(e), e.code)


def _doc(*records: tuple) -> dict:
    keys = ("i", "j", "support", "weights")
    return {"masses": [0.5, 0.5], "blocks": [dict(zip(keys, r)) for r in records]}


@settings(max_examples=500, deadline=None)
@given(graphon_documents())
@example(_doc((0, 1, [1], [1.0]), (1, 0, None, [1.0])))  # the duplicate, not its bad field
@example(_doc((0, 0, [2**64], [1.0]), (0, 1, [1], [0.0])))  # a later bad record, not 2^64
def test_parse_graphon_matches_the_record_by_record_oracle(doc):
    got, value = _outcome(lambda: fileio.parse_graphon(doc))
    want, expected = _outcome(lambda: parse_block_records(doc["blocks"], len(doc["masses"])))
    assert got == want
    if want == "error":
        assert value == expected
    else:
        support, weights = expected
        assert value.support.tolist() == support.tolist()
        assert value.weights.shape == weights.shape
        assert value.weights.tobytes() == weights.tobytes()


# -- the decoder: orjson first, the json route for what it refuses -----------------

#: number literals the two decoders read differently, or could: literals
#: only json reads, integers at and beyond 64 bits, doubles at the edges
EDGE_NUMBERS = [
    b"NaN", b"Infinity", b"-Infinity", b"-0", b"-0.0", b"0", b"1.0", b"1e0",
    b"9223372036854775807", b"9223372036854775808", b"-9223372036854775808",
    b"-9223372036854775809", b"18446744073709551615", b"18446744073709551616",
    b"1" + b"0" * 30, b"-1" + b"0" * 30, b"1" + b"0" * 400, b"1e400", b"-1e400",
    b"1.7976931348623157e308", b"1.7976931348623159e308", b"5e-324", b"1e-320",
    b"2.4703282292062328e-324", b"2.2250738585072011e-308", b"1e-400",
]
NUMBERS = st.one_of(
    st.integers(-2, 5).map(lambda n: b"%d" % n),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: repr(x).encode()),
)
#: string literals: plain, a lone surrogate escape, a surrogate pair, a byte that is not UTF-8
EDGE_STRINGS = [b'"\\ud800"', b'"\\ud83d\\ude00"', b'"x\xff"', b'"symbolic"', b'"1"']
SPACE = st.sampled_from([b"", b" ", b"\n", b"\r\n", b"\t", b"\r\n  "])


def _edge(draw, token: bytes, edges: list, p: float = 0.05) -> bytes:
    """``token``, or with probability ``p`` one of ``edges``."""
    return draw(st.sampled_from(edges)) if draw(st.integers(1, 1000)) <= 1000 * p else token


def _array(draw, items) -> bytes:
    sp = draw(SPACE)
    return b"[" + sp + (b"," + sp).join(items) + sp + b"]"


def _object(draw, fields: list) -> bytes:
    """``fields`` as an object, sometimes with one key given twice (the later one counts)."""
    if fields and draw(st.integers(0, 3)) == 0:
        key, _ = draw(st.sampled_from(fields))
        fields.insert(draw(st.integers(0, len(fields))), (key, draw(NUMBERS)))
    sp = draw(SPACE)
    return b"{" + sp + (b"," + sp).join(b'"%s":%s%s' % (k, sp, v) for k, v in fields) + sp + b"}"


@st.composite
def graphon_texts(draw):
    q = draw(st.sampled_from([1, 2, 4]))
    mass = draw(st.sampled_from({1: [b"1", b"1.0", b"1e0"], 2: [b"0.5"], 4: [b"0.25", b"2.5e-1"]}[q]))
    blocks = []
    for i in range(q):
        for j in range(i, q):
            if draw(st.booleans()):
                points = sorted(draw(st.sets(st.integers(0, 6), max_size=3)))
                weights = draw(st.lists(NUMBERS.filter(lambda x: x not in (b"0", b"0.0", b"-0.0")),
                                        min_size=len(points), max_size=len(points)))
                i, j = (j, i) if draw(st.booleans()) else (i, j)
                blocks.append(_object(draw, [
                    (b"i", _edge(draw, b"%d" % i, EDGE_NUMBERS, 0.02)),
                    (b"j", _edge(draw, b"%d" % j, EDGE_NUMBERS, 0.02)),
                    (b"support", _array(draw, [_edge(draw, b"%d" % k, EDGE_NUMBERS, 0.02)
                                               for k in points])),
                    (b"weights", _array(draw, [_edge(draw, w, EDGE_NUMBERS) for w in weights])),
                ]))
    masses = [_edge(draw, mass, EDGE_NUMBERS, 0.02) for _ in range(q)]
    fields = [(b"masses", _array(draw, masses)), (b"blocks", _array(draw, blocks))]
    if draw(st.booleans()):
        unit = _object(draw, [
            (b"id", _edge(draw, b'"unit"', EDGE_STRINGS)), (b"support", b"[1]"),
            (b"values", _array(draw, [_edge(draw, draw(NUMBERS), EDGE_NUMBERS)])),
        ])
        fields.append((b"functionals", _array(draw, [unit])))
    return _object(draw, fields)


@st.composite
def graph_texts(draw):
    def index():
        return _edge(draw, b"%d" % draw(st.integers(0, 3)), EDGE_NUMBERS, 0.03)

    edges = []
    for _ in range(draw(st.integers(0, 3))):
        fields = [(b"u", index()), (b"v", index()), (b"psi", _edge(draw, b'"unit"', EDGE_STRINGS))]
        if draw(st.booleans()):
            fields.append((b"multiplicity", index()))
        edges.append(_object(draw, fields))
    labels = [(_edge(draw, b'"%d"' % v, EDGE_STRINGS)[1:-1], index())
              for v in draw(st.sets(st.integers(0, 3), max_size=2))]
    return _object(draw, [
        (b"n_vertices", _edge(draw, b"4", EDGE_NUMBERS)),
        (b"labels", _object(draw, labels)),
        (b"edges", _array(draw, edges)),
    ])


@st.composite
def partition_texts(draw):
    classes = [b"%d" % c for c in draw(st.permutations(range(draw(st.integers(1, 4)))))]
    return _object(draw, [(b"class_of", _array(draw, [_edge(draw, c, EDGE_NUMBERS) for c in classes]))])


@st.composite
def moments_texts(draw):
    moments = [b"1"] + [_edge(draw, draw(NUMBERS), EDGE_NUMBERS, 0.1)
                        for _ in range(draw(st.integers(0, 4)))]
    fields = [(b"moments", _array(draw, moments))]
    if draw(st.booleans()):
        fields.append((b"source", draw(st.sampled_from([b'"symbolic"', b'"distribution"', *EDGE_STRINGS]))))
    return _object(draw, fields)


DOCUMENTS = {
    "graphon": (graphon_texts(), fileio.load_graphon, fileio.parse_graphon),
    "graph": (graph_texts(), fileio.load_graph, fileio.parse_graph),
    "partition": (partition_texts(), fileio.load_partition, fileio.parse_partition),
    "moments": (moments_texts(), fileio.load_moments, fileio.parse_moments),
}


def _loaded(load):
    """What ``load()`` returns, as bytes and reprs, or the refusal it raises."""
    try:
        x = load()
    except (ParseError, ValidationError) as e:
        return "error", (type(e), str(e), e.code)
    if isinstance(x, gl.StepGraphon):
        return "ok", (repr(x.masses), x.support.tobytes(), x.weights.shape,
                      x.weights.tobytes(), repr(sorted(x.functionals.items())))
    return "ok", repr(x)


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("decoder") / "doc.json")


def _same_as_json_load(path: str, kind: str, body: bytes) -> None:
    _, load, parse = DOCUMENTS[kind]
    with open(path, "wb") as fh:
        fh.write(body)
    assert _loaded(lambda: load(path)) == _loaded(lambda: json_load(path, parse))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(DOCUMENTS)), st.data())
def test_load_matches_the_json_load_oracle(document_path, kind, data):
    body = data.draw(SPACE) + data.draw(DOCUMENTS[kind][0]) + data.draw(SPACE)
    if data.draw(st.integers(0, 9)) == 0:
        body = b"\xef\xbb\xbf" + body  # a UTF-8 byte order mark
    _same_as_json_load(document_path, kind, body)


@pytest.mark.parametrize(
    "kind, body",
    [
        ("moments", b'{"moments": [1, NaN, Infinity, -0], "source": "symbolic"}'),
        ("moments", b'{"moments": [1, 1e400]}'),
        ("graph", b'{"n_vertices": 18446744073709551616, "edges": [{"u": 0, "v": 1, '
                  b'"psi": "unit", "multiplicity": 1000000000000000000000000000000}]}'),
        ("graph", b'{"n_vertices": 2, "edges": [{"u": 0, "v": 1, "psi": "\\ud800"}]}'),
        ("graph", b'{"n_vertices": 2, "labels": {"0": 1, "0": 2}, "edges": []}'),
        ("partition", b'{"class_of": [0, 18446744073709551615]}'),
        ("graphon", b'\xef\xbb\xbf{"masses": [1], "blocks": []}'),
        ("graphon", b'{"masses": [1],\r\n "blocks": [{"i": 0, "j": 0, "support": [1], '
                    b'"weights": [1000000000000000000000000000000]}]}'),
        ("graphon", b'{"masses": [1], "blocks": [{"i": 0, "j": 0, "support": [1, 2], '
                    b'"weights": [5e-324, -1000000000000000000000000000000]}]}'),
    ],
    ids=["nan-infinity", "1e400", "big-integers", "lone-surrogate", "duplicate-key", "uint64", "bom",
         "crlf-1e30", "subnormal"],
)
def test_edge_documents_load_as_json_reads_them(document_path, kind, body):
    _same_as_json_load(document_path, kind, body)


# -- the writer -------------------------------------------------------------------

MAX = 1.7976931348623157e308
#: where repr switches between fixed and exponent notation, and their neighbours
SWITCH_POINTS = [
    y
    for x in (1e16, 1e-5, 1e-4, 1.0)
    for y in (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))
]
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
         1e-310, MAX, -MAX, *SWITCH_POINTS, *(-x for x in SWITCH_POINTS)]
    ),
)
ESCAPES = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80é€\u2028\ud800\U0001f600 a'
STRINGS = st.one_of(st.text(), st.text(alphabet=st.sampled_from(ESCAPES)))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-1, 1), FLOATS,
    FLOATS.map(np.float64), STRINGS,
)
TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.lists(FLOATS, min_size=1),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
        st.lists(st.integers(), min_size=1),
        st.dictionaries(STRINGS, children),
    ),
    max_leaves=40,
)


Pair = collections.namedtuple("Pair", "x y")


@dataclasses.dataclass
class Reading:
    value: float
    flags: tuple


@dataclasses.dataclass(frozen=True)
class Report:
    name: str
    graph: gl.DecoratedMultigraph
    bounds: tuple
    reading: Reading
    readings: list
    extremes: list


@settings(max_examples=500, deadline=None)
@given(TREES)
@example([Pair(1.0, 2.5), Pair(1e-7, math.inf), {"p": Pair(0.5, 1)}])  # tuple subclasses
def test_dump_json_equals_json_dumps(doc):
    assert fileio.dump_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc",
    [object(), [1, {2}], {"a": np.int64(1)}, [np.bool_(True)], {(1, 2): 3}, {"a": {b"k": 1}},
     [Report]],
    ids=["object", "set", "int64", "bool_", "tuple-key", "bytes-key", "dataclass-type"],
)
def test_dump_json_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        fileio.dump_json(doc)


def test_dump_json_writes_dataclasses_and_graphs_as_their_documents():
    graph = gl.DecoratedMultigraph(3, ((2, 0, "b", 1), (0, 1, "a", 2)), {2: 7, 0: 1})
    report = Report(
        name="r",
        graph=graph,
        bounds=(1e-7, 2.5e20),
        reading=Reading(math.nan, (True, None, gl.edge_graph())),
        readings=[Reading(-math.inf, ()), Reading(0.5, (1, "x"))],
        extremes=[math.inf, -math.inf, math.nan, -1e-300, 1e16, 0.25],
    )
    edge = {
        "n_vertices": 2,
        "labels": {},
        "edges": [{"u": 0, "v": 1, "psi": "unit", "multiplicity": 1}],
    }
    doc = {
        "name": "r",
        "graph": {
            "n_vertices": 3,
            "labels": {"0": 1, "2": 7},
            "edges": [
                {"u": 0, "v": 1, "psi": "a", "multiplicity": 2},
                {"u": 0, "v": 2, "psi": "b", "multiplicity": 1},
            ],
        },
        "bounds": [1e-7, 2.5e20],
        "reading": {"value": math.nan, "flags": [True, None, edge]},
        "readings": [{"value": -math.inf, "flags": []}, {"value": 0.5, "flags": [1, "x"]}],
        "extremes": [math.inf, -math.inf, math.nan, -1e-300, 1e16, 0.25],
    }
    expected = json.dumps(doc, indent=2)
    assert fileio.dump_json(report) == expected
    assert fileio.dump_json({"reports": [report, (report,)]}) == json.dumps(
        {"reports": [doc, [doc]]}, indent=2
    )
    assert fileio.dump_json(graph) == json.dumps(fileio.serialize_graph(graph), indent=2)


@pytest.mark.parametrize("key", [1, 1.5, True, None])
def test_dump_json_refuses_non_str_keys(key):
    with pytest.raises(TypeError):
        fileio.dump_json({key: 1})


def float_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def test_float_reprs_match_repr():
    # orjson and repr agree wherever repr writes no exponent; this fails if
    # an orjson release changes how it spells a double
    rng = np.random.default_rng(71)
    n = 100_000
    # exponent fields 2^-14 .. 2^54 span 1e-4 and 1e16 with random mantissas
    near = (rng.integers(1009, 1078, n, dtype=np.uint64) << np.uint64(52)) | rng.integers(
        0, 1 << 52, n, dtype=np.uint64
    )
    decades = [float(f"1e{k}") for k in range(-5, 18)]
    values = np.concatenate([
        float_bits(rng.integers(0, 1 << 64, n, dtype=np.uint64)),
        float_bits(near),
        decades,
        [math.nextafter(x, side) for x in decades for side in (0.0, math.inf)],
        SWITCH_POINTS,
        [5e-324, 0.0, 1e-310, math.nextafter(2.2250738585072014e-308, 0.0), 2.2250738585072014e-308, MAX],
    ])
    values = np.concatenate([values, -values])  # random bits include NaNs and infinities
    flat = values.tolist()
    for doc in (flat, [[flat]], {"a": {"b": flat}}):
        assert fileio.dump_json(doc) == json.dumps(doc, indent=2)
    # the graphon writer's orjson call, on the same values as the weights of one block
    W = gl.StepGraphon((1.0,), np.arange(len(values)), values[None, None, :])
    assert fileio.dump_json(W) == json.dumps(fileio.serialize_graphon(W), indent=2)


#: values orjson spells unlike json (exponent form, NaN, infinities) and values it spells alike
RESPELLED_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(min_value=-9.9e-5, max_value=9.9e-5),
    st.floats(min_value=1e16, allow_infinity=False),
    st.floats(max_value=-1e16, allow_infinity=False),
    st.floats(min_value=-9.9e15, max_value=9.9e15),
    FLOATS,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(RESPELLED_FLOATS, min_size=1, max_size=30), st.integers(0, 3), st.booleans())
def test_dump_json_writes_mixed_float_lists_as_json_dumps(values, depth, in_dict):
    doc = values
    for _ in range(depth):  # the list nested ``depth`` deep
        doc = {"x": doc, "n": 1} if in_dict else [doc, 2.5]
    assert fileio.dump_json(doc) == json.dumps(doc, indent=2)


def chunk_crossing_graphon() -> gl.StepGraphon:
    """Over two formatter chunks of weights, exponent-form weights next to each boundary."""
    q = 8
    upper_i, upper_j = np.triu_indices(q)
    S = 2 * fileio._CHUNK // len(upper_i) + 1
    flat = np.random.default_rng(53).uniform(0.5, 1.0, len(upper_i) * S)
    flat[::3] *= -1.0
    for edge in (fileio._CHUNK, 2 * fileio._CHUNK):
        flat[edge - 3 : edge + 3] = [0.25, 1e-5, -math.nextafter(1e-4, 0.0), 1e16, -3.5e-300, 0.0001]
    weights = np.zeros((q, q, S))
    weights[upper_i, upper_j] = weights[upper_j, upper_i] = flat.reshape(len(upper_i), S)
    return gl.StepGraphon((0.125,) * q, np.arange(1, S + 1), weights)


def graphon_cases():
    rng = np.random.default_rng(52)
    unit = gl.unit_functional()
    return {
        "q1": gl.StepGraphon((1.0,), [7], [[[0.25]]], {unit.id: unit}),
        "no-functionals": gl.StepGraphon((0.5, 0.5), [1, 2], np.ones((2, 2, 2))),
        "all-zero": gl.StepGraphon((0.25, 0.75), np.zeros(0, int), np.zeros((2, 2, 0))),
        "some-zero": gl.StepGraphon(
            (0.5, 0.5), [1, 4], [[[1.0, 0.0], [0.0, -2.0]], [[0.0, -2.0], [0.0, 0.0]]]
        ),
        "one-point": scalar_graphon((0.2, 0.3, 0.5), [[1.0, -0.5, 0.0], [-0.5, 1e-300, 3.0], [0.0, 3.0, 1e16]]),
        "wide-support": gl.StepGraphon(
            (0.5, 0.5), [0, 2**62 + 1], [[[5e-324, 1.0], [-1e-5, 0.1]], [[-1e-5, 0.1], [MAX, 0.0]]]
        ),
        "infinite-weight": gl.StepGraphon((1.0,), [1], [[[math.inf]]]),
        **{f"random-q{q}": rand_graphon(rng, q) for q in (1, 2, 5, 9)},
        "chunk-crossing": chunk_crossing_graphon(),
        "empty-records-over-chunks": gl.StepGraphon((0.01,) * 100, np.zeros(0, int), np.zeros((100, 100, 0))),
    }


@st.composite
def float_graphons(draw):
    """A graphon of 1..5 classes over 0..3 points, weights from :data:`FLOATS`; many are 0."""
    q, S = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    weights = np.zeros((q, q, S))
    upper_i, upper_j = np.triu_indices(q)
    cells = draw(st.lists(st.one_of(st.just(0.0), FLOATS), min_size=len(upper_i) * S,
                          max_size=len(upper_i) * S))
    weights[upper_i, upper_j] = weights[upper_j, upper_i] = np.reshape(cells, (len(upper_i), S))
    support = sorted(draw(st.sets(st.integers(0, 2**63 - 1), min_size=S, max_size=S)))
    return gl.StepGraphon([1 / q] * q, support, weights)


@settings(max_examples=300, deadline=None)
@given(float_graphons(), st.integers(0, 3), st.booleans(), st.sampled_from([1, 2, 5, fileio._CHUNK]))
def test_dump_json_writes_random_graphons_as_json_dumps(W, level, in_dict, chunk):
    doc, expected = W, fileio.serialize_graphon(W)
    for _ in range(level):  # W nested ``level`` deep
        doc, expected = ({"g": doc}, {"g": expected}) if in_dict else ([doc], [expected])
    with mock.patch.object(fileio, "_CHUNK", chunk):  # small chunks: records split many ways
        assert fileio.dump_json(doc) == json.dumps(expected, indent=2)


@pytest.mark.parametrize("name", list(graphon_cases()))
def test_dump_json_writes_graphons_as_serialize_graphon(name):
    W = graphon_cases()[name]
    doc = fileio.serialize_graphon(W)
    assert fileio.dump_json(W) == json.dumps(doc, indent=2)
    anchored = {"anchors": [0], "functional_ids": ["unit"], "features": [[1.0], [2.5]]}
    assert fileio.dump_json({**anchored, "graphon": W}) == json.dumps(
        {**anchored, "graphon": doc}, indent=2
    )
    assert fileio.dump_json([[W], {"graphon": W}]) == json.dumps([[doc], {"graphon": doc}], indent=2)
