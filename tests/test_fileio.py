"""Document formats: round trips, symmetric completion, diagnostics, the writer."""
import copy
import json
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphonlab as gl
from graphonlab import fileio
from graphonlab.errors import ParseError, ValidationError

from conftest import parse_block_records, rand_graphon, scalar_graphon

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
    monkeypatch.setattr(fileio, "MAX_CONTRACTION", 64)
    doc = copy.deepcopy(W2_DOC)
    doc["blocks"][0].update(support=list(range(1, 9)), weights=[1.0] * 8)
    doc["blocks"][2].update(support=list(range(9, 17)), weights=[1.0] * 8)
    assert fileio.parse_graphon(doc).weights.shape == (2, 2, 16)  # 64 weights
    doc["blocks"][1]["support"] = [17]
    with pytest.raises(ValidationError) as e:
        fileio.parse_graphon(doc)
    assert e.value.code == "too-costly" and "68 weights" in str(e.value)


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


@settings(max_examples=500, deadline=None)
@given(TREES)
def test_dump_json_equals_json_dumps(doc):
    assert fileio.dump_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc", [object(), [1, {2}], {"a": np.int64(1)}, [np.bool_(True)], {(1, 2): 3}, {"a": {b"k": 1}}],
    ids=["object", "set", "int64", "bool_", "tuple-key", "bytes-key"],
)
def test_dump_json_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        fileio.dump_json(doc)


@pytest.mark.parametrize("key", [1, 1.5, True, None])
def test_dump_json_refuses_non_str_keys(key):
    with pytest.raises(TypeError):
        fileio.dump_json({key: 1})


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
    }


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
