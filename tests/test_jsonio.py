"""Presentation and homomorphism file schemas."""

import json

import pytest

from skewpbw.expr import ExprError
from skewpbw.jsonio import (
    SchemaError,
    homspec_from_json,
    load_homspec,
    load_presentation,
    presentation_from_json,
    presentation_to_json,
    ring_from_json,
    ring_to_json,
)
from skewpbw.rings import LaurentRing, PolyRing, PrimeField, QQ
from skewpbw.rng import Stream


def test_ring_round_trips():
    rings = [
        QQ,
        PrimeField(7),
        PolyRing(QQ, ("t", "u")),
        LaurentRing(QQ, "q"),
        PolyRing(LaurentRing(QQ, "q"), ("b", "c")),
    ]
    for ring in rings:
        assert ring_from_json(ring_to_json(ring)) == ring


def test_ring_schema_errors():
    with pytest.raises(SchemaError):
        ring_from_json({"kind": "galois"})
    with pytest.raises(SchemaError):
        ring_from_json({"kind": "rationals", "p": 5})
    with pytest.raises(SchemaError):
        ring_from_json({"kind": "laurent", "base": {"kind": "rationals"}, "vars": ["q", "p"]})


def test_presentation_round_trip(catalog_entries):
    """Catalog entries and the generated families read back equal from
    their JSON, which lists every pair with its c and d, and an a list only
    where some a_ijk is nonzero."""
    from .genutil import dense_presentation, perturbed_presentation, qdiff_presentation

    stream = Stream(13)
    cases = list(catalog_entries) + [("dense", dense_presentation()), ("qdiff", qdiff_presentation())]
    cases += [(f"perturbed{k}", perturbed_presentation(stream.split(k))) for k in range(12)]
    written = []
    for name, P in cases:
        obj = json.loads(json.dumps(presentation_to_json(P)))
        Q = presentation_from_json(obj)
        assert Q == P and Q.fingerprint == P.fingerprint, name
        pairs = [(i + 1, j + 1) for i in range(P.n) for j in range(i + 1, P.n)]
        assert [(rel["i"], rel["j"]) for rel in obj["relations"]] == pairs, name
        for rel in obj["relations"]:
            i, j = rel["i"] - 1, rel["j"] - 1
            assert (rel["c"], rel["d"]) == (str(P.c_of(i, j)), str(P.d_of(i, j))), name
            assert ("a" in rel) == bool(P.linear_terms(i, j)), (name, rel)
            written.append("a" in rel)
    assert 5 <= sum(written) < len(written)


def test_unknown_keys_rejected(quantum_plane):
    obj = presentation_to_json(quantum_plane)
    obj["extra"] = 1
    with pytest.raises(SchemaError):
        presentation_from_json(obj)
    obj = presentation_to_json(quantum_plane)
    obj["relations"][0]["q"] = "typo"
    with pytest.raises(SchemaError):
        presentation_from_json(obj)


def test_relation_index_validation(quantum_plane):
    obj = presentation_to_json(quantum_plane)
    obj["relations"][0]["i"] = 2
    obj["relations"][0]["j"] = 1
    with pytest.raises(SchemaError):
        presentation_from_json(obj)
    obj = presentation_to_json(quantum_plane)
    obj["relations"].append(dict(obj["relations"][0]))
    with pytest.raises(SchemaError):
        presentation_from_json(obj)


@pytest.mark.parametrize("relations", [5, "ab", {"i": 1, "j": 2}, None])
def test_relations_must_be_a_list(relations):
    obj = {"ring": {"kind": "rationals"}, "vars": ["x1", "x2"], "relations": relations}
    with pytest.raises(SchemaError, match=r"^relations: expected a list of objects$"):
        presentation_from_json(obj)


def test_minimal_presentation_defaults():
    P = presentation_from_json({"ring": {"kind": "rationals"}, "vars": ["x1", "x2"]})
    assert P.c_of(0, 1) == QQ.one()
    assert not P.d_of(0, 1)
    assert P.sigma[0].is_identity()
    assert P.delta[0].is_zero_map()


def test_load_presentation_catalog_token():
    P = load_presentation("catalog:weyl1")
    assert P.n == 2
    with pytest.raises(KeyError):
        load_presentation("catalog:unknown")


def test_load_presentation_file(tmp_path, quantum_plane):
    path = tmp_path / "qp.json"
    path.write_text(json.dumps(presentation_to_json(quantum_plane)))
    P = load_presentation(str(path))
    assert P.fingerprint == quantum_plane.fingerprint


def test_homspec_load(tmp_path):
    spec_obj = {
        "source": "catalog:u_heisenberg",
        "target": "catalog:weyl1",
        "phi": {},
        "y": ["x2", "x1", "1"],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_obj))
    spec = load_homspec(str(path))
    assert spec.source.n == 3 and spec.target.n == 2


def test_homspec_relative_presentation_path(tmp_path, quantum_plane):
    pres = tmp_path / "qp.json"
    pres.write_text(json.dumps(presentation_to_json(quantum_plane)))
    spec_obj = {
        "source": "qp.json",
        "target": "qp.json",
        "phi": {"q": "q"},
        "y": ["x1", "x2"],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_obj))
    spec = load_homspec(str(path))
    assert spec.source.fingerprint == quantum_plane.fingerprint


def test_homspec_schema_errors(tmp_path):
    with pytest.raises(SchemaError):
        homspec_from_json({"source": "catalog:weyl1", "target": "catalog:weyl1"})
    with pytest.raises(SchemaError):
        homspec_from_json(
            {"source": "catalog:weyl1", "target": "catalog:weyl1", "y": ["x1", "x2"], "zz": 0}
        )


_QT = {
    "kind": "poly",
    "base": {"kind": "laurent", "base": {"kind": "rationals"}, "vars": ["q"]},
    "vars": ["t"],
}


@pytest.mark.parametrize(
    "field, where",
    [
        ({"sigma": [{"t": "(q"}, {}]}, "sigma[0].t"),
        ({"delta": [{}, {"q": "(q"}]}, "delta[1].q"),
        ({"relations": [{"i": 1, "j": 2, "c": "(q"}]}, "relations[0].c"),
        ({"relations": [{"i": 1, "j": 2, "d": "(q"}]}, "relations[0].d"),
        ({"relations": [{"i": 1, "j": 2, "a": ["0", "(q"]}]}, "relations[0].a[1]"),
    ],
)
def test_expression_errors_name_their_field(field, where):
    obj = {"ring": _QT, "vars": ["x", "y"], **field}
    with pytest.raises(ExprError) as err:
        presentation_from_json(obj)
    assert str(err.value) == f"{where}: line 1 col 3: expected ')', got 'end of input'"
    assert (err.value.line, err.value.col) == (1, 3)


@pytest.mark.parametrize(
    "field, where, message",
    [
        ({"phi": {"q": "q^"}, "y": ["x1", "x2"]}, "phi.q", "line 1 col 3: exponent must be"),
        ({"y": ["x1", "x2 + z"]}, "y[1]", "line 1 col 6: unknown identifier 'z'"),
    ],
)
def test_homspec_expression_errors_name_their_field(field, where, message):
    obj = {"source": "catalog:quantum_plane", "target": "catalog:quantum_plane", **field}
    with pytest.raises(ExprError) as err:
        homspec_from_json(obj)
    assert str(err.value).startswith(f"{where}: {message}")


def test_sigma_delta_round_trip_with_maps():
    obj = {
        "ring": {
            "kind": "poly",
            "base": {"kind": "laurent", "base": {"kind": "rationals"}, "vars": ["q"]},
            "vars": ["t"],
        },
        "vars": ["u"],
        "sigma": [{"t": "q*t"}],
        "delta": [{"t": "1"}],
        "relations": [],
    }
    P = presentation_from_json(obj)
    ring = P.ring
    q = ring.generator("q")
    t = ring.generator("t")
    assert P.sigma[0].apply(t) == q * t
    assert P.delta[0].apply(t) == ring.one()
    blob = presentation_to_json(P)
    assert presentation_from_json(blob).fingerprint == P.fingerprint
