"""Strict JSON schemas for presentation and homomorphism files.

Unknown keys are rejected everywhere so typos in relation tables surface
instead of silently defaulting.  All expressions use the grammar of the
expression parser; indices in files are 1-based to match the x1..xn naming.

Presentation schema:

    {
      "ring": {"kind": "laurent", "base": {"kind": "rationals"}, "vars": ["q"]},
      "vars": ["x1", "x2"],
      "sigma": [{}, {}],                  # optional; {} means identity
      "delta": [{}, {}],                  # optional; {} means zero
      "relations": [
        {"i": 1, "j": 2, "c": "q", "d": "0", "a": ["0", "0"]}
      ]
    }

Ring kinds: rationals; prime_field (field "p"); laurent (one generator in
"vars", field "base"); poly ("vars" and "base").  Missing relation pairs
default to commuting (c = 1, d = 0, a = 0).  Written files list every pair
with its "c" and "d", and an "a" list only where some a_ijk is nonzero.

Homomorphism schema:

    {
      "source": "catalog:u_heisenberg",   # or a presentation file path
      "target": "catalog:weyl1",
      "phi": {},                          # source generator -> target expr
      "y": ["x2", "x1", "1"]              # one target expr per source var
    }
"""

from __future__ import annotations

import json
from pathlib import Path

from . import catalog
from .expr import ExprError, coeff_from_str, eval_str
from .algebra import Poly
from .presentation import Presentation
from .rings import (
    MAX_PRINT_DIGITS,
    CoeffRing,
    LaurentRing,
    PolyRing,
    PrimeField,
    QQ,
    RingMap,
    SigmaDerivation,
)


class SchemaError(ValueError):
    pass


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")


def _str_list(val, where: str) -> list[str]:
    if not isinstance(val, list) or not all(isinstance(x, str) for x in val):
        raise SchemaError(f"{where}: expected a list of strings")
    return val


# ---------------------------------------------------------------------------
# rings


def ring_from_json(obj: dict, where: str = "ring") -> CoeffRing:
    _check_keys(obj, {"kind", "p", "vars", "base"}, {"kind"}, where)
    kind = obj["kind"]
    if kind == "rationals":
        _check_keys(obj, {"kind"}, {"kind"}, where)
        return QQ
    if kind == "prime_field":
        _check_keys(obj, {"kind", "p"}, {"kind", "p"}, where)
        if type(obj["p"]) is not int:  # a JSON true is a bool, an int subclass
            raise SchemaError(f"{where}: p must be an integer")
        return PrimeField(obj["p"])
    if kind == "laurent":
        _check_keys(obj, {"kind", "base", "vars"}, {"kind", "base", "vars"}, where)
        gens = _str_list(obj["vars"], where)
        if len(gens) != 1:
            raise SchemaError(f"{where}: a laurent ring has exactly one generator")
        return LaurentRing(ring_from_json(obj["base"], where + ".base"), gens[0])
    if kind == "poly":
        _check_keys(obj, {"kind", "base", "vars"}, {"kind", "base", "vars"}, where)
        gens = _str_list(obj["vars"], where)
        return PolyRing(ring_from_json(obj["base"], where + ".base"), tuple(gens))
    raise SchemaError(f"{where}: unknown ring kind {kind!r}")


def ring_to_json(ring: CoeffRing) -> dict:
    if ring == QQ:
        return {"kind": "rationals"}
    if isinstance(ring, PrimeField):
        return {"kind": "prime_field", "p": ring.p}
    if isinstance(ring, LaurentRing):
        return {"kind": "laurent", "base": ring_to_json(ring.base), "vars": [ring.var]}
    if isinstance(ring, PolyRing):
        return {"kind": "poly", "base": ring_to_json(ring.base), "vars": list(ring.vars)}
    raise SchemaError(f"unsupported ring {ring.describe()}")


# ---------------------------------------------------------------------------
# presentations


def _images_from_json(obj, ring: CoeffRing, where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object mapping generators to expressions")
    return {name: _parsed(obj[name], f"{where}.{name}", coeff_from_str, ring) for name in obj}


def presentation_from_json(obj: dict) -> Presentation:
    _check_keys(
        obj, {"ring", "vars", "sigma", "delta", "relations"}, {"ring", "vars"}, "presentation"
    )
    ring = ring_from_json(obj["ring"])
    var_names = _str_list(obj["vars"], "vars")
    n = len(var_names)

    sigma = None
    if "sigma" in obj:
        if not isinstance(obj["sigma"], list) or len(obj["sigma"]) != n:
            raise SchemaError(f"sigma: expected a list of {n} objects")
        sigma = [
            RingMap.from_images(ring, _images_from_json(entry, ring, f"sigma[{i}]"))
            for i, entry in enumerate(obj["sigma"])
        ]
    delta = None
    if "delta" in obj:
        if not isinstance(obj["delta"], list) or len(obj["delta"]) != n:
            raise SchemaError(f"delta: expected a list of {n} objects")
        twists = sigma if sigma is not None else [RingMap.identity(ring)] * n
        delta = [
            SigmaDerivation.from_images(
                ring, twists[i], _images_from_json(entry, ring, f"delta[{i}]")
            )
            for i, entry in enumerate(obj["delta"])
        ]

    c = {}
    d = {}
    a = {}
    seen = set()
    relations = obj.get("relations", [])
    if not isinstance(relations, list):
        raise SchemaError("relations: expected a list of objects")
    for idx, rel in enumerate(relations):
        where = f"relations[{idx}]"
        _check_keys(rel, {"i", "j", "c", "d", "a"}, {"i", "j"}, where)
        if not (type(rel["i"]) is int and type(rel["j"]) is int):
            raise SchemaError(f"{where}: i and j must be integers")
        i, j = rel["i"] - 1, rel["j"] - 1
        if not (0 <= i < j < n):
            raise SchemaError(f"{where}: need 1 <= i < j <= {n}")
        if (i, j) in seen:
            raise SchemaError(f"{where}: duplicate pair ({rel['i']}, {rel['j']})")
        seen.add((i, j))
        if "c" in rel:
            c[(i, j)] = _parsed(rel["c"], where + ".c", coeff_from_str, ring)
        if "d" in rel:
            d[(i, j)] = _parsed(rel["d"], where + ".d", coeff_from_str, ring)
        if "a" in rel:
            vec = rel["a"]
            if not isinstance(vec, list) or len(vec) != n:
                raise SchemaError(f"{where}.a: expected a list of {n} expressions")
            for k, src in enumerate(vec):
                val = _parsed(src, f"{where}.a[{k}]", coeff_from_str, ring)
                if val:
                    a[(i, j, k)] = val
    return Presentation(ring, var_names, sigma=sigma, delta=delta, c=c, d=d, a=a)


def _parsed(src, where: str, evaluate, target):
    """evaluate(src, target) for the expression string at ``where``, whose
    path prefixes any expression error."""
    if not isinstance(src, str):
        raise SchemaError(f"{where}: expected an expression string")
    try:
        return evaluate(src, target)
    except ExprError as e:
        e.args = (f"{where}: {e}",)
        raise


def presentation_to_json(P: Presentation) -> dict:
    sigma = []
    delta = []
    for i in range(P.n):
        sigma.append(
            {g: str(img) for g, img in P.sigma[i].images if img != P.ring.generator(g)}
        )
        delta.append({g: str(img) for g, img in P.delta[i].images if img})
    relations = []
    for i in range(P.n):
        for j in range(i + 1, P.n):
            rel = {"i": i + 1, "j": j + 1, "c": str(P.c_of(i, j)), "d": str(P.d_of(i, j))}
            if P.linear_terms(i, j):  # n slots, so written only where some is nonzero
                rel["a"] = [str(x) for x in P.a_vector(i, j)]
            relations.append(rel)
    return {
        "ring": ring_to_json(P.ring),
        "vars": list(P.var_names),
        "sigma": sigma,
        "delta": delta,
        "relations": relations,
    }


def load_presentation(token: str, base_dir: Path | None = None) -> Presentation:
    """Load from a file path or a catalog:NAME token."""
    if token.startswith("catalog:"):
        return catalog.get(token[len("catalog:") :])
    path = Path(token)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    return presentation_from_json(_read_json(path))


def _json_int(text: str) -> int:
    """int(text), capped at MAX_PRINT_DIGITS digits on every Python version."""
    if len(text.lstrip("-")) > MAX_PRINT_DIGITS:
        raise ValueError(f"integer has more than {MAX_PRINT_DIGITS} digits")
    return int(text)


def _read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_json_int)
        except ValueError as e:  # malformed JSON or an over-long integer
            raise SchemaError(f"{path}: {e}") from None
        except RecursionError:
            raise SchemaError(f"{path}: JSON nested too deeply") from None


# ---------------------------------------------------------------------------
# homomorphism seeds


def homspec_from_json(obj: dict, base_dir: Path | None = None) -> HomSpec:
    _check_keys(obj, {"source", "target", "phi", "y"}, {"source", "target", "y"}, "homspec")
    if not isinstance(obj["source"], str) or not isinstance(obj["target"], str):
        raise SchemaError("homspec: source and target must be strings")
    source = load_presentation(obj["source"], base_dir)
    target = load_presentation(obj["target"], base_dir)
    phi_obj = obj.get("phi", {})
    if not isinstance(phi_obj, dict):
        raise SchemaError("homspec.phi: expected an object")
    phi = {
        name: Poly.const(target, _parsed(src, f"phi.{name}", coeff_from_str, target.ring))
        for name, src in phi_obj.items()
    }
    y_list = _str_list(obj["y"], "y")
    y = tuple(_parsed(src, f"y[{k}]", eval_str, target) for k, src in enumerate(y_list))
    from .universal import HomSpec  # only hom loads seeds: other commands skip the module
    return HomSpec(source, target, phi, y)


def load_homspec(path_str: str) -> HomSpec:
    path = Path(path_str)
    return homspec_from_json(_read_json(path), base_dir=path.parent)
