"""Homomorphism seeds, the termwise extension, and round-trip checks."""

from fractions import Fraction

import pytest

from skewpbw.algebra import Poly, star
from skewpbw.catalog import all_presentations, get
from skewpbw.presentation import Presentation
from skewpbw.reduction import star_oracle
from skewpbw.rings import LaurentRing, PolyRing, QQ
from skewpbw.rng import Stream
from skewpbw.universal import (
    HomSpec,
    HomSpecError,
    basis_images_independent,
    check_hom_conditions,
    extend_hom,
    identity_spec,
    verify_mutual_inverse,
)

from .genutil import random_elem, random_poly


def heisenberg_to_weyl():
    """p -> d/dt, q -> t, z -> 1 inside the first Weyl algebra."""
    H = get("u_heisenberg")
    W = get("weyl", 1)
    y = (Poly.variable(W, 1), Poly.variable(W, 0), Poly.one(W))
    return HomSpec(H, W, {}, y)


def test_identity_spec_passes(catalog_entries):
    for name, P in catalog_entries:
        spec = identity_spec(P)
        assert check_hom_conditions(spec, samples=6, seed=3).ok, name


def test_heisenberg_to_weyl_passes(u_heisenberg, weyl1):
    spec = heisenberg_to_weyl()
    report = check_hom_conditions(spec, samples=8, seed=1)
    assert report.ok
    # the pair condition encodes the canonical commutation relation
    pair_items = [it for it in report.condition_ii if "(1,2)" in it.label]
    assert pair_items and pair_items[0].ok


def test_heisenberg_to_weyl_broken_center_fails():
    H = get("u_heisenberg")
    W = get("weyl", 1)
    y = (Poly.variable(W, 1), Poly.variable(W, 0), Poly.const(W, 2))
    spec = HomSpec(H, W, {}, y)
    report = check_hom_conditions(spec, samples=4, seed=1)
    assert not report.ok
    bad = [it for it in report.condition_ii if not it.ok]
    assert bad and bad[0].lhs != bad[0].rhs


def test_extend_hom_examples():
    spec = heisenberg_to_weyl()
    H, W = spec.source, spec.target
    assert extend_hom(spec, Poly.variable(H, 0)) == Poly.variable(W, 1)
    assert extend_hom(spec, Poly.const(H, 7)) == Poly.const(W, 7)
    # monomial p q maps to x2 * x1 computed inside the Weyl engine
    f = Poly.monomial(H, (1, 1, 0))
    assert extend_hom(spec, f) == star(Poly.variable(W, 1), Poly.variable(W, 0))


def test_extension_is_ring_map(catalog_entries):
    spec = heisenberg_to_weyl()
    stream = Stream(17)
    for _ in range(40):
        f = random_poly(spec.source, stream, 3)
        g = random_poly(spec.source, stream, 3)
        assert extend_hom(spec, f + g) == extend_hom(spec, f) + extend_hom(spec, g)
        assert extend_hom(spec, star(f, g)) == star(extend_hom(spec, f), extend_hom(spec, g))


def test_extension_determined_by_seed():
    spec_a = heisenberg_to_weyl()
    spec_b = heisenberg_to_weyl()
    stream = Stream(23)
    for _ in range(10):
        f = random_poly(spec_a.source, stream, 3)
        assert extend_hom(spec_a, f) == extend_hom(spec_b, f)


def test_mutual_inverse_identity(catalog_entries):
    for name, P in catalog_entries:
        spec = identity_spec(P)
        assert verify_mutual_inverse(spec, spec), name


def permuted_quantum_plane():
    """The quantum plane with its two variables renamed and the relation
    rewritten for the swapped order: v u = q^-1 u v."""
    ring = LaurentRing(QQ, "q")
    q = ring.generator("q")
    return Presentation(ring, ("u", "v"), c={(0, 1): q.inverse()})


def test_mutual_inverse_permuted_variables(quantum_plane):
    B = permuted_quantum_plane()
    A = quantum_plane
    phi_ab = {"q": Poly.const(B, B.ring.generator("q"))}
    phi_ba = {"q": Poly.const(A, A.ring.generator("q"))}
    # x1 -> v, x2 -> u and back
    fwd = HomSpec(A, B, phi_ab, (Poly.variable(B, 1), Poly.variable(B, 0)))
    back = HomSpec(B, A, phi_ba, (Poly.variable(A, 1), Poly.variable(A, 0)))
    assert check_hom_conditions(fwd, samples=6, seed=2).ok
    assert check_hom_conditions(back, samples=6, seed=2).ok
    assert verify_mutual_inverse(fwd, back)


def test_collapsing_spec_is_not_invertible(u_heisenberg):
    H = u_heisenberg
    # p, q -> p, z -> 0: satisfies the conditions but collapses variables
    y = (Poly.variable(H, 0), Poly.variable(H, 0), Poly.zero(H))
    spec = HomSpec(H, H, {}, y)
    assert check_hom_conditions(spec, samples=4, seed=2).ok
    assert not verify_mutual_inverse(spec, identity_spec(H))


def test_basis_images_independent(catalog_entries, quantum_plane):
    # invertible seeds keep the monomial images independent
    for name, P in catalog_entries:
        if P.n > 3:
            continue
        assert basis_images_independent(identity_spec(P), degree=2), name
    B = permuted_quantum_plane()
    phi_ab = {"q": Poly.const(B, B.ring.generator("q"))}
    fwd = HomSpec(quantum_plane, B, phi_ab, (Poly.variable(B, 1), Poly.variable(B, 0)))
    assert basis_images_independent(fwd, degree=3)
    # the map onto the Weyl algebra collapses the center: not independent
    assert not basis_images_independent(heisenberg_to_weyl(), degree=2)
    # collapsing two variables destroys independence immediately
    H = get("u_heisenberg")
    collapse = HomSpec(H, H, {}, (Poly.variable(H, 0), Poly.variable(H, 0), Poly.zero(H)))
    assert not basis_images_independent(collapse, degree=1)


def test_homspec_validation(u_heisenberg, weyl1):
    with pytest.raises(HomSpecError):
        HomSpec(u_heisenberg, weyl1, {}, (Poly.one(weyl1),))  # wrong arity
    with pytest.raises(HomSpecError):
        HomSpec(u_heisenberg, weyl1, {"q": Poly.one(weyl1)}, tuple(Poly.one(weyl1) for _ in range(3)))
    qp = get("quantum_plane")
    with pytest.raises(HomSpecError):
        # phi image must be constant
        HomSpec(qp, qp, {"q": Poly.variable(qp, 0)}, (Poly.variable(qp, 0), Poly.variable(qp, 1)))


def test_map_coeff_across_towers(quantum_plane):
    """phi: Q[q^+-1] -> Q[q^+-1][t], q |-> q^-1, a non-identity map into a
    different coefficient ring."""
    target = Presentation(PolyRing(LaurentRing(QQ, "q"), ("t",)), ("u",))
    tq = target.ring.generator("q")
    u = Poly.variable(target, 0)
    spec = HomSpec(quantum_plane, target, {"q": Poly.const(target, tq.inverse())}, (u, u))
    src = quantum_plane.ring
    q = src.generator("q")
    assert spec.map_coeff(src.one()) == target.ring.one()
    assert spec.map_coeff(q) == tq.inverse()
    r = 2 * q**3 - Fraction(1, 2) * q**-2 + 5
    assert spec.map_coeff(r) == 2 * tq**-3 - Fraction(1, 2) * tq**2 + 5
    assert str(spec.map_coeff(r)) == "-1/2*q^2 + 5 + 2*q^-3"
    stream = Stream(17)
    for _ in range(20):
        a = random_elem(src, stream, 3)
        b = random_elem(src, stream, 3)
        assert spec.map_coeff(a + b) == spec.map_coeff(a) + spec.map_coeff(b)
        assert spec.map_coeff(a * b) == spec.map_coeff(a) * spec.map_coeff(b)


def _condition_i_holds(spec, i, r) -> bool:
    """y_i phi(r) = phi(sigma_i(r)) y_i + phi(delta_i(r)) in the target."""
    src, T, y = spec.source, spec.target, spec.y[i]
    lhs = star(y, Poly.const(T, spec.map_coeff(r)))
    rhs = spec.map_coeff(src.sigma[i].apply(r)) * y
    return lhs == rhs + Poly.const(T, spec.map_coeff(src.delta[i].apply(r)))


def _condition_i_verdicts(spec, stream, samples=8) -> list[bool]:
    """check_hom_conditions' condition-(i) verdict per variable, each
    asserted to rest on 1 and the generators only and to agree with the
    verdict at seeded random coefficients and generator products."""
    ring = spec.source.ring
    names = ring.generator_names()
    gens = [ring.generator(g) for g in names]
    report = check_hom_conditions(spec)
    verdicts = []
    for i in range(spec.source.n):
        prefix = f"(i) y{i + 1} past r="
        items = [it for it in report.condition_i if it.label.startswith(prefix)]
        assert [it.label[len(prefix):] for it in items] == ["1", *names]
        exact = all(it.ok for it in items)
        st = stream.split(i)
        rs = [random_elem(ring, st, 2) for _ in range(samples)]
        rs += [st.choice(gens) * st.choice(gens) for _ in range(samples if gens else 0)]
        assert exact == all(_condition_i_holds(spec, i, r) for r in rs), (spec, i)
        verdicts.append(exact)
    return verdicts


def ignoring_twist_spec():
    """qdiff_presentation to itself with both variables sent to the second
    one, which commutes with t although the first variable twists it."""
    from .genutil import qdiff_presentation

    P = qdiff_presentation()
    phi = {g: Poly.const(P, P.ring.generator(g)) for g in P.ring.generator_names()}
    return HomSpec(P, P, phi, (Poly.variable(P, 1), Poly.variable(P, 1)))


def test_condition_i_generators_decide_known_seeds(catalog_entries, quantum_plane):
    stream = Stream(47)
    for name, P in catalog_entries:
        assert all(_condition_i_verdicts(identity_spec(P), stream.split(name))), name
    assert all(_condition_i_verdicts(heisenberg_to_weyl(), stream.split("weyl")))
    q = quantum_plane.ring.generator("q")
    invert_q = HomSpec(
        quantum_plane,
        quantum_plane,
        {"q": Poly.const(quantum_plane, q.inverse())},
        (Poly.variable(quantum_plane, 1), Poly.variable(quantum_plane, 0)),
    )
    assert all(_condition_i_verdicts(invert_q, stream.split("invert q")))
    M = get("quantum_matrices2")
    q, b, c = (M.ring.generator(g) for g in ("q", "b", "c"))
    swap_bc = HomSpec(
        M,
        M,
        {"q": Poly.const(M, q), "b": Poly.const(M, q * c), "c": Poly.const(M, q.inverse() * b)},
        (Poly.variable(M, 0), Poly.variable(M, 1)),
    )
    assert all(_condition_i_verdicts(swap_bc, stream.split("swap b c")))
    assert _condition_i_verdicts(ignoring_twist_spec(), stream.split("ignore")) == [False, True]


def test_condition_i_generators_decide_perturbed_family():
    from .genutil import perturbed_homspec

    stream = Stream(53)
    counts = {True: 0, False: 0}
    for k in range(200):
        spec = perturbed_homspec(stream.split(k))
        for ok in _condition_i_verdicts(spec, stream.split(("sample", k))):
            counts[ok] += 1
    # both verdicts occur often: the agreement is not vacuous
    assert counts[True] >= 20 and counts[False] >= 20, counts


def test_condition_i_failure_is_reported():
    report = check_hom_conditions(ignoring_twist_spec())
    assert not report.ok
    assert all(it.ok for it in report.condition_ii)
    bad = [it for it in report.condition_i if not it.ok]
    assert [it.label for it in bad] == ["(i) y1 past r=t"]
    assert bad[0].lhs != bad[0].rhs
    assert report.failures()[0].startswith("(i) y1 past r=t: lhs=")


def test_mutual_inverse_needs_both_seeds_to_pass():
    # swapping the two variables of qdiff_presentation undoes itself term by
    # term, but it is no ring map: the first variable twists t, the second not
    from .genutil import qdiff_presentation

    P = qdiff_presentation()
    phi = {g: Poly.const(P, P.ring.generator(g)) for g in P.ring.generator_names()}
    swap = HomSpec(P, P, phi, (Poly.variable(P, 1), Poly.variable(P, 0)))
    assert not check_hom_conditions(swap).ok
    assert not verify_mutual_inverse(swap, swap)


def test_identity_never_builds_the_digest():
    """Products, Poly equality and hashing, and homomorphism seeds compare
    presentations by their parameters; the sha256 digest is built only to
    be printed."""
    for (name, P), (_, Q) in zip(all_presentations(), all_presentations()):
        x = [Poly.variable(P, i) for i in range(P.n)]
        y = [Poly.variable(Q, i) for i in range(Q.n)]
        assert star(x[-1], x[0]) == star_oracle(x[-1], x[0]), name
        assert x[0] == y[0] and hash(x[0]) == hash(y[0]), name
        assert x[0] + y[-1] == y[0] + x[-1], name
        phi = {g: Poly.const(Q, Q.ring.generator(g)) for g in Q.ring.generator_names()}
        spec = HomSpec(P, Q, phi, y)
        assert extend_hom(spec, x[-1] * x[0]) == y[-1] * y[0], name
        assert verify_mutual_inverse(identity_spec(P), identity_spec(P)), name
        assert verify_mutual_inverse(spec, identity_spec(Q)), name
        assert P._fingerprint is None and Q._fingerprint is None, name
