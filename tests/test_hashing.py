"""Hashes agree with equality: each value type, given one pair of equal
values built two ways, hashes both alike, and the pair is one set element."""

from tmfkit import cli
from tmfkit.catalog import build
from tmfkit.ncalgebra import parse_poly
from tmfkit.scalars import ONE, Scalar, parse_scalar


def assert_one_element(a, b):
    assert a is not b and a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_equal_scalars_hash_alike():
    assert_one_element(parse_scalar("(t^2+t)/(t)"), Scalar.t_power(1) + ONE)


def test_a_family_and_its_file_round_trip_hash_alike(tmp_path):
    t = build("g", 3).factorization("j=1")
    path = str(tmp_path / "g-n3-j1.json")
    cli.dump_tmf(t, path)
    back = cli.load_tmf(path)
    assert_one_element(t.context.algebra, back.context.algebra)
    assert_one_element(t.context.f, back.context.f)
    assert_one_element(t.context.sigma, back.context.sigma)
    assert_one_element(t.phi.source, back.phi.source)
    assert_one_element(t.phi, back.phi)
    assert_one_element(t.psi, back.psi)


def test_a_polynomial_parsed_and_built_hashes_alike():
    A = build("g", 3).algebra
    built = A.gen("a1") * A.gen("a3") - A.monomial((0, 3, 0), Scalar.t_power(-6))
    assert_one_element(parse_poly("a1*a3 - t^-6*a2^3", A), built)
