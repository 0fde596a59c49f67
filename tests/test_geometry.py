import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adasamp.geometry import (
    Halfspace,
    Intersection,
    NonNegativeOrthant,
    ProductWithFree,
    ProjectionError,
    UnitSimplex,
    project,
    project_simplex,
)
from oracles import (
    Box,
    Hyperplane,
    feasibility_residual,
    full_space,
    qp_projection_oracle,
    random_sets,
    simplex_cut,
)

RNG = np.random.default_rng(20240817)


class TestClosedForms:
    def test_orthant_clamps(self):
        res = project(NonNegativeOrthant(2), [-1.0, 2.0])
        np.testing.assert_allclose(res.point, [0.0, 2.0])
        assert res.iterations == 0 and res.residual == 0.0

    def test_simplex_symmetric_point(self):
        np.testing.assert_allclose(project_simplex([0.6, 0.6]), [0.5, 0.5])

    def test_simplex_feasible_identity(self):
        y = np.full(5, 0.2)
        np.testing.assert_allclose(project_simplex(y), y)

    def test_simplex_vertex(self):
        np.testing.assert_allclose(project_simplex([2.0, 0.0]), [1.0, 0.0])

    def test_simplex_empty_rejected(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([]))

    @pytest.mark.parametrize("y, cause", [
        ([np.nan, 0.5, 0.2], "a non-finite entry"),
        ([np.inf, 0.0, 1.0], "a non-finite entry"),
        ([1e16, 0.0, 0.0], r"magnitude up to 1e\+16"),
        ([1e308, 1e308, 0.0], r"magnitude up to 1e\+308"),
    ])
    def test_simplex_rejects_a_point_its_scan_cannot_threshold(self, y, cause):
        # the threshold scan found no positive entry and indexed an empty array
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match=f"cannot project onto the simplex: .*{cause}"):
            project_simplex(y)

    def test_halfspace_noop_when_feasible(self):
        hs = Halfspace(np.array([1.0, 0.0]), -1.0)
        y = np.array([0.5, 3.0])
        np.testing.assert_array_equal(project(hs, y).point, y)

    def test_box_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            Box(np.array([1.0]), np.array([0.0]))

    def test_full_space_is_identity(self):
        y = RNG.normal(size=4)
        np.testing.assert_array_equal(project(full_space(4), y).point, y)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project(NonNegativeOrthant(3), [1.0, 2.0])


class TestAffineLinearization:
    # the linearization {z : <g, z> + value = 0} is Hyperplane(g, -value)

    def test_identity_on_plane(self):
        y = np.array([0.0, 5.0])
        np.testing.assert_allclose(project(Hyperplane(np.array([1.0, 0.0]), 0.0), y).point, y)

    def test_coordinate_plane(self):
        out = project(Hyperplane(np.array([1.0, 0.0]), 0.0), [3.0, 5.0]).point
        np.testing.assert_allclose(out, [0.0, 5.0])

    def test_random_residual(self):
        for _ in range(50):
            dim = int(RNG.integers(2, 7))
            g = RNG.normal(size=dim)
            g[0] += np.sign(g[0] or 1.0)  # keep away from zero
            val = float(RNG.normal())
            y = RNG.normal(size=dim) * 3
            out = project(Hyperplane(g, -val), y).point
            assert abs(g @ out + val) <= 1e-12

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            Hyperplane(np.zeros(3), -1.0)


class TestDykstra:
    def test_orthant_hyperplane_matches_simplex(self):
        inter = Intersection((NonNegativeOrthant(2), Hyperplane(np.ones(2), 1.0)))
        got = project(inter, [2.0, 0.0]).point
        want = qp_projection_oracle(inter, np.array([2.0, 0.0]))
        np.testing.assert_allclose(got, want, atol=1e-8)
        np.testing.assert_allclose(got, project_simplex([2.0, 0.0]), atol=1e-8)

    def test_empty_intersection_raises(self):
        inter = Intersection(
            (Hyperplane(np.array([1.0, 0.0]), 0.0), Hyperplane(np.array([1.0, 0.0]), 1.0))
        )
        with pytest.raises(ProjectionError):
            project(inter, [0.5, 0.5])

    def test_member_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Intersection((NonNegativeOrthant(2), NonNegativeOrthant(3)))

    def test_requires_members(self):
        with pytest.raises(ValueError):
            Intersection(())


class TestProductWithFree:
    def test_trailing_coordinate_passes_through(self):
        ps = ProductWithFree(NonNegativeOrthant(2))
        out = project(ps, [-1.0, 2.0, -7.5]).point
        np.testing.assert_allclose(out, [0.0, 2.0, -7.5])


def test_nested_intersection_matches_oracle():
    for _ in range(15):
        dim = int(RNG.integers(2, 5))
        inner = Intersection((NonNegativeOrthant(dim), Hyperplane(np.ones(dim), 1.0)))
        outer = Intersection((inner, Halfspace(np.abs(RNG.normal(size=dim)) + 0.2, 0.3)))
        y = RNG.normal(size=dim) * 2
        got = project(outer, y).point
        want = qp_projection_oracle(outer, y)
        np.testing.assert_allclose(got, want, atol=1e-8)


def test_simplex_matches_oracle_on_random_points():
    for _ in range(100):
        dim = int(RNG.integers(1, 7))
        y = RNG.normal(size=dim) * 2
        got = project_simplex(y)
        want = qp_projection_oracle(UnitSimplex(dim), y)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_all_variants_match_oracle():
    for trial in range(40):
        dim = int(RNG.integers(2, 7))
        for cset in random_sets(dim, RNG):
            y = RNG.normal(size=dim) * 2
            got = project(cset, y).point
            want = qp_projection_oracle(cset, y)
            np.testing.assert_allclose(got, want, atol=1e-8)


def test_random_simplex_cuts_are_never_empty():
    # the vertex of the largest normal entry lies in every cut, which
    # projects it onto itself; at the old fixed offset 0.3 the normal
    # [0.242, 0.220] cut the whole simplex away
    cuts = [simplex_cut([0.242, 0.220])]
    for seed in range(2000):
        rng = np.random.default_rng(seed)
        cuts.append(random_sets(int(rng.integers(2, 7)), rng)[-1])
    for cset in cuts:
        simplex, half = cset.members
        assert isinstance(simplex, UnitSimplex) and isinstance(half, Halfspace)
        vertex = np.eye(half.dim)[np.argmax(half.normal)]
        assert half.normal @ vertex >= half.offset > half.normal.min()
        assert np.array_equal(project(cset, vertex).point, vertex)


@st.composite
def set_and_points(draw):
    dim = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    cset = random_sets(dim, rng)[draw(st.integers(min_value=0, max_value=7))]
    x = rng.normal(size=dim) * 2
    y = rng.normal(size=dim) * 2
    return cset, x, y


@settings(max_examples=60, deadline=None)
@given(set_and_points())
def test_projection_is_nonexpansive(case):
    cset, x, y = case
    px = project(cset, x).point
    py = project(cset, y).point
    assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-10


@settings(max_examples=60, deadline=None)
@given(set_and_points())
def test_projection_is_idempotent(case):
    cset, _, y = case
    p1 = project(cset, y).point
    p2 = project(cset, p1).point
    assert np.linalg.norm(p2 - p1) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(set_and_points())
def test_projection_is_closest_point(case):
    cset, x, y = case
    p = project(cset, y).point
    z = project(cset, x).point  # an arbitrary feasible point
    assert np.linalg.norm(y - p) <= np.linalg.norm(y - z) + 1e-10


def test_feasibility_residual_zero_inside():
    assert feasibility_residual(NonNegativeOrthant(3), np.ones(3)) == 0.0
    assert feasibility_residual(NonNegativeOrthant(2), [-1.0, 0.0]) == pytest.approx(1.0)
