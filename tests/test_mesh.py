import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paramsweep.mesh import (
    Fixed,
    MeshSpec,
    Range,
    generate_mesh,
    load_param_file,
)


def test_single_range_three_points():
    pl = generate_mesh(MeshSpec((Range(0.0, 1.0, 3),)))
    assert [p[0].real for p in pl.points] == [0.0, 0.5, 1.0]
    assert all(p[0].imag == 0.0 for p in pl.points)


def test_grid_sizes_match_products():
    assert MeshSpec((Range(-1.5, 1.5, 200), Range(-1.5, 1.5, 200))).size == 40_000
    assert MeshSpec((Range(0, 1, 48),) * 3).size == 110_592
    pl = generate_mesh(MeshSpec((Range(-1.5, 1.5, 200), Range(-1.5, 1.5, 200))))
    assert len(pl) == 40_000


def test_first_parameter_varies_fastest():
    pl = generate_mesh(MeshSpec((Range(0.0, 1.0, 2), Range(0.0, 2.0, 3))))
    pts = [(p[0].real, p[1].real) for p in pl.points]
    assert pts == [
        (0, 0), (1, 0),
        (0, 1), (1, 1),
        (0, 2), (1, 2),
    ]


def test_fixed_axis():
    pl = generate_mesh(MeshSpec((Range(0, 1, 2), Fixed(0.5 + 0.25j))))
    assert len(pl) == 2
    assert all(p[1] == 0.5 + 0.25j for p in pl.points)


def test_count_one_places_point_at_min():
    pl = generate_mesh(MeshSpec((Range(0.25, 0.75, 1),)))
    assert len(pl) == 1
    assert pl.points[0][0] == 0.25


def test_invalid_ranges():
    with pytest.raises(ValueError):
        Range(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        Range(2.0, 1.0, 5)


def _grid_position(spec, point):
    """The position of ``point`` on each axis grid of ``spec``."""
    return tuple(int(np.flatnonzero(ax.grid() == c)[0]) for ax, c in zip(spec.axes, point))


def test_index_multi_basics():
    spec = MeshSpec((Range(0, 1, 2), Range(0, 1, 3)))
    pl = generate_mesh(spec)
    assert _grid_position(spec, pl.points[0]) == (0, 0)
    assert _grid_position(spec, pl.points[1]) == (1, 0)  # first parameter fastest
    assert _grid_position(spec, pl.points[2]) == (0, 1)
    assert len(pl) == 6


def test_index_multi_roundtrip_4x5x6():
    # every grid position once, in column-major order
    spec = MeshSpec((Range(0, 1, 4), Range(0, 1, 5), Range(0, 1, 6)))
    multis = [_grid_position(spec, p) for p in generate_mesh(spec).points]
    assert multis == [tuple(m[::-1]) for m in np.ndindex(*spec.counts[::-1])]


def test_mesh_points_distinct_when_ranges_nondegenerate():
    spec = MeshSpec((Range(0, 1, 4), Range(-1, 1, 5)))
    pl = generate_mesh(spec)
    seen = {tuple(map(complex, p)) for p in pl.points}
    assert len(seen) == spec.size


def test_load_param_file_basic():
    pl = load_param_file("0.5 0.0 1.0 -1.0\n")
    assert len(pl) == 1
    assert pl.points[0][0] == 0.5 + 0j
    assert pl.points[0][1] == 1.0 - 1.0j
    assert pl.source == "file"


def test_load_param_file_multiple_lines_and_comments():
    text = "% comment\n1 0\n\n# another\n2 0\n3 0\n"
    pl = load_param_file(text, n_params=1)
    assert len(pl) == 3


def test_load_param_file_trailing_comments():
    # the example of the mesh module's docstring
    text = "0.5 0.0   1.0 -1.0      % point (0.5, 1-1j)\n  # only a comment\n2 0 3 0 # x\n"
    pl = load_param_file(text, n_params=2)
    assert len(pl) == 2
    assert list(pl.points[0]) == [0.5 + 0j, 1.0 - 1.0j]
    assert list(pl.points[1]) == [2 + 0j, 3 + 0j]


def test_load_param_file_wrong_token_count():
    with pytest.raises(ValueError, match="line 2"):
        load_param_file("1 0 2 0\n1 0 2\n")


def test_load_param_file_bad_number():
    with pytest.raises(ValueError, match="line 1"):
        load_param_file("1 banana\n")


def test_param_file_roundtrip():
    rng = np.random.default_rng(5)
    pts = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(7)]
    pts.append(np.array([complex(1.0, -0.0), complex(-0.0, 0.0), complex(0.5, -0.0)]))
    text = "".join(
        " ".join(f"{c.real!r} {c.imag!r}" for c in p.tolist()) + "\n" for p in pts
    )
    back = load_param_file(text)
    assert len(back) == 8
    for a, b in zip(pts, back.points):
        # bit for bit, so the sign of a zero survives too
        assert a.tobytes() == b.tobytes()
    assert np.signbit(back.points[7][0].imag)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_load_param_file_rejects_non_finite(value):
    with pytest.raises(ValueError, match=f"line 2: non-finite value '{value}'"):
        load_param_file(f"1 0 2 0\n1 0 {value} 0\n")


@settings(max_examples=40, deadline=None)
@given(
    counts=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    data=st.data(),
)
def test_roundtrip_property(counts, data):
    spec = MeshSpec(tuple(Range(0.0, 1.0, c) for c in counts))
    idx = data.draw(st.integers(0, spec.size - 1))
    expected = np.unravel_index(idx, spec.counts, order="F")
    point = generate_mesh(spec).points[idx]
    assert _grid_position(spec, point) == tuple(int(m) for m in expected)
