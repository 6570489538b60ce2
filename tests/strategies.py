"""Shared hypothesis strategies and helpers for configuration-valued properties."""

import hypothesis.strategies as st

from mustafin import Configuration, normalize

coord = st.integers(min_value=-6, max_value=6)


@st.composite
def raw_vectors(draw, min_d=2, max_d=5):
    d = draw(st.integers(min_value=min_d, max_value=max_d))
    return tuple(draw(st.lists(coord, min_size=d, max_size=d)))


@st.composite
def torus_points(draw, d):
    return normalize((0,) + tuple(draw(st.lists(coord, min_size=d - 1, max_size=d - 1))))


@st.composite
def configurations(draw, min_d=2, max_d=4, min_n=1, max_n=4, lo=-4, hi=4):
    d = draw(st.integers(min_value=min_d, max_value=max_d))
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pts = draw(
        st.lists(
            st.tuples(*([st.integers(min_value=lo, max_value=hi)] * (d - 1))),
            min_size=n,
            max_size=n,
            unique=True,
        ).map(lambda rows: tuple(normalize((0,) + row) for row in rows))
        .filter(lambda rows: len(set(rows)) == len(rows))
    )
    return Configuration(d, pts)


@st.composite
def point_pairs(draw, min_d=2, max_d=5):
    d = draw(st.integers(min_value=min_d, max_value=max_d))
    x = draw(torus_points(d))
    y = draw(torus_points(d).filter(lambda p: p != x))
    return x, y


def compositions(total, n):
    """Every tuple of n nonnegative integers with the given total."""
    if n == 1:
        return [(total,)]
    return [(v,) + rest for v in range(total + 1) for rest in compositions(total - v, n - 1)]


def overlap_clusters(sets):
    """Number of connected clusters of ``sets`` under pairwise overlap."""
    parent = list(range(len(sets)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            if sets[a] & sets[b]:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    return len({find(a) for a in range(len(sets))})
