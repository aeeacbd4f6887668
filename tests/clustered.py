"""The benchmark's clustered tabulated spaces, rebuilt for the tests."""

import itertools

from psbmetric import tabulated_space

# The bench's cluster-size profiles, n = 8..14.
CLUSTER_PROFILES = (
    (1,) * 8, (2, 2, 2, 2), (3, 3, 1, 1), (4, 4), (6, 2), (8,),
    (1,) * 9, (3, 3, 3), (2, 2, 2, 1, 1, 1), (5, 4), (9,),
    (2,) * 5, (4, 3, 3), (5, 5), (8, 2), (10,),
    (3, 3, 3, 2), (6, 5), (9, 2), (11,),
    (3, 3, 3, 3), (4, 4, 4), (6, 6), (12,),
    (5, 4, 4), (7, 6), (13,),
    (5, 5, 4), (7, 7), (14,),
)


def clustered_space(rng, sizes):
    """The bench's clustered spaces: S(x,y,z) = max(w_x,w_y,w_z) + d(x,z) +
    d(y,z), where d is the distance between cluster positions and the
    weights are distinct. Returns the clusters and the space."""
    n = sum(sizes)
    points = list(range(n))
    rng.shuffle(points)
    positions = rng.sample(range(10 * len(sizes) + 10), len(sizes))
    weights = dict(zip(range(n), rng.sample(range(5 * n), n)))
    clusters, where = [], {}
    start = 0
    for size, pos in zip(sizes, positions):
        members = tuple(sorted(points[start:start + size]))
        start += size
        clusters.append(members)
        where.update((x, pos) for x in members)
    labels = tuple(range(n))
    table = {
        (x, y, z): max(weights[x], weights[y], weights[z]) + abs(where[x] - where[z]) + abs(where[y] - where[z])
        for x, y, z in itertools.product(labels, repeat=3)
    }
    return tuple(clusters), tabulated_space(labels, table)
