"""Partition combinatorics and torus-fixed points of the relative Hilbert scheme.

The ambient torus (C^*)^4 acts on P^3 by scaling coordinates.  Its fixed
points on the Grassmannian of planes are the four coordinate planes
V_k = Z(x_k); each plane contains three torus-fixed points (the remaining
coordinate points).  A fixed length-i subscheme of a plane is supported on
those three points and is cut out by monomial ideals, so it is encoded by a
tripartition: one partition per plane point, total size i.

Cell convention: cell (a, b) of a partition mu is the lattice point with
0 <= b < len(mu), 0 <= a < mu[b], standing for the chart monomial u^a v^b
lying outside the monomial ideal.  Rows of the Young diagram therefore run
in the u-direction.  Arm counts cells strictly to the right in the same row
(u-direction), leg counts cells strictly above in the same column.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

Partition = tuple[int, ...]
Tripartition = tuple[Partition, Partition, Partition]


def check_partition(mu) -> Partition:
    """Validate and normalize to a tuple of weakly decreasing positive parts."""
    # from a list, not a generator: a tuple grown from a generator is
    # resized, so the freed ones pile up on the tuple free lists unused
    mu = tuple([int(p) for p in mu])
    for a, b in zip(mu, mu[1:]):
        if a < b:
            raise ValueError(f"parts not weakly decreasing: {mu}")
    if mu and mu[-1] <= 0:
        raise ValueError(f"parts must be positive: {mu}")
    return mu


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n as weakly decreasing tuples, deterministic order."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return

    def rec(remaining: int, largest: int, prefix: tuple) -> Iterator[Partition]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, largest), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def cells(mu) -> list[tuple[int, int]]:
    """The |mu| lattice cells (a, b) of the Young diagram, 0-indexed."""
    mu = check_partition(mu)
    return [(a, b) for b, part in enumerate(mu) for a in range(part)]


def conjugate(mu) -> Partition:
    """The column lengths of the diagram with rows mu: for a partition, the
    conjugate partition.  The parts are not validated."""
    return tuple(sum(1 for part in mu if part > a) for a in range(max(mu, default=0)))


def arms_legs(mu) -> dict[tuple[int, int], tuple[int, int]]:
    """Arm and leg counts of every cell of mu, keyed by cell in the order of
    ``cells``.  The partition is validated once; column a of the diagram
    has conjugate(mu)[a] cells, so the leg of (a, b) is that less b + 1."""
    mu = check_partition(mu)
    legs = conjugate(mu)
    return {
        (a, b): (part - a - 1, legs[a] - b - 1) for b, part in enumerate(mu) for a in range(part)
    }


def plane_points(plane: int) -> tuple[int, int, int]:
    """Coordinate indices of the three torus-fixed points of the plane V_plane.

    The tripartition slots are positional in this order: slot s of a
    FixedPoint on V_k belongs to the plane point with coordinate index
    plane_points(k)[s].  The order is never sorted away, since each slot
    carries different chart weights.
    """
    if plane not in (0, 1, 2, 3):
        raise ValueError(f"plane index {plane} out of range")
    return tuple(m for m in range(4) if m != plane)


class FixedPoint(NamedTuple):
    plane: int
    tri: Tripartition

    def length(self) -> int:
        return sum(sum(mu) for mu in self.tri)

    def encode(self) -> str:
        """Canonical text form, e.g. ``V0:[2,1]|[1]|[]``."""
        slots = "|".join("[" + ",".join(str(p) for p in mu) + "]" for mu in self.tri)
        return f"V{self.plane}:{slots}"


def fixed_point_count(i: int) -> int:
    """The number of torus-fixed points of the length-i relative Hilbert
    scheme, 4 * sum_{a+b+c=i} p(a) p(b) p(c), without listing them."""
    sizes = [sum(1 for _ in partitions(n)) for n in range(i + 1)]
    return 4 * sum(
        sizes[a] * sizes[b] * sizes[i - a - b] for a in range(i + 1) for b in range(i + 1 - a)
    )


def enumerate_fixed_points(i: int) -> list[FixedPoint]:
    """All torus-fixed points of the length-i relative Hilbert scheme.

    Complete and duplicate free: 4 * sum_{a+b+c=i} p(a) p(b) p(c) points,
    in a deterministic order.
    """
    if i < 0:
        raise ValueError("length must be non-negative")
    parts_by_size = [list(partitions(n)) for n in range(i + 1)]
    out: list[FixedPoint] = []
    for plane in range(4):
        for a in range(i + 1):
            for b in range(i + 1 - a):
                c = i - a - b
                for mu1 in parts_by_size[a]:
                    for mu2 in parts_by_size[b]:
                        for mu3 in parts_by_size[c]:
                            out.append(FixedPoint(plane, (mu1, mu2, mu3)))
    return out
