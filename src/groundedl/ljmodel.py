"""Combinatorial model of grounded {L, J} representations for a fixed order.

With pairwise distinct depths every crossing is horizontal x vertical,
L horizontals run right and J horizontals left, so adjacency depends only
on the type vector, the depth ranking (larger rank = deeper), and the
horizontal extents quantized to anchor gaps.  Positions i < j are
adjacent iff

    (type_i = L and rank_i < rank_j and cutoff_i >= j)   or
    (type_j = J and rank_j < rank_i and cutoff_j <= i)

where cutoff_i is the greedy maximal horizontal extent: for an L at i the
largest c with no non-edge (i, k), i < k <= c, rank_k > rank_i; for a J
the symmetric leftward extent.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LjCertificate", "greedy_cutoffs", "certificate_edges", "cover_sets"]


@dataclass(frozen=True)
class LjCertificate:
    """Witness for {L, J} feasibility of an ordered graph.

    types[i-1] is "L" or "J" for order position i; depth_ranks is a
    permutation of 1..n (larger = deeper); cutoffs[i-1] is the greedy
    cutoff index for position i.
    """

    types: tuple
    depth_ranks: tuple
    cutoffs: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "types", tuple(self.types))
        object.__setattr__(self, "depth_ranks", tuple(self.depth_ranks))
        object.__setattr__(self, "cutoffs", tuple(self.cutoffs))
        n = len(self.types)
        if set(self.types) - {"L", "J"}:
            raise ValueError("types must be over {L, J}")
        if sorted(self.depth_ranks) != list(range(1, n + 1)):
            raise ValueError("depth_ranks must be a permutation of 1..n")
        if len(self.cutoffs) != n:
            raise ValueError("cutoffs length mismatch")


def greedy_cutoffs(types, ranks, pos_edges, n: int) -> tuple:
    """Maximal horizontal extents that realize no non-edge."""
    edge = lambda i, j: ((i, j) if i < j else (j, i)) in pos_edges
    out = []
    for i in range(1, n + 1):
        c = i
        if types[i - 1] == "L":
            for k in range(i + 1, n + 1):
                if ranks[k - 1] > ranks[i - 1] and not edge(i, k):
                    break
                c = k
        else:
            for k in range(i - 1, 0, -1):
                if ranks[k - 1] > ranks[i - 1] and not edge(i, k):
                    break
                c = k
        out.append(c)
    return tuple(out)


def certificate_edges(cert: LjCertificate) -> frozenset:
    """Replay the crossing rule: the position pairs the certificate realizes."""
    return frozenset((i, j) if i < j else (j, i)
                     for i, cover in enumerate(cover_sets(cert), start=1) for j in cover)


def cover_sets(cert: LjCertificate) -> list:
    """Per position, the set of partner positions its horizontal crosses."""
    n = len(cert.types)
    types, ranks, cuts = cert.types, cert.depth_ranks, cert.cutoffs
    out = []
    for i in range(1, n + 1):
        if types[i - 1] == "L":
            cover = {j for j in range(i + 1, cuts[i - 1] + 1)
                     if ranks[j - 1] > ranks[i - 1]}
        else:
            cover = {j for j in range(cuts[i - 1], i)
                     if ranks[j - 1] > ranks[i - 1]}
        out.append(cover)
    return out
