"""Ranking of candidate channels by their diamond distance to a map.

Acceptance criterion 5 ranks B+, B-, M' and random channels by
||B - C||<> with it, to check that the optimal cloner B+ is the closest
physical approximation of the canonical broadcaster.
"""

from vbcast.diamond import diamond_bracket
from vbcast.supermap import SuperMap

from dense_maps import dense_sub


def closest_channel_scan(
    m: SuperMap, candidates: list[SuperMap], tolerance: float = 1e-5
) -> list[tuple[int, float]]:
    """Diamond distance from m to each candidate, sorted ascending.

    Returns (candidate index, ||m - candidate||_diamond) pairs, the
    distance being the ``diamond_bracket`` value; ties break on the
    original index.  A structured candidate is subtracted exactly, a dense one on the dense Chois.
    """
    gaps = []
    for i, cand in enumerate(candidates):
        if (cand.d_in, cand.d_out) != (m.d_in, m.d_out):
            raise ValueError(f"candidate {i} has mismatched dimensions")
        diff = m - cand if cand.exact is not None else dense_sub(m, cand)
        gaps.append((i, diamond_bracket(diff, tolerance).value))
    return sorted(gaps, key=lambda t: (t[1], t[0]))
