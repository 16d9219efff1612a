"""Projection functoriality as a counted identity: the fibres of the
forgetful map M̄_{0,n+1} -> M̄_{0,n}.

Forgetting one marked point is the universal curve (Knudsen 1983).  Over a
curve of stratum S the fibre is the curve itself, whose strata are its
codim(S) + 1 components, its codim(S) nodes and its n marked points, so
exactly 2·codim(S) + n + 1 strata of n + 1 labels project onto S.  The count
is checked for every target of 3 to 7 labels, forgetting each of the n + 1
source labels in turn, and every image must be a stratum of the target.
Three wrong split images each break it.
"""

from collections import Counter

import pytest

from dessins import strata
from dessins.strata import admissible_projection, enumerate_strata


def flat(labels):
    return [s for group in enumerate_strata(labels).values() for s in group]


def fibre_faults(n):
    """(target, stratum or image, count) for each stratum of n labels whose
    fibre has the wrong size, and each image that is no stratum of the
    target, over every label of range(n + 1) forgotten in turn."""
    source = flat(range(n + 1))
    faults = []
    for forgotten in range(n + 1):
        target = [lab for lab in range(n + 1) if lab != forgotten]
        fibres = Counter(admissible_projection(t, target) for t in source)
        expected = {s: 2 * s.codim + n + 1 for s in flat(target)}
        faults += [(forgotten, s, fibres[s]) for s, k in expected.items() if fibres[s] != k]
        faults += [(forgotten, s, k) for s, k in fibres.items() if s not in expected]
    return faults


@pytest.mark.parametrize("n", range(3, 8))
def test_each_stratum_has_the_fibre_of_the_universal_curve(n):
    assert fibre_faults(n) == []


def _keeps_one_label_sides(self, mask):
    m = strata._remap(mask, self.bits)
    if m & 1:
        m ^= self.full
    self[mask] = m = m if 1 <= m.bit_count() <= self.full.bit_length() - 1 else 0
    return m


def _drops_two_label_sides(self, mask):
    m = strata._remap(mask, self.bits)
    if m & 1:
        m ^= self.full
    self[mask] = m = m if 3 <= m.bit_count() <= self.full.bit_length() - 3 else 0
    return m


def _no_complement(self, mask):
    m = strata._remap(mask, self.bits)
    self[mask] = m = m if 2 <= m.bit_count() <= self.full.bit_length() - 2 else 0
    return m


@pytest.mark.parametrize("missing", [_keeps_one_label_sides, _drops_two_label_sides,
                                     _no_complement])
def test_the_fibre_count_fails_on_wrong_split_images(monkeypatch, missing):
    # a cached projector keeps the images it has already made, so it would
    # hide a patched __missing__
    strata._projector.cache_clear()
    monkeypatch.setattr(strata._SplitImages, "__missing__", missing)
    try:
        assert all(fibre_faults(n) for n in (4, 5, 6))
    finally:
        monkeypatch.undo()
        strata._projector.cache_clear()
    assert fibre_faults(5) == []
