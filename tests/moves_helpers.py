"""Detour site lists that only the tests need, read from the fuzzer's one walk
of the virtual passages, ``vknots.moves._detour_sites``."""

from __future__ import annotations

from vknots.moves import _detour_sites


def detour_site_lists(d):
    """The poke-removal, virtual-slide and semi-virtual slide sites of ``d``,
    each family sorted without repeats; a poke removal as its (start, end)
    pair, the others as (start, end, passages) triples."""
    pokes, slides, semis = _detour_sites(d)
    return sorted({site[:2] for site in pokes}), sorted(set(slides)), sorted(set(semis))
