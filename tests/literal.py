"""Literal references shared by the tests: the offer-pair order, join and
meet on frozensets, and the menus a choice function has asked."""

from __future__ import annotations

from tradenet.fixedpoint import OfferPair


def pair_leq(p: OfferPair, q: OfferPair) -> bool:
    """Order with buyers up: smaller means fewer buyer options, more seller ones."""
    return p.buyer_side <= q.buyer_side and p.seller_side >= q.seller_side


def pair_join(p: OfferPair, q: OfferPair) -> OfferPair:
    return OfferPair(p.buyer_side | q.buyer_side, p.seller_side & q.seller_side)


def pair_meet(p: OfferPair, q: OfferPair) -> OfferPair:
    return OfferPair(p.buyer_side & q.buyer_side, p.seller_side | q.seller_side)


def menus_asked(cf) -> set[int]:
    """The menu masks `cf` has evaluated: the keys of its memo, or every
    menu once its memo is the filled table."""
    memo = cf._memo
    return set(memo if isinstance(memo, dict) else range(len(memo)))
