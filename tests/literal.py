"""Literal references shared by the tests: the offer-pair order, join and
meet on frozensets, the menus a choice function has asked, and the audits
of a price-adjustment trace."""

from __future__ import annotations

from tradenet.equilibrium import PriceTrace
from tradenet.fixedpoint import OfferPair


def pair_leq(p: OfferPair, q: OfferPair) -> bool:
    """Order with buyers up: smaller means fewer buyer options, more seller ones."""
    return p.buyer_side <= q.buyer_side and p.seller_side >= q.seller_side


def pair_join(p: OfferPair, q: OfferPair) -> OfferPair:
    return OfferPair(p.buyer_side | q.buyer_side, p.seller_side & q.seller_side)


def pair_meet(p: OfferPair, q: OfferPair) -> OfferPair:
    return OfferPair(p.buyer_side & q.buyer_side, p.seller_side | q.seller_side)


def menus_asked(cf) -> set[int]:
    """The menu masks `cf` has evaluated: none before its memo is made, the
    keys of its memo when that is a dict, else the indices of its list's
    entries that are not None (every menu once the table is filled)."""
    memo = cf._memo or {}
    if isinstance(memo, dict):
        return set(memo)
    return {menu for menu, chosen in enumerate(memo) if chosen is not None}


def trace_prices_monotone(trace: PriceTrace) -> bool:
    """Offered prices move against the proposing side, never back."""
    sign = 1 if trace.perspective == "buyer" else -1
    return all(
        sign * (p - prev.prices[t]) >= 0
        for prev, cur in zip(trace.rounds, trace.rounds[1:])
        for t, p in cur.prices.items()
    )


def trace_offers_remain_open(trace: PriceTrace) -> bool:
    """An offer the responder kept is renewed by the proposer next round."""
    pairs = zip(trace.rounds, trace.rounds[1:])
    return all(prev.offers & cur.responder_keeps <= cur.offers for prev, cur in pairs)


def trace_rejections_remain_final(trace: PriceTrace) -> bool:
    """Responder rejections only accumulate."""
    pairs = zip(trace.rounds, trace.rounds[1:])
    return all(prev.responder_rejects <= cur.responder_rejects for prev, cur in pairs)
