"""Priced trades, competitive-equilibrium arrangements, and the
price-adjustment process.

A priced economy lists trades with integer price windows; the contract grid
instantiates one contract per (trade, price) point, after which the generic
offer-pair machinery applies unchanged.  Price adjustment is that machinery
run from the buyer-favorable extreme while a bookkeeper tracks one price per
trade per round; completion then prices the unrealized trades at levels both
firms turn down, yielding an arrangement every firm re-chooses exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import axioms
from .choices import contract_id, is_rational, read_int, split_contract_id
from .errors import (
    ChoiceFunctionError,
    GuardExceededError,
    InstanceFormatError,
    PreconditionError,
)
from .fixedpoint import buyer_optimal, seller_optimal
from .guards import SIZE_GUARD
from .instances import Instance, build_choices
from .network import at_bits, fields_json, mask_bits, sorted_ids, spread, submasks, validate_network

PRICED_FIELDS = {"trades", "choice_functions"}
TRADE_FIELDS = {"id", "seller", "buyer", "price_min", "price_max"}


@dataclass(frozen=True)
class Trade:
    id: str
    seller: str
    buyer: str
    price_min: int
    price_max: int

    def prices(self) -> range:
        return range(self.price_min, self.price_max + 1)

    to_json = fields_json


@dataclass(frozen=True)
class PricedInstance:
    trades: tuple[Trade, ...]
    instance: Instance

    @property
    def trade_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.trades)

    def to_json(self) -> dict:  # the input-file description
        return {
            "trades": [t.to_json() for t in self.trades],
            "choice_functions": [
                self.instance.choice[a].to_json() for a in self.instance.network.agents
            ],
        }


@dataclass(frozen=True)
class Arrangement:
    realized: frozenset[str]  # trade ids
    prices: dict[str, int]  # every trade priced, realized or not

    def contracts(self) -> frozenset[str]:
        return frozenset(contract_id(t, self.prices[t]) for t in self.realized)

    to_json = fields_json


def build_priced(raw: dict) -> PricedInstance:
    """Priced economy from its JSON description; values of the wrong type and
    inconsistent choice parameters are input errors."""
    try:
        return _build_priced(raw)
    except (ChoiceFunctionError, TypeError, ValueError) as exc:
        raise InstanceFormatError(f"malformed priced instance: {exc}") from exc


def _build_priced(raw: dict) -> PricedInstance:
    if not isinstance(raw, dict):
        raise InstanceFormatError("priced description must be an object")
    unknown = set(raw) - PRICED_FIELDS
    if unknown:
        raise InstanceFormatError(f"unknown priced-instance fields: {sorted(unknown)}")
    trades_raw = raw.get("trades")
    descs = raw.get("choice_functions")
    if not isinstance(trades_raw, list) or not isinstance(descs, list):
        raise InstanceFormatError("priced instance needs 'trades' and 'choice_functions' lists")
    trades = []
    for item in trades_raw:
        if not isinstance(item, dict) or set(item) != TRADE_FIELDS:
            raise InstanceFormatError(f"trade entries need exactly fields {sorted(TRADE_FIELDS)}")
        for k in ("id", "seller", "buyer"):
            if not isinstance(item[k], str) or not item[k]:
                raise InstanceFormatError(f"trade {item['id']!r}: {k} must be a non-empty string")
        t = Trade(item["id"], item["seller"], item["buyer"], *(
            read_int(item[k], f"trade {item['id']!r}: {k}") for k in ("price_min", "price_max")
        ))
        if t.price_min > t.price_max:
            raise InstanceFormatError(f"trade {t.id!r}: empty price window")
        if t.seller == t.buyer:
            raise InstanceFormatError(f"trade {t.id!r}: seller equals buyer")
        if "@" in t.id:
            raise InstanceFormatError(f"trade {t.id!r}: '@' is reserved")
        trades.append(t)
    if len({t.id for t in trades}) != len(trades):
        raise InstanceFormatError("duplicate trade id")
    agents = sorted({t.seller for t in trades} | {t.buyer for t in trades})
    contracts = [
        {"id": contract_id(t.id, p), "seller": t.seller, "buyer": t.buyer}
        for t in trades
        for p in t.prices()
    ]
    net = validate_network({"agents": agents, "contracts": contracts})
    choice = build_choices(net, descs)
    if any(cf.family != "reservation" for cf in choice.values()):
        raise InstanceFormatError("priced choice functions must have type 'reservation'")
    return PricedInstance(tuple(trades), Instance(net, choice))


# ---------------------------------------------------------------------------
# priced-economy axioms
# ---------------------------------------------------------------------------


def check_feasibility(priced: PricedInstance) -> list[axioms.AxiomReport]:
    """No chosen set may carry two prices for one trade.  The slices decide
    it per trade (`_Slices.chooses_two`), and only a firm with a flagged
    trade walks its menus, in `subsets` order, for the first witness."""
    out = []
    for agent in sorted(priced.instance.network.agents):
        cf = priced.instance.choice[agent]
        axioms.check_size(cf, "feasibility")
        trades = [split_contract_id(c)[0] for c in cf.ids]
        grids = [[j for j, u in enumerate(trades) if u == t] for t in set(trades)]
        witness = None
        if any(map(axioms._Slices.of(cf).chooses_two, grids)):
            table = cf.menu_table()
            for menu in submasks(cf.up_mask | cf.down_mask):
                seen: dict[str, int] = {}
                for b in mask_bits(table[menu]):
                    trade = trades[b.bit_length() - 1]
                    if trade in seen:
                        witness = {
                            "menu": axioms._names(cf, menu),
                            "chosen": axioms._names(cf, table[menu]),
                            "trade": trade,
                            "contracts": axioms._names(cf, seen[trade] | b),
                        }
                        break
                    seen[trade] = b
                if witness:
                    break
        out.append(axioms.AxiomReport("feasibility", agent, witness is None, witness))
    return out


def check_cp(priced: PricedInstance) -> list[axioms.AxiomReport]:
    """Complete prices, one report per trade.

    (1) some price the buyer takes no matter what else is offered, (2) some
    price the seller always takes, and (3) no seller-rejected price sitting
    immediately below a buyer-rejected one without a commonly rejected price
    between them, for any fixed side menus.
    """
    out = []
    inst = priced.instance
    for t in priced.trades:
        buyer_cf = inst.choice[t.buyer]
        seller_cf = inst.choice[t.seller]
        axioms.check_size(buyer_cf, "complete_prices")
        axioms.check_size(seller_cf, "complete_prices")
        grid = [contract_id(t.id, p) for p in t.prices()]
        if not any(axioms._Slices.of(buyer_cf).always_kept(buyer_cf.position[c]) for c in grid):
            witness = {"condition": "buyer_floor_missing", "trade": t.id}
        elif not any(axioms._Slices.of(seller_cf).always_kept(seller_cf.position[c]) for c in grid):
            witness = {"condition": "seller_ceiling_missing", "trade": t.id}
        else:
            witness = _cp3_witness(priced, t, buyer_cf, seller_cf)
        out.append(axioms.AxiomReport("complete_prices", t.id, witness is None, witness))
    return out


def _cp3_witness(priced, t, buyer_cf, seller_cf):
    """Crossing condition: side menus are quantified jointly over both firms'
    contracts, minus the trade's own price grid (the condition is applied to
    price an unrealized trade, so no second copy of it can be on the table).

    Each pool contract has one local bit, in id order, so pool menus are
    walked in `network.subsets` order; a firm's menu is its own share of the
    pool menu, listed once for every pool menu."""
    grid = {contract_id(t.id, p) for p in t.prices()}
    pool = sorted_ids((buyer_cf.domain | seller_cf.domain) - grid)
    if len(pool) > SIZE_GUARD:
        raise GuardExceededError(
            f"complete_prices: joint menu guard is {SIZE_GUARD}, "
            f"trade {t.id} has {len(pool)}"
        )

    buyer_menus, seller_menus = spread(buyer_cf.bits(pool)), spread(seller_cf.bits(pool))
    buyer_table, seller_table = buyer_cf.menu_table(), seller_cf.menu_table()
    pool_menus = list(submasks((1 << len(pool)) - 1))
    for p in range(t.price_min, t.price_max):
        low, high = contract_id(t.id, p), contract_id(t.id, p + 1)
        buy_low, buy_high = buyer_cf.bits((low, high))
        sell_low, sell_high = seller_cf.bits((low, high))
        for menu in pool_menus:
            bm, sm = buyer_menus[menu], seller_menus[menu]
            if (
                not seller_table[sm | sell_low] & sell_low
                and not buyer_table[bm | buy_high] & buy_high
                and buyer_table[bm | buy_low] & buy_low
                and seller_table[sm | sell_high] & sell_high
            ):
                return {
                    "condition": "no_common_rejection",
                    "trade": t.id,
                    "price": p,
                    "menu": [c for i, c in enumerate(pool) if menu >> i & 1],
                }
    return None


def check_pm(priced: PricedInstance) -> list[axioms.AxiomReport]:
    """Price monotonicity, one report per trade: alongside any outcome, the
    buyer never keeps the dearer of two same-trade contracts and the seller
    never keeps the cheaper.  Only a violating price pair walks outcomes."""
    out = []
    for t in priced.trades:
        witness = _pm_witness(priced.instance, t)
        out.append(axioms.AxiomReport("price_monotonicity", t.id, witness is None, witness))
    return out


def _pm_witness(inst: Instance, t: Trade):
    """First outcome beside which a firm keeps the wrong one of two prices:
    the buyer role first, then price pairs in order, then outcomes in the
    subset order.  A pair violates exactly when some menu holding the other
    price chooses the wrong one (`_Slices.chooses_beside`), so only the first
    violating pair walks its outcomes, for the witness."""
    for role, agent in (("buyer", t.buyer), ("seller", t.seller)):
        cf = inst.choice[agent]
        axioms.check_size(cf, "price_monotonicity")
        slices = axioms._Slices.of(cf)
        for low, high in itertools.combinations(t.prices(), 2):
            cheap, dear = (cf.position[contract_id(t.id, p)] for p in (low, high))
            bad, other = (dear, cheap) if role == "buyer" else (cheap, dear)
            if slices.chooses_beside(bad, other):
                table, pair = cf.menu_table(), 1 << cheap | 1 << dear
                for outcome in submasks((cf.up_mask | cf.down_mask) & ~pair):
                    if table[outcome | pair] >> bad & 1:
                        return {
                            "trade": t.id,
                            "role": role,
                            "prices": [low, high],
                            "outcome": axioms._names(cf, outcome),
                        }
    return None


def check_priced_axioms(priced: PricedInstance) -> list[axioms.AxiomReport]:
    """Everything the price-adjustment process conditions on."""
    out = axioms.check_instance(priced.instance, ("full_substitutability", "irc"))
    out.extend(check_feasibility(priced))
    out.extend(check_cp(priced))
    out.extend(check_pm(priced))
    return out


# ---------------------------------------------------------------------------
# price adjustment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PriceRound:
    offers: frozenset[str]  # proposing side's demanded contracts
    responder_keeps: frozenset[str]
    responder_rejects: frozenset[str]
    prices: dict[str, int]

    to_json = fields_json


@dataclass(frozen=True)
class PriceTrace:
    perspective: str  # buyer | seller
    rounds: tuple[PriceRound, ...]
    last_rejected: dict[str, int]  # per trade, final offered-and-rejected price

    to_json = fields_json


def price_adjustment(
    priced: PricedInstance, perspective: str = "buyer"
) -> tuple[frozenset[str], PriceTrace]:
    """Offer-pair iteration on the price grid with per-round price records.

    Buyer perspective starts from every contract open to buyers: buyers
    demand each trade at its cheapest workable price, sellers discard what is
    below cost, and discarded price points leave the buyers' menu so demand
    climbs.  Each trade's recorded price is the currently offered one, or the
    price at which it was last offered and turned down.  The run ends at a
    fixed point whose outcome is the contract reading of the final offers.
    An economy failing `check_priced_axioms` is refused before the run.  The
    rounds read the rows of `buyer_optimal` or `seller_optimal`, with each
    grid id parsed once; only each `PriceRound` holds frozensets.
    """
    if perspective not in ("buyer", "seller"):
        raise PreconditionError(f"unknown perspective {perspective!r}")
    bad = [r for r in check_priced_axioms(priced) if not r.holds]
    if bad:
        raise PreconditionError(
            "price adjustment requires full substitutability, consistency, "
            "feasibility, complete prices and price monotonicity",
            bad,
        )
    num = priced.instance.numbering
    buyer = perspective == "buyer"
    run = (buyer_optimal if buyer else seller_optimal)(priced.instance)
    # each state as (proposing side's mask, responding side's mask)
    states = [num.sides(row)[:: 1 if buyer else -1] for row in run.rows]
    states.append(states[-1])  # as the fixed point's own round, once more
    grid = [split_contract_id(c) for c in num.ids]

    # a trade not offered yet stands at the proposing side's opening price
    opening = {t.id: t.price_min if buyer else t.price_max for t in priced.trades}

    # A state's successor is its response round (the fixed point answers
    # itself), so it already holds every firm's choice: the proposers' offers
    # are what they kept of their own side, the responders' keeps what they
    # kept of theirs, and the responders rejected everything else.
    trace: list[PriceRound] = []
    last_rejected: dict[str, int] = {}
    prev_offers = 0
    for (own, other), (own_next, other_next) in zip(states, states[1:] + states[-1:]):
        offers, keeps, rejects = own & other_next, other & own_next, num.full ^ own_next
        for trade, price in at_bits(grid, prev_offers & rejects):
            last_rejected[trade] = price
        offered_now: dict[str, int] = {}
        for trade, price in at_bits(grid, offers):
            if trade in offered_now:
                raise PreconditionError(
                    f"two prices offered for trade {trade!r}; feasibility violated"
                )
            offered_now[trade] = price
        prices = {t: offered_now.get(t, last_rejected.get(t, p)) for t, p in opening.items()}
        trace.append(PriceRound(*map(num.names, (offers, keeps, rejects)), prices))
        prev_offers = offers
    return run.outcome, PriceTrace(perspective, tuple(trace), last_rejected)


def complete_prices(priced: PricedInstance, outcome, trace: PriceTrace) -> Arrangement:
    """Extend the final outcome to a full arrangement.

    Realized trades keep their contract prices.  Each unrealized trade is
    priced by walking from its last rejected offer toward the proposing
    side's worse prices until both of its firms turn it down next to the
    realized contracts; running out of window means the completeness
    conditions did not actually hold.  Unknown contracts are refused.
    """
    inst = priced.instance
    outcome = inst.known(outcome)
    realized: dict[str, int] = {}
    for cid in sorted(outcome):
        trade, price = split_contract_id(cid)
        if trade in realized:
            raise PreconditionError(f"outcome carries two prices for trade {trade!r}")
        realized[trade] = price
    prices = dict(realized)
    for t in priced.trades:
        if t.id in realized:
            continue
        anchor = trace.last_rejected.get(
            t.id, t.price_min if trace.perspective == "buyer" else t.price_max
        )
        if trace.perspective == "buyer":
            candidates = range(anchor, t.price_max + 1)
        else:
            candidates = range(anchor, t.price_min - 1, -1)
        for p in candidates:
            cid = contract_id(t.id, p)
            if not any(is_rational(inst.choice[a], {cid}, outcome) for a in (t.buyer, t.seller)):
                prices[t.id] = p
                break
        else:
            raise PreconditionError(
                f"no commonly rejected price for unrealized trade {t.id!r}; "
                "complete-prices condition violated"
            )
    return Arrangement(frozenset(realized), prices)


def verify_competitive_equilibrium(priced: PricedInstance, arr: Arrangement) -> bool:
    """Every firm, facing the whole economy at the arrangement's prices, must
    choose exactly its realized contracts."""
    missing = set(priced.trade_ids) - set(arr.prices)
    if missing:
        raise PreconditionError(f"arrangement leaves trades unpriced: {sorted(missing)}")
    menu = frozenset(contract_id(t, arr.prices[t]) for t in priced.trade_ids)
    realized_contracts = arr.contracts()
    inst = priced.instance
    for agent in inst.network.agents:
        cf = inst.choice[agent]
        if cf.choose(menu & cf.domain) != realized_contracts & cf.domain:
            return False
    return True
