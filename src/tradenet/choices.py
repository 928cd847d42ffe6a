"""Per-agent choice functions over bilateral contracts.

Every family maps an offered set of the agent's own contracts to a chosen
subset.  Contracts that do not involve the agent are silently dropped before
evaluation.  Inside, a menu is an int mask: contract i of a function's
sorted-id domain is at `position` i and is bit i, every family's selector
takes and returns masks (`choose_mask`), and `choose` is the frozenset
boundary around it.  Evaluation is pure and memoized in one store (the memo
never changes an observable result, it only speeds up the exhaustive
searches that hammer the same menus): a list of 2^|domain| answers, None
until asked, which `menu_table` fills in place; a function wider than
SIZE_GUARD keeps a dict of the menus asked instead.

Side conventions follow the rest of the library: *upstream* contracts are the
ones the agent buys, *downstream* the ones it sells.
"""

from __future__ import annotations

import sys

from .errors import ChoiceFunctionError, GuardExceededError, InstanceFormatError
from .guards import SIZE_GUARD
from .network import ContractNetwork, at_bits, sorted_ids


class _Asked(dict):
    """The memo past SIZE_GUARD: the menus asked, by mask; one not asked reads None."""

    def __missing__(self, menu):
        return None


class ChoiceFunction:
    """Base evaluator.  Subclasses implement _select on int masks: contract i
    of the sorted domain is `position` i and bit i; a menu is a mask."""

    family = "abstract"

    def __init__(self, agent: str, upstream, downstream):
        self.agent = agent
        self.upstream = frozenset(upstream)
        self.downstream = frozenset(downstream)
        overlap = self.upstream & self.downstream
        if overlap:
            raise ChoiceFunctionError(f"{agent}: contracts {sorted(overlap)} listed on both sides")
        self.domain = self.upstream | self.downstream
        self.ids = sorted_ids(self.domain)
        self.position = {c: i for i, c in enumerate(self.ids)}
        self.up_mask = _mask_at([self.position[c] for c in self.upstream])
        self.down_mask = (1 << len(self.ids)) - 1 ^ self.up_mask
        self._memo: list | _Asked | None = None  # answers by menu mask; the table once `_filled`
        self._filled = False
        self._slices = None  # the table cut into `axioms._Slices`, built once by `_Slices.of`

    def _store(self):
        """The memo, made at the first ask, so a function never asked holds none."""
        if self._memo is None:
            width = len(self.ids)
            self._memo = [None] * (1 << width) if width <= SIZE_GUARD else _Asked()
        return self._memo

    def mask(self, contracts) -> int:
        """The mask of the agent's own contracts among `contracts`."""
        return sum(1 << self.position[c] for c in self.domain.intersection(contracts))

    def bits(self, ids) -> list[int]:
        """The one-bit mask of each of `ids`, 0 for an id outside the domain, so
        `network.spread` of it is this function's mask of each submask of `ids`."""
        return [1 << self.position[c] if c in self.position else 0 for c in ids]

    def names(self, mask: int) -> frozenset[str]:
        return frozenset(at_bits(self.ids, mask))

    # -- evaluation ---------------------------------------------------------

    def choose(self, offered) -> frozenset[str]:
        return self.names(self.choose_mask(self.mask(offered)))

    def choose_mask(self, menu: int) -> int:
        """The chosen mask from a menu mask over the agent's domain."""
        memo = self._memo
        if memo is None:
            memo = self._store()
        hit = memo[menu]
        if hit is None:
            hit = self._select(menu)
            if hit & ~menu:
                self._overreach()
            memo[menu] = hit
        return hit

    def _select(self, menu: int) -> int:
        raise NotImplementedError

    def _overreach(self):
        raise ChoiceFunctionError(f"{self.agent}: evaluator chose contracts outside the menu")

    def menu_table(self) -> list[int]:
        """The chosen mask of every menu, indexed by menu mask.

        Filled in full on the first call, since every reader (the axiom
        validators, fixed-point enumeration, the priced checks) visits all
        2^|domain| menus.  It is written into the memo list in place, so a
        `stability.FreshView` holding that list reads the table; a function
        past SIZE_GUARD has none."""
        memo = self._store()
        if not self._filled:
            if memo.__class__ is _Asked:
                raise GuardExceededError(f"menu table: agent {self.agent} has {len(self.ids)} "
                                         f"contracts, guard is {SIZE_GUARD}")
            table = list(map(self._select, range(len(memo))))
            if any(chosen & ~menu for menu, chosen in enumerate(table)):
                self._overreach()
            memo[:] = table
            self._filled = True
        return memo

    @property
    def query_count(self) -> int:
        """Distinct menus evaluated so far (oracle-call counter): memo entries not None."""
        memo = self._memo or ()
        return len(memo) - (memo.count(None) if memo.__class__ is list and not self._filled else 0)

    # -- conditioned choice and rejection maps ------------------------------

    def chosen_upstream(self, available_up, available_down) -> frozenset[str]:
        menu = self.upstream & set(available_up) | self.downstream & set(available_down)
        return self.choose(menu) & self.upstream

    def chosen_downstream(self, available_down, available_up) -> frozenset[str]:
        menu = self.upstream & set(available_up) | self.downstream & set(available_down)
        return self.choose(menu) & self.downstream

    def rejected_upstream(self, available_up, available_down) -> frozenset[str]:
        offered = frozenset(available_up) & self.upstream
        return offered - self.chosen_upstream(available_up, available_down)

    def rejected_downstream(self, available_down, available_up) -> frozenset[str]:
        offered = frozenset(available_down) & self.downstream
        return offered - self.chosen_downstream(available_down, available_up)

    # -- restriction (used by terminal-agent exit surgery) ------------------

    def restrict(self, keep) -> "ChoiceFunction":
        raise ChoiceFunctionError(f"{self.family} choice functions do not support restriction")

    def params_json(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> dict:  # the input-file description
        out = {"agent": self.agent, "type": self.family}
        out.update(self.params_json())
        return out


def is_rational(cf: ChoiceFunction, subset, given) -> bool:
    """True when the agent keeps all of `subset` offered alongside `given`."""
    own = frozenset(subset) & cf.domain
    return own <= cf.choose(own | (frozenset(given) & cf.domain))


def is_individually_rational(cf: ChoiceFunction, contract_set) -> bool:
    own = frozenset(contract_set) & cf.domain
    return cf.choose(own) == own


def is_rational_pair(cf: ChoiceFunction, up_contract: str, down_contract: str, given) -> bool:
    """True when neither contract is kept alone alongside `given` but the
    pair is kept together.  The first contract must be upstream for the
    agent and the second downstream."""
    if up_contract not in cf.upstream or down_contract not in cf.downstream:
        raise ChoiceFunctionError(
            f"{cf.agent}: rational pair needs one upstream and one downstream contract"
        )
    if is_rational(cf, {up_contract}, given) or is_rational(cf, {down_contract}, given):
        return False
    return is_rational(cf, {up_contract, down_contract}, given)


def _mask_at(positions: list[int]) -> int:
    """The mask of `positions`, written as binary digits, not added bit by bit."""
    low = min(positions, default=0)
    digits = bytearray(b"0") * (max(positions, default=low - 1) + 1 - low)
    for i in positions:
        digits[low - i - 1] = 49  # a "1"; the last digit is bit `low`
    return int(digits or b"0", 2) << low


def _first_offered(positions, menu: int, take: int) -> int:
    """The mask of the first `take` of `positions` (in order) that `menu`
    offers, or all it offers if fewer; the walk ends at the `take`-th."""
    kept = 0
    for i in positions:
        if menu >> i & 1:
            kept |= 1 << i
            take -= 1
            if not take:
                break
    return kept


# ---------------------------------------------------------------------------
# concrete families
# ---------------------------------------------------------------------------


class PreferenceListChoice(ChoiceFunction):
    """Strict ranking over acceptable contract sets, best first.

    The evaluator picks the best-ranked subset fully contained in the offer;
    if no ranked set fits, it picks nothing (the empty set is implicitly the
    last acceptable entry).
    """

    family = "preference_list"

    def __init__(self, agent, upstream, downstream, ranking):
        super().__init__(agent, upstream, downstream)
        seen = set()
        clean: list[frozenset[str]] = []
        for entry in ranking:
            fs = frozenset(entry)
            if not fs <= self.domain:
                raise ChoiceFunctionError(
                    f"{agent}: ranked set {sorted(fs)} uses contracts the agent is not part of"
                )
            if fs in seen:
                raise ChoiceFunctionError(f"{agent}: duplicate ranked set {sorted(fs)}")
            seen.add(fs)
            clean.append(fs)
        self.ranking = tuple(clean)
        self._ranked = tuple(map(self.mask, self.ranking))

    def _select(self, menu):
        for entry in self._ranked:
            if not entry & ~menu:
                return entry
        return 0

    def restrict(self, keep):
        keep = frozenset(keep)
        ranking = [entry for entry in self.ranking if entry <= keep]
        return PreferenceListChoice(
            self.agent, self.upstream & keep, self.downstream & keep, ranking
        )

    def params_json(self):
        return {"ranking": [sorted(entry) for entry in self.ranking]}


class SeparableIntensityChoice(ChoiceFunction):
    """Totally ordered sides, matched pairwise.

    Offered k upstream and l downstream contracts, the agent signs the
    min(k, l) best of each side.  Whether a pair is signed depends on the
    rest of the offer, so the family passes `check_separability` only while
    one side has a single contract or each side has at most two.  With
    orders u0 > u1 > u2 and d0 > d1 > d2, alongside {d0, u1} the agent keeps
    {u0}, and keeps the pair (u2, d1), but not all three at once.

    A menu costs two popcounts and one walk: the side offered less is taken
    whole, and the other side's order is walked up to its min(k, l)-th
    offered contract; a one-sided menu, or one as large on each side, walks nothing.
    """

    family = "separable_intensity"

    def __init__(self, agent, upstream_order, downstream_order):
        super().__init__(agent, upstream_order, downstream_order)
        for side, order in (("upstream", upstream_order), ("downstream", downstream_order)):
            if len(set(order)) != len(tuple(order)):
                raise ChoiceFunctionError(f"{agent}: {side} order repeats a contract")
        self.upstream_order, self.downstream_order = tuple(upstream_order), tuple(downstream_order)
        self._up_order = tuple(map(self.position.__getitem__, self.upstream_order))
        self._down_order = tuple(map(self.position.__getitem__, self.downstream_order))

    def _select(self, menu):
        ups, downs = menu & self.up_mask, menu & self.down_mask
        k, l = ups.bit_count(), downs.bit_count()
        if k == l:  # both sides whole
            return ups | downs
        if k < l:  # all offered upstream, and as many of the downstream
            return k and ups | _first_offered(self._down_order, downs, k)
        return l and downs | _first_offered(self._up_order, ups, l)

    def restrict(self, keep):
        keep = frozenset(keep)
        return SeparableIntensityChoice(
            self.agent,
            [c for c in self.upstream_order if c in keep],
            [c for c in self.downstream_order if c in keep],
        )

    def params_json(self):
        return {
            "upstream_order": list(self.upstream_order),
            "downstream_order": list(self.downstream_order),
        }


class SimpleIntensityChoice(ChoiceFunction):
    """One-in, one-out by intensity.

    Picks the highest-intensity upstream contract and the lowest-intensity
    downstream contract, but only when the upstream one carries strictly more
    intensity than the downstream one; otherwise picks nothing.  Intensities
    must be pairwise distinct so the comparisons are strict.
    """

    family = "simple_intensity"

    def __init__(self, agent, upstream, downstream, intensity: dict[str, float]):
        super().__init__(agent, upstream, downstream)
        missing = self.domain - set(intensity)
        if missing:
            raise ChoiceFunctionError(f"{agent}: intensity missing for contracts {sorted(missing)}")
        # a bool is no number; NaN, the infinities and ints past every float are refused
        if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                   for v in map(intensity.__getitem__, self.domain)):
            raise ChoiceFunctionError(f"{agent}: intensities must be finite numbers")
        own = {c: float(intensity[c]) for c in self.domain}
        if len(set(own.values())) != len(own):
            raise ChoiceFunctionError(f"{agent}: intensities must be pairwise distinct")
        self.intensity = own
        # positions: upstream most intense first, downstream least first
        ranked = sorted(self.domain, key=lambda c: (own[c], c))
        self._up_order = tuple(self.position[c] for c in reversed(ranked) if c in self.upstream)
        self._down_order = tuple(self.position[c] for c in ranked if c in self.downstream)

    def _select(self, menu):
        up = next((i for i in self._up_order if menu >> i & 1), None)
        down = next((i for i in self._down_order if menu >> i & 1), None)
        if up is None or down is None:
            return 0
        intensity, ids = self.intensity, self.ids
        return 1 << up | 1 << down if intensity[ids[up]] > intensity[ids[down]] else 0

    def restrict(self, keep):
        keep = frozenset(keep)
        return SimpleIntensityChoice(
            self.agent,
            self.upstream & keep,
            self.downstream & keep,
            {c: v for c, v in self.intensity.items() if c in keep},
        )

    def params_json(self):
        return {"intensity": {c: self.intensity[c] for c in sorted(self.intensity)}}


class QuotaChoice(ChoiceFunction):
    """One-sided responsive choice with a quota.

    `order` ranks the acceptable contracts of the agent's single active side,
    best first; contracts left out of the order are never chosen.  The agent
    signs the best min(quota, offered-acceptable) of them.  quota=1 models a
    unit-demand terminal agent.  A menu walks `order` up to its quota-th
    offered contract.
    """

    family = "quota"

    def __init__(self, agent, upstream, downstream, order, quota: int = 1):
        super().__init__(agent, upstream, downstream)
        if self.upstream and self.downstream:
            raise ChoiceFunctionError(
                f"{agent}: quota choice is for agents active on one side only"
            )
        if len(set(order)) != len(tuple(order)):
            raise ChoiceFunctionError(f"{agent}: order repeats a contract")
        if not set(order) <= self.domain:
            raise ChoiceFunctionError(f"{agent}: order lists foreign contracts")
        self.order = tuple(order)
        self.quota = read_int(quota, f"{agent}: quota", 1)
        self._order = tuple(map(self.position.__getitem__, self.order))

    def _select(self, menu):
        return _first_offered(self._order, menu, self.quota)

    def restrict(self, keep):
        keep = frozenset(keep)
        return QuotaChoice(
            self.agent,
            self.upstream & keep,
            self.downstream & keep,
            [c for c in self.order if c in keep],
            self.quota,
        )

    def params_json(self):
        return {"order": list(self.order), "quota": self.quota}


def _gadget_weights(weights) -> tuple[int, ...]:
    """The subset-sum gadget's weights: positive integers, ascending."""
    weights = tuple(read_int(w, "each weight", 1) for w in weights)
    if not weights:
        raise ChoiceFunctionError("weights must be a non-empty list")
    if list(weights) != sorted(weights):
        raise ChoiceFunctionError("weights must be sorted ascending")
    return weights


def _parallel_positions(cf, buys: bool, k: int) -> list[int]:
    """The positions, in id order, of a gadget agent's k parallel contracts
    (the i-th is the gadget's i-th), bought or sold against one lone contract."""
    many, lone = (cf.upstream, cf.downstream) if buys else (cf.downstream, cf.upstream)
    if len(lone) != 1:
        raise ChoiceFunctionError(f"{cf.agent}: gadget agent needs exactly one lone-side contract")
    positions = [i for i, c in enumerate(cf.ids) if c in many]
    if len(positions) != k:
        raise ChoiceFunctionError(
            f"{cf.agent}: gadget agent needs exactly {k} parallel contracts, got {len(positions)}"
        )
    return positions


class _SubsetSumGadget(ChoiceFunction):
    """One firm of the subset-sum gadget: k parallel contracts on one side,
    the i-th in id order carrying the i-th weight, and one lone contract on
    the other.  A menu walks only its offered parallel bits, lowest first."""

    buys_parallel: bool

    def __init__(self, agent, upstream, downstream, weights):
        super().__init__(agent, upstream, downstream)
        parallel = _parallel_positions(self, self.buys_parallel, len(weights))
        self.weights = _gadget_weights(weights)
        self.double_threshold = sum(self.weights)  # compare 2*sum(offered) against this
        weight = dict(zip(parallel, self.weights))
        self._weight = [weight.get(i, 0) for i in range(len(self.ids))]  # by position

    def params_json(self):
        return {"weights": list(self.weights)}


class PartitionChoiceF(_SubsetSumGadget):
    """Buyer of the weighted contracts in the subset-sum gadget.

    Keeps every weighted contract offered; keeps the lone downstream
    contract exactly when the offered weights reach half the total.
    """

    family = "partition_f"
    buys_parallel = True

    def _select(self, menu):
        ups = rest = menu & self.up_mask
        if not menu & self.down_mask:
            return ups
        offered_weight = 0
        while rest:
            low = rest & -rest
            offered_weight += self._weight[low.bit_length() - 1]
            rest ^= low
        return ups | self.down_mask if 2 * offered_weight >= self.double_threshold else ups


class PartitionChoiceG(_SubsetSumGadget):
    """Seller of the weighted contracts in the subset-sum gadget.

    Inactive without its lone upstream contract.  With it, keeps the longest
    index-prefix of the offered weighted contracts whose weight stays within
    half the total (so everything, when the offer is light enough).
    """

    family = "partition_g"
    buys_parallel = False

    def _select(self, menu):
        if not menu & self.up_mask:
            return 0
        kept, running, rest = self.up_mask, 0, menu & self.down_mask
        while rest:
            low = rest & -rest
            running += self._weight[low.bit_length() - 1]
            if 2 * running > self.double_threshold:
                break
            kept |= low
            rest ^= low
        return kept


class NeedleChoiceF(ChoiceFunction):
    """Buyer side of the hidden-subset gadget on 2n parallel contracts.

    Buys the 2n parallel contracts (index i is the i-th in id order) and
    sells one lone contract.  Keeps every offered upstream contract; keeps
    the lone contract when more than half of the upstream contracts are
    offered, or when the offer is exactly the hidden n-subset (if one was
    planted).
    """

    family = "needle_f"

    def __init__(self, agent, upstream, downstream, n: int, hidden=None):
        super().__init__(agent, upstream, downstream)
        parallel = _parallel_positions(self, True, 2 * read_int(n, "n", 1))
        self.hidden = self.checked_hidden(n, hidden)
        self.n = n
        self._hidden = None if hidden is None else sum(1 << parallel[i - 1] for i in self.hidden)

    @staticmethod
    def checked_hidden(n: int, hidden) -> frozenset[int] | None:
        """The hidden index set (None when none is planted), refused unless n
        is positive and it holds n of the indices 1..2n; needs no contracts."""
        read_int(n, "n", 1)
        if hidden is None:
            return None
        hidden = frozenset(read_int(i, "each hidden index") for i in hidden)
        if len(hidden) != n or not all(1 <= i <= 2 * n for i in hidden):
            raise ChoiceFunctionError("hidden index set must contain exactly n valid indices")
        return hidden

    def _select(self, menu):
        ups = menu & self.up_mask
        take_down = ups.bit_count() >= self.n + 1 or ups == self._hidden
        if menu & self.down_mask and take_down:
            return ups | self.down_mask
        return ups

    def params_json(self):
        out = {"n": self.n}
        if self.hidden is not None:
            out["hidden"] = sorted(self.hidden)
        return out


def contract_id(trade_id: str, price: int) -> str:
    """The grid id of a trade at a price: trade@price."""
    return f"{trade_id}@{price}"


def split_contract_id(cid: str) -> tuple[str, int]:
    """Trade id and price of a grid contract id, the inverse of `contract_id`;
    any other id is refused."""
    trade_id, _, price = cid.rpartition("@")
    try:
        if contract_id(trade_id, int(price)) == cid:
            return trade_id, int(price)
    except ValueError:
        pass
    raise ChoiceFunctionError(f"contract id {cid!r} must read trade@price")


def _margin_order(priced, book, sign: int) -> tuple[tuple[int, int, int], ...]:
    """(position, low, span) of each (position, trade, price) row of one side
    whose margin, sign * (price - book[trade]), is 0 or more, by (-margin, trade),
    where `span << low` masks the trade's rows: a trade's first offered one is its best."""
    scored = sorted((sign * (book[trade] - price), trade, i) for i, trade, price in priced)
    scored = [row for row in scored if row[0] <= 0]  # less those of negative margin
    listed: dict[str, list[int]] = {}  # the positions of each trade's listed contracts
    for _, trade, i in scored:
        listed.setdefault(trade, []).append(i)
    lows = {t: min(at) for t, at in listed.items()}
    spans = {t: _mask_at([i - lows[t] for i in at]) for t, at in listed.items()}
    return tuple((i, lows[trade], spans[trade]) for _, trade, i in scored)


class ReservationChoice(ChoiceFunction):
    """Integer reservation values with optional per-side capacities.

    Each contract id is a grid id, trade@price.  As a buyer the firm looks at
    the cheapest offered price of each trade and takes the trades whose value
    covers that price, best margins first, up to its buy capacity; as a
    seller, dually, the dearest offered price against its cost.  The two
    sides never interact, which is what makes the family a clean, fully
    substitutable baseline for priced economies.

    Each side's contract positions are ordered once by (-margin, trade), less
    those of negative margin; a menu walks each side's order once, taking the
    first offered contract of each trade up to the side's capacity.
    """

    family = "reservation"

    def __init__(self, agent, upstream, downstream, values, costs,
                 capacity_buy=None, capacity_sell=None):
        super().__init__(agent, upstream, downstream)
        self.values = {t: read_int(v, f"{agent}: value of {t}") for t, v in values.items()}
        self.costs = {t: read_int(v, f"{agent}: cost of {t}") for t, v in costs.items()}
        self.capacity_buy, self.capacity_sell = (
            None if cap is None else read_int(cap, f"{agent}: {name}", 1)
            for name, cap in (("capacity_buy", capacity_buy), ("capacity_sell", capacity_sell))
        )
        try:  # (position, trade, price) of each own contract, upstream then downstream
            priced = [[(i, *split_contract_id(c)) for i, c in enumerate(self.ids) if c in side]
                      for side in (self.upstream, self.downstream)]
        except ChoiceFunctionError:
            raise ChoiceFunctionError(f"{agent}: contract ids must read trade@price") from None
        books = {"buyer values": self.values, "seller costs": self.costs}
        for rows, (what, book) in zip(priced, books.items()):
            if {t for _, t, _ in rows} - set(book):
                raise ChoiceFunctionError(f"{agent}: missing {what}")
        self._sides = tuple(
            (_margin_order(rows, book, sign), len(self.ids) if cap is None else cap)
            for rows, book, sign, cap in zip(
                priced, (self.values, self.costs), (-1, 1), (self.capacity_buy, self.capacity_sell)
            )
        )

    def _select(self, menu):
        kept = 0
        for order, cap in self._sides:
            for i, low, span in order:
                if menu >> i & 1:
                    kept |= 1 << i
                    menu &= ~(span << low)  # one price per trade
                    cap -= 1
                    if not cap:
                        break
        return kept

    def params_json(self):
        out = {
            "values": {t: self.values[t] for t in sorted(self.values)},
            "costs": {t: self.costs[t] for t in sorted(self.costs)},
        }
        if self.capacity_buy is not None:
            out["capacity_buy"] = self.capacity_buy
        if self.capacity_sell is not None:
            out["capacity_sell"] = self.capacity_sell
        return out


# ---------------------------------------------------------------------------
# constructors from JSON descriptions
# ---------------------------------------------------------------------------


def read_int(value, what: str, minimum: int | None = None) -> int:
    """An integer parameter: an int that is not a bool and, when `minimum` is
    given, at least that.  Anything else is refused, never coerced."""
    if type(value) is not int:  # a bool is an int subclass, and refused
        raise ChoiceFunctionError(f"{what} must be an integer")
    if minimum is not None and value < minimum:
        raise ChoiceFunctionError(f"{what} must be at least {minimum}")
    return value


def build_family(net: ContractNetwork, desc: dict) -> ChoiceFunction:
    """One constructor for every concrete family, keyed by desc["type"].
    Parameters of the wrong type are an input error."""
    try:
        return _build_family(net, desc)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(
            f"choice function for {desc['agent']!r}: malformed parameters ({exc})"
        ) from exc


def _build_family(net: ContractNetwork, desc: dict) -> ChoiceFunction:
    if not isinstance(desc, dict) or "agent" not in desc or "type" not in desc:
        raise ChoiceFunctionError("choice description needs 'agent' and 'type'")
    agent = desc["agent"]
    if agent not in net.upstream:
        raise ChoiceFunctionError(f"choice function for unknown agent {agent!r}")
    kind = desc["type"]
    up = net.upstream[agent]
    down = net.downstream[agent]
    params = {k: v for k, v in desc.items() if k not in ("agent", "type")}

    def need(*names, optional=()):
        missing = set(names) - set(params)
        extra = set(params) - set(names) - set(optional)
        if missing:
            raise ChoiceFunctionError(f"{agent}/{kind}: missing parameters {sorted(missing)}")
        if extra:
            raise ChoiceFunctionError(f"{agent}/{kind}: unknown parameters {sorted(extra)}")

    def id_list(value, what):  # a JSON list of contract ids, never a string read as one
        if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
            raise ChoiceFunctionError(f"{agent}/{kind}: {what} must be a list of contract ids")
        return value

    if kind == "preference_list":
        need("ranking")
        ranking = [id_list(entry, "ranking entry") for entry in params["ranking"]]
        return PreferenceListChoice(agent, up, down, ranking)
    if kind == "separable_intensity":
        need("upstream_order", "downstream_order")
        orders = [id_list(params[f"{s}_order"], f"{s}_order") for s in ("upstream", "downstream")]
        for side, order, own in zip(("upstream", "downstream"), orders, (up, down)):
            if set(order) != set(own):
                raise ChoiceFunctionError(f"{agent}: {side} order must cover exactly {sorted(own)}")
        return SeparableIntensityChoice(agent, *orders)
    if kind == "simple_intensity":
        need("intensity")
        return SimpleIntensityChoice(agent, up, down, params["intensity"])
    if kind in ("quota", "unit_demand"):  # unit_demand is quota 1, and may not name it
        need("order", *(["quota"] if kind == "quota" else []))
        order = id_list(params["order"], "order")
        return QuotaChoice(agent, up, down, order, params.get("quota", 1))
    if kind in ("partition_f", "partition_g"):
        need("weights")
        gadget = PartitionChoiceF if kind == "partition_f" else PartitionChoiceG
        return gadget(agent, up, down, params["weights"])
    if kind == "needle_f":
        need("n", optional=("hidden",))
        return NeedleChoiceF(agent, up, down, params["n"], params.get("hidden"))
    if kind == "reservation":
        need(optional=("values", "costs", "capacity_buy", "capacity_sell"))
        books = [params.get("values", {}), params.get("costs", {})]
        if not all(isinstance(book, dict) for book in books):
            raise ChoiceFunctionError(f"{agent}/{kind}: values and costs must be objects")
        return ReservationChoice(
            agent, up, down, *books, params.get("capacity_buy"), params.get("capacity_sell")
        )
    raise ChoiceFunctionError(f"unknown choice family {kind!r}")
