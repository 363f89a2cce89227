"""Scenario files: schema, derivations, pins, and the full report pipeline.

A scenario file describes one tower construction: the base field, the set T
of rational primes whose places split completely in the tower, the fixed
density data, and any values pinned to reproduce a published computation.
Pins always win over derived values, but the report records both so every
deviation is visible.  Reports are plain dicts with deterministic key order,
apart from `tv.prefix`, a read-only view of rows (`report.PrefixRows`);
serializing them with sorted keys is byte-stable across runs.  The writer,
`report.dump_report`, is also bound here as `dump_report`, with the view
as `PrefixRows`.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from itertools import chain, takewhile
from typing import Any

from .arith import MAX_NORM_BOUND, PRIME_TEST_BOUND, PrimePower, is_prime, left_sum, sieve_primes
from .errors import DomainError, NeedsLargerEnumerationError, SchemaError
from .fields import biquadratic_field, quadratic_field, quadratic_subfield, splitting_type
from .frozen import Frozen
from . import fields, tv
from .report import PrefixRows, dump_report  # dump_report stays a public name of this module
from .towers import GSVerdict, critere_real_quadratic, genus_rank_bound, gs_verdict

SCHEMA_VERSION = 1
REPORT_VERSION = 1

# the longest sieve segment of the candidate stream, and so the farthest it
# reads past the stop norm
_SEGMENT = 1 << 14

#: The keys each object of a scenario may hold, by the object's location
#: ("" is the top level, "tv.eps_caps[i]" each entry of that list).  Any
#: other key is a SchemaError.  `field` also holds the factor lists that
#: FIELD_FACTORS names for its type.
SCHEMA_KEYS = {
    "": ("version", "label", "p", "field", "g_override", "epsilon_linear", "coarse_B", "T", "alpha_signature",
         "tv", "published_reference"),
    "field": ("type",),
    "T": ("dec", "inert"),
    "tv": ("x0_num", "x1_num", "sigma_fixed", "eps_caps", "splitting_overrides", "capacity_overrides",
           "excluded", "b_deduction_nums", "norm_bound"),
    "tv.sigma_fixed[i]": ("q", "num"),
    "tv.eps_caps[i]": ("prime", "eps_num"),
    "tv.capacity_overrides[i]": ("prime", "norm", "weight_num"),
}
FIELD_FACTORS = {"quadratic": ("radicand_factors",), "biquadratic": ("d1_factors", "d2_factors")}
# the constructor of each field type, called on its FIELD_FACTORS lists in order
_FIELD_BUILDERS = {"quadratic": quadratic_field, "biquadratic": biquadratic_field}


def _expect(cond: bool, message: str, location: str) -> None:
    if not cond:
        raise SchemaError(message, location=location)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite int or float that converts to float; bool is not a number."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_prime(v) -> bool:
    return _is_int(v) and is_prime(v)


def _testable(v, location: str) -> None:
    """SchemaError at location when v is an integer too large to test for
    primality (PRIME_TEST_BOUND), before any test reads it."""
    _expect(not _is_int(v) or abs(v) < PRIME_TEST_BOUND,
            "integers tested for primality must be below 2^64 in absolute value", location)


def _is_prime_power(v) -> bool:
    if not _is_int(v):
        return False
    try:
        PrimePower.from_value(v)
    except DomainError:
        return False
    return True


def _optional_number(data: dict, key: str, positive: bool = False) -> float | None:
    """data[key] as a float, or None when it is absent or null."""
    value = data.get(key)
    if value is None:
        return None
    ok = _is_number(value) and (value > 0 or not positive)
    _expect(ok, "must be a positive number" if positive else "must be a number", key)
    return float(value)


def _only_keys(obj: dict, keys: tuple[str, ...], location: str) -> None:
    """SchemaError at the first key of obj that keys does not hold."""
    for key in obj:
        _expect(key in keys, f"unknown key; expected one of {', '.join(keys)}",
                f"{location}.{key}" if location else str(key))


def _as_list(value, location: str, ok=_is_int, what: str = "integers", distinct: bool = False) -> list:
    """value as a list whose items all satisfy ok, and with distinct no item
    twice; SchemaError names the item."""
    _expect(isinstance(value, list), "expected a list", location)
    seen = set()
    for i, v in enumerate(value):
        if ok in (_is_prime, _is_prime_power):
            _testable(v, f"{location}[{i}]")
        _expect(ok(v), f"expected {what}", f"{location}[{i}]")
        if distinct:
            _expect(v not in seen, f"{v} is listed twice", f"{location}[{i}]")
            seen.add(v)
    return list(value)


def _entries(tvsec: dict, key: str) -> list[tuple[str, dict]]:
    """(location, entry) for each object of the list tv.key; each holds
    exactly the keys of SCHEMA_KEYS["tv.key[i]"]."""
    keys = SCHEMA_KEYS[f"tv.{key}[i]"]
    entries = _as_list(tvsec.get(key, []), f"tv.{key}", lambda e: isinstance(e, dict) and set(keys) <= set(e),
                       f"objects with {', '.join(sorted(keys))}")
    located = [(f"tv.{key}[{i}]", entry) for i, entry in enumerate(entries)]
    for loc, entry in located:
        _only_keys(entry, keys, loc)
    return located


def _once(values: dict, key, location: str) -> None:
    """SchemaError at location when values already holds key from an earlier entry."""
    _expect(key not in values, f"{key} is listed twice", location)


class CandidateInfo(tv.Candidate):
    """A greedy candidate (`weight` = `weight_num` / g) plus the bookkeeping the report needs."""

    # weight_num is in genus units; kind is one of
    # split_full | ram_split | inert_sq | total_ram | override | shifted
    __slots__ = ("weight_num", "kind", "pinned")
    _defaults = {"pinned": False}


class SplitRun(tv.CandidateRun):
    """Consecutive unnamed fully split primes, each its own candidate norm:
    one shared weight (`weight` = `weight_num` / g), kind `split_full`
    (`quadratic` in a quadratic field), never pinned."""

    __slots__ = ("weight_num", "kind")
    pinned = False

    def candidate(self, prime: int) -> CandidateInfo:
        return CandidateInfo(prime, prime, self.weight, weight_num=self.weight_num, kind=self.kind)


class Scenario(Frozen):
    __slots__ = ("label", "p", "field", "base_quadratic", "g_override", "t_dec", "t_inert", "epsilon_linear",
                 "coarse_B", "alpha_signature", "x0_num", "x1_num", "sigma_fixed_pin", "eps_caps",
                 "splitting_overrides", "capacity_overrides", "excluded", "b_deduction_nums", "norm_bound",
                 "published_reference")

    @property
    def genus(self) -> float:
        if self.g_override is not None:
            return self.g_override
        return self.field.genus()


def parse_scenario(data: dict) -> Scenario:
    """Validate a scenario dict; SchemaError carries the offending field."""
    _expect(isinstance(data, dict), "scenario must be an object", "$")
    version = data.get("version")
    _expect(version == SCHEMA_VERSION, f"unsupported version {version!r}", "version")
    _only_keys(data, SCHEMA_KEYS[""], "")
    label = data.get("label", "")
    _expect(isinstance(label, str), "label must be a string", "label")
    p = data.get("p")
    _testable(p, "p")
    _expect(_is_prime(p), "p must be a prime integer", "p")

    fspec = data.get("field")
    _expect(isinstance(fspec, dict), "field must be an object", "field")
    kind = fspec.get("type")
    factor_keys = FIELD_FACTORS.get(kind) if isinstance(kind, str) else None
    _expect(factor_keys is not None, f"bad field spec: unknown field type {kind!r}", "field")
    _only_keys(fspec, SCHEMA_KEYS["field"] + factor_keys, "field")
    for key in factor_keys:
        factors = fspec.get(key, [])
        ok = isinstance(factors, list) and all(map(_is_int, factors))
        _expect(ok, "expected a list of integers", f"field.{key}")
        for i, f in enumerate(factors):
            _testable(f, f"field.{key}[{i}]")
    try:
        field = _FIELD_BUILDERS[kind](*(fspec[key] for key in factor_keys))
    except (DomainError, KeyError) as exc:
        raise SchemaError(f"bad field spec: {exc}", location="field") from exc

    base = quadratic_subfield(field)

    g_override = _optional_number(data, "g_override", positive=True)
    eps_lin = _optional_number(data, "epsilon_linear", positive=True)
    coarse_B = _optional_number(data, "coarse_B")

    tsec = data.get("T", {"dec": [], "inert": []})
    _expect(isinstance(tsec, dict), "T must be an object", "T")
    _only_keys(tsec, SCHEMA_KEYS["T"], "T")
    t_dec = _as_list(tsec.get("dec", []), "T.dec", _is_prime, "primes", distinct=True)
    t_inert = _as_list(tsec.get("inert", []), "T.inert", _is_prime, "primes", distinct=True)
    _expect(not set(t_dec) & set(t_inert), "T.dec and T.inert overlap", "T")

    alpha_sig = data.get("alpha_signature")
    if alpha_sig is not None:
        # r1 and r2 enter the float alpha constant, so each converts to float
        ok = (isinstance(alpha_sig, list) and len(alpha_sig) == 2
              and all(_is_int(v) and _is_number(v) and v >= 0 for v in alpha_sig))
        _expect(ok, "expected [r1, r2], integers >= 0 that convert to float", "alpha_signature")
        alpha_sig = (alpha_sig[0], alpha_sig[1])

    tvsec = data.get("tv", {})
    _expect(isinstance(tvsec, dict), "tv must be an object", "tv")
    _only_keys(tvsec, SCHEMA_KEYS["tv"], "tv")
    x0_num = tvsec.get("x0_num", 0)
    x1_num = tvsec.get("x1_num", 0)
    for name, val in (("x0_num", x0_num), ("x1_num", x1_num)):
        _expect(_is_number(val) and val >= 0, "must be a number >= 0", f"tv.{name}")

    sigma_pin = None
    if "sigma_fixed" in tvsec:
        sigma = {}
        for loc, entry in _entries(tvsec, "sigma_fixed"):
            _testable(entry["q"], f"{loc}.q")
            _expect(_is_prime_power(entry["q"]), "q must be a prime power", loc)
            _expect(_is_number(entry["num"]) and entry["num"] >= 0, "num must be a number >= 0", loc)
            _once(sigma, entry["q"], f"{loc}.q")
            sigma[entry["q"]] = float(entry["num"])
        sigma_pin = list(sigma.items())

    eps_caps = {}
    for loc, entry in _entries(tvsec, "eps_caps"):
        _testable(entry["prime"], f"{loc}.prime")
        _expect(_is_prime(entry["prime"]), "prime required", loc)
        _expect(_is_number(entry["eps_num"]) and entry["eps_num"] >= 0, "eps_num must be a number >= 0", loc)
        _once(eps_caps, entry["prime"], f"{loc}.prime")
        eps_caps[entry["prime"]] = float(entry["eps_num"])

    overrides = {}
    raw_overrides = tvsec.get("splitting_overrides", {})
    _expect(isinstance(raw_overrides, dict), "expected an object", "tv.splitting_overrides")
    for key, val in raw_overrides.items():
        loc = f"tv.splitting_overrides.{key}"
        try:
            ell = int(key)
        except ValueError:
            raise SchemaError("keys must be primes", location=loc) from None
        _expect(key == str(ell), f"keys must be primes in plain decimal, as {ell}", loc)
        _testable(ell, loc)
        _expect(is_prime(ell), "keys must be primes", loc)
        _expect(val in ("split", "inert"), "values must be 'split' or 'inert'", loc)
        overrides[ell] = val

    cap_overrides = {}
    for loc, entry in _entries(tvsec, "capacity_overrides"):
        ell, norm, weight = entry["prime"], entry["norm"], entry["weight_num"]
        _testable(ell, f"{loc}.prime")
        _expect(_is_prime(ell), "prime required", loc)
        is_power = _is_int(norm) and norm >= ell and ell ** round(math.log(norm, ell)) == norm
        _expect(is_power, "norm must be a power of the prime", loc)
        _expect(_is_number(weight) and weight >= 0, "weight_num must be >= 0", loc)
        _once(cap_overrides, ell, f"{loc}.prime")
        cap_overrides[ell] = (norm, float(weight))

    excluded = set(_as_list(tvsec.get("excluded", []), "tv.excluded", _is_prime_power, "prime powers",
                            distinct=True))

    b_ded = tvsec.get("b_deduction_nums")
    if b_ded is not None:
        ok = isinstance(b_ded, list) and len(b_ded) == 2 and all(map(_is_number, b_ded))
        _expect(ok, "expected [x0_num, x1_num]", "tv.b_deduction_nums")
        b_ded = (float(b_ded[0]), float(b_ded[1]))

    norm_bound = tvsec.get("norm_bound", 1000)
    _expect(_is_int(norm_bound) and norm_bound >= 2, "norm_bound must be >= 2", "tv.norm_bound")
    _expect(norm_bound <= MAX_NORM_BOUND, f"norm_bound must be at most {MAX_NORM_BOUND}", "tv.norm_bound")

    published_reference = data.get("published_reference", {})
    _expect(isinstance(published_reference, dict), "published_reference must be an object", "published_reference")

    return Scenario(
        label=label,
        p=p,
        field=field,
        base_quadratic=base,
        g_override=g_override,
        t_dec=t_dec,
        t_inert=t_inert,
        epsilon_linear=eps_lin,
        coarse_B=coarse_B,
        alpha_signature=alpha_sig,
        x0_num=float(x0_num),
        x1_num=float(x1_num),
        sigma_fixed_pin=sigma_pin,
        eps_caps=eps_caps,
        splitting_overrides=overrides,
        capacity_overrides=cap_overrides,
        excluded=excluded,
        b_deduction_nums=b_ded,
        norm_bound=norm_bound,
        published_reference=published_reference,
    )


def load_scenario(path) -> Scenario:
    def object_once(pairs: list) -> dict:
        # json.load alone keeps the last of two equal keys
        obj = {}
        for key, value in pairs:
            _expect(key not in obj, f"key {key!r} is given twice in one object", str(path))
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=object_once)
    except OSError as exc:
        raise SchemaError(f"cannot read scenario: {exc}", location=str(path)) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", location=f"{path}:line {exc.lineno}") from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, an int literal past sys.get_int_max_str_digits, or nested too deeply
        raise SchemaError(f"invalid JSON: {exc}", location=str(path)) from exc
    return parse_scenario(data)


def _derived_sigma_fixed(sc: Scenario) -> list[tuple[int, int]]:
    """(norm, count) fixed entries derived from the T declaration."""
    return [(ell, 2) for ell in sorted(sc.t_dec)] + [(ell * ell, 1) for ell in sorted(sc.t_inert)]


def _candidate_for_prime(
    sc: Scenario, ell: int, cap_num: float, g: float, split: bool | None = None
) -> CandidateInfo | None:
    """Cheapest admissible norm for one prime, honoring pins and exclusions.

    `split` is the splitting verdict when the caller already knows it; a
    splitting pin overrides it, and without either `norms_above` derives it."""
    if ell in sc.capacity_overrides:
        norm, weight = sc.capacity_overrides[ell]
        return CandidateInfo(ell, norm, weight / g, weight_num=weight, kind="override", pinned=True)

    pin = sc.splitting_overrides.get(ell)
    places = fields.norms_above(sc.field, ell, split if pin is None else pin == "split")
    norm, count = places[0]
    m = 1 if norm == ell else 2
    eps = sc.eps_caps.get(ell, 0.0)
    shifted = False
    if norm in sc.excluded:
        # density forced to zero at the cheapest norm: the prime re-enters one
        # power up, where each original place contributes half a slot
        norm = norm * norm
        m *= 2
        count = count / 2 if count > 1 else count
        shifted = True
        if norm in sc.excluded:
            return None
    weight = min((cap_num - eps) / m, float(count))
    if weight <= 0:
        return None
    if sc.field.degree == 4 and not shifted:
        if count == 4:
            kind = "split_full"
        elif norm == ell and count == 2:
            kind = "ram_split"
        elif count == 1 and norm == ell:
            kind = "total_ram"
        else:
            kind = "inert_sq"
    else:
        kind = "shifted" if shifted else "quadratic"
    return CandidateInfo(ell, norm, weight / g, weight_num=weight, kind=kind, pinned=pin is not None)


def candidate_stream(sc: Scenario) -> Iterator[CandidateInfo | SplitRun]:
    """Every open prime's candidate in strictly ascending norm, up to
    MAX_NORM_BOUND, with each stretch of unnamed fully split primes as one
    `SplitRun`.

    The primes are sieved in segments that grow by doubling from
    min(norm_bound, _SEGMENT) and are at most _SEGMENT long.  Above
    isqrt(limit) an unramified prime that is not fully split has norm
    ell^2 > limit, so a segment reads only the fully split primes of
    `fields.split_primes_between` and the primes the scenario names
    (ramified, in T, pinned, capped, overridden, or under an excluded norm).
    An unnamed fully split prime always gets the same candidate apart from
    its norm, so the stretches of them come out as runs.  A named prime
    gets its own record.  Below isqrt(limit), an unnamed prime that is not
    fully split waits as a bare (ell^2, ell), and its record is built only if
    the stream reaches ell^2.

    A candidate whose norm is a higher power of its prime waits in a heap
    until the primes pass its norm; a run is cut at each such norm.  With a
    zero cap only capacity overrides can carry weight, so only their primes
    are visited."""
    closed = set(sc.t_dec) | set(sc.t_inert)
    cap_num = sc.x0_num + 2 * sc.x1_num
    g = sc.genus
    limit = MAX_NORM_BOUND
    waiting: list[tuple[int, CandidateInfo | int]] = []

    def visit(ell: int, split: bool | None) -> None:
        cand = None if ell in closed else _candidate_for_prime(sc, ell, cap_num, g, split)
        if cand is not None and cand.norm <= limit:
            heapq.heappush(waiting, (cand.norm, cand))

    def due(upto: int) -> Iterator[CandidateInfo]:
        while waiting and waiting[0][0] <= upto:
            entry = heapq.heappop(waiting)[1]
            yield _candidate_for_prime(sc, entry, cap_num, g, False) if isinstance(entry, int) else entry

    if cap_num <= 0:
        for ell in sorted(sc.capacity_overrides):
            if ell <= limit:
                visit(ell, None)
                yield from due(ell)
        yield from due(limit)
        return

    ramified = sc.field.abs_disc_factored
    named_set = set(ramified).union(sc.t_dec, sc.t_inert, sc.splitting_overrides, sc.eps_caps,
                                    sc.capacity_overrides, (PrimePower.from_value(q).ell for q in sc.excluded))
    named = sorted(named_set)
    root = math.isqrt(limit)
    weight_num = min(cap_num, 4.0 if sc.field.degree == 4 else 2.0)
    run_kind = "split_full" if sc.field.degree == 4 else "quadratic"

    def runs(split: tuple[int, ...], i: int, j: int) -> Iterator[CandidateInfo | SplitRun]:
        """split[i:j] as runs, cut at each waiting norm below split[j - 1]."""
        while i < j:
            k = bisect_left(split, waiting[0][0], i, j) if waiting else j
            if k > i:
                yield SplitRun(split[i:k], weight_num / g, weight_num, run_kind)
            if k < j:
                yield from due(split[k])
            i = k

    lo, hi = 1, min(sc.norm_bound, _SEGMENT)
    while lo < limit:
        split = tuple(fields.split_primes_between(sc.field, lo, hi))
        if lo < root:
            small = sieve_primes(min(hi, root))
            split_small = set(split[: bisect_right(split, root)])
            for ell in small[bisect_right(small, lo) :]:
                if ell not in split_small and ell not in named_set:
                    heapq.heappush(waiting, (ell * ell, ell))
        i = 0
        for ell in named[bisect_right(named, lo) : bisect_right(named, hi)]:
            j = bisect_left(split, ell, i)
            yield from runs(split, i, j)
            is_split = j < len(split) and split[j] == ell
            visit(ell, None if ell in ramified else is_split)
            yield from due(ell)
            i = j + is_split
        yield from runs(split, i, len(split))
        lo, hi = hi, min(2 * hi, hi + _SEGMENT, limit)
    yield from due(limit)


def build_candidates(sc: Scenario, bound: int) -> list[CandidateInfo]:
    """The candidates with norm <= bound, one per prime: a prefix of
    `candidate_stream` with its runs expanded."""
    records = chain.from_iterable(rec.expand() for rec in candidate_stream(sc))
    return list(takewhile(lambda c: c.norm <= bound, records))


def run_scenario_data(data: dict) -> dict:
    return run_scenario_obj(parse_scenario(data))


def run_scenario(path) -> dict:
    return run_scenario_obj(load_scenario(path))


def run_scenario_obj(sc: Scenario) -> dict:
    g = sc.genus
    field = sc.field
    t_places = 2 * len(sc.t_dec) + len(sc.t_inert)

    # --- T declaration vs derived splitting in the real quadratic subfield
    t_checks = []
    if field.degree == 4:
        declared_pairs = [(q, "split") for q in sc.t_dec] + [(q, "inert") for q in sc.t_inert]
        for ell, declared in declared_pairs:
            derived = splitting_type(sc.base_quadratic, ell).value
            t_checks.append({"prime": ell, "declared": declared, "derived": derived, "agree": declared == derived})

    # --- infinitude criterion over the real quadratic subfield
    ram = set(sc.base_quadratic.ramified_primes())
    tset = set(sc.t_dec) | set(sc.t_inert)
    rho = len(ram - tset)
    t_rational = len(sc.t_dec) + len(sc.t_inert)
    critere_block = {
        "rho": rho,
        "t_dec": len(sc.t_dec),
        "t_rational": t_rational,
        "t_places": t_places,
        "satisfied_rational_count": critere_real_quadratic(rho, len(sc.t_dec), t_rational),
        "satisfied_place_count": critere_real_quadratic(rho, len(sc.t_dec), t_places),
    }

    # --- generator/relation verdict for the top field's own tower, from
    # level-0 genus data: the rank lower bound also caps the relation rank
    # via the Euler characteristic, and a large enough rank forces infinitude
    gs_block = None
    if field.degree == 4:
        arch0 = sc.base_quadratic.r1 if field.r2 > 0 else 0
        rho0 = t_places + arch0
        d_lower = genus_rank_bound(rho0, sc.base_quadratic.r1, sc.base_quadratic.r2, 1)
        gs_block = {"rho": rho0, "d_lower": d_lower}
        if d_lower >= 1:
            correction = field.r1 + field.r2 - 1 + field.delta(sc.p)
            r_upper = d_lower + correction
            gs_block["r_upper_at_d_lower"] = r_upper
            gs_block["verdict"] = gs_verdict(d_lower, r_upper).value
        else:
            gs_block["verdict"] = GSVerdict.INCONCLUSIVE.value

    # --- linear rank growth rate
    arch_ram = 2 if field.r2 > 0 else 0
    eps_derived = t_places + arch_ram - 2 if (sc.t_dec or sc.t_inert) else None
    eps_used = sc.epsilon_linear if sc.epsilon_linear is not None else eps_derived
    epsilon_block = {
        "derived": eps_derived,
        "pinned": sc.epsilon_linear,
        "used": eps_used,
    }

    # --- fixed density set Sigma
    derived_pairs = [(q, float(num)) for q, num in _derived_sigma_fixed(sc)]
    if sc.sigma_fixed_pin is not None:
        sigma_pairs = sc.sigma_fixed_pin
        sigma_matches = sorted(sigma_pairs) == sorted(derived_pairs)
    else:
        sigma_pairs = derived_pairs
        sigma_matches = True

    problem = tv.TVProblem(
        x0=sc.x0_num / g,
        x1=sc.x1_num / g,
        fixed=tuple((PrimePower.from_value(q), num / g) for q, num in sigma_pairs),
    )

    # --- the greedy fill, reading the candidate stream up to ell_star_0
    try:
        solution = tv.optimize(problem, candidate_stream(sc))
    except NeedsLargerEnumerationError as exc:
        raise NeedsLargerEnumerationError(f"tv.x0_num/tv.x1_num: {exc} at the norm cap {MAX_NORM_BOUND}") from None

    lstar0 = solution.ell_star_0.norm if solution.ell_star_0 is not None else None
    # the doubling tier of norm_bound that holds the stop norm
    bound = sc.norm_bound
    while lstar0 is not None and bound < lstar0:
        bound = min(bound * 2, MAX_NORM_BOUND)
    split_below = sum(len(rec.primes) for rec in solution.filled if rec.kind == "split_full")
    # budget left once everything except the totally split candidates is paid
    # for -- the published computations quote this intermediate
    nonsplit_cost = left_sum(chain.from_iterable(rec.costs() for rec in solution.filled
                                                 if rec.kind != "split_full"))
    budget_after_nonsplit = (solution.budget - nonsplit_cost) * g

    # the headline B takes a pinned archimedean deduction; the derived
    # assembly, from the problem's own densities, is reported alongside
    B_derived = B_upper = solution.B_upper
    if sc.b_deduction_nums is not None:
        B_upper = tv.assemble_B(solution.sum_b_bound, sc.b_deduction_nums[0] / g, sc.b_deduction_nums[1] / g)

    # --- assembled mean-exponent bounds; S is empty, so log sqrt(disc(K,S)) is g
    alpha_sig = sc.alpha_signature if sc.alpha_signature is not None else (field.r1, field.r2)

    bounds_block: dict[str, Any] = {}
    if sc.coarse_B is not None and eps_used:
        alpha_c = tv.alpha_constant(sc.coarse_B, g, *alpha_sig)
        bounds_block["coarse"] = {
            "B": sc.coarse_B,
            "alpha_constant": alpha_c,
            "bound": tv.mean_exponent_upper(eps_used, sc.p, alpha_c),
        }
    if eps_used:
        alpha_c = tv.alpha_constant(B_upper, g, *alpha_sig)
        bounds_block["refined"] = {
            "B": B_upper,
            "alpha_constant": alpha_c,
            "bound": tv.mean_exponent_upper(eps_used, sc.p, alpha_c),
        }
        alpha_cd = tv.alpha_constant(B_derived, g, *alpha_sig)
        bounds_block["refined_derived_assembly"] = {
            "B": B_derived,
            "bound": tv.mean_exponent_upper(eps_used, sc.p, alpha_cd),
        }

    report = {
        "report_version": REPORT_VERSION,
        "label": sc.label,
        "p": sc.p,
        "field": {
            "degree": field.degree,
            "signature": [field.r1, field.r2],
            "subfield_discs": [str(d) for d in field.subfield_discs],
            "log_abs_disc": field.log_abs_disc(),
            "genus": field.genus(),
            "genus_used": g,
            "genus_source": "override" if sc.g_override is not None else "derived",
            "root_discriminant": field.root_discriminant(),
        },
        "T": {"dec": sorted(sc.t_dec), "inert": sorted(sc.t_inert), "checks": t_checks},
        "criteria": {"real_quadratic_tower": critere_block, "generator_relation": gs_block},
        "epsilon_linear": epsilon_block,
        "tv": {
            "x0_num": sc.x0_num,
            "x1_num": sc.x1_num,
            "budget": solution.budget,
            "budget_scaled": solution.budget * g,
            "budget_after_nonsplit_prefix_scaled": budget_after_nonsplit,
            "ell_star_0": lstar0,
            "alpha": solution.alpha,
            "sum_b_bound": solution.sum_b_bound,
            "sum_b_scaled": solution.sum_b_bound * g,
            "B_upper": B_upper,
            "B_upper_derived_assembly": B_derived,
            "b_deduction_pinned": sc.b_deduction_nums is not None,
            "degenerate": solution.degenerate,
            "split_primes_below_ell_star_0": split_below,
            "norm_bound_used": bound,
            "prefix": PrefixRows(solution.filled),
        },
        "bounds": bounds_block,
        "pinned_inputs": {
            "g_override": sc.g_override,
            "epsilon_linear": sc.epsilon_linear,
            "alpha_signature": list(alpha_sig) if sc.alpha_signature is not None else None,
            "sigma_fixed": (
                [[q, num] for q, num in sc.sigma_fixed_pin] if sc.sigma_fixed_pin is not None else None
            ),
            "sigma_fixed_matches_derived": sigma_matches,
            "eps_caps": {str(k): v for k, v in sorted(sc.eps_caps.items())},
            "splitting_overrides": {str(k): v for k, v in sorted(sc.splitting_overrides.items())},
            "capacity_overrides": {
                str(k): list(v) for k, v in sorted(sc.capacity_overrides.items())
            },
            "excluded": sorted(sc.excluded),
            "b_deduction_nums": list(sc.b_deduction_nums) if sc.b_deduction_nums else None,
        },
        "published_reference": sc.published_reference,
    }
    return report
