"""Scenario files: schema, derivations, pins, and the full report pipeline.

A scenario file describes one tower construction: the base field, the set T
of rational primes whose places split completely in the tower, the fixed
density data, and any values pinned to reproduce a published computation.
Pins always win over derived values, but the report records both so every
deviation is visible.  Reports are plain dicts with deterministic key order;
serializing them with sorted keys is byte-stable across runs.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import takewhile
from typing import Any

from .arith import PrimePower, factor, is_prime, primes_between, sieve_primes, tame_local_sum
from .errors import DomainError, SchemaError
from .fields import FieldDescriptor, field_from_spec, quadratic_field, splitting_type
from . import fields, tv
from .towers import GSVerdict, critere_real_quadratic, genus_rank_bound, gs_verdict

SCHEMA_VERSION = 1
REPORT_VERSION = 1

_MAX_NORM_BOUND = 2_000_000


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


def _is_prime_power(v) -> bool:
    return _is_int(v) and v >= 2 and len(set(factor(v))) == 1


def _optional_number(data: dict, key: str, positive: bool = False) -> float | None:
    """data[key] as a float, or None when it is absent or null."""
    value = data.get(key)
    if value is None:
        return None
    ok = _is_number(value) and (value > 0 or not positive)
    _expect(ok, "must be a positive number" if positive else "must be a number", key)
    return float(value)


def _as_list(value, location: str, ok=_is_int, what: str = "integers") -> list:
    """value as a list whose items all satisfy ok; SchemaError names the item."""
    _expect(isinstance(value, list), "expected a list", location)
    for i, v in enumerate(value):
        _expect(ok(v), f"expected {what}", f"{location}[{i}]")
    return list(value)


def _entries(tvsec: dict, key: str, required: set[str]) -> list[tuple[str, dict]]:
    """(location, entry) for each object of the list tv.key; each holds `required`."""
    entries = _as_list(tvsec.get(key, []), f"tv.{key}", lambda e: isinstance(e, dict) and required <= set(e),
                       f"objects with {', '.join(sorted(required))}")
    return [(f"tv.{key}[{i}]", entry) for i, entry in enumerate(entries)]


@dataclass(frozen=True)
class CandidateInfo(tv.Candidate):
    """A greedy candidate (`weight` = `weight_num` / g) plus the bookkeeping the report needs."""

    weight_num: float  # in genus units
    kind: str  # split_full | ram_split | inert_sq | total_ram | override | shifted
    pinned: bool = False


@dataclass
class Scenario:
    label: str
    p: int
    field: FieldDescriptor
    base_quadratic: FieldDescriptor | None
    g_override: float | None
    t_dec: list[int]
    t_inert: list[int]
    epsilon_linear: float | None
    coarse_B: float | None
    alpha_signature: tuple[int, int] | None
    C0: float | None
    x0_num: float
    x1_num: float
    sigma_fixed_pin: list[tuple[int, float]] | None
    eps_caps: dict[int, float]
    splitting_overrides: dict[int, str]
    capacity_overrides: dict[int, tuple[int, float]]
    excluded: set[int]
    b_deduction_nums: tuple[float, float] | None
    norm_bound: int
    s_norms: list[int]
    ray_sigma_norms: list[int]
    ray_sigma_split: bool
    published_reference: dict

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
    label = data.get("label", "")
    _expect(isinstance(label, str), "label must be a string", "label")
    p = data.get("p")
    _expect(_is_prime(p), "p must be a prime integer", "p")

    fspec = data.get("field")
    _expect(isinstance(fspec, dict), "field must be an object", "field")
    for key in ("radicand_factors", "d1_factors", "d2_factors"):
        factors = fspec.get(key, [])
        ok = isinstance(factors, list) and all(map(_is_int, factors))
        _expect(ok, "expected a list of integers", f"field.{key}")
    try:
        field = field_from_spec(fspec, label=label)
    except (DomainError, KeyError) as exc:
        raise SchemaError(f"bad field spec: {exc}", location="field") from exc

    base = None
    if field.degree == 4:
        base = quadratic_field(fspec["d1_factors"], label=f"{label}:base")
    elif field.degree == 2:
        base = field

    g_override = _optional_number(data, "g_override", positive=True)
    eps_lin = _optional_number(data, "epsilon_linear", positive=True)
    coarse_B = _optional_number(data, "coarse_B")
    C0 = _optional_number(data, "C0", positive=True)

    tsec = data.get("T", {"dec": [], "inert": []})
    _expect(isinstance(tsec, dict), "T must be an object", "T")
    t_dec = _as_list(tsec.get("dec", []), "T.dec", _is_prime, "primes")
    t_inert = _as_list(tsec.get("inert", []), "T.inert", _is_prime, "primes")
    _expect(not set(t_dec) & set(t_inert), "T.dec and T.inert overlap", "T")

    alpha_sig = data.get("alpha_signature")
    if alpha_sig is not None:
        sig = _as_list(alpha_sig, "alpha_signature")
        _expect(len(sig) == 2 and min(sig) >= 0, "expected [r1, r2]", "alpha_signature")
        alpha_sig = (sig[0], sig[1])

    tvsec = data.get("tv", {})
    _expect(isinstance(tvsec, dict), "tv must be an object", "tv")
    x0_num = tvsec.get("x0_num", 0)
    x1_num = tvsec.get("x1_num", 0)
    for name, val in (("x0_num", x0_num), ("x1_num", x1_num)):
        _expect(_is_number(val) and val >= 0, "must be a number >= 0", f"tv.{name}")

    sigma_pin = None
    if "sigma_fixed" in tvsec:
        sigma_pin = []
        for loc, entry in _entries(tvsec, "sigma_fixed", {"q", "num"}):
            _expect(_is_prime_power(entry["q"]), "q must be a prime power", loc)
            _expect(_is_number(entry["num"]) and entry["num"] >= 0, "num must be a number >= 0", loc)
            sigma_pin.append((entry["q"], float(entry["num"])))

    eps_caps = {}
    for loc, entry in _entries(tvsec, "eps_caps", {"prime", "eps_num"}):
        _expect(_is_prime(entry["prime"]), "prime required", loc)
        _expect(_is_number(entry["eps_num"]), "eps_num must be a number", loc)
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
        _expect(is_prime(ell), "keys must be primes", loc)
        _expect(val in ("split", "inert"), "values must be 'split' or 'inert'", loc)
        overrides[ell] = val

    cap_overrides = {}
    for loc, entry in _entries(tvsec, "capacity_overrides", {"prime", "norm", "weight_num"}):
        ell, norm, weight = entry["prime"], entry["norm"], entry["weight_num"]
        _expect(_is_prime(ell), "prime required", loc)
        is_power = _is_int(norm) and norm >= ell and ell ** round(math.log(norm, ell)) == norm
        _expect(is_power, "norm must be a power of the prime", loc)
        _expect(_is_number(weight) and weight >= 0, "weight_num must be >= 0", loc)
        cap_overrides[ell] = (norm, float(weight))

    excluded = set(_as_list(tvsec.get("excluded", []), "tv.excluded", _is_prime_power, "prime powers"))

    b_ded = tvsec.get("b_deduction_nums")
    if b_ded is not None:
        ok = isinstance(b_ded, list) and len(b_ded) == 2 and all(map(_is_number, b_ded))
        _expect(ok, "expected [x0_num, x1_num]", "tv.b_deduction_nums")
        b_ded = (float(b_ded[0]), float(b_ded[1]))

    norm_bound = tvsec.get("norm_bound", 1000)
    _expect(_is_int(norm_bound) and norm_bound >= 2, "norm_bound must be >= 2", "tv.norm_bound")

    s_norms = _as_list(data.get("S_norms", []), "S_norms", _is_prime_power, "prime powers")
    ray = data.get("ray_sigma", {})
    _expect(isinstance(ray, dict), "ray_sigma must be an object", "ray_sigma")
    ray_norms = _as_list(ray.get("norms", []), "ray_sigma.norms",
                         lambda q: _is_prime_power(q) and q > 2 and q % p != 0, "prime powers > 2 coprime to p")
    ray_split = bool(ray.get("split_completely", False))

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
        C0=C0,
        x0_num=float(x0_num),
        x1_num=float(x1_num),
        sigma_fixed_pin=sigma_pin,
        eps_caps=eps_caps,
        splitting_overrides=overrides,
        capacity_overrides=cap_overrides,
        excluded=excluded,
        b_deduction_nums=b_ded,
        norm_bound=norm_bound,
        s_norms=s_norms,
        ray_sigma_norms=ray_norms,
        ray_sigma_split=ray_split,
        published_reference=published_reference,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read scenario: {exc}", location=str(path)) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", location=f"{path}:line {exc.lineno}") from exc
    return parse_scenario(data)


def _derived_sigma_fixed(sc: Scenario) -> list[tuple[int, int, str]]:
    """(norm, count, source) fixed entries derived from the T declaration."""
    out = []
    for ell in sorted(sc.t_dec):
        out.append((ell, 2, "T.dec"))
    for ell in sorted(sc.t_inert):
        out.append((ell * ell, 1, "T.inert"))
    return out


def _candidate_for_prime(sc: Scenario, ell: int, cap_num: float, g: float) -> CandidateInfo | None:
    """Cheapest admissible norm for one prime, honoring pins and exclusions."""
    if ell in sc.capacity_overrides:
        norm, weight = sc.capacity_overrides[ell]
        return CandidateInfo(ell, norm, weight / g, weight_num=weight, kind="override", pinned=True)

    pin = sc.splitting_overrides.get(ell)
    places = fields.norms_above(sc.field, ell, None if pin is None else pin == "split")
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


def _primes_from(first: int, limit: int) -> Iterator[int]:
    """Primes up to limit, sieved in doubling segments (1, first], (first, 2 first], ..."""
    lo, hi = 1, first
    while lo < limit:
        yield from sieve_primes(hi) if lo == 1 else primes_between(lo, hi)
        lo, hi = hi, min(2 * hi, limit)


def candidate_stream(sc: Scenario) -> Iterator[CandidateInfo]:
    """Every open prime's candidate in strictly ascending norm, up to
    max(norm_bound, _MAX_NORM_BOUND).

    A candidate whose norm is a higher power of its prime waits in a heap
    until the primes pass its norm.  With a zero cap only capacity overrides
    can carry weight, so only their primes are visited."""
    closed = set(sc.t_dec) | set(sc.t_inert)
    cap_num = sc.x0_num + 2 * sc.x1_num
    g = sc.genus
    limit = max(sc.norm_bound, _MAX_NORM_BOUND)
    overrides = sorted(q for q in sc.capacity_overrides if q <= limit)
    primes = _primes_from(sc.norm_bound, limit) if cap_num > 0 else overrides
    waiting: list[tuple[int, CandidateInfo]] = []
    for ell in primes:
        cand = None if ell in closed else _candidate_for_prime(sc, ell, cap_num, g)
        if cand is not None and cand.norm <= limit:
            heapq.heappush(waiting, (cand.norm, cand))
        while waiting and waiting[0][0] <= ell:
            yield heapq.heappop(waiting)[1]
    while waiting:
        yield heapq.heappop(waiting)[1]


def build_candidates(sc: Scenario, bound: int) -> list[CandidateInfo]:
    """The candidates with norm <= bound: a prefix of `candidate_stream`."""
    return list(takewhile(lambda c: c.norm <= bound, candidate_stream(sc)))


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
    if sc.base_quadratic is not None and field.degree == 4:
        declared_pairs = [(q, "split") for q in sc.t_dec] + [(q, "inert") for q in sc.t_inert]
        for ell, declared in declared_pairs:
            derived = splitting_type(sc.base_quadratic, ell).value
            t_checks.append({"prime": ell, "declared": declared, "derived": derived, "agree": declared == derived})

    # --- infinitude criterion over the real quadratic subfield
    critere_block = None
    if sc.base_quadratic is not None:
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
    if sc.base_quadratic is not None and field.degree == 4:
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
    derived_sigma = _derived_sigma_fixed(sc)
    derived_pairs = [(q, float(num)) for q, num, _src in derived_sigma]
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
    b_ded = None if sc.b_deduction_nums is None else (sc.b_deduction_nums[0] / g, sc.b_deduction_nums[1] / g)
    solution = tv.optimize(problem, candidate_stream(sc), b_deduction=b_ded)

    lstar0 = solution.ell_star_0.norm if solution.ell_star_0 is not None else None
    # the doubling tier of norm_bound that holds the stop norm
    bound = sc.norm_bound
    while lstar0 is not None and bound < lstar0:
        bound = min(bound * 2, _MAX_NORM_BOUND)
    split_below = sum(1 for ci in solution.prefix if ci.kind == "split_full")
    # budget left once everything except the totally split candidates is paid
    # for -- the published computations quote this intermediate
    nonsplit_cost = sum(
        ci.weight * tv.a_coeff(ci.norm)
        for ci in solution.prefix
        if ci.kind != "split_full"
    )
    budget_after_nonsplit = (solution.budget - nonsplit_cost) * g

    # honest-assembly B alongside the (possibly pinned) headline value
    B_derived = tv.assemble_B(solution.sum_b_bound, problem.x0, problem.x1)

    # --- assembled mean-exponent bounds
    a_sigma = tame_local_sum(sc.ray_sigma_norms, sc.p, split_completely=sc.ray_sigma_split)
    log_sqrt_disc_ks = g + 0.5 * sum(math.log(q) for q in sc.s_norms)
    alpha_sig = sc.alpha_signature if sc.alpha_signature is not None else (field.r1, field.r2)

    bounds_block: dict[str, Any] = {}
    if sc.coarse_B is not None and eps_used:
        alpha_c = tv.alpha_constant(sc.coarse_B, log_sqrt_disc_ks, *alpha_sig)
        bounds_block["coarse"] = {
            "B": sc.coarse_B,
            "alpha_constant": alpha_c,
            "bound": tv.mean_exponent_upper(eps_used, sc.p, alpha_c, a_sigma),
        }
    if eps_used:
        alpha_c = tv.alpha_constant(solution.B_upper, log_sqrt_disc_ks, *alpha_sig)
        bounds_block["refined"] = {
            "B": solution.B_upper,
            "alpha_constant": alpha_c,
            "bound": tv.mean_exponent_upper(eps_used, sc.p, alpha_c, a_sigma),
        }
        alpha_cd = tv.alpha_constant(B_derived, log_sqrt_disc_ks, *alpha_sig)
        bounds_block["refined_derived_assembly"] = {
            "B": B_derived,
            "bound": tv.mean_exponent_upper(eps_used, sc.p, alpha_cd, a_sigma),
        }
    if sc.C0 is not None and eps_used:
        t0 = round(eps_used)
        bounds_block["crude_class_number"] = {
            "C0": sc.C0,
            "bound": tv.propmain_upper(sc.C0, max(t0, 1), sc.p, field.log_abs_disc()),
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
            "B_upper": solution.B_upper,
            "B_upper_derived_assembly": B_derived,
            "b_deduction_pinned": sc.b_deduction_nums is not None,
            "degenerate": solution.degenerate,
            "split_primes_below_ell_star_0": split_below,
            "norm_bound_used": bound,
            "prefix": [
                {"norm": ci.norm, "prime": ci.prime, "weight_num": ci.weight_num,
                 "kind": ci.kind, "pinned": ci.pinned}
                for ci in solution.prefix
            ],
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


def dump_report(report: dict, precision: int | None = None) -> str:
    """Deterministic JSON text; identical inputs give identical bytes."""
    if precision is not None:
        report = _round_floats(report, precision)
    return json.dumps(report, sort_keys=True, indent=2)


def _round_floats(obj, precision: int):
    if isinstance(obj, float):
        return round(obj, precision)
    if isinstance(obj, dict):
        return {k: _round_floats(v, precision) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v, precision) for v in obj]
    return obj
