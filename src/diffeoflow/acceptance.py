"""Self-contained verification suite behind ``diffeoflow --command verify``.

Each criterion function measures one shipped guarantee against an oracle that
does not share code with the implementation under test: truncated power
series are manipulated as plain coefficient lists, matrix norms come from
the SVD and reference trajectories from a locally written dense-step RK4.
Every function returns a :class:`CriterionResult` whose ``data`` is
JSON-ready, so reports built from them are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from itertools import combinations_with_replacement, permutations

import numpy as np

from .battery import (DEFAULT_SEED, bounded_outer_diffeos, flow_battery,
                      schwartz_diffeos, schwartz_flow_case,
                      sobolev_flow_case, sobolev_inner_diffeos)
from .decay import DecayClass, measured_class
from .descriptors import parse_vector
from .fields import Grid, multi_indices_up_to, point_derivatives, seminorm_table
from .flows import (displacement_sup_bound, edge_decay, evolve, gronwall_bound,
                    right_log_derivative)
from .group import compose, invert
from .jets import Jet, compose_jets, inverse_norm_bound, invert_jet

REFERENCE_GRID = (8.0, 513)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    data: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        # a verdict compared on numpy floats is a numpy bool, which `is False` misses
        self.passed = bool(self.passed)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "data": self.data,
        }


# --------------------------------------------------------------------------
# oracles: truncated power series as coefficient lists, dense-step RK4


def series_multiply(a, b, order: int) -> list:
    """Cauchy product of coefficient lists, truncated at ``order``."""
    out = [0.0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def series_compose(outer, inner, order: int) -> list:
    """Coefficients of outer(inner(x)) truncated at ``order``; inner(0)=0."""
    if abs(inner[0]) > 0.0:
        raise ValueError("series composition needs inner constant term 0")
    out = [0.0] * (order + 1)
    out[0] = outer[0]
    power = [0.0] * (order + 1)
    power[0] = 1.0
    for k in range(1, min(len(outer), order + 1)):
        power = series_multiply(power, inner, order)
        ck = outer[k]
        if ck == 0.0:
            continue
        for j in range(order + 1):
            out[j] += ck * power[j]
    return out


def series_revert(a, order: int) -> list:
    """Compositional inverse of ``a`` with a[0]=0, a[1] != 0, term by term."""
    if abs(a[0]) > 0.0 or a[1] == 0.0:
        raise ValueError("series reversion needs a(0)=0 and a'(0) != 0")
    b = [0.0] * (order + 1)
    b[1] = 1.0 / a[1]
    for k in range(2, order + 1):
        # with b_k temporarily 0, the x^k coefficient of a(b(x)) collects
        # every contribution except the linear one a_1 * b_k
        partial = series_compose(a, b, k)[k]
        b[k] = -partial / a[1]
    return b


def exp_series(order: int) -> list:
    return [1.0 / math.factorial(k) for k in range(order + 1)]


def sin_series(order: int) -> list:
    out = []
    for k in range(order + 1):
        if k % 2 == 0:
            out.append(0.0)
        else:
            out.append((-1.0) ** ((k - 1) // 2) / math.factorial(k))
    return out


def rk4_reference(velocity, nodes: np.ndarray, t_final: float,
                  steps: int) -> np.ndarray:
    """Plain fixed-step RK4 on a point cloud, independent of the engine."""
    y = np.array(nodes, dtype=np.float64)
    h = t_final / steps
    t = 0.0
    for _ in range(steps):
        k1 = velocity(t, y)
        k2 = velocity(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = velocity(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = velocity(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def _descriptor_jet(descriptor: str, point, order: int) -> Jet:
    """Exact jet of Id + descriptor displacement via repeated symbolic diff.

    ``d^alpha`` is one ``diff`` of the cached ``d^(alpha - e_j)``, ``j`` its
    last nonzero axis: the from-scratch ``diff`` sequence, so the same floats.
    """
    exprs = parse_vector(descriptor)
    dim = len(exprs)
    point = np.asarray(point, dtype=np.float64).reshape(dim)
    names = ("x", "y", "z")[:dim]
    env = dict(zip(names, point))
    cache = {(i, (0,) * dim): expr for i, expr in enumerate(exprs)}

    def expression(i: int, alpha: tuple):
        if (i, alpha) not in cache:
            axis = max(j for j, a in enumerate(alpha) if a)
            lower = alpha[:axis] + (alpha[axis] - 1,) + alpha[axis + 1:]
            cache[i, alpha] = expression(i, lower).diff(names[axis])
        return cache[i, alpha]

    terms = [point + np.array([float(expr.evaluate(env)) for expr in exprs])]
    for p in range(1, order + 1):
        dense = np.zeros((dim,) + (dim,) * p)
        fact = math.factorial(p)
        for combo in combinations_with_replacement(range(dim), p):
            alpha = tuple(combo.count(axis) for axis in range(dim))
            for i in range(dim):
                value = float(expression(i, alpha).evaluate(env)) / fact
                if p == 1 and i == combo[0]:
                    value += 1.0 / fact
                for perm_slot in set(permutations(combo)):
                    dense[(i,) + perm_slot] = value
        terms.append(dense)
    return Jet(point, terms)


def _jet_1d(base: float, coeffs) -> Jet:
    """1-D jet with prescribed normalized coefficients d^k F / k!."""
    terms = [np.asarray(c, dtype=np.float64).reshape((1,) + (1,) * k)
             for k, c in enumerate(coeffs)]
    return Jet([base], terms)


# --------------------------------------------------------------------------
# criteria


def criterion_group_axioms(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Associativity and two-sided inversion on the seeded Schwartz battery."""
    grid = Grid(1, *REFERENCE_GRID)
    members = schwartz_diffeos(grid, 20, seed)
    assoc = 0.0
    for i in range(len(members)):
        a, b, c = (members[i], members[(i + 1) % 20], members[(i + 2) % 20])
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assoc = max(assoc, float(np.max(np.abs(
            left.displacement.values - right.displacement.values))))
    inversion = 0.0
    for member in members:
        inverse = invert(member)
        for ordered in ((inverse, member), (member, inverse)):
            residual = compose(*ordered)
            inversion = max(inversion, float(np.max(np.abs(
                residual.displacement.values))))
    passed = assoc <= 1.0e-6 and inversion <= 1.0e-7
    return CriterionResult(
        1, "group axioms on the Schwartz battery", passed,
        f"associativity defect {assoc:.3e} (<= 1e-6), "
        f"inversion residual {inversion:.3e} (<= 1e-7)",
        {"associativity_defect": assoc, "inversion_residual": inversion,
         "members": len(members)})


def _fd_jet_gap(outer_desc: str, inner_desc: str, grid: Grid, point,
                order: int) -> float:
    """Worst relative gap between composed-jet terms and FD derivatives."""
    outer_exprs = parse_vector(outer_desc)
    inner_exprs = parse_vector(inner_desc)
    dim = grid.dim
    names = ("x", "y", "z")[:dim]

    def composed(pts):
        env = {n: pts[:, k] for k, n in enumerate(names)}
        inner_disp = np.stack([e.evaluate(env) for e in inner_exprs])
        image = pts + inner_disp.T
        env2 = {n: image[:, k] for k, n in enumerate(names)}
        outer_disp = np.stack([e.evaluate(env2) for e in outer_exprs])
        return (inner_disp + outer_disp).T

    inner_jet = _descriptor_jet(inner_desc, point, order)
    outer_jet = _descriptor_jet(outer_desc, inner_jet.value, order)
    jet = compose_jets(outer_jet, inner_jet)
    alphas = multi_indices_up_to(dim, order)[1:]
    # stencil derivatives of the sampled composite, read on the nodes they need
    fds = point_derivatives(grid, composed, alphas, point)

    worst = 0.0
    for alpha, fd in zip(alphas, fds):
        combo = tuple(axis for axis, count in enumerate(alpha) for _ in range(count))
        p = len(combo)
        fact = math.factorial(p)
        dense = jet.dense_term(p)
        scale = max(float(np.max(np.abs(dense))) * fact, 1.0e-9)
        for i in range(dim):
            # the sampled field is the composed displacement, so its
            # Jacobian misses the identity the jet term carries
            exact = dense[(i,) + combo] * fact
            if p == 1 and i == combo[0]:
                exact -= 1.0
            worst = max(worst, abs(fd[i] - exact) / scale)
    return worst


def criterion_faa_di_bruno() -> CriterionResult:
    """Composed jets against finite differences and the series oracle."""
    gap_1d = _fd_jet_gap(
        "0.2*exp(-((x-0.3)/1.1)^2)", "0.15*exp(-((x+0.4)/1.2)^2)",
        Grid(1, 8.0, 1025), [0.25], 4)
    gap_2d = _fd_jet_gap(
        "0.12*exp(-((x-0.2)^2+y^2)/1.4), -0.1*exp(-(x^2+(y+0.3)^2)/1.6)",
        "0.1*exp(-((x+0.3)^2+(y-0.2)^2)/1.5), 0.08*exp(-(x^2+y^2)/1.3)",
        Grid(2, 4.0, 513), [0.2, -0.4], 4)

    sin_jet = _jet_1d(0.0, [[0.0]] + [[c] for c in sin_series(5)[1:]])
    exp_jet = _jet_1d(0.0, [[c] for c in exp_series(5)])
    composed = compose_jets(exp_jet, sin_jet)
    oracle = series_compose(exp_series(5), sin_series(5), 5)
    series_gap = max(abs(float(composed.dense_term(k).reshape(-1)[0]) - oracle[k])
                     for k in range(6))

    passed = gap_1d <= 1.0e-4 and gap_2d <= 1.0e-4 and series_gap <= 1.0e-12
    return CriterionResult(
        2, "Faa di Bruno against finite differences and series arithmetic",
        passed,
        f"FD relative gap {gap_1d:.3e} (1-D) / {gap_2d:.3e} (2-D) (<= 1e-4), "
        f"exp(sin x) coefficient gap {series_gap:.3e} (<= 1e-12)",
        {"fd_gap_1d": gap_1d, "fd_gap_2d": gap_2d, "series_gap": series_gap})


def criterion_jet_inversion() -> CriterionResult:
    """Jet reversion against series reversion, plus two-sided identity."""
    coeffs = [0.0, 1.0, 0.3, 0.1, -0.05]
    jet = _jet_1d(0.0, [[c] for c in coeffs])
    inverse = invert_jet(jet)
    oracle = series_revert(coeffs, 4)
    revert_gap = max(abs(float(inverse.dense_term(k).reshape(-1)[0]) - oracle[k])
                     for k in range(1, 5))

    identity_gap = 0.0
    cases = [(jet, inverse)]
    plane = _descriptor_jet(
        "0.2*exp(-(x^2+y^2)/2), -0.15*exp(-((x-0.4)^2+y^2)/2)",
        [0.3, -0.2], 4)
    cases.append((plane, invert_jet(plane)))
    for direct, inv in cases:
        for left, right in ((inv, direct), (direct, inv)):
            around = compose_jets(left, right)
            target = Jet.identity(direct.dim, direct.order,
                                  around.base_point)
            for k in range(around.order + 1):
                gap = float(np.max(np.abs(
                    around.dense_term(k) - target.dense_term(k))))
                identity_gap = max(identity_gap, gap)

    passed = revert_gap <= 1.0e-10 and identity_gap <= 1.0e-10
    return CriterionResult(
        3, "jet inversion against series reversion", passed,
        f"reversion gap {revert_gap:.3e}, two-sided identity gap "
        f"{identity_gap:.3e} (both <= 1e-10)",
        {"reversion_gap": revert_gap, "identity_gap": identity_gap})


def _draw_invertible(rng, n: int) -> np.ndarray:
    """1000 uniform ``n x n`` matrices on [-2, 2] with ``|det| >= 0.1``.

    Candidates come in blocks of the number still missing, so a block never
    draws past the candidate a one-at-a-time rejection loop would stop at:
    the stack and the generator's next state are that loop's.
    """
    drawn, have = [], 0
    while have < 1000:
        block = rng.uniform(-2.0, 2.0, size=(1000 - have, n, n))
        block = block[np.abs(np.linalg.det(block)) >= 0.1]
        drawn.append(block)
        have += len(block)
    return np.concatenate(drawn)


def criterion_inverse_norm_inequality(seed: int = DEFAULT_SEED) -> CriterionResult:
    """The operator-norm bound on seeded matrices plus its equality case."""
    rng = np.random.default_rng(seed)
    checked = 0
    worst_slack = np.inf
    for n in (2, 3):
        stack = _draw_invertible(rng, n)
        bound = inverse_norm_bound(stack)
        direct = np.linalg.norm(np.linalg.inv(stack), 2, axis=(1, 2))
        # a NaN norm is a violation too
        violated = ~(direct <= bound + 1.0e-12)
        if np.any(violated):
            i = int(np.argmax(violated))
            return CriterionResult(
                4, "inverse operator norm inequality", False,
                f"violation at a {n}x{n} matrix: |A^-1|={direct[i]:.6e} "
                f"> bound {bound[i]:.6e}", {"matrix": stack[i].tolist()})
        checked += len(stack)
        worst_slack = min(worst_slack, float(np.min(bound - direct)))
    eq_direct = float(np.linalg.norm(np.linalg.inv(np.diag([2.0, 1.0])), 2))
    eq_gap = abs(inverse_norm_bound(np.diag([2.0, 1.0])) - eq_direct)
    passed = eq_gap <= 1.0e-12
    return CriterionResult(
        4, "inverse operator norm inequality", passed,
        f"{checked} matrices hold (min slack {worst_slack:.3e}); "
        f"equality gap on diag(2,1) {eq_gap:.3e} (<= 1e-12)",
        {"matrices": checked, "min_slack": worst_slack,
         "equality_gap": eq_gap})


def criterion_flow_correctness() -> CriterionResult:
    """RK4 convergence order and the two-interval flow property."""
    case = schwartz_flow_case()
    grid = Grid(1, *REFERENCE_GRID)
    nodes = grid.nodes()
    reference = rk4_reference(case.field, nodes, 1.0, 1024)
    errors = []
    dts = [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0]
    for dt in dts:
        result = evolve(case.field, 1.0, dt, grid)
        final = nodes + result.displacements[-1]
        errors.append(float(np.max(np.abs(final - reference))))
    orders = [float(np.log2(errors[k] / errors[k + 1]))
              for k in range(len(errors) - 1)]

    first = evolve(case.field, 0.5, 1.0 / 32.0, grid).to_diffeo()
    second = evolve(case.field.time_shifted(0.5), 0.5, 1.0 / 32.0, grid).to_diffeo()
    direct = result.to_diffeo()  # the loop's last flow: dt = 1/32 up to t = 1
    chained = compose(second, first)
    defect = float(np.max(np.abs(
        chained.displacement.values - direct.displacement.values)))

    passed = min(orders) >= 3.8 and defect <= 2.0e-7
    return CriterionResult(
        5, "RK4 order and flow composition property", passed,
        f"measured orders {', '.join(f'{o:.2f}' for o in orders)} (>= 3.8), "
        f"flow property defect {defect:.3e} (<= 2e-7)",
        {"errors": errors, "orders": orders, "flow_defect": defect})


def criterion_inequality_verification() -> CriterionResult:
    """Sup bound and Gronwall bound at every snapshot of every shipped flow."""
    violations = 0
    snapshots = 0
    details = []
    for case in flow_battery():
        result = evolve(case.field, case.t_final, case.dt, case.grid)
        _, _, sup_holds = displacement_sup_bound(result)
        _, _, gronwall_holds = gronwall_bound(result)
        snapshots += len(result.times)
        if not (sup_holds and gronwall_holds):
            violations += 1
            details.append(case.name)
    passed = violations == 0
    return CriterionResult(
        6, "displacement and Gronwall bounds on the shipped battery", passed,
        f"{snapshots} snapshots across {len(flow_battery())} flows, "
        f"{violations} violations" + (f" ({', '.join(details)})" if details else ""),
        {"snapshots": snapshots, "violations": violations,
         "failing_cases": details})


def criterion_class_preservation() -> CriterionResult:
    """Schwartz and H-infinity inputs keep their class along the flow."""
    case = schwartz_flow_case()
    small = case.grid
    big = Grid(1, 2.0 * small.half_width, 2 * small.points_per_axis - 1)
    result = evolve(case.field, case.t_final, case.dt, small)
    doubled = evolve(case.field, case.t_final, case.dt, big)

    alphas = [(order,) for order in range(3)]
    misclassified = 0
    weighted_gap = 0.0
    weighted_max = 0.0
    for k, t in enumerate(result.times):
        snap, snap2 = result.snapshot(k), doubled.snapshot(k)
        # the t=0 snapshot is identically zero, which honestly measures
        # CompactSupport; the evolved snapshots must measure Schwartz
        if t > 0.0 and measured_class(snap) is not DecayClass.SCHWARTZ:
            misclassified += 1
        sups1, weighted1, _ = seminorm_table(snap, alphas, 4)
        sups2, weighted2, _ = seminorm_table(snap2, alphas, 4)
        for j in range(len(alphas)):
            # sup (1 + |x|^2)^m |d^j g| for m = 0 .. 4
            for w1, w2 in zip([sups1[j]] + weighted1[j], [sups2[j]] + weighted2[j]):
                weighted_max = max(weighted_max, w1)
                weighted_gap = max(weighted_gap, abs(w1 - w2))
    schwartz_ok = (misclassified == 0 and np.isfinite(weighted_max)
                   and weighted_gap <= 1.0e-6)

    hcase = sobolev_flow_case()
    hresult = evolve(hcase.field, hcase.t_final, hcase.dt, hcase.grid)
    edge_holds = edge_decay(hresult.final_displacement, hresult.decay_class)["holds"]
    h_contained = all(
        DecayClass.SOBOLEV_INFINITY.contains(measured_class(hresult.snapshot(k)))
        for k in range(len(hresult.times)))
    h_ok = edge_holds and h_contained

    passed = schwartz_ok and h_ok
    return CriterionResult(
        7, "decay class preserved along the flow", passed,
        f"Schwartz: {len(result.times)} snapshots, {misclassified} "
        f"misclassified, weighted m<=4 gap {weighted_gap:.3e} (<= 1e-6); "
        f"H-infinity: tracking holds={edge_holds}, "
        f"class contained={h_contained}",
        {"schwartz_misclassified": misclassified,
         "weighted_gap": weighted_gap,
         "sobolev_holds": edge_holds})


def criterion_normality(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Conjugation by wide-class outers preserves the narrow classes."""
    grid = Grid(1, *REFERENCE_GRID)
    outers = bounded_outer_diffeos(grid, 5, seed + 1)
    inverses = [invert(outer) for outer in outers]
    legs = []
    for name, inners, target in (
            ("Schwartz", schwartz_diffeos(grid, 10, seed + 11),
             DecayClass.SCHWARTZ),
            ("SobolevInfinity", sobolev_inner_diffeos(grid, 10, seed + 12),
             DecayClass.SOBOLEV_INFINITY)):
        failures = 0
        for outer, outer_inv in zip(outers, inverses):
            for inner in inners:
                conj = compose(outer_inv, compose(inner, outer))
                measured = measured_class(conj.displacement)
                if not target.contains(measured):
                    failures += 1
        legs.append((name, failures, len(outers) * len(inners)))
    passed = all(f == 0 for _, f, _ in legs)
    return CriterionResult(
        8, "normality: conjugation preserves the decay class", passed,
        "; ".join(f"{name}: {total - fails}/{total} conjugations in class"
                  for name, fails, total in legs),
        {name: {"failures": fails, "total": total}
         for name, fails, total in legs})


def criterion_right_log_derivative() -> CriterionResult:
    """The reconstructed right logarithmic derivative converges to X."""
    case = schwartz_flow_case()
    errors = []
    settings = [(1.0 / 8.0, 129), (1.0 / 16.0, 257), (1.0 / 32.0, 513)]
    for dt, points in settings:
        grid = Grid(1, 8.0, points)
        result = evolve(case.field, case.t_final, dt, grid)
        worst = 0.0
        for t, derived in right_log_derivative(result):
            exact = case.field.at_time(grid, t).values
            worst = max(worst, float(np.max(np.abs(derived.values - exact))))
        errors.append(worst)
    orders = [float(np.log2(errors[k] / errors[k + 1]))
              for k in range(len(errors) - 1)]
    passed = min(orders) >= 3.5
    return CriterionResult(
        9, "right logarithmic derivative recovers X", passed,
        f"errors {', '.join(f'{e:.3e}' for e in errors)}, orders "
        f"{', '.join(f'{o:.2f}' for o in orders)} (>= 3.5)",
        {"errors": errors, "orders": orders})


def run_core(seed: int = DEFAULT_SEED) -> list:
    """Criteria 1-9, the suite ``diffeoflow --command verify`` reports."""
    return [
        criterion_group_axioms(seed),
        criterion_faa_di_bruno(),
        criterion_jet_inversion(),
        criterion_inverse_norm_inequality(seed),
        criterion_flow_correctness(),
        criterion_inequality_verification(),
        criterion_class_preservation(),
        criterion_normality(seed),
        criterion_right_log_derivative(),
    ]

