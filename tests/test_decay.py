import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import diffeoflow.decay as decay_module
import diffeoflow.fields as fields_module
from diffeoflow import (
    DecayClass,
    Diffeo,
    DisplacementField,
    FieldError,
    Grid,
    InsufficientAnnuliError,
    class_from_name,
    classify_decay,
    extrapolation_for,
    measured_class,
    sample,
    sobolev_seminorm,
    stable_json_dumps,
    sup_seminorm,
    weighted_seminorm,
    widest,
)
from diffeoflow.battery import (SCHWARTZ_AMPLITUDE, SCHWARTZ_CENTER, SCHWARTZ_WIDTH,
                                gaussian_descriptor, lorentzian_descriptor, tanh_descriptor)
from diffeoflow.decay import DEFAULT_MAX_ORDER, DEFAULT_MAX_WEIGHT
from diffeoflow.fields import multi_indices, multi_indices_up_to

def entry_value(report, kind, alpha, m):
    """The one measured seminorm of ``report["entries"]`` with this kind, index and weight."""
    found = [e["value"] for e in report["entries"]
             if (e["kind"], tuple(e["alpha"]), e["m"]) == (kind, alpha, m)]
    if len(found) != 1:
        raise KeyError((kind, alpha, m))
    return found[0]


NARROW_TO_WIDE = [
    DecayClass.COMPACT_SUPPORT,
    DecayClass.SCHWARTZ,
    DecayClass.SOBOLEV_INFINITY,
    DecayClass.BOUNDED_ALL,
]


class TestClassOrder:
    def test_rank_is_strictly_ordered(self):
        ranks = [c.rank for c in NARROW_TO_WIDE]
        assert ranks == sorted(ranks, reverse=True)

    def test_containment_follows_the_chain(self):
        for i, wide in enumerate(NARROW_TO_WIDE):
            for j, narrow in enumerate(NARROW_TO_WIDE):
                assert wide.contains(narrow) == (j <= i)

    def test_widest_picks_the_weaker_class(self):
        assert widest(DecayClass.SCHWARTZ, DecayClass.BOUNDED_ALL) is DecayClass.BOUNDED_ALL
        assert widest(DecayClass.COMPACT_SUPPORT, DecayClass.SCHWARTZ) is DecayClass.SCHWARTZ
        assert widest(DecayClass.SCHWARTZ, DecayClass.SCHWARTZ) is DecayClass.SCHWARTZ

    def test_extrapolation_rule(self):
        assert extrapolation_for(DecayClass.BOUNDED_ALL) == "clamp"
        for cls in NARROW_TO_WIDE[:3]:
            assert extrapolation_for(cls) == "zero"


class TestClassNames:
    @pytest.mark.parametrize("name,cls", [
        ("Schwartz", DecayClass.SCHWARTZ),
        ("schwartz", DecayClass.SCHWARTZ),
        ("s", DecayClass.SCHWARTZ),
        ("BoundedAll", DecayClass.BOUNDED_ALL),
        ("bounded-all", DecayClass.BOUNDED_ALL),
        ("b", DecayClass.BOUNDED_ALL),
        ("SobolevInfinity", DecayClass.SOBOLEV_INFINITY),
        ("hinf", DecayClass.SOBOLEV_INFINITY),
        ("sobolev_infinity", DecayClass.SOBOLEV_INFINITY),
        ("CompactSupport", DecayClass.COMPACT_SUPPORT),
        ("compact", DecayClass.COMPACT_SUPPORT),
        ("c", DecayClass.COMPACT_SUPPORT),
    ])
    def test_aliases(self, name, cls):
        assert class_from_name(name) is cls

    def test_enum_passes_through(self):
        assert class_from_name(DecayClass.SCHWARTZ) is DecayClass.SCHWARTZ

    def test_unknown_name_rejected(self):
        with pytest.raises(FieldError):
            class_from_name("rapidly-vanishing")


class TestShells:
    def test_radii_for_standard_box(self, fine_grid):
        radii, masks, _ = decay_module._shells(fine_grid)
        assert radii == [1.0, 2.0, 4.0, 8.0]
        assert len(masks) == 4
        nodes = np.abs(np.asarray(fine_grid.nodes())[:, 0]).reshape(fine_grid.shape)
        for k, mask in enumerate(masks):
            assert np.all(nodes[mask] >= 2.0 ** (k - 1) - 1e-12)
            assert np.all(nodes[mask] <= 2.0 ** k + 1e-12)

    def test_small_box_has_too_few_annuli(self):
        with pytest.raises(InsufficientAnnuliError):
            decay_module._shells(Grid(1, 4.0, 129))
        with pytest.raises(InsufficientAnnuliError):
            classify_decay(sample("exp(-x^2)", Grid(1, 4.0, 129)))


class TestClassification:
    # one 1-D descriptor per class
    BATTERY = [
        ("0.5*bump(x/2)", DecayClass.COMPACT_SUPPORT),
        ("exp(-x^2)", DecayClass.SCHWARTZ),
        ("1/(1+x^2)", DecayClass.SOBOLEV_INFINITY),
        ("1", DecayClass.BOUNDED_ALL),
    ]

    def test_reference_battery_spans_the_chain(self):
        # every class once, narrowest first
        assert [cls for _, cls in self.BATTERY] == sorted(DecayClass, key=lambda c: -c.rank)

    def test_reference_battery(self, fine_grid):
        for descriptor, expected in self.BATTERY:
            report = classify_decay(sample(descriptor, fine_grid))
            assert report["inferred_class"] == expected.value, descriptor

    def test_compact_support_radius_and_finiteness(self, fine_grid):
        report = classify_decay(sample("bump(x)", fine_grid))
        assert report["inferred_class"] == DecayClass.COMPACT_SUPPORT.value
        assert report["support_radius"] is not None
        assert report["support_radius"] == 1.0
        for entry in report["entries"]:
            assert np.isfinite(entry["value"])
            assert entry["value"] >= 0.0

    def test_schwartz_exponents_beat_weight_threshold(self, fine_grid):
        report = classify_decay(sample("exp(-x^2)", fine_grid))
        for fit in report["fits"]:
            assert fit["exponent"] >= DEFAULT_MAX_WEIGHT + 1

    def test_constant_keeps_growing_weighted_norms(self, fine_grid):
        report = classify_decay(sample("1", fine_grid))
        assert report["inferred_class"] == DecayClass.BOUNDED_ALL.value
        assert entry_value(report, "weighted", (0,), 1) == 65.0

    def test_vector_field_classification(self):
        field = sample("-0.3*y*exp(-(x^2+y^2)), 0.3*x*exp(-(x^2+y^2))",
                       Grid(2, 8.0, 129))
        report = classify_decay(field)
        assert DecayClass.SCHWARTZ.contains(DecayClass(report["inferred_class"]))

    def test_caps_are_respected(self, fine_grid):
        report = classify_decay(sample("exp(-x^2)", fine_grid))
        assert (report["max_order"], report["max_weight"]) == (DEFAULT_MAX_ORDER,
                                                               DEFAULT_MAX_WEIGHT)
        orders = {sum(entry["alpha"]) for entry in report["entries"]}
        assert max(orders) == DEFAULT_MAX_ORDER
        weights = {entry["m"] for entry in report["entries"] if entry["kind"] == "weighted"}
        assert max(weights) == DEFAULT_MAX_WEIGHT

    def test_support_radius_is_the_smallest_dyadic_radius(self, fine_grid):
        # supported in |x| < 0.5: radius 1 already clears it, so 2 is not the answer
        report = classify_decay(sample("0.5*bump(x/0.5)", fine_grid))
        assert report["inferred_class"] == DecayClass.COMPACT_SUPPORT.value
        assert report["support_radius"] == 1.0
        wider = classify_decay(sample("0.5*bump(x/3)", fine_grid))
        assert wider["support_radius"] == 4.0


C, S, H, B = (DecayClass.COMPACT_SUPPORT, DecayClass.SCHWARTZ,
              DecayClass.SOBOLEV_INFINITY, DecayClass.BOUNDED_ALL)

# (descriptor, dimension, the class both entry points measure today), on
# L = 8 grids of 513 points in 1-D and 65^2 in 2-D. ROADMAP item 3's rows
# (from 0.1*exp(-(x/2)^2) to 0.5*bump(x/6)) and the 1-D off-centre gaussian
# measure the wrong class; they pin today's verdict, which item 3 will move
VERDICTS = [
    ("0", 1, C),
    ("1e-300*exp(-x^2)", 1, S),
    # the support ends on the dyadic radius 1
    ("bump(x)", 1, C),
    ("0.5*bump(x/2)", 1, C),
    ("exp(-x^2)", 1, S),
    ("1/(1+x^2)", 1, H),
    ("1", 1, B),
    ("0.2*tanh(x/1.1)", 1, B),
    # decays at every order, but keeps 0.29 of its sup past |x| = 4: the edge rule alone
    ("0.1*exp(-x^2) + 0.04", 1, B),
    # an H-infinity shape whose L2 norms exceed the cap: the cap alone
    ("3000/(1+x^2)", 1, B),
    # order 0 passes every H-infinity test; its first derivative's exponent is 0.12
    ("exp(-(x/3)^2)", 1, B),
    ("0.1*exp(-(x/2)^2)", 1, H),
    ("0.1/(1+x^2)^3", 1, S),
    ("0.5*bump(x/6)", 1, B),
    ("0.1*exp(-(x+1)^2)", 1, H),
    ("0, 0", 2, C),
    ("1, 1", 2, B),
    ("0.1*bump(x/3, y/3), 0.05*bump((x-1)/2, y/2)", 2, C),
    ("0.1*exp(-x^2-y^2), 0.05*exp(-(x-1)^2-y^2)", 2, S),
    ("0.1/(1+x^2+y^2)^2, 0", 2, H),
    ("0.2*tanh(x/1.1), 0.15*tanh(y)", 2, B),
    ("0.1*exp(-x^2-y^2) + 0.04, 0", 2, B),
    ("3000/(1+x^2+y^2), 0", 2, B),
]

# the battery builders over their drawn ranges (width, center, amplitude)
BUILDERS = [
    (gaussian_descriptor, (SCHWARTZ_WIDTH, SCHWARTZ_CENTER, SCHWARTZ_AMPLITUDE)),
    (tanh_descriptor, ((0.9, 1.4), (-0.8, 0.8), (0.12, 0.22))),
    (partial(lorentzian_descriptor, power=1, damping=2.6), ((0.8, 1.2), (-0.8, 0.8), (0.05, 0.1))),
]


@st.composite
def battery_terms(draw):
    """One battery member's text, its parameters drawn from the builder's ranges."""
    describe, ranges = draw(st.sampled_from(BUILDERS))
    width, center, amplitude = (draw(st.floats(lo, hi)) for lo, hi in ranges)
    return describe(draw(st.sampled_from([1.0, -1.0])) * amplitude, width, center)


class TestMeasuredClass:
    """``measured_class`` is ``classify_decay``'s verdict, settled early."""

    @pytest.mark.parametrize("descriptor, dim, expected", VERDICTS)
    def test_agrees_with_the_report(self, descriptor, dim, expected):
        grid = Grid(dim, 8.0, {1: 513, 2: 65}[dim])
        assert classify_decay(sample(descriptor, grid))["inferred_class"] == expected.value
        # a fresh field: the report's derivatives are not cached for the verdict
        assert measured_class(sample(descriptor, grid)) is expected

    def test_table_holds_every_class_in_both_dimensions(self):
        for dim in (1, 2):
            assert {cls for _, d, cls in VERDICTS if d == dim} == set(DecayClass)

    @given(terms=st.lists(battery_terms(), min_size=1, max_size=3))
    def test_agrees_on_battery_members_and_their_sums(self, terms):
        descriptor = " + ".join(terms)
        grid = Grid(1, 8.0, 257)
        assert (measured_class(sample(descriptor, grid)).value
                == classify_decay(sample(descriptor, grid))["inferred_class"])

    def test_schwartz_verdict_builds_no_weight(self, fine_grid, monkeypatch):
        built = []
        weight = fields_module.weight_factor
        monkeypatch.setattr(fields_module, "weight_factor",
                            lambda g, m: built.append(m) or weight(g, m))
        assert measured_class(sample("exp(-x^2)", fine_grid)) is DecayClass.SCHWARTZ
        assert built == []

    def test_bounded_verdict_takes_no_norm(self, plane_grid, monkeypatch):
        # both tests fail at order 0: no derivative and no L2 norm is taken
        measured = []
        magnitude = fields_module._alpha_magnitude
        monkeypatch.setattr(fields_module, "_alpha_magnitude",
                            lambda f, d: measured.append(d) or magnitude(f, d))
        field = sample("0.2*tanh(x/1.1), 0.15*tanh(y)", plane_grid)
        assert measured_class(field) is DecayClass.BOUNDED_ALL
        assert measured == [] and field._derivatives == {}


WORKING_SET_CASES = [
    ("0.1*exp(-x^2)", Grid(1, 8.0, 257)),
    ("0.1*exp(-x^2-y^2), 0.05*exp(-(x-1)^2-y^2)", Grid(2, 8.0, 65)),
    ("0.2*tanh(x/1.1), 0.15*tanh(y)", Grid(2, 8.0, 65)),
    ("0.1*exp(-x^2-y^2-z^2), 0.05*exp(-(x-1)^2-y^2-z^2), 0", Grid(3, 8.0, 17)),
]


class TestClassifyWorkingSet:
    """Classification streams derivatives of order >= 2: the field keeps its Jacobian only."""

    @pytest.mark.parametrize("descriptor, grid", WORKING_SET_CASES)
    def test_field_keeps_first_derivatives_only(self, descriptor, grid):
        field = sample(descriptor, grid)
        classify_decay(field)
        assert set(field._derivatives) == set(multi_indices(grid.dim, 1))

    @pytest.mark.parametrize("descriptor, grid", WORKING_SET_CASES)
    def test_inferred_member_keeps_first_derivatives_only(self, descriptor, grid):
        # a BoundedAll verdict reads no derivative, and the clamp copy derives its Jacobian
        member = Diffeo(DisplacementField.from_descriptor(grid, descriptor), None)
        assert set(member.displacement._derivatives) == set(multi_indices(grid.dim, 1))

    def test_traced_peak_of_a_3d_classification(self):
        # 5.6 MB traced when order >= 2 streams; 9.8 MB when each stayed cached
        grid = Grid(3, 8.0, 33)
        field = sample("0.1*exp(-x^2-y^2-z^2), 0.05*exp(-(x-1)^2-y^2-z^2), 0", grid)
        grid.nodes()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            classify_decay(field)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 7.5 * 2 ** 20


class TestReport:
    def test_value_lookup(self, fine_grid):
        report = classify_decay(sample("exp(-x^2)", fine_grid))
        assert entry_value(report, "sup", (0,), 0) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(KeyError):
            entry_value(report, "sup", (5,), 0)

    def test_report_is_serializable(self, fine_grid):
        report = classify_decay(sample("exp(-x^2)", fine_grid))
        assert type(report) is dict
        assert list(report) == ["inferred_class", "max_order", "max_weight", "entries",
                                "decay_rates", "radii", "fits", "edge_ratio",
                                "support_radius", "notes"]
        text = stable_json_dumps(report)
        assert '"inferred_class": "Schwartz"' in text
        assert list(report["fits"][0]) == ["alpha", "radii", "shell_sups", "exponent"]
        assert list(report["decay_rates"]) == ["0", "1", "2"]
        assert report["radii"] == [1.0, 2.0, 4.0, 8.0]
        assert isinstance(report["notes"], list)

    @pytest.mark.parametrize("descriptor, grid", [
        ("exp(-x^2)", Grid(1, 8.0, 257)),
        ("0.2*tanh(x), 0.1*exp(-x^2-y^2)", Grid(2, 8.0, 65)),
    ])
    def test_entries_measure_each_magnitude_once(self, descriptor, grid, monkeypatch):
        field = sample(descriptor, grid)
        counts = {"magnitude": 0, "weight": 0}
        magnitude, weight = fields_module._alpha_magnitude, fields_module.weight_factor

        def counting_magnitude(f, derivative):
            counts["magnitude"] += 1
            return magnitude(f, derivative)

        def counting_weight(g, m):
            counts["weight"] += 1
            return weight(g, m)

        monkeypatch.setattr(fields_module, "_alpha_magnitude", counting_magnitude)
        monkeypatch.setattr(fields_module, "weight_factor", counting_weight)
        report = classify_decay(field)
        alphas = multi_indices_up_to(grid.dim, DEFAULT_MAX_ORDER)
        assert counts == {"magnitude": len(alphas), "weight": DEFAULT_MAX_WEIGHT}
        monkeypatch.undo()
        # same order and the same bits as the single seminorm functions
        want = [("sup", a, 0, sup_seminorm(field, a)) for a in alphas]
        want += [("weighted", a, m, weighted_seminorm(field, a, m))
                 for a in alphas for m in range(1, DEFAULT_MAX_WEIGHT + 1)]
        want += [("sobolev", a, 0, sobolev_seminorm(field, a)) for a in alphas]
        got = [(e["kind"], tuple(e["alpha"]), e["m"], e["value"]) for e in report["entries"]]
        assert got == want
