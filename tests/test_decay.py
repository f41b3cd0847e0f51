import tracemalloc

import numpy as np
import pytest

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
    dyadic_shells,
    extrapolation_for,
    sample,
    sobolev_seminorm,
    stable_json_dumps,
    sup_seminorm,
    weighted_seminorm,
    widest,
)
from diffeoflow.battery import classification_battery
from diffeoflow.decay import DEFAULT_MAX_ORDER, DEFAULT_MAX_WEIGHT
from diffeoflow.fields import multi_indices, multi_indices_up_to

def entry_value(report, kind, alpha, m):
    """The one measured seminorm of ``report.entries`` with this kind, index and weight."""
    found = [e["value"] for e in report.entries
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
        radii, masks = dyadic_shells(fine_grid)
        assert radii == [1.0, 2.0, 4.0, 8.0]
        assert len(masks) == 4
        nodes = np.abs(np.asarray(fine_grid.nodes())[:, 0]).reshape(fine_grid.shape)
        for k, mask in enumerate(masks):
            assert np.all(nodes[mask] >= 2.0 ** (k - 1) - 1e-12)
            assert np.all(nodes[mask] <= 2.0 ** k + 1e-12)

    def test_small_box_has_too_few_annuli(self):
        with pytest.raises(InsufficientAnnuliError):
            dyadic_shells(Grid(1, 4.0, 129))
        with pytest.raises(InsufficientAnnuliError):
            classify_decay(sample("exp(-x^2)", Grid(1, 4.0, 129)))


class TestClassification:
    def test_reference_battery(self, fine_grid):
        # bump -> CompactSupport, gaussian -> Schwartz,
        # 1/(1+x^2) -> SobolevInfinity, constant -> BoundedAll
        for descriptor, expected in classification_battery():
            extrap = extrapolation_for(expected)
            field = sample(descriptor, fine_grid, extrapolation=extrap)
            report = classify_decay(field)
            assert report.inferred_class is expected, descriptor

    def test_compact_support_radius_and_finiteness(self, fine_grid):
        report = classify_decay(sample("bump(x)", fine_grid))
        assert report.inferred_class is DecayClass.COMPACT_SUPPORT
        assert report.support_radius is not None
        assert report.support_radius == 1.0
        for entry in report.entries:
            assert np.isfinite(entry["value"])
            assert entry["value"] >= 0.0

    def test_schwartz_exponents_beat_weight_threshold(self, fine_grid):
        report = classify_decay(sample("exp(-x^2)", fine_grid))
        for fit in report.fits:
            assert fit.exponent >= DEFAULT_MAX_WEIGHT + 1

    def test_constant_keeps_growing_weighted_norms(self, fine_grid):
        field = sample("1", fine_grid, extrapolation="clamp")
        report = classify_decay(field)
        assert report.inferred_class is DecayClass.BOUNDED_ALL
        assert entry_value(report, "weighted", (0,), 1) == 65.0

    def test_vector_field_classification(self):
        field = sample("-0.3*y*exp(-(x^2+y^2)), 0.3*x*exp(-(x^2+y^2))",
                       Grid(2, 8.0, 129))
        report = classify_decay(field)
        assert DecayClass.SCHWARTZ.contains(report.inferred_class)

    def test_caps_are_respected(self, fine_grid):
        report = classify_decay(sample("exp(-x^2)", fine_grid))
        data = report.to_dict()
        assert (data["max_order"], data["max_weight"]) == (DEFAULT_MAX_ORDER, DEFAULT_MAX_WEIGHT)
        orders = {sum(entry["alpha"]) for entry in report.entries}
        assert max(orders) == DEFAULT_MAX_ORDER
        weights = {entry["m"] for entry in report.entries if entry["kind"] == "weighted"}
        assert max(weights) == DEFAULT_MAX_WEIGHT

    def test_support_radius_is_the_smallest_dyadic_radius(self, fine_grid):
        # supported in |x| < 0.5: radius 1 already clears it, so 2 is not the answer
        report = classify_decay(sample("0.5*bump(x/0.5)", fine_grid))
        assert report.inferred_class is DecayClass.COMPACT_SUPPORT
        assert report.support_radius == 1.0
        wider = classify_decay(sample("0.5*bump(x/3)", fine_grid))
        assert wider.support_radius == 4.0


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
        field = DisplacementField.from_descriptor(grid, descriptor)
        member = Diffeo(field, None)
        firsts = set(multi_indices(grid.dim, 1))
        assert set(field._derivatives) == firsts
        assert set(member.displacement._derivatives) == firsts

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

    def test_to_dict_is_serializable(self, fine_grid):
        report = classify_decay(sample("exp(-x^2)", fine_grid))
        data = report.to_dict()
        text = stable_json_dumps(data)
        assert '"inferred_class": "Schwartz"' in text
        assert isinstance(data["fits"], list)
        assert data["radii"] == [1.0, 2.0, 4.0, 8.0]
        assert isinstance(data["notes"], list)

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
        got = [(e["kind"], e["alpha"], e["m"], e["value"]) for e in report.entries]
        assert got == want
