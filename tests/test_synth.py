"""Synthetic corpus sampling and the exact accuracy ceiling."""

from __future__ import annotations

import json

import numpy as np
import pytest

from certsift.errors import EmptyClass, SpecIncomplete, SubsetTooLarge
from certsift.features import BOOLEAN_FEATURES, FeatureVector
from certsift.synth import (
    SHIPPED_SPEC_NAMES,
    MarginalSpec,
    bayes_optimal_accuracy,
    bayes_rule,
    boolean_only_variant,
    fit_marginals,
    load_spec,
    sample_class,
    sample_corpus,
    spec_from_json,
    spec_to_json,
)

BOOLEAN_SUBSET = ["f1", "f2", "f3", "f4", "f6", "f7", "f8"]


def tiny_spec(label: str, p: float = 0.5) -> MarginalSpec:
    return MarginalSpec(
        label=label,
        booleans={name: p for name in BOOLEAN_FEATURES},
        categoricals={
            "f9": (("CA A", 0.5), ("CA B", 0.5)),
            "f10": (("Org", 1.0),),
            "f11": (("US", 1.0),),
            "f12": (("US", 0.8), ("DE", 0.2)),
        },
        numerics={
            "f13": ((365.0, 0.5), (730.0, 0.5)),
            "f14": ((5.0, 1.0),),
            "f15": ((0.0, 0.4), (0.5, 0.3), (1.0, 0.3)),
        },
    )


class TestSpecValidation:
    def test_label_checked(self):
        with pytest.raises(ValueError):
            tiny_spec("fraud")

    def test_unknown_feature_rejected(self):
        with pytest.raises(SpecIncomplete):
            MarginalSpec("pos", {"f99": 0.5}, {}, {})
        with pytest.raises(SpecIncomplete):
            MarginalSpec("pos", {}, {"f1": (("x", 1.0),)}, {})

    def test_probability_range(self):
        with pytest.raises(SpecIncomplete):
            MarginalSpec("pos", {"f1": 1.5}, {}, {})

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(SpecIncomplete):
            MarginalSpec("pos", {}, {"f9": (("a", 0.5), ("b", 0.4))}, {})

    def test_repeated_value_rejected(self):
        with pytest.raises(SpecIncomplete):
            MarginalSpec("pos", {}, {"f9": (("a", 0.5), ("a", 0.5))}, {})

    def test_require_complete(self):
        spec = MarginalSpec("pos", {"f1": 0.5}, {}, {})
        with pytest.raises(SpecIncomplete):
            spec.require_complete()
        tiny_spec("pos").require_complete()

    def test_json_round_trip(self):
        spec = tiny_spec("neg", 0.25)
        back = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
        assert back == spec

    def test_spec_from_bad_document(self):
        with pytest.raises(SpecIncomplete):
            spec_from_json({"booleans": {"f1": 0.5}})  # missing label

    @pytest.mark.parametrize("section", ["booleans", "categoricals", "numerics"])
    def test_sections_must_be_json_objects(self, section):
        with pytest.raises(SpecIncomplete):
            spec_from_json({"label": "pos", section: []})

    @pytest.mark.parametrize(
        "name,value",
        [("f15", 2.0), ("f15", -0.5), ("f15", float("nan")), ("f13", float("nan")),
         ("f13", 365.7), ("f14", float("inf")), ("f14", 0.5)],
    )
    def test_numeric_support_must_be_a_value_of_its_feature(self, name, value):
        doc = spec_to_json(tiny_spec("pos"))
        doc["numerics"][name] = [[value, 1.0]]
        with pytest.raises(SpecIncomplete):
            spec_from_json(doc)
        with pytest.raises(SpecIncomplete):
            MarginalSpec("pos", {}, {}, {name: ((value, 1.0),)})

    @pytest.mark.parametrize(
        "section,name,entry",
        [("categoricals", "f11", {"U1": 0.3}), ("categoricals", "f11", ["U1"]),
         ("numerics", "f14", ["51"]), ("numerics", "f14", {"51": 1.0})],
    )
    def test_entry_must_be_a_list_of_pairs(self, section, name, entry):
        # each two-character key or string would unpack as a value and a probability
        doc = spec_to_json(load_spec("phishing"))
        doc[section][name] = entry
        with pytest.raises(SpecIncomplete):
            spec_from_json(doc)

    def test_numeric_support_edges_accepted(self):
        MarginalSpec("pos", {}, {}, {"f13": ((-3.0, 0.5), (1e6, 0.5)), "f15": ((0.0, 0.5), (1.0, 0.5))})


class TestShippedSpecs:
    @pytest.mark.parametrize("name", SHIPPED_SPEC_NAMES)
    def test_loads_and_is_complete(self, name):
        spec = load_spec(name)
        spec.require_complete()
        expected = "pos" if name in ("phishing", "typosquatting") else "neg"
        assert spec.label == expected

    def test_fraud_has_more_self_signing(self):
        # fraud populations lean far harder on self-signed certificates
        assert load_spec("phishing").booleans["f3"] > load_spec("alexa").booleans["f3"]
        assert load_spec("typosquatting").booleans["f5"] > load_spec("com").booleans["f5"]

    def test_load_from_file_path(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(spec_to_json(tiny_spec("pos"))), encoding="utf-8")
        assert load_spec(path).label == "pos"

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_spec(tmp_path / "absent.json")


class TestSampling:
    def test_deterministic_in_seed(self):
        pos, neg = tiny_spec("pos", 0.7), tiny_spec("neg", 0.2)
        a = sample_corpus(pos, neg, 50, seed=5)
        b = sample_corpus(pos, neg, 50, seed=5)
        assert a.rows == b.rows
        c = sample_corpus(pos, neg, 50, seed=6)
        assert a.rows != c.rows

    def test_balanced_and_labeled(self):
        dataset = sample_corpus(tiny_spec("pos"), tiny_spec("neg"), 30, seed=1)
        assert len(dataset) == 60
        counts = dataset.class_counts()
        assert counts == {"pos": 30, "neg": 30}
        dataset.require_labeled()

    def test_domains_unique(self):
        dataset = sample_corpus(tiny_spec("pos"), tiny_spec("neg"), 40, seed=2)
        domains = [fv.domain for fv in dataset.rows]
        assert len(set(domains)) == len(domains)

    def test_mislabeled_specs_rejected(self):
        with pytest.raises(ValueError):
            sample_corpus(tiny_spec("neg"), tiny_spec("neg"), 5, seed=0)
        with pytest.raises(ValueError):
            sample_corpus(tiny_spec("pos"), tiny_spec("pos"), 5, seed=0)

    def test_empty_class_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(EmptyClass):
            sample_class(tiny_spec("pos"), 0, rng)

    def test_incomplete_spec_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(SpecIncomplete):
            sample_class(MarginalSpec("pos", {"f1": 0.5}, {}, {}), 5, rng)

    def test_values_come_from_support(self):
        dataset = sample_corpus(tiny_spec("pos"), tiny_spec("neg"), 200, seed=3)
        for fv in dataset.rows:
            assert fv.f9 in ("CA A", "CA B")
            assert fv.f12 in ("US", "DE")
            assert fv.f13 in (365, 730)
            assert fv.f15 in (0.0, 0.5, 1.0)

    def test_marginal_rates_converge(self):
        spec = tiny_spec("pos", 0.3)
        rows = sample_class(spec, 20000, np.random.default_rng(11))
        rate = sum(1 for fv in rows if fv.f1) / len(rows)
        assert rate == pytest.approx(0.3, abs=0.02)
        de_rate = sum(1 for fv in rows if fv.f12 == "DE") / len(rows)
        assert de_rate == pytest.approx(0.2, abs=0.02)


class TestFitMarginals:
    def test_round_trip_on_point_masses(self):
        rows = [
            FeatureVector(
                domain=f"d{i}.example", f1=True, f2=False, f3=True, f4=False,
                f5=True, f6=False, f7=False, f8=False, f9="CA", f10="Org",
                f11="US", f12="US", f13=365, f14=5, f15=0.25, label="pos",
            )
            for i in range(10)
        ]
        spec = fit_marginals(rows, "pos")
        assert spec.booleans["f1"] == 1.0
        assert spec.booleans["f2"] == 0.0
        assert spec.categoricals["f9"] == (("CA", 1.0),)
        assert spec.numerics["f15"] == ((0.25, 1.0),)

    def test_recovers_sampled_rates(self):
        spec = tiny_spec("neg", 0.4)
        rows = sample_class(spec, 20000, np.random.default_rng(7))
        fitted = fit_marginals(rows, "neg")
        for name in BOOLEAN_FEATURES:
            assert fitted.booleans[name] == pytest.approx(0.4, abs=0.02)
        f13 = dict(fitted.numerics["f13"])
        assert f13[365.0] == pytest.approx(0.5, abs=0.02)

    def test_ignores_other_label(self):
        rows = sample_corpus(tiny_spec("pos", 1.0), tiny_spec("neg", 0.0), 20, seed=9).rows
        fitted = fit_marginals(rows, "pos")
        assert fitted.booleans["f1"] == 1.0

    def test_no_rows_for_label(self):
        with pytest.raises(EmptyClass):
            fit_marginals([], "pos")


class TestBayesOptimalAccuracy:
    def test_identical_specs_score_half(self):
        spec = tiny_spec("pos", 0.37)
        other = tiny_spec("neg", 0.37)
        assert bayes_optimal_accuracy(spec, other, BOOLEAN_SUBSET) == 0.5

    def test_fully_separated_specs_score_one(self):
        assert bayes_optimal_accuracy(
            tiny_spec("pos", 1.0), tiny_spec("neg", 0.0), ["f1"]
        ) == 1.0

    def test_single_feature_closed_form(self):
        # one boolean with p=0.8 vs q=0.3: optimum picks pos on true,
        # neg on false: (0.8 + 0.7) / 2
        pos = tiny_spec("pos", 0.8)
        neg = tiny_spec("neg", 0.3)
        assert bayes_optimal_accuracy(pos, neg, ["f1"]) == pytest.approx(0.75)

    def test_more_features_never_hurt(self):
        pos = tiny_spec("pos", 0.7)
        neg = tiny_spec("neg", 0.4)
        previous = 0.5
        for size in range(1, len(BOOLEAN_SUBSET) + 1):
            accuracy = bayes_optimal_accuracy(pos, neg, BOOLEAN_SUBSET[:size])
            assert accuracy >= previous - 1e-12
            previous = accuracy

    def test_bounded(self):
        accuracy = bayes_optimal_accuracy(
            load_spec("phishing"), load_spec("alexa"), BOOLEAN_SUBSET
        )
        assert 0.5 <= accuracy <= 1.0

    def test_frozen_reference_value(self):
        # matches an exact rational-arithmetic enumeration of this case,
        # rounded once to a double at the end
        accuracy = bayes_optimal_accuracy(
            load_spec("phishing"), load_spec("alexa"), ["f1", "f2", "f3", "f4", "f6", "f7", "f8"]
        )
        assert accuracy == 0.73784049708484

    def test_subset_too_large(self):
        pos, neg = tiny_spec("pos", 0.6), tiny_spec("neg", 0.4)
        with pytest.raises(SubsetTooLarge):
            bayes_optimal_accuracy(pos, neg, ["f1"] * 21)

    def test_rejects_non_boolean_features(self):
        pos, neg = tiny_spec("pos"), tiny_spec("neg")
        with pytest.raises(SpecIncomplete):
            bayes_optimal_accuracy(pos, neg, ["f9"])
        with pytest.raises(SpecIncomplete):
            bayes_optimal_accuracy(pos, neg, [])

    def test_empirical_rule_accuracy_matches_enumeration(self):
        # the rule's accuracy on a large balanced sample approaches the
        # enumerated optimum, and never exceeds it beyond noise
        pos = boolean_only_variant(load_spec("phishing"))
        neg = boolean_only_variant(load_spec("alexa"))
        ceiling = bayes_optimal_accuracy(pos, neg, BOOLEAN_SUBSET)
        rule = bayes_rule(pos, neg, BOOLEAN_SUBSET)
        dataset = sample_corpus(pos, neg, 20000, seed=13)
        hits = sum(1 for fv in dataset.rows if rule(fv) == fv.label)
        empirical = hits / len(dataset)
        assert empirical == pytest.approx(ceiling, abs=0.01)

    def test_rule_tie_goes_positive(self):
        pos = tiny_spec("pos", 0.5)
        neg = tiny_spec("neg", 0.5)
        rule = bayes_rule(pos, neg, ["f1"])
        row = sample_class(tiny_spec("pos", 1.0), 1, np.random.default_rng(0))[0]
        assert rule(row) == "pos"


class TestBooleanOnlyVariant:
    def test_pins_non_boolean_features(self):
        variant = boolean_only_variant(load_spec("phishing"))
        assert variant.booleans == load_spec("phishing").booleans
        for name in ("f9", "f10", "f11", "f12"):
            assert variant.categoricals[name] == (("JustNone", 1.0),)
        assert variant.numerics["f13"] == ((365.0, 1.0),)
        variant.require_complete()

    def test_sampled_variants_share_constants(self):
        pos = boolean_only_variant(load_spec("phishing"))
        neg = boolean_only_variant(load_spec("alexa"))
        dataset = sample_corpus(pos, neg, 100, seed=21)
        assert {fv.f9 for fv in dataset.rows} == {"JustNone"}
        assert {fv.f13 for fv in dataset.rows} == {365}
        assert {fv.f15 for fv in dataset.rows} == {0.0}
