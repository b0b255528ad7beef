import json
import re
from pathlib import Path

import numpy as np
import pytest

from loramerge import (
    CostScenario,
    LanguageUpdate,
    MeasuredCosts,
    ParameterError,
    ReductionUndefinedError,
    ValidationError,
    initial_setup,
    lpt_makespan,
    reduction_pct,
    render_table,
    scenario_from_json_dict,
    update_language,
)
from loramerge.cli import run
from loramerge.costing import scenario_to_json_dict

GOLDEN = Path(__file__).parent / "golden" / "cost"
DEMO_DATA = Path(__file__).parent.parent / "demos" / "data"

SMALL_ROLLOUT = {
    "per_language_hours": {"en": 2.2, "de": 2.2, "fr": 2.2, "ja": 2.2, "zh": 2.2},
    "combined_hours": 3.4,
    "parallel_slots": 5,
    "update": {"label": "en", "retrain_hours": 1.0, "combined_retrain_hours": 3.8},
    "measured": {
        "initial_combined_cost": 113.4,
        "initial_merged_cost": 107.1,
        "update_combined_cost": 119.7,
        "update_merged_cost": 31.5,
    },
}

CASE_STUDY = {
    "per_language_hours": {"en": 22.5, "es": 22.5, "de": 22.5, "fr": 22.5, "ja": 22.5},
    "combined_hours": 45.0,
    "parallel_slots": 5,
    "update": {"label": "ja", "retrain_hours": 20.5, "combined_retrain_hours": 54.5},
    "measured": {
        "initial_combined_cost": 1416.0,
        "initial_merged_cost": 1400.0,
        "update_combined_cost": 1717.0,
        "update_merged_cost": 645.0,
    },
}


class TestReduction:
    def test_formula(self):
        assert reduction_pct(4.0, 3.0) == pytest.approx(25.0)
        assert reduction_pct(10.0, 0.0) == pytest.approx(100.0)

    def test_equal_values_zero(self):
        assert reduction_pct(5.5, 5.5) == 0.0
        assert reduction_pct(0.0, 0.0) == 0.0

    def test_zero_baseline_nonzero_value_undefined(self):
        with pytest.raises(ReductionUndefinedError):
            reduction_pct(0.0, 1.0)

    def test_undefined_message_names_the_baseline(self):
        with pytest.raises(ReductionUndefinedError, match=r"^reduction from baseline -5\.0 to 3\.0"):
            reduction_pct(-5.0, 3.0)

    @pytest.mark.parametrize(
        "baseline, value",
        [(1.0, float("nan")), (float("inf"), 1.0), ("1", 0), (1.0, True), (10**400, 1.0)],
        ids=["nan-value", "inf-baseline", "string-baseline", "bool-value", "int-past-float"],
    )
    def test_arguments_must_be_finite_numbers(self, baseline, value):
        with pytest.raises(ParameterError, match=r"^reduction (baseline|value) must be "):
            reduction_pct(baseline, value)

    def test_product_past_float_range_divides_first(self):
        assert reduction_pct(1e307, 1.0) == 100.0
        assert reduction_pct(1.5e308, 7.5e307) == 50.0

    @pytest.mark.parametrize(
        "baseline, value", [(1.0, 1e307), (1.7e308, -1.7e308)], ids=["quotient", "difference"]
    )
    def test_result_past_float_range_rejected(self, baseline, value):
        message = f"reduction from baseline {baseline!r} to {value!r} is past float range"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            reduction_pct(baseline, value)

    def test_rounding_matches_formula_at_one_decimal(self):
        rng = np.random.default_rng(70)
        for _ in range(200):
            a = float(rng.uniform(0.1, 100))
            b = float(rng.uniform(0.0, 100))
            rendered = float(f"{reduction_pct(a, b):.1f}")
            assert abs(rendered - 100.0 * (a - b) / a) <= 0.05 + 1e-9


class TestMakespan:
    def test_known_lpt_schedule(self):
        assert lpt_makespan([5, 4, 3, 3], 2) == 8.0

    def test_single_slot_is_sum(self):
        hours = [1.5, 2.5, 0.5]
        assert lpt_makespan(hours, 1) == pytest.approx(sum(hours))

    def test_enough_slots_is_max(self):
        hours = [1.5, 2.5, 0.5]
        for slots in (3, 5, 100):
            assert lpt_makespan(hours, slots) == 2.5

    def test_adding_a_job_never_decreases(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            hours = rng.uniform(0.1, 5.0, int(rng.integers(1, 8))).tolist()
            slots = int(rng.integers(1, 5))
            before = lpt_makespan(hours, slots)
            after = lpt_makespan(hours + [float(rng.uniform(0.1, 5.0))], slots)
            assert after >= before - 1e-12

    def test_empty_jobs(self):
        assert lpt_makespan([], 3) == 0.0

    def test_bad_slots(self):
        with pytest.raises(ParameterError):
            lpt_makespan([1.0], 0)

    @pytest.mark.parametrize(
        "hour",
        ["3", True, -1.0, float("nan"), float("inf"), 10**400],
        ids=["string", "bool", "negative", "nan", "inf", "int-past-float"],
    )
    def test_each_hour_must_be_a_finite_non_negative_number(self, hour):
        # the rule CostScenario applies to its hours, raised as ParameterError
        with pytest.raises(ParameterError, match=r"^job 1 hours must be .*, got "):
            lpt_makespan([2.0, hour], 1)

    @pytest.mark.parametrize("hours", [[], [1.0, 2.0]], ids=["no-jobs", "jobs"])
    @pytest.mark.parametrize("slots", [0, -1, 1.5, 2.0, True])
    def test_slots_are_checked_before_the_jobs(self, hours, slots):
        # CostScenario.parallel_slots's rule: an int, not a bool, at least 1
        with pytest.raises(ParameterError):
            lpt_makespan(hours, slots)


class TestScenario:
    def test_json_round_trip(self):
        scenario = scenario_from_json_dict(SMALL_ROLLOUT)
        assert scenario_from_json_dict(scenario_to_json_dict(scenario)) == scenario

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError):
            scenario_from_json_dict({**SMALL_ROLLOUT, "gpu_count": 8})
        message = "unknown scenario keys: ['a_gpu', 'gpu_count']"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            scenario_from_json_dict({"gpu_count": 8, **SMALL_ROLLOUT, "a_gpu": 1})

    def test_missing_required_key_rejected(self):
        with pytest.raises(ParameterError):
            scenario_from_json_dict({"combined_hours": 1.0})

    def test_negative_hours_rejected(self):
        with pytest.raises(ValidationError):
            CostScenario({"en": -1.0}, combined_hours=1.0)

    def test_non_numeric_hours_rejected(self):
        with pytest.raises(ValidationError):
            CostScenario({"en": "fast"}, combined_hours=1.0)

    def test_non_numeric_measured_cost_rejected(self):
        doc = {
            "per_language_hours": {"en": 1.0},
            "combined_hours": 1.0,
            "measured": {"initial_combined_cost": "cheap"},
        }
        with pytest.raises(ValidationError):
            scenario_from_json_dict(doc)

    @pytest.mark.parametrize("value", [-5.0, float("inf"), float("nan"), "cheap", True])
    def test_measured_figure_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValidationError, match="^measured update_merged_cost must be"):
            MeasuredCosts(update_merged_cost=value)

    def test_bad_slots_rejected(self):
        with pytest.raises(ValidationError):
            CostScenario({"en": 1.0}, combined_hours=1.0, parallel_slots=0)

    @pytest.mark.parametrize(
        "doc, what",
        [
            (
                {"per_language_hours": {"en": 1e308, "de": 1e308}, "rate_per_gpu_hour": 1.0},
                r"per_language_hours \+ merge_overhead_hours",
            ),
            (
                {"per_language_hours": {"en": 1e308}, "merge_overhead_hours": 1e308},
                r"per_language_hours \+ merge_overhead_hours",
            ),
            (
                {"per_language_hours": {"en": 1e300}, "rate_per_gpu_hour": 1e10},
                r"\(per_language_hours \+ merge_overhead_hours\) \* rate_per_gpu_hour",
            ),
            (
                {"combined_hours": 1e308, "rate_per_gpu_hour": 1e10},
                r"combined_hours \* rate_per_gpu_hour \* combined_gpus",
            ),
            (
                {"combined_hours": 1e300, "rate_per_gpu_hour": 1e5, "combined_gpus": 1e5},
                r"combined_hours \* rate_per_gpu_hour \* combined_gpus",
            ),
            (
                {"update": {"label": "de", "retrain_hours": 1e308, "combined_retrain_hours": 1.0},
                 "merge_overhead_hours": 1e308},
                r"update retrain_hours \+ merge_overhead_hours",
            ),
            (
                {"update": {"label": "de", "retrain_hours": 1e300, "combined_retrain_hours": 1.0},
                 "rate_per_gpu_hour": 1e10},
                r"\(update retrain_hours \+ merge_overhead_hours\) \* rate_per_gpu_hour",
            ),
            (
                {"update": {"label": "de", "retrain_hours": 1.0, "combined_retrain_hours": 1e300},
                 "rate_per_gpu_hour": 1e10},
                r"update combined_retrain_hours \* rate_per_gpu_hour \* combined_gpus",
            ),
        ],
        ids=[
            "languages",
            "languages-and-overhead",
            "merged-cost",
            "combined-cost",
            "combined-gpus",
            "update-hours",
            "update-merged-cost",
            "update-combined-cost",
        ],
    )
    def test_totals_past_float_range_rejected(self, doc, what, tmp_path, capsys):
        doc = {"per_language_hours": {"en": 1.0}, "combined_hours": 1.0, **doc}
        with pytest.raises(ValidationError, match=f"^{what} must be finite, got inf$"):
            scenario_from_json_dict(doc)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        assert run(["cost", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error[validation]: ")


class TestInitialSetup:
    def test_small_rollout_reductions(self):
        report = initial_setup(scenario_from_json_dict(SMALL_ROLLOUT))
        assert report.combined_time_hours == 3.4
        assert report.merged_time_hours == 2.2
        assert f"{report.time_reduction_pct:.1f}" == "35.3"
        assert f"{report.cost_reduction_pct:.1f}" == "5.6"

    def test_case_study_reductions(self):
        report = initial_setup(scenario_from_json_dict(CASE_STUDY))
        assert f"{report.time_reduction_pct:.1f}" == "50.0"
        assert f"{report.cost_reduction_pct:.1f}" == "1.1"

    def test_identical_times_and_costs_give_zero(self):
        scenario = CostScenario(
            {"en": 3.0},
            combined_hours=3.0,
            rate_per_gpu_hour=10.0,
        )
        report = initial_setup(scenario)
        assert report.time_reduction_pct == 0.0
        assert report.cost_reduction_pct == 0.0

    def test_rate_model_costs(self):
        scenario = CostScenario(
            {"en": 2.0, "de": 1.0},
            combined_hours=4.0,
            parallel_slots=2,
            rate_per_gpu_hour=10.0,
            merge_overhead_hours=0.5,
            combined_gpus=2.0,
        )
        report = initial_setup(scenario)
        assert report.merged_time_hours == pytest.approx(2.5)  # makespan 2 + overhead
        assert report.merged_cost == pytest.approx((3.0 + 0.5) * 10.0)
        assert report.combined_cost == pytest.approx(4.0 * 10.0 * 2.0)

    def test_empty_language_map_rejected(self):
        scenario = CostScenario({}, combined_hours=1.0)
        with pytest.raises(ParameterError):
            initial_setup(scenario)

    def test_zero_combined_hours_with_merged_work_undefined(self):
        scenario = CostScenario({"en": 2.0}, combined_hours=0.0)
        with pytest.raises(ReductionUndefinedError):
            initial_setup(scenario)

    def test_huge_combined_hours_give_a_finite_reduction(self):
        report = initial_setup(CostScenario({"en": 1.0}, combined_hours=1e307))
        assert report.time_reduction_pct == 100.0

    def test_reduction_past_float_range_rejected(self):
        scenario = CostScenario({"en": 1e307}, combined_hours=1.0)
        with pytest.raises(ParameterError, match="^reduction from baseline 1.0 to 1e"):
            initial_setup(scenario)


class TestUpdateLanguage:
    def test_small_rollout_reductions(self):
        report = update_language(scenario_from_json_dict(SMALL_ROLLOUT))
        assert report.combined_time_hours == 3.8
        assert report.merged_time_hours == 1.0
        assert f"{report.time_reduction_pct:.1f}" == "73.7"
        assert f"{report.cost_reduction_pct:.1f}" == "73.7"

    def test_case_study_reductions(self):
        report = update_language(scenario_from_json_dict(CASE_STUDY))
        assert f"{report.time_reduction_pct:.1f}" == "62.4"
        assert f"{report.cost_reduction_pct:.1f}" == "62.4"

    def test_missing_update_rejected(self):
        with pytest.raises(ParameterError):
            update_language(CostScenario({"en": 1.0}, combined_hours=1.0))

    def test_rate_model_costs(self):
        scenario = CostScenario(
            {"en": 2.0},
            combined_hours=4.0,
            rate_per_gpu_hour=3.0,
            merge_overhead_hours=0.25,
            update=LanguageUpdate("en", 1.0, 4.0),
        )
        report = update_language(scenario)
        assert report.merged_time_hours == pytest.approx(1.25)
        assert report.merged_cost == pytest.approx(1.25 * 3.0)
        assert report.combined_cost == pytest.approx(12.0)


class TestRenderTable:
    def test_contains_paper_percentages(self):
        scenario = scenario_from_json_dict(SMALL_ROLLOUT)
        text = render_table(initial_setup(scenario), update_language(scenario))
        assert "35.3" in text and "73.7" in text and "5.6" in text
        assert "Training Time" in text and "Training Cost" in text
        assert "Initial Setup" in text and "Update/Add Language" in text
        assert "$113.4" in text and "$107.1" in text

    def test_cost_block_omitted_without_cost_inputs(self):
        scenario = CostScenario({"en": 1.0}, combined_hours=2.0)
        text = render_table(initial_setup(scenario))
        assert "Training Time" in text
        assert "Training Cost" not in text

    def test_increase_marked_with_up_arrow(self):
        scenario = CostScenario({"en": 5.0}, combined_hours=2.0)
        text = render_table(initial_setup(scenario))
        assert "↑" in text

    def test_nothing_to_render_rejected(self):
        with pytest.raises(ParameterError):
            render_table()

    def test_report_json_dict_carries_scenario_echo(self):
        scenario = scenario_from_json_dict(SMALL_ROLLOUT)
        doc = initial_setup(scenario).to_json_dict()
        assert doc["scenario"]["combined_hours"] == 3.4
        assert doc["combined_time_hours"] == 3.4
        assert doc["merged_time_hours"] == 2.2


# rate model only: no measured block, with an update, merge overhead and a
# multi-GPU combined run
RATE_MODEL = {
    "per_language_hours": {"en": 2.0, "de": 1.6, "fr": 1.8},
    "combined_hours": 4.3,
    "parallel_slots": 2,
    "rate_per_gpu_hour": 2.75,
    "merge_overhead_hours": 0.2,
    "combined_gpus": 2,
    "update": {"label": "de", "retrain_hours": 1.1, "combined_retrain_hours": 4.6},
}


class TestGoldenBytes:
    """Exact stdout and ``--json`` bytes of ``loramerge cost``.

    The files under ``tests/golden/cost`` are ``<scenario>-<mode>.txt`` (stdout)
    and ``.json`` (the ``--json`` file), ``all`` standing for no ``--mode``.
    They change only with a deliberate change to the report.
    """

    @pytest.mark.parametrize("mode", [None, "initial", "update"])
    @pytest.mark.parametrize("name", ["small_rollout", "case_study", "rate_model"])
    def test_cost_output_bytes(self, tmp_path, capsys, name, mode):
        scenario = DEMO_DATA / f"{name}.json"
        if name == "rate_model":
            scenario = tmp_path / "rate_model.json"
            scenario.write_text(json.dumps(RATE_MODEL))
        out = tmp_path / "report.json"
        argv = ["cost", "--scenario", str(scenario), "--json", str(out)]
        assert run(argv + (["--mode", mode] if mode else [])) == 0
        captured = capsys.readouterr()
        stem = f"{name}-{mode or 'all'}"
        assert captured.err == ""
        assert captured.out.encode("utf-8") == (GOLDEN / f"{stem}.txt").read_bytes()
        assert out.read_bytes() == (GOLDEN / f"{stem}.json").read_bytes()

    def test_partial_measured_block_drops_missing_figures(self):
        doc = {
            "per_language_hours": {"en": 1.5, "de": 2},
            "combined_hours": 3,
            "update": {"label": "de", "retrain_hours": 1, "combined_retrain_hours": 3.5},
            "measured": {"update_merged_cost": 4, "initial_combined_cost": 9.5},
        }
        # compared as JSON text, so key order and int-vs-float count too
        expected = {
            "per_language_hours": {"en": 1.5, "de": 2.0},
            "combined_hours": 3.0,
            "parallel_slots": 1,
            "rate_per_gpu_hour": 0.0,
            "merge_overhead_hours": 0.0,
            "combined_gpus": 1.0,
            "update": {"label": "de", "retrain_hours": 1.0, "combined_retrain_hours": 3.5},
            "measured": {"initial_combined_cost": 9.5, "update_merged_cost": 4.0},
        }
        got = scenario_to_json_dict(scenario_from_json_dict(doc))
        assert json.dumps(got) == json.dumps(expected)
