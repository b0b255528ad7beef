"""Training-time and training-cost comparison: retrain-all vs merge.

The combined path trains one model on the pooled multilingual dataset; the
merged path trains per-language adapters that can run concurrently, so its
wall-clock time is the makespan of the language jobs on the available slots
(longest-processing-time-first greedy) plus the merge overhead.  Updating
one language retrains only that adapter on the merged path but the whole
model on the combined path.

Costs follow total GPU-hours times an hourly rate.  Measured costs rarely
follow a single rate across both paths (different instance mixes), so a
scenario may carry directly measured cost figures that bypass the rate
model; the rate model is the planning fallback and assumes one homogeneous
GPU rate.  Both rows (initial setup and a one-language update) go through
``_compare``, which takes a measured figure wherever one is given.

Hours, rates and measured figures are finite non-negative numbers (a JSON
``true`` is not one).  The scenario's JSON keys are its dataclass fields.
"""

from __future__ import annotations

import heapq
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Iterable, Mapping

from .errors import (
    ParameterError,
    ReductionUndefinedError,
    ValidationError,
    check_config_keys,
    is_finite,
    is_real,
    positive_integer,
)


def reduction_pct(baseline: float, value: float) -> float:
    """Percentage reduction from ``baseline`` to ``value``: 100 (a-b)/a.

    Where ``100 (a-b)`` overflows, the quotient is formed first; a result
    past float range either way is a ``ParameterError``."""
    baseline, value = (
        _require_number(number, f"reduction {what}", ParameterError)
        for what, number in (("baseline", baseline), ("value", value))
    )
    if baseline > 0:
        pct = 100.0 * (baseline - value) / baseline
        if not is_finite(pct):
            pct = 100.0 * ((baseline - value) / baseline)
        if not is_finite(pct):
            raise ParameterError(
                f"reduction from baseline {baseline!r} to {value!r} is past float range"
            )
        return pct
    if baseline == 0 and value == 0:
        return 0.0
    raise ReductionUndefinedError(
        f"reduction from baseline {baseline} to {value} is undefined"
    )


def lpt_makespan(hours: Iterable[float], slots: int) -> float:
    """Makespan of greedy longest-processing-time-first on ``slots`` machines."""
    slots = positive_integer(slots, "parallel slots", ParameterError)
    jobs = [_require_non_negative(h, f"job {i} hours", ParameterError) for i, h in enumerate(hours)]
    jobs.sort(reverse=True)
    if not jobs:
        return 0.0
    loads = [0.0] * min(slots, len(jobs))
    heapq.heapify(loads)
    for job in jobs:
        heapq.heappush(loads, heapq.heappop(loads) + job)
    return max(loads)


def _require_number(value, what: str, error: type = ValidationError) -> float:
    if not is_real(value):
        raise error(f"{what} must be a number, got {value!r}")
    if not is_finite(value):
        raise error(f"{what} must be finite, got {value!r}")
    return float(value)


def _require_non_negative(value, what: str, error: type = ValidationError) -> float:
    value = _require_number(value, what, error)
    if value < 0:
        raise error(f"{what} must be >= 0, got {value!r}")
    return value


def _check_non_negative(obj, names: Iterable[str], prefix: str = "") -> None:
    """Replace each named field of a frozen dataclass by its checked float."""
    for name in names:
        object.__setattr__(obj, name, _require_non_negative(getattr(obj, name), prefix + name))


@dataclass(frozen=True)
class LanguageUpdate:
    """A single-language refresh: retrain one adapter vs retrain everything."""

    label: str
    retrain_hours: float
    combined_retrain_hours: float

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise ValidationError("update label must be a non-empty string")
        _check_non_negative(self, ("retrain_hours", "combined_retrain_hours"), "update ")


@dataclass(frozen=True)
class MeasuredCosts:
    """Directly measured dollar figures that bypass the rate model."""

    initial_combined_cost: float | None = None
    initial_merged_cost: float | None = None
    update_combined_cost: float | None = None
    update_merged_cost: float | None = None

    def __post_init__(self) -> None:
        given = [f.name for f in fields(self) if getattr(self, f.name) is not None]
        _check_non_negative(self, given, "measured ")


@dataclass(frozen=True)
class CostScenario:
    per_language_hours: Mapping[str, float]
    combined_hours: float
    parallel_slots: int = 1
    rate_per_gpu_hour: float = 0.0
    merge_overhead_hours: float = 0.0
    combined_gpus: float = 1.0
    update: LanguageUpdate | None = None
    measured: MeasuredCosts | None = None

    def __post_init__(self) -> None:
        hours = {
            label: _require_non_negative(value, f"hours for {label!r}")
            for label, value in dict(self.per_language_hours).items()
        }
        object.__setattr__(self, "per_language_hours", hours)
        _check_non_negative(self, ("combined_hours", "merge_overhead_hours"))
        slots = positive_integer(self.parallel_slots, "parallel_slots", ValidationError)
        object.__setattr__(self, "parallel_slots", slots)
        _check_non_negative(self, ("rate_per_gpu_hour",))
        gpus = _require_number(self.combined_gpus, "combined_gpus")
        if gpus <= 0:
            raise ValidationError(f"combined_gpus must be > 0, got {self.combined_gpus!r}")
        object.__setattr__(self, "combined_gpus", gpus)
        self._check_totals()

    def _check_totals(self) -> None:
        """Each sum and product the two rows form must stay finite."""
        rate, gpus = self.rate_per_gpu_hour, self.combined_gpus
        overhead = self.merge_overhead_hours
        merged = sum(self.per_language_hours.values()) + overhead
        combined = self.combined_hours * rate * gpus
        totals = [
            ("per_language_hours + merge_overhead_hours", merged),
            ("(per_language_hours + merge_overhead_hours) * rate_per_gpu_hour", merged * rate),
            ("combined_hours * rate_per_gpu_hour * combined_gpus", combined),
        ]
        if self.update is not None:
            hours = self.update.retrain_hours + overhead
            combined = self.update.combined_retrain_hours * rate * gpus
            totals += [
                ("update retrain_hours + merge_overhead_hours", hours),
                ("(update retrain_hours + merge_overhead_hours) * rate_per_gpu_hour", hours * rate),
                ("update combined_retrain_hours * rate_per_gpu_hour * combined_gpus", combined),
            ]
        for what, total in totals:
            if not is_finite(total):
                raise ValidationError(f"{what} must be finite, got {total!r}")


@dataclass(frozen=True)
class ComparisonReport:
    combined_time_hours: float
    merged_time_hours: float
    combined_cost: float
    merged_cost: float
    time_reduction_pct: float
    cost_reduction_pct: float
    scenario: CostScenario

    def to_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["scenario"] = scenario_to_json_dict(self.scenario)
        return doc


def _compare(
    scenario: CostScenario,
    combined_time: float,
    merged_time: float,
    merged_gpu_hours: float,
    measured_combined: float | None,
    measured_merged: float | None,
) -> ComparisonReport:
    """One row: each cost is its measured figure if given, else the rate model."""
    rate = scenario.rate_per_gpu_hour
    combined_cost = measured_combined
    if combined_cost is None:
        combined_cost = combined_time * rate * scenario.combined_gpus
    merged_cost = measured_merged
    if merged_cost is None:
        merged_cost = merged_gpu_hours * rate
    return ComparisonReport(
        combined_time_hours=combined_time,
        merged_time_hours=merged_time,
        combined_cost=combined_cost,
        merged_cost=merged_cost,
        time_reduction_pct=reduction_pct(combined_time, merged_time),
        cost_reduction_pct=reduction_pct(combined_cost, merged_cost),
        scenario=scenario,
    )


def initial_setup(scenario: CostScenario) -> ComparisonReport:
    """Compare first-time training: pooled dataset vs parallel per-language jobs."""
    if not scenario.per_language_hours:
        raise ParameterError("scenario has no per-language hours")
    hours = scenario.per_language_hours.values()
    overhead = scenario.merge_overhead_hours
    measured = scenario.measured or MeasuredCosts()
    return _compare(
        scenario,
        combined_time=scenario.combined_hours,
        merged_time=lpt_makespan(hours, scenario.parallel_slots) + overhead,
        merged_gpu_hours=sum(hours) + overhead,
        measured_combined=measured.initial_combined_cost,
        measured_merged=measured.initial_merged_cost,
    )


def update_language(scenario: CostScenario) -> ComparisonReport:
    """Compare refreshing one language: one adapter vs full combined retrain."""
    if scenario.update is None:
        raise ParameterError("scenario has no update block")
    merged_time = scenario.update.retrain_hours + scenario.merge_overhead_hours
    measured = scenario.measured or MeasuredCosts()
    return _compare(
        scenario,
        combined_time=scenario.update.combined_retrain_hours,
        merged_time=merged_time,
        merged_gpu_hours=merged_time,
        measured_combined=measured.update_combined_cost,
        measured_merged=measured.update_merged_cost,
    )


def _row(title: str, combined: str, merged: str, pct: float) -> tuple[str, str, str]:
    arrow = "↓" if pct >= 0 else "↑"
    return title, combined, f"{merged} ({abs(pct):.1f}% {arrow})"


def render_table(
    initial: ComparisonReport | None = None, update: ComparisonReport | None = None
) -> str:
    """Aligned text table: a Training Time block and, when any cost figure is
    nonzero, a Training Cost block, rendered at 1 decimal place."""
    reports = [
        (title, report)
        for title, report in (("Initial Setup", initial), ("Update/Add Language", update))
        if report is not None
    ]
    if not reports:
        raise ParameterError("nothing to render")
    time_rows = [
        _row(
            title, f"{r.combined_time_hours:g}h", f"{r.merged_time_hours:g}h", r.time_reduction_pct
        )
        for title, r in reports
    ]
    cost_rows = [
        _row(title, f"${r.combined_cost:g}", f"${r.merged_cost:g}", r.cost_reduction_pct)
        for title, r in reports
    ]
    blocks = [_render_block("Training Time", time_rows)]
    if any(r.combined_cost != 0 or r.merged_cost != 0 for _, r in reports):
        blocks.append(_render_block("Training Cost", cost_rows))
    return "\n".join(blocks)


def _render_block(title: str, rows: list[tuple[str, str, str]]) -> str:
    header = ("Model", "Combined Model", "Merged Model")
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) for i in range(3)
    ]
    lines = [title]
    lines.append("  ".join(header[i].ljust(widths[i]) for i in range(3)).rstrip())
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(3)).rstrip())
    return "\n".join(lines) + "\n"


def scenario_from_json_dict(doc: dict) -> CostScenario:
    check_config_keys(doc, "scenario", CostScenario)
    for f in fields(CostScenario):
        if f.default is MISSING and f.name not in doc:
            raise ParameterError(f"scenario is missing {f.name!r}")
    if not isinstance(doc["per_language_hours"], dict):
        raise ParameterError("per_language_hours must be an object of label -> hours")

    update = doc.get("update")
    if update is not None:
        keys = {f.name for f in fields(LanguageUpdate)}
        if not isinstance(update, dict) or set(update) != keys:
            raise ParameterError(f"update must carry exactly {sorted(keys)}")
        update = LanguageUpdate(**update)

    measured = doc.get("measured")
    if measured is not None:
        keys = {f.name for f in fields(MeasuredCosts)}
        if not isinstance(measured, dict) or not set(measured) <= keys:
            raise ParameterError(f"measured keys must be among {sorted(keys)}")
        measured = MeasuredCosts(**measured)

    return CostScenario(**{**doc, "update": update, "measured": measured})


def _without_none(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if v is not None}


def scenario_to_json_dict(scenario: CostScenario) -> dict:
    """The scenario's fields in order, leaving out absent optional parts."""
    doc = asdict(scenario)
    if doc["measured"] is not None:
        doc["measured"] = _without_none(doc["measured"])
    return _without_none(doc)
