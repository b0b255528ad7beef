"""Model-free evaluation metrics: accuracy, macro P/R/F1, ROUGE, and the
aggregated hallucination rate for extraction-style outputs.

Text normalization is deliberately simple and fixed so fixtures stay
stable: ROUGE tokenization lowercases, splits on Unicode whitespace, and
drops punctuation-only tokens (no stemming); hallucination matching is a
lowercased, whitespace-collapsed substring test.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from typing import NamedTuple, Sequence

from .errors import (
    FormatError,
    ParameterError,
    RateUndefinedError,
    ValidationError,
    is_finite,
    is_integer,
    is_real,
)


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float


def _is_punct(token: str) -> bool:
    return all(unicodedata.category(ch).startswith("P") for ch in token)


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"text must be a string, got {value!r}")
    return value


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, drop punctuation-only tokens."""
    return [t for t in _text(text).lower().split() if not _is_punct(t)]


def _check_pairs(pairs: Sequence[tuple[str, str]]) -> None:
    if not pairs:
        raise ParameterError("no labelled predictions given")
    for gold, pred in pairs:
        if not (isinstance(gold, str) and isinstance(pred, str) and gold and pred):
            raise ValidationError("labels must be non-empty strings")


def accuracy(pairs: Sequence[tuple[str, str]]) -> float:
    """Fraction of (gold, predicted) pairs that agree."""
    _check_pairs(pairs)
    return sum(1 for gold, pred in pairs if gold == pred) / len(pairs)


def macro_prf(pairs: Sequence[tuple[str, str]]) -> PRF:
    """Unweighted mean of per-class precision/recall/F1.

    Classes are the union of gold and predicted labels; a class with a zero
    denominator contributes 0 to the mean, which penalizes spurious
    predicted classes.
    """
    _check_pairs(pairs)
    classes = sorted({g for g, _ in pairs} | {p for _, p in pairs})
    precisions, recalls, f1s = [], [], []
    for cls in classes:
        tp = sum(1 for g, p in pairs if g == cls and p == cls)
        fp = sum(1 for g, p in pairs if g != cls and p == cls)
        fn = sum(1 for g, p in pairs if g == cls and p != cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
    n = len(classes)
    return PRF(sum(precisions) / n, sum(recalls) / n, sum(f1s) / n)


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _prf_from_counts(overlap: int, candidate_total: int, reference_total: int) -> PRF:
    precision = overlap / candidate_total if candidate_total else 0.0
    recall = overlap / reference_total if reference_total else 0.0
    # algebraic harmonic mean; exact for integer count ratios
    f1 = 2 * overlap / (candidate_total + reference_total) if overlap else 0.0
    return PRF(precision, recall, f1)


def _token_pair(reference: str, candidate: str) -> tuple[list[str], list[str]]:
    """Both texts' tokens; ParameterError if either has none."""
    pair = tokenize(reference), tokenize(candidate)
    for what, tokens in zip(("reference", "candidate"), pair):
        if not tokens:
            raise ParameterError(f"{what} is empty after tokenization")
    return pair


def rouge_n(reference: str, candidate: str, n: int) -> PRF:
    """Clipped n-gram overlap precision/recall/F1 (n is 1 or 2)."""
    if not (is_integer(n) and n in (1, 2)):
        raise ParameterError(f"n must be 1 or 2, got {n!r}")
    ref_counts, cand_counts = (_ngram_counts(t, int(n)) for t in _token_pair(reference, candidate))
    overlap = sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
    return _prf_from_counts(overlap, sum(cand_counts.values()), sum(ref_counts.values()))


def _lcs_length(a: list[str], b: list[str]) -> int:
    if len(a) < len(b):
        a, b = b, a
    previous = [0] * (len(b) + 1)
    for x in a:
        current = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[len(b)]


def rouge_l(reference: str, candidate: str) -> PRF:
    """Longest-common-subsequence precision/recall/F1 over token sequences."""
    ref_tokens, cand_tokens = _token_pair(reference, candidate)
    lcs = _lcs_length(ref_tokens, cand_tokens)
    return _prf_from_counts(lcs, len(cand_tokens), len(ref_tokens))


def _normalize_for_match(text: str) -> str:
    return " ".join(_text(text).split()).lower()


def hallucination_rate(records: Sequence[tuple[str, Sequence[str]]]) -> float:
    """Fraction of generated examples absent from their source text.

    Aggregated over all records; matching is a lowercased,
    whitespace-collapsed substring test.  Lower is better.
    """
    total = 0
    missing = 0
    for source, examples in records:
        if not source:
            raise ValidationError("extraction record has an empty source text")
        normalized_source = _normalize_for_match(source)
        if isinstance(examples, str):
            raise ValidationError(f"examples must be a sequence of strings, got {examples!r}")
        for example in examples:
            total += 1
            if _normalize_for_match(example) not in normalized_source:
                missing += 1
    if total == 0:
        raise RateUndefinedError("no generated examples to score")
    return missing / total


def _round_all(report: dict) -> dict:
    return {k: round(v, 4) if isinstance(v, float) else v for k, v in report.items()}


def _field(record: dict, key: str, index: int) -> str:
    value = record.get(key)
    if not isinstance(value, str):
        raise FormatError(f"record {index}: missing or non-string {key!r} field")
    return value


def evaluate_task(task: str, records: Sequence[dict]) -> dict:
    """Build the metric report for one task from parsed JSON-line records.

    sentiment expects {"gold","pred"}; reasoning the same; summarization
    {"reference","candidate"} with an optional precomputed "bertscore";
    extraction {"source","examples"}.  Float values are rounded to 4
    decimals.
    """
    if not records:
        raise ParameterError("no records to evaluate")
    if task == "sentiment":
        pairs = [(_field(r, "gold", i), _field(r, "pred", i)) for i, r in enumerate(records)]
        result = macro_prf(pairs)
        return _round_all(
            {
                "count": len(pairs),
                "macro_precision": result.precision,
                "macro_recall": result.recall,
                "macro_f1": result.f1,
            }
        )
    if task == "reasoning":
        pairs = [(_field(r, "gold", i), _field(r, "pred", i)) for i, r in enumerate(records)]
        return _round_all({"count": len(pairs), "accuracy": accuracy(pairs)})
    if task == "summarization":
        report: dict = {"count": len(records)}
        scores = {"rouge1": [], "rouge2": [], "rougeL": []}
        bert = []
        for i, record in enumerate(records):
            ref = _field(record, "reference", i)
            cand = _field(record, "candidate", i)
            scores["rouge1"].append(rouge_n(ref, cand, 1))
            scores["rouge2"].append(rouge_n(ref, cand, 2))
            scores["rougeL"].append(rouge_l(ref, cand))
            if "bertscore" in record:
                score = record["bertscore"]
                if not is_real(score):
                    raise FormatError(f"record {i}: bertscore must be a number")
                if not is_finite(score):
                    raise FormatError(f"record {i}: bertscore must be finite, got {score!r}")
                bert.append(float(score))
        for name, values in scores.items():
            for part in ("precision", "recall", "f1"):
                report[f"{name}_{part}"] = sum(getattr(v, part) for v in values) / len(values)
        if bert:
            # passthrough only; this package does not compute BertScore
            report["bertscore"] = sum(bert) / len(bert)
        return _round_all(report)
    if task == "extraction":
        parsed = []
        examples_total = 0
        for i, record in enumerate(records):
            source = _field(record, "source", i)
            examples = record.get("examples")
            if not isinstance(examples, list) or not all(isinstance(e, str) for e in examples):
                raise FormatError(f"record {i}: 'examples' must be a list of strings")
            examples_total += len(examples)
            parsed.append((source, examples))
        return _round_all(
            {
                "count": len(parsed),
                "examples": examples_total,
                "matching": "normalized-substring",
                "hallucination_rate": hallucination_rate(parsed),
            }
        )
    raise ParameterError(f"unknown task {task!r}")
