import pytest

from loramerge import (
    FormatError,
    ParameterError,
    RateUndefinedError,
    ValidationError,
    accuracy,
    evaluate_task,
    hallucination_rate,
    macro_prf,
    rouge_l,
    rouge_n,
    tokenize,
)


class TestTokenize:
    def test_lowercase_and_whitespace_split(self):
        assert tokenize("The  Cat\tSAT\n") == ["the", "cat", "sat"]

    def test_punctuation_only_tokens_dropped(self):
        assert tokenize("hello , world !") == ["hello", "world"]

    def test_attached_punctuation_kept(self):
        assert tokenize("cat, sat.") == ["cat,", "sat."]

    def test_unicode_whitespace(self):
        assert tokenize("a b") == ["a", "b"]

    def test_non_string_text_rejected(self):
        for call in (
            lambda: tokenize(5),
            lambda: tokenize(b"a b"),
            lambda: rouge_n("a", 5, 1),
            lambda: rouge_l("a", 5),
            lambda: rouge_l(None, "a"),
        ):
            with pytest.raises(ValidationError, match="^text must be a string, got "):
                call()


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([("a", "a"), ("b", "b")]) == 1.0

    def test_none_correct(self):
        assert accuracy([("a", "b"), ("b", "a")]) == 0.0

    def test_three_of_four(self):
        pairs = [("a", "a"), ("b", "b"), ("c", "c"), ("d", "a")]
        assert accuracy(pairs) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            accuracy([])

    def test_empty_label_rejected(self):
        for pairs in ([("a", "")], [(1, 1)], [(1, "a")], [("a", b"a")]):
            for metric in (accuracy, macro_prf):
                with pytest.raises(ValidationError, match="^labels must be non-empty strings$"):
                    metric(pairs)

    def test_equals_micro_precision_and_recall(self):
        pairs = [("a", "a"), ("a", "b"), ("b", "b"), ("c", "b"), ("c", "c")]
        classes = sorted({g for g, _ in pairs} | {p for _, p in pairs})
        tp = sum(sum(1 for g, p in pairs if g == c and p == c) for c in classes)
        fp = sum(sum(1 for g, p in pairs if g != c and p == c) for c in classes)
        fn = sum(sum(1 for g, p in pairs if g == c and p != c) for c in classes)
        assert accuracy(pairs) == tp / (tp + fp) == tp / (tp + fn)


class TestMacroPRF:
    def test_perfect_two_classes(self):
        assert macro_prf([("a", "a"), ("b", "b")]) == (1.0, 1.0, 1.0)

    def test_hand_confusion_matrix(self):
        pairs = [("a", "a"), ("a", "b"), ("b", "b"), ("b", "b")]
        precision, recall, f1 = macro_prf(pairs)
        assert precision == pytest.approx(5 / 6, abs=1e-9)
        assert recall == pytest.approx(0.75, abs=1e-9)
        assert f1 == pytest.approx((2 / 3 + 4 / 5) / 2, abs=1e-9)

    def test_spurious_class_contributes_zeros(self):
        pairs = [("a", "a"), ("a", "c")]
        precision, recall, f1 = macro_prf(pairs)
        # classes a and c; c never in gold: P=R=F1=0 for c
        assert precision == pytest.approx((1.0 + 0.0) / 2)
        assert recall == pytest.approx((0.5 + 0.0) / 2)
        assert f1 == pytest.approx((2 * 1.0 * 0.5 / 1.5) / 2)


class TestRougeN:
    def test_identical_texts(self):
        assert rouge_n("the cat sat", "the cat sat", 1) == (1.0, 1.0, 1.0)
        assert rouge_n("the cat sat", "the cat sat", 2) == (1.0, 1.0, 1.0)

    def test_hand_unigram_fixture(self):
        precision, recall, f1 = rouge_n("the cat sat", "the cat", 1)
        assert precision == 1.0
        assert recall == pytest.approx(2 / 3, abs=1e-12)
        assert f1 == 0.8

    def test_disjoint_vocabulary(self):
        assert rouge_n("aa bb", "cc dd", 1) == (0.0, 0.0, 0.0)

    def test_clipped_counts(self):
        # candidate repeats "the" three times; reference has it twice
        precision, recall, f1 = rouge_n("the the cat", "the the the", 1)
        assert precision == pytest.approx(2 / 3, abs=1e-12)
        assert recall == pytest.approx(2 / 3, abs=1e-12)

    def test_bigram_shorter_than_n(self):
        assert rouge_n("a b c", "z", 2) == (0.0, 0.0, 0.0)

    def test_empty_reference_rejected(self):
        with pytest.raises(ParameterError):
            rouge_n(" , ", "a b", 1)

    def test_empty_candidate_rejected(self):
        with pytest.raises(ParameterError):
            rouge_n("a b", "", 1)

    def test_bad_n_rejected(self):
        for n in (3, True, 1.0, 2.0):
            with pytest.raises(ParameterError):
                rouge_n("a", "a", n)

    def test_swap_exchanges_precision_recall(self):
        a, b = "the cat sat on the mat", "a cat sat"
        forward = rouge_n(a, b, 1)
        backward = rouge_n(b, a, 1)
        assert forward.precision == backward.recall
        assert forward.recall == backward.precision
        assert forward.f1 == backward.f1


class TestRougeL:
    def test_identical_texts(self):
        assert rouge_l("a b c", "a b c") == (1.0, 1.0, 1.0)

    def test_punctuation_only_reference_rejected(self):
        with pytest.raises(ParameterError, match="^reference is empty after tokenization$"):
            rouge_l("!!", "a b")

    def test_punctuation_only_candidate_rejected(self):
        with pytest.raises(ParameterError, match="^candidate is empty after tokenization$"):
            rouge_l("a b", "!!")

    def test_reordered_tokens_fixture(self):
        precision, recall, f1 = rouge_l("a b c d", "a c d b")
        assert precision == 0.75
        assert recall == 0.75
        assert f1 == 0.75

    def test_single_shared_token(self):
        precision, recall, _ = rouge_l("x a y z", "q a")
        assert precision == 0.5  # 1 / |candidate|
        assert recall == 0.25  # 1 / |reference|

    def test_lcs_against_brute_force(self):
        import itertools

        def brute_lcs(a, b):
            best = 0
            for r in range(len(a), 0, -1):
                for combo in itertools.combinations(range(len(a)), r):
                    sub = [a[i] for i in combo]
                    it = iter(b)
                    if all(tok in it for tok in sub):
                        return r
            return best

        import random

        rand = random.Random(4)
        vocab = list("abcd")
        for _ in range(30):
            ref = " ".join(rand.choices(vocab, k=rand.randint(1, 7)))
            cand = " ".join(rand.choices(vocab, k=rand.randint(1, 7)))
            expected = brute_lcs(ref.split(), cand.split())
            got = rouge_l(ref, cand)
            assert got.recall == pytest.approx(expected / len(ref.split()), abs=1e-12)

    def test_f1_is_harmonic_mean(self):
        result = rouge_l("a b c d e", "a c e f")
        p, r = result.precision, result.recall
        assert result.f1 == pytest.approx(2 * p * r / (p + r), rel=1e-12)
        assert result.f1 <= min(2 * p, 2 * r)

    def test_swap_exchanges_precision_recall(self):
        a, b = "the cat sat on the mat", "a cat sat quietly"
        forward = rouge_l(a, b)
        backward = rouge_l(b, a)
        assert forward.precision == backward.recall
        assert forward.recall == backward.precision
        assert forward.f1 == backward.f1


class TestHallucination:
    def test_all_verbatim(self):
        records = [("The cat sat on the mat", ["cat sat", "the mat"])]
        assert hallucination_rate(records) == 0.0

    def test_half_missing(self):
        records = [("The cat sat", ["cat sat", "dog ran"])]
        assert hallucination_rate(records) == 0.5

    def test_case_and_whitespace_normalized(self):
        records = [("The  Cat sat\non the mat", ["the cat SAT", "ON   THE MAT"])]
        assert hallucination_rate(records) == 0.0

    def test_aggregated_across_records(self):
        records = [
            ("alpha beta", ["alpha", "gamma"]),
            ("delta epsilon", ["zeta"]),
        ]
        assert hallucination_rate(records) == pytest.approx(2 / 3)

    def test_order_invariant(self):
        records = [("a b", ["a", "z"]), ("c d", ["c"])]
        assert hallucination_rate(records) == hallucination_rate(records[::-1])

    def test_no_examples_rejected(self):
        with pytest.raises(RateUndefinedError):
            hallucination_rate([("source", [])])

    def test_empty_source_rejected(self):
        with pytest.raises(ValidationError):
            hallucination_rate([("", ["x"])])
        for records in ([(5, ["x"])], [("a", [5])], [("a b", ["a", None])]):
            with pytest.raises(ValidationError, match="^text must be a string, got "):
                hallucination_rate(records)
        # a bare string is not a sequence of examples, one per character
        message = "^examples must be a sequence of strings, got 'xy'$"
        with pytest.raises(ValidationError, match=message):
            hallucination_rate([("abc", "xy")])


class TestEvaluateTask:
    def test_sentiment_report(self):
        records = [
            {"gold": "pos", "pred": "pos"},
            {"gold": "pos", "pred": "neg"},
            {"gold": "neg", "pred": "neg"},
            {"gold": "neg", "pred": "neg"},
        ]
        report = evaluate_task("sentiment", records)
        assert report == {
            "count": 4,
            "macro_precision": 0.8333,
            "macro_recall": 0.75,
            "macro_f1": 0.7333,
        }

    def test_reasoning_report(self):
        records = [{"gold": "A", "pred": "A"}, {"gold": "B", "pred": "C"}]
        assert evaluate_task("reasoning", records) == {"count": 2, "accuracy": 0.5}

    def test_summarization_report_with_bertscore_passthrough(self):
        records = [
            {"reference": "the cat sat", "candidate": "the cat", "bertscore": 0.9},
            {"reference": "a b c d", "candidate": "a c d b", "bertscore": 0.8},
        ]
        report = evaluate_task("summarization", records)
        assert report["count"] == 2
        # second record is a reordering: ROUGE-1 sees full overlap, ROUGE-L does not
        assert report["rouge1_f1"] == pytest.approx((0.8 + 1.0) / 2, abs=1e-4)
        assert report["rougeL_f1"] == pytest.approx((0.8 + 0.75) / 2, abs=1e-4)
        assert report["bertscore"] == pytest.approx(0.85, abs=1e-9)

    def test_extraction_report(self):
        records = [{"source": "The cat sat", "examples": ["cat sat", "dog ran"]}]
        report = evaluate_task("extraction", records)
        assert report["hallucination_rate"] == 0.5
        assert report["matching"] == "normalized-substring"
        assert report["examples"] == 2

    def test_missing_field_rejected(self):
        with pytest.raises(FormatError):
            evaluate_task("sentiment", [{"gold": "a"}])

    def test_unknown_task_rejected(self):
        with pytest.raises(ParameterError):
            evaluate_task("translation", [{"gold": "a", "pred": "a"}])

    def test_empty_records_rejected(self):
        with pytest.raises(ParameterError):
            evaluate_task("sentiment", [])

    def test_values_rounded_to_four_decimals(self):
        records = [{"gold": "a", "pred": "a"}, {"gold": "a", "pred": "b"}, {"gold": "a", "pred": "a"}]
        report = evaluate_task("reasoning", records)
        assert report["accuracy"] == 0.6667
