"""Timed ω-words and timed ω-languages (Sections 2–3 of the paper)."""

from .batch import LassoBatch
from .concat import ConcatUndefined, concat, concat_many, naive_concat
from .language import (
    ComplementLanguage,
    ConcatLanguage,
    FiniteLanguage,
    IntersectionLanguage,
    KleeneClosure,
    MembershipUndecidable,
    PredicateLanguage,
    TimedLanguage,
    UnionLanguage,
)
from .subseq import complementary_split, is_subsequence, is_timed_subsequence
from .timedword import Pair, TimedWord
from .timeseq import OMEGA, TimeSequence, Trilean
from .transform import delay, filter_symbols, iterate_omega, relabel, stretch

__all__ = [
    "TimeSequence",
    "TimedWord",
    "LassoBatch",
    "Pair",
    "OMEGA",
    "Trilean",
    "concat",
    "concat_many",
    "naive_concat",
    "ConcatUndefined",
    "is_subsequence",
    "is_timed_subsequence",
    "complementary_split",
    "TimedLanguage",
    "PredicateLanguage",
    "FiniteLanguage",
    "UnionLanguage",
    "IntersectionLanguage",
    "ComplementLanguage",
    "ConcatLanguage",
    "KleeneClosure",
    "MembershipUndecidable",
    "delay",
    "stretch",
    "filter_symbols",
    "relabel",
    "iterate_omega",
]
