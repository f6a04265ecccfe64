"""Differential tests for the literal parser and ``parse_instance``.

``Dyadic.from_string`` matches one strict pattern and hands its integers
straight to the trusted constructor, and ``parse_instance`` parses each
distinct literal once.  Both are checked against a ``Fraction`` oracle and
against a test-local copy of the code they replaced (the ``replaced_*``
functions below), which must give the same ``Instance`` or the same error
text.  The copies accepted a final newline and non-ASCII digits, which the
strict grammar rejects; those literals are the only expected differences.
"""

import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

from sharedsched import dyadic
from sharedsched.dyadic import Dyadic, as_dyadic
from sharedsched.model import Instance, InstanceError, Job, _job_id, _load_json, parse_instance
from sharedsched.transforms import parse_general_schedule

from conftest import literal_corpus

BOUND = dyadic._MAX_EXPONENT

# -- the replaced code ------------------------------------------------------------

_REPLACED_RE = re.compile(r"^(-?\d+)(?:/(?:2\^(\d+)|(\d+)))?$")


def replaced_from_string(text):
    match = _REPLACED_RE.match(text)
    if not match:
        raise ValueError(f"not a dyadic literal: {text!r}")
    num, exp, den = match.groups()
    if den is not None:
        den = int(den)
        if den <= 0 or den & (den - 1):
            raise ValueError(f"denominator is not a power of two: {text!r}")
        exp = den.bit_length() - 1
    return Dyadic(int(num), int(exp or 0))


TOO_LONG = f"a number has more than {sys.get_int_max_str_digits()} digits"


def with_strict_grammar(text):
    """The replaced parser, refusing the two forms that the strict grammar
    refuses (a final newline and non-ASCII digits), and giving the
    package's message in place of CPython's for a number past the
    int-from-str digit limit."""
    if not text.isascii() or text.endswith("\n"):
        raise ValueError(f"not a dyadic literal: {text!r}")
    try:
        return replaced_from_string(text)
    except ValueError as exc:
        if str(exc).startswith("Exceeds the limit"):
            raise ValueError(TOO_LONG) from None
        raise


def replaced_json_to_dyadic(value, what, from_string):
    if isinstance(value, bool) or isinstance(value, float):
        raise InstanceError(f"{what}: expected a dyadic string, got {value!r}")
    try:
        if isinstance(value, str):
            return from_string(value)
        return as_dyadic(value)
    except (ValueError, TypeError) as exc:
        raise InstanceError(f"{what}: {exc}") from exc


def replaced_parse_instance(text, from_string=replaced_from_string):
    data = _load_json(text)
    if not isinstance(data, dict):
        raise InstanceError("instance must be a JSON object")
    unknown = set(data) - {"m", "jobs"}
    if unknown:
        raise InstanceError(f"unknown instance keys: {sorted(unknown)}")
    if "m" not in data or "jobs" not in data:
        raise InstanceError('instance requires keys "m" and "jobs"')
    raw_jobs = data["jobs"]
    if not isinstance(raw_jobs, list):
        raise InstanceError('"jobs" must be a list')
    Instance((), data["m"])  # m is checked before the jobs
    jobs = []
    for idx, entry in enumerate(raw_jobs):
        jobs.append(
            Job(
                _job_id(entry, idx, "p", "w"),
                replaced_json_to_dyadic(entry["p"], f"jobs[{idx}].p", from_string),
                replaced_json_to_dyadic(entry["w"], f"jobs[{idx}].w", from_string),
            )
        )
    return Instance(tuple(jobs), data["m"])


def outcome(parse, *args):
    try:
        value = parse(*args)
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, Dyadic):
        return value.mantissa, value.exponent
    return value.m, [(j.id, j.p.mantissa, j.p.exponent, j.w.mantissa, j.w.exponent) for j in value.jobs]


# -- the Fraction oracle ------------------------------------------------------------


def oracle(text: str) -> Fraction:
    """The value of a well-formed ASCII literal, read without the package."""
    num, _, den = text.partition("/")
    if den.startswith("2^"):
        return Fraction(int(num), 1 << int(den[2:]))
    return Fraction(int(num), int(den or 1))


def every_form(rng: random.Random) -> list[tuple[str, int]]:
    """``n``, ``n/d`` and ``n/2^k``, signed, zero and with leading zeros,
    with exponents spread up to the bound and just past it; each literal
    comes with the exponent it is written with."""
    literals = []
    for _ in range(3000):
        num = rng.choice(["0", "1", "000", "07", str(rng.randint(0, 10**6)), str(rng.getrandbits(90))])
        num = rng.choice(["", "-"]) + num
        k = rng.choice([0, 1, rng.randint(0, 64), rng.randint(0, BOUND + 2), BOUND, BOUND + 1])
        zeros = "0" * rng.randint(0, 2)
        form = rng.randrange(3)
        if form == 0:
            literals.append((num, 0))
        elif form == 1:
            literals.append((f"{num}/2^{zeros}{k}", k))
        else:
            literals.append((f"{num}/{zeros}{1 << k}", k))
    return literals


def test_from_string_matches_fraction_oracle():
    past = 0
    for text, written in every_form(random.Random(31)):
        if written > BOUND:
            past += 1
            with pytest.raises(OverflowError, match=f"exponent {written} exceeds the limit of {BOUND}"):
                Dyadic.from_string(text)
            continue
        value = oracle(text)
        got = Dyadic.from_string(text)
        # canonical: the oracle's lowest terms
        assert (got.mantissa, 1 << got.exponent) == (value.numerator, value.denominator), text
    assert past > 100


def test_exponent_bound():
    assert BOUND >= 2001  # the deepest exponent in tests/data/transforms_digests.json
    assert Dyadic.from_string(f"3/2^{BOUND}") == Dyadic(3, BOUND)
    assert Dyadic.from_string(f"3/{1 << BOUND}") == Dyadic(3, BOUND)
    assert Dyadic.from_string(f"{1 << BOUND}/2^{BOUND}") == Dyadic(1)
    # the written exponent counts, whatever the value reduces to
    for text in (f"3/2^{BOUND + 1}", f"4/{1 << (BOUND + 1)}", "1/2^20000000000", f"0/2^{BOUND + 1}"):
        with pytest.raises(OverflowError) as exc:
            Dyadic.from_string(text)
        # the denominator 2^8193 has 2467 digits: the text quotes a bounded prefix
        assert str(exc.value).endswith(f"exceeds the limit of {BOUND}: {dyadic._quoted(text)}")
    with pytest.raises(OverflowError, match=r"^jobs\[1\]\.w: exponent 20000000000 exceeds"):
        parse_instance('{"m":1,"jobs":[{"id":"a","p":"1","w":"1"},{"id":"b","p":"1","w":"1/2^20000000000"}]}')
    # the public constructor and the arithmetic stay unbounded
    assert Dyadic(1, BOUND + 1).half().exponent == BOUND + 2


# str.isdigit() holds for every one of these; only the ASCII ones are literals
PLAIN_DIGIT_EDGES = ["²", "¹2", "٣", "０", "007", "1" * 5000]


def test_from_string_matches_replaced_parser():
    corpus = literal_corpus(random.Random(99), 20_000) + ["4\n", "٣/2", f"1/{'8' * 4400}"]
    corpus += PLAIN_DIGIT_EDGES
    differences = 0
    for text in corpus:
        expected = outcome(with_strict_grammar, text)
        assert outcome(Dyadic.from_string, text) == expected, repr(text)
        differences += expected != outcome(replaced_from_string, text)
    assert differences > 50


def test_plain_digit_edges():
    assert all(text.isdigit() for text in PLAIN_DIGIT_EDGES)
    *non_ascii, leading_zeros, too_long = PLAIN_DIGIT_EDGES
    for text in non_ascii:
        with pytest.raises(ValueError) as exc:
            Dyadic.from_string(text)
        assert str(exc.value) == f"not a dyadic literal: {text!r}"
    assert outcome(Dyadic.from_string, leading_zeros) == (7, 0)
    assert outcome(Dyadic.from_string, too_long) == ("ValueError", TOO_LONG)


LONG = "1" * 5000


@pytest.mark.parametrize(
    "text",
    [LONG, f"-{LONG}", f"{LONG}/2", f"1/2^{LONG}", "1/" + "8" * 4400, f"{LONG}/3"],
    ids=["digits", "negative", "numerator", "exponent", "denominator", "numerator-first"],
)
def test_number_past_the_digit_limit_has_one_message(text):
    # CPython's own text differs between versions (3.10 omits "digits")
    # and tells the reader to call sys.set_int_max_str_digits(); a number
    # past the limit is refused before the denominator is checked
    assert TOO_LONG == "a number has more than 4300 digits"
    assert outcome(Dyadic.from_string, text) == ("ValueError", TOO_LONG)
    assert outcome(as_dyadic, text) == ("ValueError", TOO_LONG)


def entry_corpus(rng: random.Random, count: int) -> list[str]:
    """Instances whose entries are valid, malformed, or repeat a literal:
    memoized literals must keep every error naming its first entry."""
    pool = literal_corpus(rng, 40) + ["4\n", "٣/2"] + ["1", "3/4", "0", "-1", "7/2^3"]
    odd_values = [1.5, True, None, [], {}, 4, 0, -3, 10**30]
    instances = []
    for _ in range(count):
        jobs = []
        for idx in range(rng.randint(0, 6)):
            entry = {"id": f"j{idx}" if rng.random() < 0.97 else rng.choice([3, "", "j0"])}
            for key in ("p", "w"):
                roll = rng.random()
                if roll < 0.7:
                    entry[key] = rng.choice(pool[-5:])
                elif roll < 0.9:
                    entry[key] = rng.choice(pool)
                elif roll < 0.97:
                    entry[key] = rng.choice(odd_values)
            if rng.random() < 0.02:
                entry = rng.choice([7, "x", []])
            jobs.append(entry)
        instances.append(json.dumps({"m": rng.choice([1, 1, 2, 0]), "jobs": jobs}))
    return instances


def test_parse_instance_matches_replaced_parser():
    kinds = Counter()
    for text in entry_corpus(random.Random(5), 4000):
        got = outcome(parse_instance, text)
        assert got == outcome(replaced_parse_instance, text, with_strict_grammar), text
        if got != outcome(replaced_parse_instance, text):
            kinds["strict grammar"] += 1
        kinds["ok" if isinstance(got[0], int) else got[0]] += 1
    assert set(kinds) == {"ok", "InstanceError", "strict grammar"}
    assert min(kinds.values()) > 20


def test_parse_instance_shares_repeated_literals():
    inst = parse_instance('{"m":1,"jobs":[{"id":"a","p":"3/4","w":"1"},{"id":"b","p":"1","w":"3/4"}]}')
    a, b = inst.jobs
    assert a.p is b.w and a.w is b.p
    assert Job("c", a.p, 1).p is a.p  # a Dyadic is stored as given
    with pytest.raises(InstanceError) as exc:
        parse_instance('{"m":1,"jobs":[{"id":"a","p":"1","w":"1/3"},{"id":"b","p":"1/3","w":"1"}]}')
    assert str(exc.value) == "jobs[0].w: denominator is not a power of two: '1/3'"
    # general schedules share one memo across intervals and completions
    entry = '{"id":"%s","shared_processor":1,"shared_intervals":[["%s","%s"]],"private_completion":"%s"}'
    g = parse_general_schedule('{"jobs":[%s,%s]}' % (entry % ("a", 0, "3/4", "3/4"), entry % ("b", "3/4", 2, 2)))
    a, b = g.placements["a"], g.placements["b"]
    assert a.intervals[0][1] is a.private_completion is b.intervals[0][0] == Dyadic(3, 2)
    assert b.intervals[0][1] is b.private_completion == 2
    with pytest.raises(InstanceError) as exc:
        parse_general_schedule('{"jobs":[%s,%s]}' % (entry % ("a", 0, 1, "1/3"), entry % ("b", "1/3", 2, 2)))
    assert str(exc.value) == "job 'a' private completion: denominator is not a power of two: '1/3'"
