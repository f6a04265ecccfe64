"""Instance model and JSON round-trips."""

import pytest

from sharedsched.dyadic import Dyadic
from sharedsched.model import (
    Instance,
    InstanceError,
    Job,
    parse_instance,
    serialize_instance,
)
from sharedsched.transforms import parse_general_schedule


@pytest.mark.parametrize("m,message", [('"x"', "m must be an int, got 'x'"), ("0", "m < 1")])
def test_m_is_checked_before_any_job(monkeypatch, m, message):
    calls = []
    from_string = Dyadic.from_string
    monkeypatch.setattr(Dyadic, "from_string", lambda text: calls.append(text) or from_string(text))
    jobs = ",".join(f'{{"id":"j{i}","p":"{i + 1}","w":"1"}}' for i in range(100))
    with pytest.raises(InstanceError, match=f"^{message}$"):
        parse_instance(f'{{"m":{m},"jobs":[{jobs}]}}')
    assert calls == []
    assert len(parse_instance(f'{{"m":1,"jobs":[{jobs}]}}')) == len(calls) == 100


def test_parse_minimal():
    inst = parse_instance('{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    assert len(inst) == 1
    assert inst.m == 1
    assert inst.job("a").p == Dyadic(4)


def test_parse_dyadic_literal():
    inst = parse_instance('{"m":1,"jobs":[{"id":"a","p":"7/2","w":"1"}]}')
    assert inst.job("a").p == Dyadic(7, 1)


def test_parse_integer_values_accepted():
    inst = parse_instance('{"m":1,"jobs":[{"id":"a","p":4,"w":2}]}')
    assert inst.job("a").p == Dyadic(4)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('{"m":0,"jobs":[{"id":"a","p":"4","w":"1"}]}', "m < 1"),
        ('{"m":1,"jobs":[{"id":"a","p":"0","w":"1"}]}', "p <= 0"),
        ('{"m":1,"jobs":[{"id":"a","p":"4","w":"-1"}]}', "w <= 0"),
        ('{"m":1,"jobs":[{"id":"a","p":"4","w":"1"},{"id":"a","p":"2","w":"1"}]}', "duplicate id"),
        ('{"m":1,"jobs":[{"id":"a","p":"1/3","w":"1"}]}', "power of two"),
        ('{"m":1,"jobs":[{"id":"a","p":1.5,"w":"1"}]}', "dyadic"),
        ('{"m":1,"jobs":[{"id":"a","p":"4"}]}', "missing"),
        ('{"m":1}', "requires keys"),
        ("{", "malformed JSON"),
        ('{"m":true,"jobs":[]}', "must be an int"),
        ('[1,2]', "JSON object"),
        ('{"m":1,"jobs":[{"id":3,"p":"4","w":"1"}]}', "id must be a string"),
        ('{"m":1,"jobs":[],"extra":1}', "unknown instance keys"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(InstanceError) as err:
        parse_instance(text)
    assert fragment in str(err.value)


_INSTANCE = '{"m":1,"jobs":[{"id":"a","p":"4","w":"1"},%s]}'
_GENERAL = (
    '{"jobs":[{"id":"a","shared_processor":null,"shared_intervals":[],'
    '"private_completion":"4"},%s]}'
)


@pytest.mark.parametrize(
    "parse,text,entry,message",
    [
        (parse_instance, _INSTANCE, "7", "jobs[1] must be an object"),
        (parse_instance, _INSTANCE, '{"w":"1"}', "jobs[1] missing keys: ['id', 'p']"),
        (parse_instance, _INSTANCE, '{"id":3,"p":"4","w":"1"}', "jobs[1]: id must be a string"),
        (parse_general_schedule, _GENERAL, "[]", "jobs[1] must be an object"),
        (
            parse_general_schedule,
            _GENERAL,
            '{"id":"b"}',
            "jobs[1] missing keys: ['private_completion', 'shared_intervals', 'shared_processor']",
        ),
        (
            parse_general_schedule,
            _GENERAL,
            '{"id":null,"shared_processor":null,"shared_intervals":[],"private_completion":"1"}',
            "jobs[1]: id must be a string",
        ),
    ],
)
def test_job_entry_errors_in_both_formats(parse, text, entry, message):
    with pytest.raises(InstanceError) as err:
        parse(text % entry)
    assert str(err.value) == message


def test_roundtrip_canonical():
    canonical = '{"jobs": [{"id": "a", "p": "7/2", "w": "1"}, {"id": "b", "p": "4", "w": "3/4"}], "m": 2}'
    assert serialize_instance(parse_instance(canonical)) == canonical


def test_roundtrip_stable():
    text = '{"m":2,"jobs":[{"id":"b","p":4,"w":"3/4"},{"id":"a","p":"7/2","w":"1"}]}'
    once = serialize_instance(parse_instance(text))
    assert serialize_instance(parse_instance(once)) == once


def test_parse_bytes():
    inst = parse_instance(b'{"m":1,"jobs":[{"id":"a","p":"4","w":"1"}]}')
    assert inst.job("a").w == 1


def test_job_validation():
    with pytest.raises(InstanceError):
        Job("", 4, 1)
    with pytest.raises(InstanceError):
        Job("a", -1, 1)
    with pytest.raises(InstanceError):
        Instance((Job("a", 1, 1),), 0)


def test_instance_helpers():
    inst = Instance((Job("a", 1, 2), Job("b", 2, 2)), 1)
    assert inst.equal_weights()
    assert inst.has_job("a") and not inst.has_job("zz")
    with pytest.raises(InstanceError):
        inst.job("zz")
    uneq = Instance((Job("a", 1, 2), Job("b", 2, 3)), 1)
    assert not uneq.equal_weights()
    assert Instance((), 1).equal_weights()
