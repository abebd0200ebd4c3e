import pytest

from fulkerson_lab.budget import Budget, SearchResult
from fulkerson_lab.generators import flower_snark
from fulkerson_lab.ffamily import find_ffamily
from fulkerson_lab.fulkerson import find_fr_triple


def test_search_result_three_states():
    assert SearchResult(42, True).found
    assert SearchResult(None, True).definitely_absent
    assert SearchResult(None, False).unknown
    assert not SearchResult(None, False).definitely_absent


def test_budget_counts_and_exhausts():
    b = Budget(limit=3)
    assert b.spend() and b.spend() and b.spend()
    assert not b.spend()
    assert b.exhausted


def test_cancellation_token_stops_searches():
    calls = []

    def cancel():
        calls.append(None)
        return len(calls) > 5

    res = find_ffamily(flower_snark(5), budget=Budget(limit=10 ** 9, cancel=cancel))
    assert res.unknown


def test_env_default_budget(monkeypatch):
    monkeypatch.setenv("FULKERSON_LAB_BUDGET", "7")
    b = Budget()
    assert b.limit == 7


@pytest.mark.parametrize("value", ["abc", "-3", "", "1.5"])
def test_malformed_env_budget_raises(monkeypatch, value):
    monkeypatch.setenv("FULKERSON_LAB_BUDGET", value)
    with pytest.raises(ValueError, match=r"^\$FULKERSON_LAB_BUDGET: expected a non-negative"):
        Budget()


def test_exhausted_budget_never_claims_absence():
    res = find_fr_triple(flower_snark(5), budget=Budget(limit=1))
    assert res.unknown and not res.definitely_absent
