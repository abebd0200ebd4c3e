import pytest

from fulkerson_lab.budget import Budget, SearchResult
from fulkerson_lab.generators import flower_snark
from fulkerson_lab.ffamily import find_ffamily
from fulkerson_lab.fulkerson import find_fr_triple
from fulkerson_lab.matchcolor import enumerate_perfect_matchings


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


def _cancel_on_call(k, calls):
    def cancel():
        calls.append(None)
        return len(calls) >= k
    return cancel


# J13 has 8192 perfect matchings; the 10th cancel call comes while the
# first matching is built, the 1000th after some have been yielded.
@pytest.mark.parametrize("fire_on", [10, 1000])
def test_cancel_truncates_matching_enumeration(fire_on):
    calls = []
    budget = Budget(cancel=_cancel_on_call(fire_on, calls))
    enum = enumerate_perfect_matchings(flower_snark(13), budget=budget)
    assert enum.truncated and len(enum) < 8192
    assert budget.exhausted and len(calls) == fire_on
    assert budget.spent == 0


def test_cancelled_enumeration_leaves_fr_triple_unknown():
    calls = []
    res = find_fr_triple(flower_snark(13), budget=Budget(cancel=_cancel_on_call(10, calls)))
    assert res.unknown
    assert len(calls) == 10  # all in the enumeration; the triple search spent nothing


def test_enumeration_without_cancel_spends_nothing():
    budget = Budget(limit=1)
    enum = enumerate_perfect_matchings(flower_snark(5), budget=budget)
    assert len(enum) == 32 and not enum.truncated
    assert budget.spent == 0 and not budget.exhausted
