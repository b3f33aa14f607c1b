"""The integer-key interleave equals the paper's Fraction-mark construction.

:func:`~repro.schedule.local.interleaved_order` sorts exact integer keys
``k·(L/(ψ_d+1))`` with ``L = lcm(ψ_d+1)``.  The oracle below is the
literal Figure 3 construction: one ``Fraction`` mark at ``k/(ψ_d+1)`` per
task, sorted by position, then ψ, then priority index.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, List, Mapping, Sequence, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.schedule.local import interleaved_order

#: ψ+1 over these is pairwise coprime: L is their product (~2000 bits for
#: all of them)
PRIMES = [p for p in range(2, 2000) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def fraction_interleaved_order(
    quantities: Mapping[Hashable, int],
    priority: Sequence[Hashable],
) -> Tuple[Hashable, ...]:
    """Figure 3 with one ``Fraction`` mark per task (the oracle)."""
    order = list(priority)
    index = {dest: i for i, dest in enumerate(order)}
    marks: List[Tuple[Fraction, int, int, Hashable]] = []
    for dest in order:
        count = quantities[dest]
        if count == 0:
            continue
        delta = Fraction(1, count + 1)
        for k in range(1, count + 1):
            marks.append((k * delta, count, index[dest], dest))
    marks.sort(key=lambda m: (m[0], m[1], m[2]))
    return tuple(m[3] for m in marks)


def check(psis: List[int], permutation: List[int]) -> None:
    quantities = {f"d{i}": psi for i, psi in enumerate(psis)}
    priority = [f"d{i}" for i in permutation]
    assert (interleaved_order(quantities, priority)
            == fraction_interleaved_order(quantities, priority))


@st.composite
def bunch(draw, psi):
    psis = draw(st.lists(psi, min_size=1, max_size=8))
    return psis, draw(st.permutations(range(len(psis))))


def test_paper_example():
    quantities = {"P0": 1, "P1": 2, "P2": 4}
    order = interleaved_order(quantities, ["P0", "P1", "P2"])
    assert order == ("P2", "P1", "P2", "P0", "P2", "P1", "P2")
    assert order == fraction_interleaved_order(quantities, ["P0", "P1", "P2"])


@settings(max_examples=300, deadline=None)
@given(bunch(st.integers(0, 12) | st.just(0)))
def test_small_quantities_with_zeros(case):
    check(*case)


@settings(max_examples=2, deadline=None)
@given(st.integers(0, 10 ** 6), st.lists(st.integers(0, 50), max_size=3))
@example(10 ** 6, [1, 0, 50])
def test_quantities_up_to_a_million(big, small):
    psis = [big] + small
    check(psis, list(reversed(range(len(psis)))))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from(PRIMES[:60]), min_size=2, max_size=40,
                unique=True), st.randoms(use_true_random=False))
def test_pairwise_coprime_bunch_sizes(primes, rng):
    psis = [p - 1 for p in primes]
    permutation = list(range(len(psis)))
    rng.shuffle(permutation)
    check(psis, permutation)


def test_two_hundred_coprime_children():
    """L is a ~2000-bit product; the keys stay exact."""
    check([p - 1 for p in PRIMES[:200]], list(range(200)))
