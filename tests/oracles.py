"""Independent brute-force reference implementations used as test oracles.

The belief oracles work on plain dicts mapping frozensets of labels to
numbers and loop over the whole powerset, sharing no code with the
library's bitmask tables.  They use only ``+``, ``-``, ``*`` and ``/``,
so over ``fractions.Fraction`` they are exact, which the exact forward
pass uses.  The crisp-test oracle enumerates every state sequence.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product
from math import prod


def powerset(labels):
    labels = list(labels)
    return [
        frozenset(c)
        for c in chain.from_iterable(
            combinations(labels, r) for r in range(len(labels) + 1)
        )
    ]


def mass_dict(mf):
    """Convert a library MassFunction to a frozenset-keyed dict."""
    return {
        frozenset(mf.frame.subset_labels(a)): float(mf.masses[a])
        for a in range(mf.frame.n_subsets)
    }


def naive_commonality(m, frame):
    return {
        a: sum(v for b, v in m.items() if b >= a)
        for a in powerset(frame)
    }


def naive_plausibility(m, frame):
    return {
        a: sum(v for b, v in m.items() if b & a)
        for a in powerset(frame)
    }


def naive_belief(m, frame):
    return {
        a: sum(v for b, v in m.items() if b and b <= a)
        for a in powerset(frame)
    }


def naive_mass_from_commonality(q, frame):
    """m(A) = sum over supersets B of (-1)^(|B|-|A|) q(B)."""
    return {
        a: sum((-1) ** (len(b) - len(a)) * q[b] for b in powerset(frame) if b >= a)
        for a in powerset(frame)
    }


def naive_mass_from_plausibility(pl, frame):
    """Mass via the implicability b(A) = 1 - pl(complement of A)."""
    frame = frozenset(frame)
    b = {a: 1 - pl[frame - a] for a in powerset(frame)}
    return {
        a: sum((-1) ** (len(a) - len(c)) * b[c] for c in powerset(frame) if c <= a)
        for a in powerset(frame)
    }


def naive_conjunctive(m1, m2, frame):
    out = {a: 0 for a in powerset(frame)}
    for b, v1 in m1.items():
        for c, v2 in m2.items():
            out[b & c] += v1 * v2
    return out


def naive_disjunctive(m1, m2, frame):
    out = {a: 0 for a in powerset(frame)}
    for b, v1 in m1.items():
        for c, v2 in m2.items():
            out[b | c] += v1 * v2
    return out


def naive_conflict(m1, m2):
    return sum(
        v1 * v2 for b, v1 in m1.items() for c, v2 in m2.items() if not (b & c)
    )


def dicts_close(d1, d2, tol=1e-9):
    keys = set(d1) | set(d2)
    return all(abs(d1.get(k, 0.0) - d2.get(k, 0.0)) <= tol for k in keys)


def random_mass_dict(rng, labels, *, allow_empty=True, max_focals=None):
    """Random BBA as a dict; focal count and weights drawn from ``rng``."""
    subsets = powerset(labels)
    if not allow_empty:
        subsets = [s for s in subsets if s]
    k = rng.integers(1, (max_focals or len(subsets)) + 1)
    k = min(int(k), len(subsets))
    chosen = rng.choice(len(subsets), size=k, replace=False)
    weights = rng.random(k)
    weights = weights / weights.sum()
    return {subsets[int(i)]: float(w) for i, w in zip(chosen, weights)}


#: the reference path's Dempster reset guard: a step resets iff K >= 1 - 1e-12
EXACT_RESET_GUARD = 1 - Fraction(1, 10**12)


@lru_cache(maxsize=None)
def exact_consonant(labels, poss):
    """Consonant BBA of a tuple of singleton possibilities, by the Mobius
    inverse of pl(A) = the best possibility among A's members.  Do not
    change the dict it returns: it is cached."""
    level = dict(zip(labels, map(Fraction, poss)))
    pl = {a: max([Fraction(0)] + [level[s] for s in a]) for a in powerset(labels)}
    return naive_mass_from_plausibility(pl, labels)


def exact_normalize(combined, parents, rule, labels):
    """``belief.normalize`` of a conjunctive combination of ``parents``;
    None where the Dempster step resets."""
    full, empty = frozenset(labels), frozenset()
    k, out = combined[empty], dict(combined)
    out[empty] = 0
    if rule == "dempster":
        if k >= EXACT_RESET_GUARD:
            return None
        return {a: v / (1 - k) for a, v in out.items()}
    if rule == "yager":
        out[full] += k
        return out
    m1, m2 = parents
    for b, v1 in m1.items():
        for c, v2 in m2.items():
            if not b & c:
                out[(b | c) or full] += v1 * v2
    return out


def exact_forward(model, records):
    """Conflicts and Dempster reset indices of ``forward.run_forward`` over
    ``Fraction``: every float a model or record yields is a dyadic
    rational, so the pass is exact up to the reset guard, which is
    compared exactly.  The running belief is normal after every step, so
    its contour never vanishes."""
    labels = model.frame.labels
    vacuous = {a: Fraction(a == frozenset(labels)) for a in powerset(labels)}
    current = {a: Fraction(v) for a, v in mass_dict(model.prior).items()}
    conflicts, resets = [], []
    for t, rec in enumerate(records):
        e = exact_consonant(labels, tuple(model.emission_possibilities(rec.outputs)))
        if t == 0:
            predicted = current
        else:
            contour = naive_commonality(current, labels)
            total = sum(contour[frozenset([s])] for s in labels)
            arcs = model.transition_possibilities(rec.inputs)
            predicted = {a: Fraction(0) for a in powerset(labels)}
            for i, s in enumerate(labels):
                weight = contour[frozenset([s])] / total
                for a, v in exact_consonant(labels, tuple(arcs[i])).items():
                    predicted[a] += weight * v
        combined = naive_conjunctive(predicted, e, labels)
        conflicts.append(combined[frozenset()])
        current = exact_normalize(combined, (predicted, e), model.rule, labels)
        if current is None:
            current = vacuous
            resets.append(t)
    return conflicts, resets


def exact_sliding(model, records, window_len, stride):
    """``forward.sliding_effectiveness``'s conflicts, resets and window
    values, each window its own pass, over ``Fraction``."""
    conflicts, resets = exact_forward(model, records)
    values = [
        prod(1 - k for k in exact_forward(model, records[s : s + window_len])[0])
        for s in range(0, len(records) - window_len + 1, stride)
    ]
    return conflicts, resets, values


def brute_max_crisp_test(model, records):
    """Pass/fail test maximized over expected state sequences by brute force."""
    n = model.frame.size
    emission_ok = [model.emission_possibilities(r.outputs) == 1.0 for r in records]
    arc_ok = [
        model.transition_possibilities(r.inputs) == 1.0 for r in records[1:]
    ]
    for seq in product(range(n), repeat=len(records)):
        if not emission_ok[0][seq[0]]:
            continue
        if all(
            arc_ok[t - 1][seq[t - 1], seq[t]] and emission_ok[t][seq[t]]
            for t in range(1, len(records))
        ):
            return 1
    return 0
