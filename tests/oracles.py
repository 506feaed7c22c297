"""Independent brute-force reference implementations used as test oracles.

The belief oracles work on plain dicts mapping frozensets of labels to
floats and loop over the whole powerset, sharing no code with the
library's bitmask tables.  The crisp-test oracle enumerates every state
sequence.
"""

from itertools import chain, combinations, product


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
    b = {a: 1.0 - pl[frame - a] for a in powerset(frame)}
    return {
        a: sum((-1) ** (len(a) - len(c)) * b[c] for c in powerset(frame) if c <= a)
        for a in powerset(frame)
    }


def naive_conjunctive(m1, m2, frame):
    out = {a: 0.0 for a in powerset(frame)}
    for b, v1 in m1.items():
        for c, v2 in m2.items():
            out[b & c] += v1 * v2
    return out


def naive_disjunctive(m1, m2, frame):
    out = {a: 0.0 for a in powerset(frame)}
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
