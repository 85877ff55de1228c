"""Independent answer oracle for the benchmark.

Two checks, neither of which goes through the system's own lookup code:

* :class:`TripleWalker` follows an answered predicate path from its entity
  over the raw triples of the knowledge base.  It builds its own
  ``(subject, predicate) -> objects`` index from ``store.triples()``, so the
  expanded store, ``KBView`` and ``repro.kb.paths.follow`` are never used.
  A KB *state* is the base triples minus a set of removed triples; the
  benchmark's writes only delete gold facts and restore them, so every
  state it can observe has that shape.
* :func:`judge` compares an answer's value set with the world generator's
  gold (``QAPair.meta["values"]``, ``BenchmarkQuestion.gold_values``).

A value-set mismatch against the walk is a wrong output (a failed
operation); a mismatch against gold is the method's quality, reported but
not failed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

LITERAL_PREFIX = '"'
PATH_SEPARATOR = "->"

Triple = tuple[str, str, str]
NO_REMOVALS: frozenset[Triple] = frozenset()


def render(term: str) -> str:
    """A KB term as answers print it: literals lose their quote prefix."""
    return term[1:] if term.startswith(LITERAL_PREFIX) else term


class TripleWalker:
    """Walks predicate paths over raw triples, under removal overlays."""

    def __init__(self, triples: Iterable[Triple]) -> None:
        self._objects: dict[tuple[str, str], set[str]] = defaultdict(set)
        self.n_triples = 0
        for subject, predicate, obj in triples:
            self._objects[(subject, predicate)].add(obj)
            self.n_triples += 1
        self._memo: dict[tuple[str, str, frozenset[Triple]], frozenset[str]] = {}

    @classmethod
    def from_store(cls, store) -> "TripleWalker":
        """Index every raw triple of a KB backend (``store.triples()``)."""
        return cls((t.subject, t.predicate, t.object) for t in store.triples())

    def has(self, triple: Triple) -> bool:
        subject, predicate, obj = triple
        return obj in self._objects.get((subject, predicate), ())

    def walk(
        self, entity: str, path: str, removed: frozenset[Triple] = NO_REMOVALS
    ) -> frozenset[str]:
        """Rendered values reached from ``entity`` along ``path`` ("p1->p2")
        in the state "base triples minus ``removed``"."""
        key = (entity, path, removed)
        found = self._memo.get(key)
        if found is None:
            frontier = {entity}
            for predicate in path.split(PATH_SEPARATOR):
                reached: set[str] = set()
                for node in frontier:
                    for obj in self._objects.get((node, predicate), ()):
                        if not removed or (node, predicate, obj) not in removed:
                            reached.add(obj)
                frontier = reached
                if not frontier:
                    break
            found = frozenset(render(term) for term in frontier)
            self._memo[key] = found
        return found

    def consistent(
        self,
        answered: bool,
        entity: str | None,
        predicate: str | None,
        values: Iterable[str],
        states: Iterable[frozenset[Triple]] = (NO_REMOVALS,),
    ) -> bool:
        """True when an answer's value set equals the walk of its own
        (entity, predicate) in at least one of ``states``.

        An abstention claims no values, so it is consistent with any state;
        an answer without an entity or a predicate cannot be checked and is
        not.
        """
        if not answered:
            return True
        if not entity or not predicate:
            return False
        given = frozenset(values)
        return any(given == self.walk(entity, predicate, state) for state in states)


def judge(values: Iterable[str], gold: Iterable[str]) -> bool:
    """Right against gold: equal non-empty value sets, compared case-blind."""
    gold_set = {value.lower() for value in gold}
    return bool(gold_set) and gold_set == {value.lower() for value in values}
