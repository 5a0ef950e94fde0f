"""Iteration domains for SCoP statements.

A domain is an ordered list of iterators, each bounded below by the max of
a set of affine expressions and above by the min of another set — exactly
the loop nests a SCoP permits.  Bounds of iterator ``k`` may mention global
parameters and iterators declared before ``k`` (triangular, skewed and
shifted spaces are all expressible).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Sequence, Tuple

from ..memo import memoized_str
from .affine import Affine


@dataclass(frozen=True)
class IterSpec:
    """One loop iterator: ``max(lowers) <= name <= min(uppers)`` (inclusive)."""

    name: str
    lowers: Tuple[Affine, ...]
    uppers: Tuple[Affine, ...]

    def lower_value(self, env: Mapping[str, int]) -> int:
        return max(e.evaluate(env) for e in self.lowers)

    def upper_value(self, env: Mapping[str, int]) -> int:
        return min(e.evaluate(env) for e in self.uppers)

    def rename(self, mapping: Mapping[str, str]) -> "IterSpec":
        m = dict(mapping)
        return IterSpec(m.get(self.name, self.name),
                        tuple(e.rename(m) for e in self.lowers),
                        tuple(e.rename(m) for e in self.uppers))

    def __str__(self) -> str:
        lo = " ,".join(str(e) for e in self.lowers)
        hi = ", ".join(str(e) for e in self.uppers)
        if len(self.lowers) > 1:
            lo = f"max({lo})"
        if len(self.uppers) > 1:
            hi = f"min({hi})"
        return f"{lo} <= {self.name} <= {hi}"


@dataclass(frozen=True)
class Domain:
    """Ordered iterator list forming a (possibly non-rectangular) space."""

    iters: Tuple[IterSpec, ...]

    @staticmethod
    def of(*specs: IterSpec) -> "Domain":
        return Domain(tuple(specs))

    @property
    def depth(self) -> int:
        return len(self.iters)

    @property
    def iterator_names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.iters)

    def spec(self, name: str) -> IterSpec:
        for s in self.iters:
            if s.name == name:
                return s
        raise KeyError(name)

    def validate(self, params: Sequence[str]) -> None:
        """Check the SCoP well-formedness rule on bound references."""
        visible = set(params)
        for spec in self.iters:
            for bound in spec.lowers + spec.uppers:
                unknown = set(bound.variables()) - visible
                if unknown:
                    raise ValueError(
                        f"bound of {spec.name} references undefined "
                        f"names {sorted(unknown)}")
            visible.add(spec.name)

    def enumerate(self, params: Mapping[str, int]) -> Iterator[Dict[str, int]]:
        """Yield every point of the domain as an ``{iterator: value}`` dict.

        Points are produced in original (source) lexicographic order; the
        interpreter re-sorts them by schedule, so this order carries no
        semantic weight.
        """
        env: Dict[str, int] = dict(params)

        def walk(level: int) -> Iterator[Dict[str, int]]:
            if level == len(self.iters):
                yield {s.name: env[s.name] for s in self.iters}
                return
            spec = self.iters[level]
            lo = spec.lower_value(env)
            hi = spec.upper_value(env)
            for value in range(lo, hi + 1):
                env[spec.name] = value
                yield from walk(level + 1)
            env.pop(spec.name, None)

        yield from walk(0)

    def point_count(self, params: Mapping[str, int]) -> int:
        """Exact number of points (by enumeration of the outer levels)."""
        return sum(1 for _ in self.enumerate(params))

    def contains(self, env: Mapping[str, int]) -> bool:
        """True when ``env`` (iterators + params) lies inside the domain."""
        for spec in self.iters:
            value = env[spec.name]
            if value < spec.lower_value(env) or value > spec.upper_value(env):
                return False
        return True

    def extent_hint(self, name: str, params: Mapping[str, int]) -> int:
        """Approximate trip count of one iterator for the cost model.

        Bounds referencing outer iterators are estimated by substituting the
        midpoint of those iterators' own (recursively estimated) ranges —
        i.e. a triangular loop gets roughly half the rectangular extent.
        """
        mids: Dict[str, int] = dict(params)
        for spec in self.iters:
            lo = max(e.evaluate(mids) for e in spec.lowers)
            hi = min(e.evaluate(mids) for e in spec.uppers)
            mids[spec.name] = (lo + hi) // 2
            if spec.name == name:
                return max(0, hi - lo + 1)
        raise KeyError(name)

    def rename(self, mapping: Mapping[str, str]) -> "Domain":
        return Domain(tuple(s.rename(mapping) for s in self.iters))

    @memoized_str
    def __str__(self) -> str:
        return "{ " + " and ".join(str(s) for s in self.iters) + " }"
