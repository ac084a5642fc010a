"""Replacement policies for the set-associative caches.

Two policies are provided:

- :class:`LruPolicy` — classic least-recently-used, used at L1 and L2
  (Table 2).
- :class:`PrefetchAwareDeadBlock` — the LLC policy, a simplified
  sampling-free variant of the prefetch-aware dead-block predictor the paper
  cites ("Prefetch aware dead-block predictor similar to [39]", Table 2):
  prefetched lines that have not been demanded are predicted dead and are
  preferred victims, and low-priority prefetch fills are inserted near the
  LRU position (Section 3.6's low-priority fill rule).

``victim`` runs once per cache eviction (hundreds of thousands of times per
simulation), so both implementations walk the candidate lines with a plain
loop instead of ``min(..., key=lambda ...)`` — the per-line key-function
call is the dominant cost at this call rate.

Note: :class:`repro.memory.cache.Cache` applies the recency rules
(``on_hit``/``on_fill``) inline — they are identical across both
registered policies — and special-cases both policies' victim selection
against its recency-ordered sets.  The methods here remain the reference
specification of those rules (the tests exercise them directly); the
cache never calls them.  The registry is deliberately closed to the two
entries below, so every name the cache and the flat kernels accept has
an inline path, and :func:`make_replacement_policy` rejects any other.
"""


class LruPolicy:
    """Least-recently-used victim selection over a set's lines."""

    name = "lru"

    def victim(self, lines):
        """Pick the victim line from ``lines`` (a non-empty iterable)."""
        best = None
        best_touch = None
        for line in lines:
            touch = line.last_touch
            if best is None or touch < best_touch:
                best = line
                best_touch = touch
        return best

    def on_fill(self, line, tick, low_priority):
        if low_priority:
            # Insert near LRU: the line is the first candidate for eviction
            # unless it gets demanded before any other fill arrives.
            line.last_touch = -tick if tick else -1
        else:
            line.last_touch = tick

    def on_hit(self, line, tick):
        line.last_touch = tick


class PrefetchAwareDeadBlock(LruPolicy):
    """Prefetch-aware dead-block replacement (LLC).

    A prefetched line that was never demanded is predicted dead and is
    evicted before any live line; among multiple dead candidates the oldest
    goes first.  Falls back to plain LRU when no dead line exists.
    """

    name = "pf-dead-block"

    def victim(self, lines):
        best = None
        best_touch = None
        dead = None
        dead_touch = None
        for line in lines:
            touch = line.last_touch
            if line.prefetched and not line.used:
                if dead is None or touch < dead_touch:
                    dead = line
                    dead_touch = touch
            elif dead is None and (best is None or touch < best_touch):
                best = line
                best_touch = touch
        return dead if dead is not None else best


_POLICIES = {
    LruPolicy.name: LruPolicy,
    PrefetchAwareDeadBlock.name: PrefetchAwareDeadBlock,
}


def make_replacement_policy(name):
    """Instantiate a replacement policy by its registered name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise ValueError(f"unknown replacement policy {name!r} (known: {known})") from None
