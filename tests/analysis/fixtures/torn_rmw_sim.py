"""A deliberately torn read-modify-write, caught statically and dynamically.

``_alpha`` runs ``ROUNDS`` iterations of *read the shared counter,
yield for zero time, write back the stale local plus one*; ``_beta``
increments the counter freshly each round.  Everything happens at t=0,
so the interleaving is decided purely by the kernel's same-instant
tie-break — and every one of ``_beta``'s increments that lands inside
``_alpha``'s read/yield/write window is silently overwritten by the
stale value.  How many survive, and therefore the final count, depends
on the tie-break order alone.

``repro lint --flow`` flags the pattern as REP015 (and the two writers
as REP014); ``repro sanitize --vary tiebreak`` sees the final count
diverge (9 under FIFO order, 11 under tie-break seed 1, 16 under seed
2) and names it in the first divergence.
"""

ROUNDS = 8


class TornCounter:
    def __init__(self, env):
        self.env = env
        self.count = 0

    def start(self):
        self.env.process(self._alpha())
        self.env.process(self._beta())

    def _alpha(self):
        for _ in range(ROUNDS):
            v = self.count
            yield self.env.timeout(0.0)
            self.count = v + 1

    def _beta(self):
        for _ in range(ROUNDS):
            yield self.env.timeout(0.0)
            self.count = self.count + 1
